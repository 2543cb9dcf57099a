"""Game definition, coverage/utility arithmetic, and attacker best response.

A game instance has two kinds of patrol resources: divisible ranger effort
(a budget that may be spread fractionally over targets) and indivisible
villagers (each pinned to a single target). The attacker observes the
allocation and attacks the target with the highest expected utility,
breaking ties in the defender's favour. ``tied_defender_utilities`` is the
one home of that rule: ``best_response`` applies it to one coverage vector,
and ``first_best``, the winner rule of both solvers, to a block of
completed profiles at once.

Tolerances: the library has one relative constant, ``REL_TOL``, and every
slack is derived from it and the instance's own scale, so results do not
change when all payoffs are multiplied by a constant:

- utilities compare within ``Instance.tol = REL_TOL * max|payoff|`` (the
  best-response tie here, and the waterfilling level tests);
- ranger effort compares within ``REL_TOL * ranger_budget``;
- coverage and villager counts are unitless and compare within a multiple
  of ``REL_TOL`` itself (see ``feasibility``).

``Instance`` rejects what no solver can compute with: non-finite payoffs or
payoff spreads (reward - penalty), attacker spreads so small that the sum
of their inverses (the waterfill pour's total width) overflows, and a
ranger or villager effectiveness below the smallest normal float, whose
inverse overflows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, List, Union

import numpy as np

# The one tolerance constant; every slack is this times the scale of what it
# compares (see the module docstring).
REL_TOL = 1e-9

_PAYOFFS = ("reward_def", "penalty_def", "reward_att", "penalty_att")

# 2**63 as a float: float counts below it in magnitude fit an int64.
_INT64_END = 2.0**63


class GameDefinitionError(ValueError):
    """Raised when an instance, query, or argument is structurally invalid."""


class ProfileValidationError(ValueError):
    """Raised when a strategy profile violates the resource constraints."""

    def __init__(self, violations: List[str]):
        super().__init__("invalid strategy profile: " + "; ".join(violations))
        self.violations = list(violations)


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``dtype``.

    An array that already is one, and owns its data, is returned as it is,
    so instances made by ``dataclasses.replace`` share their vectors.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and values.ndim == 1
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise GameDefinitionError("expected a vector of real numbers") from None
    if arr.ndim != 1:
        raise GameDefinitionError("expected a 1-D vector, got shape %s" % (arr.shape,))
    arr.setflags(write=False)
    return arr


def _finite(value, what: str) -> float:
    """``value`` as a float; GameDefinitionError unless it is a finite real."""
    try:
        if isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise GameDefinitionError("%s must be a finite real number" % what)


def _resolution(epsilon) -> float:
    """``epsilon`` as a float; GameDefinitionError unless it is a finite
    positive real, as a search resolution must be."""
    epsilon = _finite(epsilon, "epsilon")
    if not epsilon > 0:
        raise GameDefinitionError("epsilon must be positive")
    return epsilon


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Instance:
    """One game: budgets, effectiveness, and per-target payoff vectors.

    Rewards are earned on the favourable outcome (defended for the defender,
    undefended for the attacker); penalties on the other one. Sign conventions:
    reward vectors are >= 0, penalty vectors are <= 0. Villager effectiveness
    ``e_v`` is a scalar or a read-only per-target vector (terrain can make a
    villager more effective on some targets than on others).

    ``tol`` and ``spread_att`` are derived, not set: the utility slack
    ``REL_TOL * max|payoff|`` over the four payoff vectors, and the read-only
    per-target attacker payoff spread R_a - P_a (>= 0).
    """

    ranger_budget: float
    villager_budget: int
    e_p: float
    e_v: Union[float, np.ndarray]  # scalar, or one entry per target
    reward_def: np.ndarray
    penalty_def: np.ndarray
    reward_att: np.ndarray
    penalty_att: np.ndarray
    tol: float = field(init=False, repr=False)
    spread_att: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in _PAYOFFS:
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))
        n = self.reward_def.shape[0]
        if n == 0:
            raise GameDefinitionError("instance needs at least one target")
        for name in _PAYOFFS:
            if getattr(self, name).shape[0] != n:
                raise GameDefinitionError("payoff vectors disagree on target count")
            if not np.all(np.isfinite(getattr(self, name))):
                raise GameDefinitionError("payoffs must be finite")
        if np.any(self.reward_def < 0) or np.any(self.reward_att < 0):
            raise GameDefinitionError("rewards must be nonnegative")
        if np.any(self.penalty_def > 0) or np.any(self.penalty_att > 0):
            raise GameDefinitionError("penalties must be nonpositive")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            spread = self.reward_att - self.penalty_att
            spread_def = self.reward_def - self.penalty_def
        if not (np.all(np.isfinite(spread)) and np.all(np.isfinite(spread_def))):
            raise GameDefinitionError("every payoff spread (reward - penalty) must be finite")
        with np.errstate(over="ignore"):  # the waterfill pour's total width; inf is rejected
            width = np.sum(1.0 / spread[spread > 0])
        if not np.isfinite(width):
            raise GameDefinitionError("attacker payoff spreads too small: 1 / (R_a - P_a) sums to inf")
        object.__setattr__(self, "e_p", _finite(self.e_p, "ranger effectiveness"))
        if not (0.0 < self.e_p <= 1.0):
            raise GameDefinitionError("ranger effectiveness must lie in (0, 1]")
        if self.e_p < np.finfo(float).tiny:  # 1 / e_p would overflow
            raise GameDefinitionError("ranger effectiveness must not be subnormal")
        if np.ndim(self.e_v) == 0:
            object.__setattr__(self, "e_v", _finite(self.e_v, "villager effectiveness"))
        else:
            object.__setattr__(self, "e_v", _frozen_array(self.e_v, float))
            if self.e_v.shape[0] != n:
                raise GameDefinitionError("per-target e_v must have one entry per target")
        if not np.all((0.0 < self.e_v) & (self.e_v <= 1.0)):
            raise GameDefinitionError("villager effectiveness must lie in (0, 1]")
        if np.any(self.e_v < np.finfo(float).tiny):  # 1 / e_v would overflow
            raise GameDefinitionError("villager effectiveness must not be subnormal")
        object.__setattr__(self, "ranger_budget", _finite(self.ranger_budget, "ranger budget"))
        if self.ranger_budget < 0:
            raise GameDefinitionError("ranger budget must be a nonnegative real")
        villagers = self.villager_budget  # range first: int() raises on inf and nan
        if not (isinstance(villagers, numbers.Real) and 0 <= villagers <= np.iinfo(np.int64).max):
            raise GameDefinitionError("villager budget must be a nonnegative 64-bit integer")
        if int(villagers) != villagers:
            raise GameDefinitionError("villager budget must be a nonnegative integer")
        object.__setattr__(self, "villager_budget", int(villagers))
        scale = max(float(np.abs(getattr(self, name)).max()) for name in _PAYOFFS)
        object.__setattr__(self, "tol", REL_TOL * scale)
        spread.setflags(write=False)
        object.__setattr__(self, "spread_att", spread)

    @property
    def n(self) -> int:
        return self.reward_def.shape[0]


@dataclass(frozen=True, slots=True)
class StrategyProfile:
    """Ranger effort vector (continuous) plus villager count vector (integral)."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p, float))
        v = np.array(self.v)
        if v.ndim != 1:
            raise GameDefinitionError("villager vector must be 1-D")
        if v.dtype.kind in "bi":
            v = v.astype(np.int64)
        else:
            # Keep counts that are not whole, or too large for an int64, as
            # floats so validate_profile can report them.
            v = v.astype(float)
            if v.size and np.all(np.abs(v) < _INT64_END) and np.all(v == np.floor(v)):
                v = v.astype(np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class BestResponse:
    """Attacker's chosen target and the utilities realised there."""

    target: int
    attacker_utility: float
    defender_utility: float


@dataclass(frozen=True, slots=True)
class SolveResult:
    """A solver's answer: the profile, the attacked target, and utilities.

    ``defender_utility``/``attacker_utility`` always come from
    :func:`evaluate_profile` on ``profile`` (same arithmetic path), so a
    result can be re-checked by re-evaluating it.
    """

    profile: StrategyProfile
    attacked: int
    defender_utility: float
    attacker_utility: float
    diagnostics: Dict[str, int] = field(default_factory=dict)


def _check_shape(instance, profile: StrategyProfile) -> None:
    """GameDefinitionError unless ``profile`` has one entry per target."""
    if profile.p.shape[0] != instance.n or profile.v.shape[0] != instance.n:
        raise GameDefinitionError(
            "profile has %d/%d entries for %d targets"
            % (profile.p.shape[0], profile.v.shape[0], instance.n)
        )


def compute_coverage(instance, profile: StrategyProfile) -> np.ndarray:
    """Per-target coverage min(e_p * p_i + e_v * v_i, 1).

    ``instance.e_v`` may be a scalar or a per-target vector; both broadcast.
    """
    _check_shape(instance, profile)
    return coverage_of(instance, profile.p, profile.v)


def coverage_of(instance, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``compute_coverage`` of the effort ``p`` and villagers ``v``, unchecked."""
    return np.minimum(instance.e_p * p + np.asarray(instance.e_v) * v, 1.0)


def utilities_of(instance, coverage, i):
    """(defender, attacker) utility on target ``i`` at ``coverage`` c, unchecked.

    (R_d * c + P_d * (1 - c), R_a * (1 - c) + P_a * c). ``coverage`` and
    the target index ``i`` may each be a number or an array (``i`` also a
    slice); they broadcast, and the utilities are arrays then.
    """
    u_d = instance.reward_def[i] * coverage + instance.penalty_def[i] * (1.0 - coverage)
    u_a = instance.reward_att[i] * (1.0 - coverage) + instance.penalty_att[i] * coverage
    return u_d, u_a


def attacker_utilities(instance, coverage: np.ndarray) -> np.ndarray:
    """Vector of attacker expected utilities R_a * (1 - c) + P_a * c."""
    return utilities_of(instance, coverage, slice(None))[1]


def tied_defender_utilities(instance, coverage: np.ndarray) -> np.ndarray:
    """Each target's defender utility where the attacker may attack it, -inf elsewhere.

    The attacker may attack any target whose utility is within
    ``instance.tol`` of its best; among those it breaks ties in the
    defender's favour, so each row's maximum is the defender utility of its
    best response. ``coverage`` is one coverage vector or a block of them,
    one row per profile.
    """
    u_d, u_a = utilities_of(instance, coverage, slice(None))
    u_d[u_a < u_a.max(axis=-1, keepdims=True) - instance.tol] = -np.inf
    return u_d


def first_best(instance, blocks, diagnostics) -> SolveResult:
    """Both solvers' winner rule: the best of their completed profiles, ties to the lowest target.

    ``blocks`` yields ``(targets, p, v)`` blocks, one profile per row of
    efforts and of villager counts, each completing the candidate target of
    its entry in ``targets``; the blocks may come in any order. Each row
    scores the defender utility of its best response
    (``tied_defender_utilities``), and the best row wins, ties to the
    lowest target. Returns ``evaluate_profile`` of the winner with
    ``diagnostics``, the solver's counters, as a dict once every block is
    in; RuntimeError if no row arrives, as every solve completes at least
    one candidate.
    """
    best_key, best = None, None
    for targets, p, v in blocks:
        if not len(p):
            continue
        utilities = tied_defender_utilities(instance, coverage_of(instance, p, v)).max(axis=1)
        k = np.lexsort((targets, -utilities))[0]  # the block's best row, ties to the lowest target
        key = (utilities[k], -targets[k])
        if best is None or key > best_key:
            best_key, best = key, StrategyProfile(p[k], v[k])
    if best is None:
        raise RuntimeError("no candidate target was completed; this is a bug")
    return replace(evaluate_profile(instance, best), diagnostics=dict(diagnostics))


def best_response(instance, coverage: np.ndarray) -> BestResponse:
    """Attacker's target choice for a coverage vector.

    The defender's best target among the attacker's tied set
    (``tied_defender_utilities``); remaining ties go to the lowest target
    index.
    """
    target = int(np.argmax(tied_defender_utilities(instance, coverage)))
    u_d, u_a = utilities_of(instance, coverage[target], target)
    return BestResponse(
        target=target,
        attacker_utility=float(u_a),
        defender_utility=float(u_d),
    )


def validate_profile(instance, profile: StrategyProfile) -> List[str]:
    """List of violated profile constraints; empty means the profile is valid."""
    _check_shape(instance, profile)
    violations = []
    if not np.all(np.isfinite(profile.p)):
        violations.append("non-finite ranger effort")
    if np.any(profile.p < 0):
        violations.append("negative ranger effort")
    v = profile.v
    if np.any(v < 0):
        violations.append("negative villager count")
    whole = np.issubdtype(v.dtype, np.integer)
    if not whole and not np.all(np.isfinite(v) & (v == np.floor(v))):
        violations.append("non-integral villager count")
    budget = instance.ranger_budget * (1.0 + REL_TOL)
    if np.all(np.isfinite(profile.p)) and profile.p.sum() > budget:
        violations.append("ranger budget exceeded")
    if whole:
        over = sum(v.tolist()) > instance.villager_budget  # exact, where an int64 sum can wrap
    else:  # whole float counts are past int64 (StrategyProfile), so past any budget
        over = bool(np.any(v >= _INT64_END))
    if over:
        violations.append("villager budget exceeded")
    return violations


def evaluate_profile(instance, profile: StrategyProfile) -> SolveResult:
    """Coverage, best response, and utilities for a valid profile.

    Raises ProfileValidationError listing the violated constraints otherwise.
    """
    violations = validate_profile(instance, profile)
    if violations:
        raise ProfileValidationError(violations)
    coverage = compute_coverage(instance, profile)
    response = best_response(instance, coverage)
    return SolveResult(
        profile=profile,
        attacked=response.target,
        defender_utility=response.defender_utility,
        attacker_utility=response.attacker_utility,
        diagnostics={},
    )
