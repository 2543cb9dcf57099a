"""Game definition, coverage/utility arithmetic, and attacker best response.

A game instance has two kinds of patrol resources: divisible ranger effort
(a budget that may be spread fractionally over targets) and indivisible
villagers (each pinned to a single target). The attacker observes the
allocation and attacks the target with the highest expected utility,
breaking ties in the defender's favour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

# Absolute slack allowed on the continuous ranger budget (solver outputs
# accumulate rounding).
BUDGET_TOL = 1e-9

# Absolute tolerance for attacker-utility ties in the best response.
TIE_TOL = 1e-9


class GameDefinitionError(ValueError):
    """Raised when an instance, query, or argument is structurally invalid."""


class ProfileValidationError(ValueError):
    """Raised when a strategy profile violates the resource constraints."""

    def __init__(self, violations: List[str]):
        super().__init__("invalid strategy profile: " + "; ".join(violations))
        self.violations = list(violations)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise GameDefinitionError("expected a 1-D vector, got shape %s" % (arr.shape,))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Instance:
    """One game: budgets, effectiveness, and per-target payoff vectors.

    Rewards are earned on the favourable outcome (defended for the defender,
    undefended for the attacker); penalties on the other one. Sign conventions:
    reward vectors are >= 0, penalty vectors are <= 0. Villager effectiveness
    ``e_v`` is a scalar or a read-only per-target vector (terrain can make a
    villager more effective on some targets than on others).
    """

    ranger_budget: float
    villager_budget: int
    e_p: float
    e_v: Union[float, np.ndarray]  # scalar, or one entry per target
    reward_def: np.ndarray
    penalty_def: np.ndarray
    reward_att: np.ndarray
    penalty_att: np.ndarray

    def __post_init__(self):
        for name in ("reward_def", "penalty_def", "reward_att", "penalty_att"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))
        n = self.reward_def.shape[0]
        if n == 0:
            raise GameDefinitionError("instance needs at least one target")
        for name in ("reward_def", "penalty_def", "reward_att", "penalty_att"):
            if getattr(self, name).shape[0] != n:
                raise GameDefinitionError("payoff vectors disagree on target count")
            if not np.all(np.isfinite(getattr(self, name))):
                raise GameDefinitionError("payoffs must be finite")
        if np.any(self.reward_def < 0) or np.any(self.reward_att < 0):
            raise GameDefinitionError("rewards must be nonnegative")
        if np.any(self.penalty_def > 0) or np.any(self.penalty_att > 0):
            raise GameDefinitionError("penalties must be nonpositive")
        if not (0.0 < self.e_p <= 1.0):
            raise GameDefinitionError("ranger effectiveness must lie in (0, 1]")
        if np.ndim(self.e_v) == 0:
            object.__setattr__(self, "e_v", float(self.e_v))
        else:
            object.__setattr__(self, "e_v", _frozen_array(self.e_v, float))
            if self.e_v.shape[0] != n:
                raise GameDefinitionError("per-target e_v must have one entry per target")
        if not np.all((0.0 < self.e_v) & (self.e_v <= 1.0)):
            raise GameDefinitionError("villager effectiveness must lie in (0, 1]")
        if not (np.isfinite(self.ranger_budget) and self.ranger_budget >= 0):
            raise GameDefinitionError("ranger budget must be a nonnegative real")
        if self.villager_budget < 0 or int(self.villager_budget) != self.villager_budget:
            raise GameDefinitionError("villager budget must be a nonnegative integer")
        object.__setattr__(self, "villager_budget", int(self.villager_budget))

    @property
    def n(self) -> int:
        return self.reward_def.shape[0]

    @property
    def spread_att(self) -> np.ndarray:
        """Per-target attacker payoff spread R_a - P_a (>= 0)."""
        return self.reward_att - self.penalty_att


@dataclass(frozen=True)
class StrategyProfile:
    """Ranger effort vector (continuous) plus villager count vector (integral)."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p, float))
        v = np.array(self.v)
        if v.ndim != 1:
            raise GameDefinitionError("villager vector must be 1-D")
        # Keep non-integral counts as floats so validate_profile can report them.
        if v.size and np.all(np.isfinite(v.astype(float))) and np.all(v == np.floor(v)):
            v = v.astype(np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, n: int) -> "StrategyProfile":
        return cls(np.zeros(n), np.zeros(n, dtype=np.int64))


@dataclass(frozen=True)
class BestResponse:
    """Attacker's chosen target and the utilities realised there."""

    target: int
    attacker_utility: float
    defender_utility: float


@dataclass(frozen=True)
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


def compute_coverage(instance, profile: StrategyProfile) -> np.ndarray:
    """Per-target coverage min(e_p * p_i + e_v * v_i, 1).

    ``instance.e_v`` may be a scalar or a per-target vector; both broadcast.
    """
    if profile.p.shape[0] != instance.n or profile.v.shape[0] != instance.n:
        raise GameDefinitionError(
            "profile has %d/%d entries for %d targets"
            % (profile.p.shape[0], profile.v.shape[0], instance.n)
        )
    raw = instance.e_p * profile.p + np.asarray(instance.e_v) * profile.v
    return np.minimum(raw, 1.0)


def attacker_utilities(instance, coverage: np.ndarray) -> np.ndarray:
    """Vector of attacker expected utilities R_a * (1 - c) + P_a * c."""
    return instance.reward_att * (1.0 - coverage) + instance.penalty_att * coverage


def defender_utilities(instance, coverage: np.ndarray) -> np.ndarray:
    """Vector of defender expected utilities R_d * c + P_d * (1 - c)."""
    return instance.reward_def * coverage + instance.penalty_def * (1.0 - coverage)


def target_utilities(instance, c_i: float, i: int) -> Tuple[float, float]:
    """(defender, attacker) expected utility on target ``i`` at coverage ``c_i``."""
    if not 0.0 <= c_i <= 1.0:
        raise GameDefinitionError("coverage %r outside [0, 1]" % (c_i,))
    u_d = instance.reward_def[i] * c_i + instance.penalty_def[i] * (1.0 - c_i)
    u_a = instance.reward_att[i] * (1.0 - c_i) + instance.penalty_att[i] * c_i
    return float(u_d), float(u_a)


def best_response(instance, coverage: np.ndarray) -> BestResponse:
    """Attacker's target choice for a coverage vector.

    Argmax of attacker utility; ties within TIE_TOL are broken in the
    defender's favour, remaining ties by lowest target index.
    """
    u_a = attacker_utilities(instance, coverage)
    u_d = defender_utilities(instance, coverage)
    tied = np.flatnonzero(u_a >= u_a.max() - TIE_TOL)
    target = int(tied[np.argmax(u_d[tied])])
    return BestResponse(
        target=target,
        attacker_utility=float(u_a[target]),
        defender_utility=float(u_d[target]),
    )


def validate_profile(instance, profile: StrategyProfile) -> List[str]:
    """List of violated profile constraints; empty means the profile is valid."""
    if profile.p.shape[0] != instance.n or profile.v.shape[0] != instance.n:
        raise GameDefinitionError(
            "profile has %d/%d entries for %d targets"
            % (profile.p.shape[0], profile.v.shape[0], instance.n)
        )
    violations = []
    if not np.all(np.isfinite(profile.p)):
        violations.append("non-finite ranger effort")
    if np.any(profile.p < 0):
        violations.append("negative ranger effort")
    if np.any(profile.v < 0):
        violations.append("negative villager count")
    if not np.issubdtype(profile.v.dtype, np.integer):
        violations.append("non-integral villager count")
    if np.all(np.isfinite(profile.p)) and profile.p.sum() > instance.ranger_budget + BUDGET_TOL:
        violations.append("ranger budget exceeded")
    if np.issubdtype(profile.v.dtype, np.integer) and profile.v.sum() > instance.villager_budget:
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
