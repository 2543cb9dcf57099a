"""Exact reference solvers by exhaustive enumeration.

Desk-scale ground truth for testing the fast solvers: enumerate every
villager fill, and for each one and each candidate attacked target find the
most ranger effort that can sit on that target while the continuous
remainder still covers every other target's minimum coverage. Divisible
effort makes that residual fill exact, so the enumeration maximum is the
true optimum.

Both oracles share that loop (``_best_fill``) and differ only in their
fills. ``solve_oracle`` takes any ``Instance``, whose villager
effectiveness may be a scalar or vary per target, and enumerates integral
villager placements. The villager-specific variant is a different model, in
which each individual villager has their own effectiveness wherever they
stand, so it keeps its own instance type and enumerates villager-to-target
assignments. Every completed profile is validated, and scored by the
attacker's best response on the coverage its fill gives.

The oracle is the reference the library's tolerance policy (``model``) is
tested against, so it keeps two tolerances of its own, both far tighter
than the policy's: ``_BISECT_TOL`` on the effort bisection and
``_FILL_SLACK`` on the residual-fill comparison. Its best response and
attacker-floor test are the library's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .feasibility import _floor_of_others, _min_coverage
from .model import (
    GameDefinitionError,
    Instance,
    ProfileValidationError,
    SolveResult,
    StrategyProfile,
    best_response,
    evaluate_profile,
    utilities_of,
    validate_profile,
)

# Refuse rather than truncate beyond this many enumerated placements.
ENUMERATION_CAP = 10**6

_BISECT_TOL = 1e-12

# Slack for the residual-fill comparison: large enough to absorb round-trip
# rounding on exact ties, small enough that trimming a slack-built profile
# back into budget shifts utilities by far less than the tie tolerance.
_FILL_SLACK = 1e-12


class EnumerationLimitError(RuntimeError):
    """The instance is too large to enumerate; use the polynomial solvers."""


@dataclass(frozen=True)
class VillagerSpecificInstance:
    """Instance variant where each individual villager has their own effectiveness."""

    base: Instance
    e_v: np.ndarray

    def __post_init__(self):
        e_v = np.array(self.e_v, dtype=float)
        if e_v.ndim != 1 or e_v.shape[0] != self.base.villager_budget:
            raise GameDefinitionError("need one effectiveness entry per villager")
        if not np.all((0 < e_v) & (e_v <= 1)):  # also rejects NaN
            raise GameDefinitionError("villager effectiveness must lie in (0, 1]")
        e_v.setflags(write=False)
        object.__setattr__(self, "e_v", e_v)


@dataclass(frozen=True)
class VillagerSpecificResult(SolveResult):
    """Solve result carrying the per-villager target assignment."""

    assignment: Tuple[int, ...] = ()


def _placements(n: int, budget: int) -> Iterator[Tuple[int, ...]]:
    """All length-n nonnegative integer vectors with sum <= budget."""
    if n == 0:
        yield ()
        return
    for count in range(budget + 1):
        for rest in _placements(n - 1, budget - count):
            yield (count,) + rest


def _completion(instance, v: np.ndarray, villager_coverage: np.ndarray, i_star: int):
    """The profile with villagers ``v`` and the most ranger effort on ``i_star``.

    That effort is the largest whose residual fill, the effort every other
    target needs to keep the attacker's utility there at most that on
    ``i_star``, stays within the budget. Feasibility is monotone in it (more
    effort lowers the utility on ``i_star``, raising every other minimum
    coverage, while shrinking the remainder), so bisection applies. None
    when even no effort on ``i_star`` is feasible.
    """
    e_p, r_p = instance.e_p, instance.ranger_budget
    c_v_star = float(villager_coverage[i_star])
    floor = _floor_of_others(instance)[i_star]

    def residual_fill(p: float) -> Optional[np.ndarray]:
        c_star = min(e_p * p + c_v_star, 1.0)
        u = float(utilities_of(instance, c_star, i_star)[1])
        if not u >= floor:
            return None
        need = np.maximum(_min_coverage(instance, u) - villager_coverage, 0.0)
        need[i_star] = 0.0
        if float(need.sum()) > (r_p - p) * e_p + _FILL_SLACK:
            return None
        return need

    p_star, need = 0.0, residual_fill(0.0)
    if need is None:
        return None
    lo, hi, mid = 0.0, r_p, r_p  # the whole budget first, then bisect
    while True:
        found = residual_fill(mid)
        if found is None:
            hi = mid
        else:
            lo = p_star = mid
            need = found
        mid = lo / 2.0 + hi / 2.0  # halves first: lo + hi can overflow
        if not hi - lo > _BISECT_TOL or mid == lo or mid == hi:
            break  # within tolerance, or narrower than one float step
    effort = need / e_p
    remaining = max(r_p - p_star, 0.0)
    total = float(effort.sum())
    if total > remaining and total > 0.0:
        effort *= remaining / total  # trim tolerance slack back into budget
    effort[i_star] = p_star
    return StrategyProfile(effort, v)


def _best_fill(instance, fills: Iterable[Tuple[object, np.ndarray, np.ndarray]]):
    """The best completion over every villager fill and attacked target.

    ``fills`` yields ``(key, v, villager_coverage)``: a fill's label, its
    villager counts and the coverage its villagers give. Every completion is
    validated and scored by the attacker's best response on
    ``min(e_p * p + villager_coverage, 1)``; the first best wins, so
    ``fills`` order decides exact ties. Returns (key, profile, response).
    """
    best = None
    for key, v, villager_coverage in fills:
        for i_star in range(instance.n):
            profile = _completion(instance, v, villager_coverage, i_star)
            if profile is None:
                continue
            violations = validate_profile(instance, profile)
            if violations:
                raise ProfileValidationError(violations)
            coverage = np.minimum(instance.e_p * profile.p + villager_coverage, 1.0)
            response = best_response(instance, coverage)
            if best is None or response.defender_utility > best[2].defender_utility:
                best = key, profile, response
    if best is None:
        raise RuntimeError("no villager fill admits a best response; this is a bug")
    return best


def solve_oracle(instance, cap: int = ENUMERATION_CAP) -> SolveResult:
    """Exact optimum by enumerating every villager placement.

    Works for a scalar and for a per-target villager effectiveness.
    Refuses (EnumerationLimitError) when the placement count exceeds ``cap``.
    """
    n, r_v = instance.n, instance.villager_budget
    count = math.comb(n + r_v, r_v)
    if count > cap:
        raise EnumerationLimitError(
            "%d placements exceed the cap of %d; use solve_hw instead" % (count, cap)
        )
    e_v = np.asarray(instance.e_v)

    def fills():
        for placement in _placements(n, r_v):
            v = np.asarray(placement, dtype=np.int64)
            yield placement, v, e_v * v

    _, profile, _ = _best_fill(instance, fills())
    return replace(evaluate_profile(instance, profile), diagnostics={"placements": count})


def solve_oracle_villager_specific(
    vs: VillagerSpecificInstance, cap: int = ENUMERATION_CAP
) -> VillagerSpecificResult:
    """Exact optimum over all villager-to-target assignments (n ** r_v of them).

    The variant is NP-hard, so exhaustive assignment enumeration is the only
    exact route; utilities are computed from the assignment's coverage
    directly since per-villager effectiveness has no count-vector profile.
    """
    instance = vs.base
    n, r_v = instance.n, instance.villager_budget
    count = n**r_v
    if count > cap:
        raise EnumerationLimitError("%d assignments exceed the cap of %d" % (count, cap))

    def fills():
        for assignment in itertools.product(range(n), repeat=r_v):
            villager_coverage = np.zeros(n)
            np.add.at(villager_coverage, list(assignment), vs.e_v)
            v = np.bincount(np.asarray(assignment, dtype=np.int64), minlength=n)
            yield assignment, v, villager_coverage

    assignment, profile, response = _best_fill(instance, fills())
    return VillagerSpecificResult(
        profile=profile,
        attacked=response.target,
        defender_utility=response.defender_utility,
        attacker_utility=response.attacker_utility,
        diagnostics={"assignments": count},
        assignment=assignment,
    )
