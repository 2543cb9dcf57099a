"""Exact reference solvers by exhaustive enumeration.

Desk-scale ground truth for testing the fast solvers: enumerate every
integral villager placement (or, in the villager-specific variant, every
villager-to-target assignment), and for each one find the most ranger effort
that can sit on the candidate attacked target while the continuous remainder
still covers every other target's minimum coverage. Divisible effort makes
that residual fill exact, so the enumeration maximum is the true optimum.

``solve_oracle`` takes any ``Instance``, whose villager effectiveness may be
a scalar or vary per target. The villager-specific variant is a different
model, in which each individual villager has their own effectiveness
wherever they stand, so it keeps its own instance type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .feasibility import _min_coverage_vec
from .model import (
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    best_response,
    evaluate_profile,
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
        if np.any(e_v <= 0) or np.any(e_v > 1):
            raise GameDefinitionError("villager effectiveness must lie in (0, 1]")
        e_v.setflags(write=False)
        object.__setattr__(self, "e_v", e_v)

    @property
    def n(self) -> int:
        return self.base.n


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


def _max_consistent_effort(instance, villager_coverage: np.ndarray, i_star: int):
    """Largest p on i_star whose residual ranger fill stays within budget.

    Returns (p_star, residual coverage vector) or None when even p = 0 fails.
    Feasibility is monotone in p (more effort on i_star lowers its utility,
    raising every other minimum coverage, while shrinking the remainder), so
    bisection applies.
    """
    reward = instance.reward_att
    penalty = instance.penalty_att
    e_p = instance.e_p
    r_p = float(instance.ranger_budget)
    c_v_star = float(villager_coverage[i_star])
    others = np.arange(instance.n) != i_star

    def residual_fill(p_star: float) -> Optional[np.ndarray]:
        c_star = min(e_p * p_star + c_v_star, 1.0)
        u = float(reward[i_star] * (1.0 - c_star) + penalty[i_star] * c_star)
        c_min, achievable = _min_coverage_vec(reward, penalty, u)
        if not achievable[others].all():
            return None
        need = np.maximum(c_min - villager_coverage, 0.0)
        need[i_star] = 0.0
        if float(need.sum()) > (r_p - p_star) * e_p + _FILL_SLACK:
            return None
        return need

    need = residual_fill(0.0)
    if need is None:
        return None
    best_p, best_need = 0.0, need
    need = residual_fill(r_p)
    if need is not None:
        return r_p, need
    lo, hi = 0.0, r_p
    while hi - lo > _BISECT_TOL:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break  # interval narrower than one float step
        need = residual_fill(mid)
        if need is None:
            hi = mid
        else:
            lo = mid
            best_p, best_need = mid, need
    return best_p, best_need


def _profile_from(instance, i_star: int, p_star: float, need: np.ndarray, v: np.ndarray):
    effort = need / instance.e_p
    effort[i_star] = 0.0
    remaining = max(instance.ranger_budget - p_star, 0.0)
    total = float(effort.sum())
    if total > remaining and total > 0.0:
        effort *= remaining / total  # trim tolerance slack back into budget
    effort[i_star] = p_star
    return StrategyProfile(effort, v)


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
    best: Optional[SolveResult] = None
    for placement in _placements(n, r_v):
        v = np.asarray(placement, dtype=np.int64)
        villager_coverage = e_v * v
        for i_star in range(n):
            found = _max_consistent_effort(instance, villager_coverage, i_star)
            if found is None:
                continue
            p_star, need = found
            result = evaluate_profile(
                instance, _profile_from(instance, i_star, p_star, need, v)
            )
            if best is None or result.defender_utility > best.defender_utility:
                best = result
    if best is None:
        raise RuntimeError("no placement admits a best response; this is a bug")
    return SolveResult(
        profile=best.profile,
        attacked=best.attacked,
        defender_utility=best.defender_utility,
        attacker_utility=best.attacker_utility,
        diagnostics={"placements": count},
    )


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

    best_result: Optional[SolveResult] = None
    best_assignment: Tuple[int, ...] = ()
    for assignment in itertools.product(range(n), repeat=r_v):
        villager_coverage = np.zeros(n)
        np.add.at(villager_coverage, list(assignment), vs.e_v)
        v = np.bincount(np.asarray(assignment, dtype=np.int64), minlength=n)
        for i_star in range(n):
            found = _max_consistent_effort(instance, villager_coverage, i_star)
            if found is None:
                continue
            p_star, need = found
            profile = _profile_from(instance, i_star, p_star, need, v)
            coverage = np.minimum(instance.e_p * profile.p + villager_coverage, 1.0)
            response = best_response(instance, coverage)
            if best_result is None or response.defender_utility > best_result.defender_utility:
                best_result = SolveResult(
                    profile=profile,
                    attacked=response.target,
                    defender_utility=response.defender_utility,
                    attacker_utility=response.attacker_utility,
                )
                best_assignment = assignment
    if best_result is None:
        raise RuntimeError("no assignment admits a best response; this is a bug")
    return VillagerSpecificResult(
        profile=best_result.profile,
        attacked=best_result.attacked,
        defender_utility=best_result.defender_utility,
        attacker_utility=best_result.attacker_utility,
        diagnostics={"assignments": count},
        assignment=best_assignment,
    )
