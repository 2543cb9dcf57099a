"""Consistency checks: can a fixed allocation on one target be completed?

Given a candidate attacked target and fixed resources on it, decide whether
the remaining rangers and villagers can cover every other target well enough
that the candidate stays an attacker best response, and produce a witness
profile when they can. Villagers are placed greedily, each where it covers
the most still-needed coverage; rangers fill whatever coverage remains.
Villager effectiveness may be a scalar or vary per target.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import (
    BUDGET_TOL,
    GameDefinitionError,
    Instance,
    StrategyProfile,
)

# Slack on coverage-sum comparisons and attacker-floor checks; binary-search
# callers probe exactly at the feasibility boundary.
FEAS_TOL = 1e-9

# Nudge before flooring c_min / e_v so exact multiples don't round down.
_COUNT_EPS = 1e-9


@dataclass(frozen=True)
class FeasibilityQuery:
    """Fixed allocation on a candidate attacked target."""

    i_star: int
    p_star: float = 0.0
    v_star: int = 0


@dataclass(frozen=True)
class FeasibilityAnswer:
    feasible: bool
    witness: Optional[StrategyProfile]


def TargetSpecificInstance(base: Instance, e_v) -> Instance:
    """``base`` with a per-target villager effectiveness ``e_v``.

    Kept under the name of the former wrapper class because
    ``perfbench/workloads.py`` builds its per-target instances through it,
    and the benchmark must run unchanged against older and newer versions of
    the library. New code passes the vector to ``Instance`` directly.
    """
    return dataclasses.replace(base, e_v=e_v)


def _min_coverage_vec(
    reward_att: np.ndarray, penalty_att: np.ndarray, u: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-target minimum coverage forcing attacker utility down to <= u.

    Returns (c_min, achievable). Where the payoff spread is zero (reward and
    penalty both zero by the sign constraints) the utility is 0 at any
    coverage, so c_min is 0 and u < 0 is unachievable.
    """
    spread = reward_att - penalty_att
    positive = spread > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (reward_att - u) / spread
    c_min = np.where(positive, np.clip(raw, 0.0, 1.0), 0.0)
    achievable = np.where(positive, u >= penalty_att - FEAS_TOL, u >= -FEAS_TOL)
    return c_min, achievable


def min_valid_coverage(instance, i: int, u: float) -> Optional[float]:
    """Smallest coverage on target ``i`` with attacker utility <= ``u``.

    None when no coverage achieves it (u below the attacker's penalty floor).
    """
    c_min, achievable = _min_coverage_vec(instance.reward_att, instance.penalty_att, u)
    if not achievable[i]:
        return None
    return float(c_min[i])


def total_wasted_coverage(instance, v: np.ndarray, u: float, i_star: int) -> float:
    """Villager coverage in excess of the needed minimum, summed over i != i_star."""
    v = np.asarray(v)
    c_min, achievable = _min_coverage_vec(instance.reward_att, instance.penalty_att, u)
    others = np.arange(instance.n) != i_star
    if not achievable[others].all():
        raise GameDefinitionError("utility %r is unachievable on some target" % (u,))
    waste = np.maximum(v * np.asarray(instance.e_v) - c_min, 0.0)
    return float(waste[others].sum())


def _validate_query(instance, query: FeasibilityQuery) -> None:
    if not 0 <= query.i_star < instance.n:
        raise GameDefinitionError("target index %d out of range" % query.i_star)
    if not (0.0 <= query.p_star <= instance.ranger_budget + BUDGET_TOL):
        raise GameDefinitionError("p_star %r outside the ranger budget" % (query.p_star,))
    if not (0 <= query.v_star <= instance.villager_budget):
        raise GameDefinitionError("v_star %r outside the villager budget" % (query.v_star,))


def _fixed_target_utility(instance, query: FeasibilityQuery) -> float:
    i = query.i_star
    e_v = instance.e_v[i] if isinstance(instance.e_v, np.ndarray) else instance.e_v
    c_star = min(instance.e_p * query.p_star + e_v * query.v_star, 1.0)
    return float(instance.reward_att[i] * (1.0 - c_star) + instance.penalty_att[i] * c_star)


def _witness(instance, query, coverage_remaining, villagers) -> StrategyProfile:
    """Assemble the profile built by the greedy fill, trimming tolerance slack."""
    p = coverage_remaining / instance.e_p
    p[query.i_star] = 0.0
    remaining_budget = max(instance.ranger_budget - query.p_star, 0.0)
    total = float(p.sum())
    if total > remaining_budget and total > 0.0:
        p *= remaining_budget / total
    p[query.i_star] = query.p_star
    v = villagers.copy()
    v[query.i_star] = query.v_star
    return StrategyProfile(p, v)


def _fill_in_order(counts: np.ndarray, spare: int) -> np.ndarray:
    """How much of each entry of ``counts`` a budget of ``spare`` covers, in array order."""
    before = np.cumsum(counts) - counts
    return np.minimum(np.maximum(spare - before, 0.0), counts)


def _place_villagers(c_min: np.ndarray, e_v, spare: int) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy villager counts and the residual need they leave uncovered.

    Target j's need splits into whole-villager pieces of size e_v[j] and one
    smaller remainder; placing villagers one at a time where the next one
    covers the most is the same as taking the ``spare`` largest pieces
    overall, ties to the lowest target index. Zero-size remainders are never
    taken.
    """
    n = c_min.shape[0]
    whole = np.floor(c_min / e_v + _COUNT_EPS)
    remainder = np.maximum(c_min - whole * e_v, 0.0)
    has_remainder = remainder > 0.0
    n_whole = float(whole.sum())
    if n_whole + np.count_nonzero(has_remainder) <= spare:  # every piece fits
        return (whole + has_remainder).astype(np.int64), np.zeros(n)

    if isinstance(e_v, np.ndarray):
        # Pieces interleaved as (whole_0, remainder_0, whole_1, ...), so one
        # stable sort by size orders equal pieces by target index.
        sizes = np.empty(2 * n)
        sizes[0::2], sizes[1::2] = e_v, remainder
        counts = np.empty(2 * n)
        counts[0::2], counts[1::2] = whole, has_remainder
        order = np.argsort(-sizes, kind="stable")
        taken = np.empty(2 * n)
        taken[order] = _fill_in_order(counts[order], spare)
        residual = np.maximum(c_min - taken[0::2] * e_v, 0.0)
        residual[taken[1::2] > 0.0] = 0.0
        return (taken[0::2] + taken[1::2]).astype(np.int64), residual

    # Scalar e_v: whole pieces are all the same size and larger than any
    # remainder, so they go in target order and no sort is needed unless
    # villagers are left over for the remainders.
    if n_whole >= spare:
        alloc = _fill_in_order(whole, spare).astype(np.int64)
        return alloc, np.maximum(c_min - alloc * e_v, 0.0)
    top = np.argsort(-remainder, kind="stable")[: spare - int(n_whole)]
    remainder[top] = 0.0
    whole[top] += 1
    return whole.astype(np.int64), remainder


def check_consistent(instance: Instance, query: FeasibilityQuery) -> FeasibilityAnswer:
    """Decide whether ``query`` extends to a full profile keeping ``i_star`` attacked.

    Greedy fill: the spare villagers go where each covers the most
    still-needed coverage (see _place_villagers), and rangers must cover the
    rest. Works for a scalar and for a per-target ``e_v``.
    """
    _validate_query(instance, query)
    u = _fixed_target_utility(instance, query)
    c_min, achievable = _min_coverage_vec(instance.reward_att, instance.penalty_att, u)
    achievable[query.i_star] = True
    if not achievable.all():
        return FeasibilityAnswer(False, None)
    c_min = c_min.copy()
    c_min[query.i_star] = 0.0

    spare = instance.villager_budget - query.v_star
    alloc, residual = _place_villagers(c_min, instance.e_v, spare)
    ranger_coverage = max(instance.ranger_budget - query.p_star, 0.0) * instance.e_p
    if float(residual.sum()) > ranger_coverage + FEAS_TOL:
        return FeasibilityAnswer(False, None)
    return FeasibilityAnswer(True, _witness(instance, query, residual, alloc))


def max_feasible_villagers(
    instance: Instance, i_star: int
) -> Tuple[Optional[int], Optional[StrategyProfile], int]:
    """Largest v with check_consistent(i_star, 0, v) feasible, via binary search.

    Monotone by the resource-reduction property: lowering the count on the
    attacked target never breaks consistency. Returns (count, witness, calls);
    count is None when even v = 0 is infeasible.
    """
    lo, hi = 0, instance.villager_budget
    best: Optional[int] = None
    witness: Optional[StrategyProfile] = None
    calls = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        answer = check_consistent(instance, FeasibilityQuery(i_star, 0.0, mid))
        calls += 1
        if answer.feasible:
            best, witness = mid, answer.witness
            lo = mid + 1
        else:
            hi = mid - 1
    return best, witness, calls
