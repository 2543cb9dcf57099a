"""Shared test helpers: instance factories and independent reference oracles.

The reference implementations here deliberately avoid the library's solver
code paths (plain-Python loops, direct enumeration) so that agreement is
meaningful.
"""

import dataclasses
from collections import Counter

import numpy as np

from patrolgame import waterfill
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import (
    FeasibilityQuery,
    best_candidate,
    check_consistent,
    fixed_target_utilities,
)
from patrolgame.model import Instance, evaluate_profile


def random_instance(seed, n, r_p, r_v):
    return generate_instance(GenParams(n=n, r_p=float(r_p), r_v=int(r_v), seed=seed))


def scaled(inst, factor):
    """``inst`` with every payoff multiplied by ``factor``."""
    return dataclasses.replace(
        inst,
        reward_def=inst.reward_def * factor,
        penalty_def=inst.penalty_def * factor,
        reward_att=inst.reward_att * factor,
        penalty_att=inst.penalty_att * factor,
    )


def symmetric_instance():
    """Two identical targets, e_p = e_v = 0.5, one ranger and one villager."""
    return Instance(
        ranger_budget=1.0,
        villager_budget=1,
        e_p=0.5,
        e_v=0.5,
        reward_def=[1.0, 1.0],
        penalty_def=[-1.0, -1.0],
        reward_att=[1.0, 1.0],
        penalty_att=[-1.0, -1.0],
    )


def scalar_best_response(inst, coverage, tol=1e-9):
    """Plain-Python argmax with defender-favouring then lowest-index ties."""
    u_a, u_d = [], []
    for i in range(inst.n):
        c = coverage[i]
        u_a.append(inst.reward_att[i] * (1 - c) + inst.penalty_att[i] * c)
        u_d.append(inst.reward_def[i] * c + inst.penalty_def[i] * (1 - c))
    top = max(u_a)
    tied = [i for i in range(inst.n) if u_a[i] >= top - tol]
    best_d = max(u_d[i] for i in tied)
    target = min(i for i in tied if u_d[i] == best_d)
    return target, u_a[target], u_d[target]


def min_coverage_ref(r_a, p_a, u, tol=1e-9):
    """Reference minimum coverage pushing one target's attacker utility to <= u."""
    spread = r_a - p_a
    if spread == 0:
        return 0.0 if u >= -tol else None
    if u < p_a - tol:
        return None
    return min(max((r_a - u) / spread, 0.0), 1.0)


def placements(n, budget):
    """All length-n integer vectors with sum <= budget."""
    if n == 0:
        yield ()
        return
    for c in range(budget + 1):
        for rest in placements(n - 1, budget - c):
            yield (c,) + rest


def effectiveness_list(inst):
    """Villager effectiveness per target, for a scalar or a per-target ``e_v``."""
    return [float(x) for x in np.broadcast_to(inst.e_v, (inst.n,))]


def needs_ref(inst, i_star, p_star, v_star, tol=1e-9):
    """Per-target minimum coverage keeping ``i_star`` attacked (0 on i_star), or None."""
    e_v = effectiveness_list(inst)
    c_star = min(inst.e_p * p_star + e_v[i_star] * v_star, 1.0)
    i = i_star
    u = inst.reward_att[i] * (1 - c_star) + inst.penalty_att[i] * c_star
    needs = []
    for j in range(inst.n):
        c_min = 0.0
        if j != i_star:
            c_min = min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u, tol)
            if c_min is None:
                return None
        needs.append(c_min)
    return needs


def feasible_by_enumeration(inst, i_star, p_star, v_star, tol=1e-9):
    """Ground-truth consistency: try every placement of the spare villagers.

    A query is consistent iff some placement of the remaining villagers over
    the other targets leaves a ranger-coverable residual. Ranger effort is
    divisible, so the continuous part is exact. ``e_v`` may be per-target.
    """
    needs = needs_ref(inst, i_star, p_star, v_star, tol)
    if needs is None:
        return False
    e_v = effectiveness_list(inst)
    others = [j for j in range(inst.n) if j != i_star]
    ranger_coverage = (inst.ranger_budget - p_star) * inst.e_p
    spare = inst.villager_budget - v_star
    for placement in placements(inst.n - 1, spare):
        residual = sum(max(needs[j] - e_v[j] * k, 0.0) for j, k in zip(others, placement))
        if residual <= ranger_coverage + tol:
            return True
    return False


def greedy_villagers_ref(inst, i_star, p_star, v_star, tol=1e-9):
    """Reference greedy fill, one villager at a time: (feasible, counts, residual needs).

    Each spare villager goes to the target where it covers the most
    still-needed coverage (lowest index on ties), until none helps or none
    remain; rangers must cover what is left. ``counts`` and the needs are
    None when some target cannot be pushed down far enough at all.
    """
    needs = needs_ref(inst, i_star, p_star, v_star, tol)
    if needs is None:
        return False, None, None
    e_v = effectiveness_list(inst)
    counts = [0] * inst.n
    for _ in range(inst.villager_budget - v_star):
        gains = [min(needs[j], e_v[j]) for j in range(inst.n)]
        j = gains.index(max(gains))
        if gains[j] <= 0.0:
            break
        counts[j] += 1
        needs[j] -= gains[j]
    ranger_coverage = max(inst.ranger_budget - p_star, 0.0) * inst.e_p
    return sum(needs) <= ranger_coverage + tol, counts, needs


def solve_hw_unpruned(inst):
    """``solve_hw`` without bracket pruning: the waterfill runs for every candidate.

    The reference the pruned solver must match; it shares the candidate loop
    and the subproblem and leaves out only the bracket.
    """

    def complete(i_stars, v_stars):
        def finish(k, _incumbent):
            profile, state = waterfill._run_subproblem(inst, int(i_stars[k]), int(v_stars[k]))
            return (profile.p, profile.v), {"iterations": state.iterations, "swaps": state.swaps}

        return finish, {}

    return best_candidate(inst, complete)


def max_feasible_villagers_ref(inst, i_star):
    """Largest v with (i_star, 0, v) consistent: (count, witness, calls).

    One binary search, one ``check_consistent`` call per probe.
    """
    lo, hi = 0, inst.villager_budget
    best = witness = None
    calls = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        answer = check_consistent(inst, FeasibilityQuery(i_star, 0.0, mid))
        calls += 1
        if answer.feasible:
            best, witness = mid, answer.witness
            lo = mid + 1
        else:
            hi = mid - 1
    return best, witness, calls


def best_candidate_sequential(inst, complete):
    """The candidate loop one ``check_consistent`` call at a time.

    The reference for ``feasibility.best_candidate``: every candidate's
    searches run one after the other and keep each candidate's witness, and
    every completed profile goes through ``evaluate_profile``.
    ``complete(i_star, v_star, witness, incumbent)`` returns
    ``(profile, counters)``, the profile None when pruned.
    """
    counters = Counter({"feasibility_checks": 0, "candidates": 0})
    candidates = []
    for i_star in range(inst.n):
        counters["feasibility_checks"] += 1
        if not check_consistent(inst, FeasibilityQuery(i_star, 0.0, 0)).feasible:
            continue
        counters["candidates"] += 1
        v_star, witness, calls = max_feasible_villagers_ref(inst, i_star)
        counters["feasibility_checks"] += calls
        candidates.append((i_star, v_star, witness))

    incumbent = max(
        (fixed_target_utilities(inst, i, 0.0, v)[0] for i, v, _ in candidates),
        default=-np.inf,
    )
    best = None
    for i_star, v_star, witness in candidates:
        profile, spent = complete(i_star, v_star, witness, incumbent)
        counters.update(spent)
        if profile is None:
            continue
        result = evaluate_profile(inst, profile)
        incumbent = max(incumbent, result.defender_utility)
        if best is None or result.defender_utility > best.defender_utility:
            best = result
    return dataclasses.replace(best, diagnostics=dict(counters))


def solve_tdbs_sequential(inst, epsilon=1e-3):
    """``solve_tdbs`` with one effort bisection per candidate, one check per probe."""

    def complete(i_star, v_star, witness, _incumbent):
        checks = 0
        left, right = 0.0, float(inst.ranger_budget)
        while right - left > epsilon:
            mid = (left + right) / 2.0
            if mid == left or mid == right:
                break
            answer = check_consistent(inst, FeasibilityQuery(i_star, mid, v_star))
            checks += 1
            if answer.feasible:
                left = mid
                witness = answer.witness
            else:
                right = mid
        return witness, {"feasibility_checks": checks}

    return best_candidate_sequential(inst, complete)


def solve_hw_sequential(inst):
    """``solve_hw`` (bracket pruning included) on the sequential candidate loop."""

    def complete(i_star, v_star, _witness, incumbent):
        pruned, checks = waterfill._bracket_prunes(inst, i_star, v_star, incumbent)
        profile, iterations, swaps = None, 0, 0
        if not pruned:
            profile, state = waterfill._run_subproblem(inst, i_star, v_star)
            iterations, swaps = state.iterations, state.swaps
        return profile, {
            "feasibility_checks": checks,
            "iterations": iterations,
            "swaps": swaps,
            "pruned": int(pruned),
        }

    return best_candidate_sequential(inst, complete)
