"""Shared test helpers: instance factories and independent reference oracles.

The reference implementations here deliberately avoid the library's solver
code paths (plain-Python loops, direct enumeration) so that agreement is
meaningful.
"""

import numpy as np

from patrolgame.bench import GenParams, generate_instance
from patrolgame.model import Instance


def random_instance(seed, n, r_p, r_v):
    return generate_instance(GenParams(n=n, r_p=float(r_p), r_v=int(r_v), seed=seed))


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
