"""Shared test helpers: instance factories and independent reference oracles.

The reference implementations here deliberately avoid the library's solver
code paths (plain-Python loops, direct enumeration) so that agreement is
meaningful.
"""

import dataclasses
import math
import sys
from collections import Counter

import numpy as np

from patrolgame import feasibility, waterfill
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import candidates, fixed_target_utilities, most_effort, witness_blocks
from patrolgame.model import (
    REL_TOL,
    Instance,
    StrategyProfile,
    attacker_utilities,
    coverage_of,
    evaluate_profile,
    tied_defender_utilities,
    utilities_of,
)
from patrolgame.waterfill import WaterfillState


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


def witness_of(inst, i_star, p_star, v_star):
    """One query through ``witness_blocks``: its witness profile, None where it is infeasible."""
    _, feasible, p, v = next(witness_blocks(inst, [i_star], [p_star], [v_star]))
    return StrategyProfile(p[0], v[0]) if feasible[0] else None


def rebind(monkeypatch, name, replacement):
    """Set ``name`` to ``replacement`` in every loaded ``patrolgame`` module
    that binds ``feasibility``'s own, so every caller of it sees the replacement."""
    original = getattr(feasibility, name)
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "patrolgame" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def counting_rows(monkeypatch):
    """A list that gets the row count of every later query-row check
    (``_feasible_rows``, behind ``feasible_rows`` and a solve's own rows),
    ``tdbs`` fallback row check (``_effort_rows``), level-row check
    (``_level_rows``) and ``tdbs`` witness pass over every candidate
    (``_candidate_witnesses``), the rows ``feasibility_checks`` counts."""
    rows = []
    rows_of, efforts_of = feasibility._feasible_rows, feasibility._effort_rows
    levels_of, witnesses_of = feasibility._level_rows, feasibility._candidate_witnesses

    def counted_rows(instance, floor, i_star, p_star, v_star):
        rows.append(len(i_star))
        return rows_of(instance, floor, i_star, p_star, v_star)

    def counted_efforts(pool, i_star, p_star, v_star):
        rows.append(len(i_star))
        return efforts_of(pool, i_star, p_star, v_star)

    def counted_levels(instance, levels):
        rows.append(len(levels))
        return levels_of(instance, levels)

    def counted_witnesses(pool, i_stars, p_stars, v_stars, lost):
        rows.append(len(i_stars))
        return witnesses_of(pool, i_stars, p_stars, v_stars, lost)

    rebind(monkeypatch, "_feasible_rows", counted_rows)
    monkeypatch.setattr(feasibility, "_effort_rows", counted_efforts)
    monkeypatch.setattr(feasibility, "_level_rows", counted_levels)
    monkeypatch.setattr(feasibility, "_candidate_witnesses", counted_witnesses)
    return rows


def spying_passes(monkeypatch):
    """A list that gets ``(targets, counts, answers)`` of every later
    ``feasibility._Pool.passes`` call, the villager counts as int64."""
    calls = []
    passes = feasibility._Pool.passes

    def spy(pool, i_star, p_star, v_star):
        ok = passes(pool, i_star, p_star, v_star)
        calls.append((np.asarray(i_star), np.asarray(v_star, dtype=np.int64), np.asarray(ok)))
        return ok

    monkeypatch.setattr(feasibility._Pool, "passes", spy)
    return calls


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

    The reference the pruned solver must match; it shares the candidate
    search and the subproblem and leaves out only the bracket.
    """
    i_stars, v_stars, counters = candidates(inst, np.arange(inst.n))
    best = None
    for i_star, v_star in zip(i_stars.tolist(), v_stars.tolist()):
        profile, state = waterfill._run_subproblem(inst, i_star, v_star)
        counters.update(iterations=state.iterations, swaps=state.swaps)
        result = evaluate_profile(inst, profile)
        if best is None or result.defender_utility > best.defender_utility:
            best = result
    return dataclasses.replace(best, diagnostics=dict(counters))


def spread_ref(best, top, k):
    """Up to ``k`` counts spread evenly over ``[best + 1, top]``: all of them
    if there are at most ``k``, else ``best + s * (top + 1 - best) // (k + 1)``
    for s = 1 .. k."""
    if top - best <= k:
        return list(range(best + 1, top + 1))
    return [best + s * (top + 1 - best) // (k + 1) for s in range(1, k + 1)]


def most_villagers_ref(inst, targets):
    """Largest v with (i, 0, v) consistent per target i: ``(counts, witnesses, calls)``, dicts by target.

    The lockstep search's rounds, with one ``witness_of`` call per probe:
    each round, every open search probes ``max(1, rows per block // open
    searches)`` counts of ``spread_ref``, and in the first round v = 0 and
    ``spread_ref`` above it. A target whose v = 0 is inconsistent gets -1
    and no witness; any other gets the witness of its count.
    """
    per_block = feasibility._rows_per_block(inst)
    best = {i: -1 for i in targets}
    top = {i: inst.villager_budget for i in targets}
    witnesses = {i: None for i in targets}
    calls = 0
    first = True
    while True:
        searching = [i for i in targets if top[i] > best[i]]
        if not searching:
            return best, witnesses, calls
        k = max(1, per_block // len(searching))
        for i in searching:
            probes = [0] + spread_ref(0, top[i], k - 1) if first else spread_ref(best[i], top[i], k)
            for v in probes:
                answer = witness_of(inst, i, 0.0, v)
                calls += 1
                if answer is None:
                    top[i] = min(top[i], v - 1)
                elif v > best[i]:
                    best[i], witnesses[i] = v, answer
        first = False


# ---------------------------------------------------------------------------
# The lockstep searches before they went floor and pool first, kept as the
# reference for ``feasibility.most_villagers`` and ``feasibility.most_effort``: every
# probe is one ``feasible_rows`` row, with no bisection on the cheap tests
# (``feasibility._Pool.passes``) first.


def spread_counts(best, top, k: int):
    """Up to ``k`` counts spread evenly over each open bracket ``[best + 1, top]``.

    The array form of ``spread_ref``: returns ``(counts, real)``, both
    (brackets, k), the counts and a mask of those that are real probes. A
    wider bracket is probed at ``best + floor(s * (top + 1 - best) / (k +
    1))`` for s = 1 .. k, computed without leaving int64; every ``best``
    must be at least 0.
    """
    steps = np.arange(1, k + 1)
    width = (top - best - 1)[:, None]  # counts in the bracket, less one
    whole, rest = np.divmod(width, k + 1)
    spread = whole * steps + (rest + 2) * steps // (k + 1)  # (width + 2) * steps // (k + 1), exactly
    counts = best[:, None] + np.where(width < k, steps, spread)
    return counts, steps - 1 <= width


def most_villagers_blind(instance, i_stars):
    """(counts, rows checked): the k-ary lockstep villager search over ``[0, villager_budget]``, with no cap.

    Each round, every open search probes ``max(1, rows per block // open
    searches)`` counts of ``spread_counts`` in one ``feasible_rows`` call,
    v = 0 first in the first round, as ``most_villagers_ref`` does.
    """
    i_stars = np.asarray(i_stars)
    best = np.full(i_stars.shape[0], -1, dtype=np.int64)
    top = np.full(i_stars.shape[0], instance.villager_budget, dtype=np.int64)
    per_block = feasibility._rows_per_block(instance)
    searching = np.arange(i_stars.shape[0])
    checks = 0
    while searching.size:
        k = max(1, per_block // searching.size)
        lo, hi = best[searching], top[searching]
        if lo[0] < 0:  # the first round (later, every open search has a best): v = 0, then k - 1 above it
            zero = np.zeros_like(lo)
            counts, real = spread_counts(zero, hi, k - 1)
            counts = np.hstack([zero[:, None], counts])
            real = np.hstack([np.ones((lo.size, 1), dtype=bool), real])
        else:
            counts, real = spread_counts(lo, hi, k)
        rows = np.broadcast_to(searching[:, None], counts.shape)[real]
        ok = np.zeros(counts.shape, dtype=bool)
        ok[real] = feasibility.feasible_rows(instance, i_stars[rows], np.zeros(rows.size), counts[real])
        checks += rows.size
        best[searching] = lo = np.maximum(lo, np.where(ok, counts, -1).max(axis=1))
        top[searching] = hi = np.minimum(hi, np.where(real > ok, counts - 1, hi[:, None]).min(axis=1))
        searching = searching[hi > lo]
    return best, checks


def most_effort_blind(instance, i_stars, v_stars, epsilon):
    """(efforts, rows checked): ``most_effort`` deciding every midpoint with one ``feasible_rows`` row."""
    left = np.zeros(len(i_stars))
    right = np.full(len(i_stars), float(instance.ranger_budget))
    checks = 0
    while True:
        mid = left / 2.0 + right / 2.0  # halves first: left + right can overflow
        # a bisection ends within epsilon, or narrower than one float step
        rows = np.flatnonzero((right - left > epsilon) & (mid != left) & (mid != right))
        if rows.size == 0:
            return left, checks
        ok = feasibility.feasible_rows(instance, i_stars[rows], mid[rows], v_stars[rows])
        checks += rows.size
        left[rows[ok]] = mid[rows[ok]]
        right[rows[~ok]] = mid[rows[~ok]]


def best_candidate_sequential(inst, complete, extra_seed=None):
    """The candidate loop one ``witness_of`` call at a time.

    The reference for ``feasibility.candidates`` and the solvers' choice of
    winner: every candidate keeps its witness, the candidates are completed
    one after the other, and every completed profile goes through
    ``evaluate_profile``.
    ``complete(i_star, v_star, witness, seed)`` returns
    ``(profile, counters)``, the profile None when pruned; ``seed`` is the
    best candidate's defender utility with its villagers and no effort.
    With ``extra_seed``, first ``extra_seed(inst)`` returns another utility
    for ``seed`` to reach, if it is larger, and the checks it made; then
    only the targets whose ``feasibility._upper_bounds`` reach that utility
    less tol are searched, and the others are counted as ``bounded``.
    """
    counters = Counter({"feasibility_checks": 0, "candidates": 0})
    targets, seed = list(range(inst.n)), -np.inf
    if extra_seed is not None:
        seed, checks = extra_seed(inst)
        counters["feasibility_checks"] += checks
        bounds = feasibility._upper_bounds(feasibility._Pool(inst))
        targets = [i for i in targets if bounds[i] >= seed - inst.tol]
    counts, witnesses, calls = most_villagers_ref(inst, targets)
    counters["feasibility_checks"] += calls
    candidates = [(i, counts[i], witnesses[i]) for i in targets if counts[i] >= 0]
    counters["candidates"] = len(candidates)

    seed = max([seed] + [fixed_target_utilities(inst, i, 0.0, v)[0] for i, v, _ in candidates])
    best = None
    for i_star, v_star, witness in candidates:
        profile, spent = complete(i_star, v_star, witness, seed)
        counters.update(spent)
        if profile is None:
            continue
        result = evaluate_profile(inst, profile)
        if best is None or result.defender_utility > best.defender_utility:
            best = result
    if extra_seed is not None:
        counters["bounded"] = inst.n - len(targets)
    return dataclasses.replace(best, diagnostics=dict(counters))


def solve_tdbs_sequential(inst, epsilon=1e-3):
    """``solve_tdbs`` with one effort bisection per candidate, one check per probe."""

    def complete(i_star, v_star, witness, _seed):
        checks = 0
        left, right = 0.0, float(inst.ranger_budget)
        while right - left > epsilon:
            mid = (left + right) / 2.0
            if mid == left or mid == right:
                break
            answer = witness_of(inst, i_star, mid, v_star)
            checks += 1
            if answer is not None:
                left = mid
                witness = answer
            else:
                right = mid
        return witness, {"feasibility_checks": checks}

    return best_candidate_sequential(inst, complete)


def solve_tdbs_three_pass(inst, epsilon=1e-3):
    """``solve_tdbs`` as three passes over the candidates: ``(result, candidates)``.

    The villager searches (``candidates``), then the effort searches
    (``most_effort``), each confirming its ends with their own rows; then
    one ``witness_blocks`` row per candidate at its two ends, each scored
    by its best response (``tied_defender_utilities``) in index order, the
    first best winning. ``candidates`` is the number of candidates the
    searches found.
    """
    i_stars, v_stars, counters = candidates(inst, np.arange(inst.n))
    p_stars = most_effort(inst, i_stars, v_stars, epsilon)[0]
    best_utility, best = -np.inf, None
    for block, feasible, p, v in witness_blocks(inst, i_stars, p_stars, v_stars):
        assert feasible.all(), "a searched end's witness row failed"
        for row in range(len(p)):
            utility = tied_defender_utilities(inst, coverage_of(inst, p[row], v[row])).max()
            if utility > best_utility:
                best_utility, best = utility, StrategyProfile(p[row], v[row])
    return evaluate_profile(inst, best), counters["candidates"]


def level_greedy_ref(inst, u):
    """Reference level row: (feasible, villager counts, residual needs) holding every target to <= u.

    Each target's need splits into whole-villager pieces of size e_v and
    one smaller remainder; the villagers take the largest pieces, ties to
    the lower target and then to its whole pieces, and the rangers must
    cover what is left within ``_COVERAGE_SLACK``.
    """
    e_v = effectiveness_list(inst)
    needs = [min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u) for j in range(inst.n)]
    pieces = []  # (size, target, kind, count): kind 0 whole, 1 remainder
    for j, need in enumerate(needs):
        whole = math.floor(need / e_v[j] + REL_TOL)
        remainder = max(need - whole * e_v[j], 0.0)
        pieces += [(e_v[j], j, 0, whole)] if whole else []
        pieces += [(remainder, j, 1, 1)] if remainder > 0.0 else []
    pieces.sort(key=lambda piece: (-piece[0], piece[1], piece[2]))
    counts, remainder_taken = [0] * inst.n, [False] * inst.n
    spare = inst.villager_budget
    for _, j, kind, count in pieces:
        taken = min(count, spare)
        spare -= taken
        counts[j] += taken
        remainder_taken[j] |= kind == 1 and taken == 1
    residual = [0.0 if remainder_taken[j] else max(needs[j] - counts[j] * e_v[j], 0.0) for j in range(inst.n)]
    feasible = np.sum(residual) <= inst.ranger_budget * inst.e_p + feasibility._COVERAGE_SLACK
    return feasible, counts, residual


def crossing_ref(inst):
    """The attacker level where ``e_p * ranger_budget + max(e_v) *
    villager_budget`` meets the summed needs F of holding every target to
    it; -inf where that cover reaches every target fully.

    F is linear between the sorted payoff breaks. The crossing is
    interpolated between the largest break where F exceeds the cover and
    the next break up, with each sum taken over the targets whose end lies
    above the level, largest end first, as the sweep's suffix sums take
    them, so the two agree to the bit.
    """
    cover = inst.e_p * inst.ranger_budget + max(effectiveness_list(inst)) * inst.villager_budget
    wide = [(r, p, 1.0 / (r - p)) for r, p in zip(inst.reward_att.tolist(), inst.penalty_att.tolist()) if r > p]
    if cover >= len(wide):
        return -math.inf

    def need(u):
        sums = []
        for side in (0, 1):
            ends, widths = 0.0, 0.0
            for target in sorted((t for t in wide if t[side] > u), key=lambda t: -t[side]):
                ends += target[side] * target[2]
                widths += target[2]
            sums.append(ends - u * widths)
        return sums[0] - sums[1]

    breaks = sorted({end for target in wide for end in target[:2]})
    lo = max(u for u in breaks if need(u) > cover)
    hi = min(u for u in breaks if u > lo)
    return lo + (hi - lo) * ((need(lo) - cover) / (need(lo) - need(hi)))


def minimax_seed_ref(inst, levels_per_round=32):
    """Reference minimax seed: (defender utility, level rows checked).

    The search starts at the crossing z (``crossing_ref``): the attacker
    level bracket is ``[max(max P_a, z - tol / 2), max R_a]``, and the first
    round checks the one level ``max(max P_a, z) + tol / 4`` with
    ``level_greedy_ref``. From there the bracket shrinks in rounds of
    ``levels_per_round`` evenly spread levels, until it is within tol or one
    float step. At the feasible end, the greedy's villagers and rangers
    covering the residual (scaled into the budget) form the minimax profile.
    The seed is the best defender utility over targets that profile attacks
    exactly, or that shed rangers until their attacker utility passes the
    best by the rounding (four eps of coverage).
    """
    z = crossing_ref(inst)
    lo, hi = max(max(inst.penalty_att), z - inst.tol / 2), max(inst.reward_att)
    inside = [max(max(inst.penalty_att), z) + inst.tol / 4]
    checks = 0
    while hi - lo > inst.tol:
        inside = [u for u in inside if lo < u < hi]
        if not inside:
            break
        checks += len(inside)
        for u in inside:
            if level_greedy_ref(inst, u)[0]:
                hi = u
                break
            lo = u
        inside = [lo + (hi - lo) * (k / (levels_per_round + 1)) for k in range(1, levels_per_round + 1)]
    _, counts, residual = level_greedy_ref(inst, hi)
    p = [r / inst.e_p for r in residual]
    total = np.sum(p)
    if total > inst.ranger_budget:
        p = [x / total * inst.ranger_budget for x in p]
    e_v = effectiveness_list(inst)
    coverage = [min(inst.e_p * p[j] + e_v[j] * counts[j], 1.0) for j in range(inst.n)]
    u_att = [inst.reward_att[j] * (1 - c) + inst.penalty_att[j] * c for j, c in enumerate(coverage)]
    top = max(u_att)
    seed = -math.inf
    for j in range(inst.n):
        r_d, p_d = inst.reward_def[j], inst.penalty_def[j]
        r_a, p_a = inst.reward_att[j], inst.penalty_att[j]
        if u_att[j] == top:
            seed = max(seed, r_d * coverage[j] + p_d * (1 - coverage[j]))
        if r_a > p_a:
            lowered = min(coverage[j], (r_a - top) / (r_a - p_a))
        else:  # attacker utility 0 at any coverage
            lowered = coverage[j] if top <= 0.0 else -math.inf
        lowered -= 4 * np.finfo(float).eps
        if lowered >= min(e_v[j] * counts[j], 1.0) and r_a * (1 - lowered) + p_a * lowered >= top:
            seed = max(seed, r_d * lowered + p_d * (1 - lowered))
    return seed, checks


def minimax_level_ref(inst):
    """The lowest attacker level ``level_greedy_ref`` finds feasible, bisected
    over ``[max P_a, max R_a]`` down to one float step."""
    lo, hi = float(inst.penalty_att.max()), float(inst.reward_att.max())
    if level_greedy_ref(inst, lo)[0]:
        return lo
    while True:
        mid = lo / 2 + hi / 2
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if level_greedy_ref(inst, mid)[0] else (mid, hi)


def fall_back_ends_row_by_row(pool, i_stars, p_stars, v_stars, known, epsilon):
    """``tdbs``'s fallback for candidates whose witness row failed, every
    full-check probe one row, as it ran before its effort searches were
    certified: ``(i_stars, p_stars, v_stars, rows, rounds)``.

    Each count above ``known`` gets a row at ``(i, 0, v)`` and bisects
    below it where that fails. A count that stayed replays its effort
    bisection from ``[0, ranger_budget]``, one row per midpoint below its
    failed end; one that moved runs a fresh search at its new count: the
    cheap tests' bisection, one row at its end, and the same replay below
    that end where the row fails. ``rounds`` counts the calls that sent
    rows, one after the other.
    """
    instance, spent = pool.instance, Counter()
    budget = float(instance.ranger_budget)

    def full_check(i, p, v):
        spent.update(rows=len(i), rounds=int(len(i) > 0))
        return feasibility._feasible_rows(instance, pool.floor, i, p, v)

    def replay(i, v, ends):
        def passes(rows, mid):
            ok = mid < ends[rows]  # every probe from a failed end up fails too
            ok[ok] = full_check(i[rows[ok]], mid[ok], v[rows[ok]])
            return ok

        return feasibility._bisect(np.zeros(i.size), np.full(i.size, budget), passes, epsilon)[0]

    counts = v_stars.copy()
    up = np.flatnonzero(counts > known)
    failed = up[~full_check(i_stars[up], np.zeros(up.size), counts[up])]
    zero = lambda rows, c: full_check(i_stars[failed[rows]], np.zeros(rows.size), c)
    counts[failed] = feasibility._bisect(known[failed], counts[failed] - 1, zero)[0]
    efforts = p_stars.copy()
    stayed = np.flatnonzero(counts == v_stars)
    efforts[stayed] = replay(i_stars[stayed], v_stars[stayed], p_stars[stayed])
    moved = np.flatnonzero((counts != v_stars) & (counts >= 0))
    i, v = i_stars[moved], counts[moved]
    cheap = feasibility._bisect(
        np.zeros(i.size), np.full(i.size, budget), lambda rows, mid: pool.passes(i[rows], mid, v[rows]), epsilon
    )[0]
    up = np.flatnonzero(cheap > 0)
    failed = up[~full_check(i[up], cheap[up], v[up])]
    cheap[failed] = replay(i[failed], v[failed], cheap[failed])
    efforts[moved] = cheap
    kept = counts >= 0
    return i_stars[kept], efforts[kept], counts[kept], spent["rows"], spent["rounds"]


def minimax_profile_rounds(pool):
    """``_minimax_profile`` as it ran before its rounds were certified:
    ``(profile, level rows, rounds)``.

    One level row at the pooled crossing first, as ``_minimax_profile``
    places it; where that leaves the bracket wider than tol, rounds of 32
    evenly spread level rows narrow it until it is within tol or one float
    step. ``rounds`` counts the calls that sent rows.
    """
    instance = pool.instance
    lo, hi = float(instance.penalty_att.max()), float(instance.reward_att.max())
    with np.errstate(over="ignore"):
        cover = instance.e_p * instance.ranger_budget + np.max(instance.e_v) * instance.villager_budget
    crossing = feasibility._crossing(pool, cover)
    steps = np.arange(1, 33) / 33
    if np.isnan(crossing):
        levels = lo + (hi - lo) * steps
    else:
        levels = np.array([max(lo, crossing) + instance.tol / 4])
        lo = max(lo, crossing - instance.tol / 2)
    rows = rounds = 0
    while hi - lo > instance.tol:
        levels = levels[(lo < levels) & (levels < hi)]
        if levels.size == 0:
            break
        feasible = feasibility._level_rows(instance, levels)[0]
        rows, rounds = rows + levels.size, rounds + 1
        first = int(np.argmax(feasible)) if feasible.any() else levels.size
        if first < levels.size:
            hi = float(levels[first])
        if first > 0:
            lo = float(levels[first - 1])
        levels = lo + (hi - lo) * steps
    return _level_witness(instance, hi), rows, rounds


def minimax_profile_33ary(pool):
    """The minimax search before its crossing-first start: ``[max P_a, max
    R_a]`` narrowed in rounds of 32 evenly spread level rows from the first
    round on. Patched in for ``feasibility._minimax_profile``, it gives the
    former minimax seed; returns ``(profile, level rows checked)``."""
    instance = pool.instance
    lo, hi = float(instance.penalty_att.max()), float(instance.reward_att.max())
    steps = np.arange(1, 33) / 33
    checks = 0
    while hi - lo > instance.tol:
        levels = lo + (hi - lo) * steps
        levels = levels[(lo < levels) & (levels < hi)]
        if levels.size == 0:
            break
        feasible = feasibility._level_rows(instance, levels)[0]
        checks += levels.size
        first = int(np.argmax(feasible)) if feasible.any() else levels.size
        if first < levels.size:
            hi = float(levels[first])
        if first > 0:
            lo = float(levels[first - 1])
    return _level_witness(instance, hi), checks


def _level_witness(instance, level):
    """The fill's witness of the level row at ``level``, as ``_minimax_profile`` builds it."""
    spent = np.zeros(1, dtype=np.int64)
    fill = feasibility._fill(instance, feasibility._min_coverage(instance, np.array([[level]])), spent, spent, witness=True)
    return StrategyProfile(fill.p[0], fill.v[0])


def solve_hw_sequential(inst):
    """``solve_hw`` (bound and break-even pruning included) on the sequential candidate loop.

    The minimax seed is ``minimax_seed_ref``'s, and only the targets whose
    bound reaches it less tol are searched. The seed of the break-even
    check is the larger of that and the best no-effort utility. A candidate
    below ``seed - tol`` with no effort survives only if one ``witness_of``
    call finds its break-even effort, where its defender utility reaches
    ``seed - tol``, consistent.
    """

    def complete(i_star, v_star, _witness, seed):
        bar = seed - inst.tol
        r_d, p_d = float(inst.reward_def[i_star]), float(inst.penalty_def[i_star])
        checks, pruned = 0, False
        if fixed_target_utilities(inst, i_star, 0.0, v_star)[0] < bar:
            coverage = (bar - p_d) / (r_d - p_d) if r_d > p_d else math.inf
            effort = (coverage - inst.e_v * v_star) / inst.e_p
            pruned = coverage > 1.0 or effort > inst.ranger_budget
            if not pruned:
                checks = 1
                pruned = witness_of(inst, i_star, max(effort, 0.0), v_star) is None
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

    return best_candidate_sequential(inst, complete, minimax_seed_ref)


# ---------------------------------------------------------------------------
# The waterfilling subproblem one merge at a time: the former pour loop,
# kept as the reference for the event-driven one in ``waterfill``. Every
# iteration stops when the sea reaches one more target's level, and swaps
# are looked for among the critical targets only.


def swap_line_per_merge(state):
    """Smallest qualifying drop over all (critical, donor) target pairs.

    Donors must sit outside the critical set with a villager, no ranger
    effort, and strictly smaller width; pairs whose critical point lies below
    the donor's penalty floor, or behind the current level, don't qualify.
    """
    if state.sea_level is None:
        return None
    inst = state.instance
    idx = np.arange(inst.n)
    members = np.flatnonzero(state.critical & (idx != state.i_star))
    donors = np.flatnonzero(
        ~state.critical
        & (idx != state.i_star)
        & (state.villagers > 0)
        & (state.effort == 0.0)
    )
    if members.size == 0 or donors.size == 0:
        return None

    members, donors = members[:, None], donors[None, :]
    spread = inst.spread_att
    diff = spread[donors] - spread[members]  # > 0 means the donor is strictly narrower
    raw = waterfill._drop(state, members, donors, np.where(diff > 0, diff, np.inf))
    drops = np.maximum(raw, 0.0)  # tolerance-level negatives mean "swap now"
    ok = (
        (diff > 0)
        & (raw >= -inst.tol)  # critical points already passed never recur
        & (state.sea_level - drops >= inst.penalty_att[donors] - inst.tol)
    )
    drops = np.where(ok, drops, np.inf)
    mi, dj = divmod(int(np.argmin(drops)), donors.size)
    if not np.isfinite(drops[mi, dj]):
        return None
    return waterfill.SwapCandidate(
        u_change=float(drops[mi, dj]),
        i_outp=int(members[mi, 0]),
        i_outv=int(donors[0, dj]),
    )


def greedy_villagers_loop(inst, i_star: int, v_star: int):
    """Place spare villagers on the max-attacker-utility unpinned targets."""
    n = inst.n
    villagers = np.zeros(n, dtype=np.int64)
    villagers[i_star] = v_star
    u_att = attacker_utilities(inst, np.minimum(inst.e_v * villagers, 1.0))
    idx = np.arange(n)
    for _ in range(inst.villager_budget - v_star):
        eligible = (idx != i_star) & (u_att - inst.penalty_att > inst.tol)
        if not eligible.any():
            break
        j = int(np.argmax(np.where(eligible, u_att, -np.inf)))
        villagers[j] += 1
        u_att[j] = utilities_of(inst, min(inst.e_v * villagers[j], 1.0), j)[1]
    return villagers, u_att


def run_subproblem_per_merge(instance, i_star, v_star, on_state=None):
    """Waterfill from a consistent (i_star, v_star); returns (profile, final state)."""
    n = instance.n
    penalty = instance.penalty_att
    spread = instance.spread_att
    with np.errstate(divide="ignore"):
        width = np.where(spread > 0, 1.0 / spread, np.inf)
    width.setflags(write=False)

    villagers, u_att = greedy_villagers_loop(instance, i_star, v_star)
    state = WaterfillState(
        instance=instance,
        i_star=i_star,
        u_att=u_att,
        effort=np.zeros(n),
        villagers=villagers,
        width=width,
        sea_level=None,
        critical=np.zeros(n, dtype=bool),
        ranger_remaining=float(instance.ranger_budget),
    )

    tol = instance.tol
    max_iterations = 4 * (n * n + 2 * n) + 64
    while state.ranger_remaining > 0.0:
        pinned = waterfill._refresh_levels(state)
        if state.sea_level is None:
            break
        u_star = float(state.u_att[i_star])
        # Terminal: the sea has reached the fixed target's level and some
        # penalty floor pins it there, so no further lowering is possible.
        if state.sea_level <= u_star + tol and bool(
            np.any(pinned & (penalty >= u_star - tol))
        ):
            break
        state.iterations += 1
        if state.iterations > max_iterations:
            raise RuntimeError("waterfilling failed to terminate; this is a bug")
        if on_state is not None:
            on_state(state)

        swap = swap_line_per_merge(state)
        do_swap = swap is not None
        u_delta = swap.u_change if swap is not None else np.inf
        # The pour stops at the highest of: the critical set's penalty floor
        # (every floor once the fixed target is critical), the next level
        # down, and the fixed target's own level. The last duplicates the
        # next level when the fixed target is unpinned, but a pinned one
        # (zero spread) never enters the critical set to stop the pour.
        if state.critical[i_star]:
            stop = float(penalty.max())
        else:
            stop = max(float(penalty[state.critical].max()), u_star)
        below = ~pinned & ~state.critical
        if below.any():
            stop = max(stop, float(state.u_att[below].max()))
        if state.sea_level - u_delta < stop:
            u_delta = state.sea_level - stop
            do_swap = False
        u_delta = max(u_delta, 0.0)

        width_sum = float(state.width[state.critical].sum())
        pour = width_sum * u_delta / instance.e_p
        if pour > state.ranger_remaining:
            pour = state.ranger_remaining
            do_swap = False
        u_delta = pour * instance.e_p / width_sum
        if u_delta <= 0.0 and not do_swap:
            break  # floor reached within tolerance; nothing left to lower
        state.ranger_remaining -= pour
        state.u_att[state.critical] -= u_delta
        state.effort[state.critical] += u_delta * state.width[state.critical] / instance.e_p

        if do_swap:
            j, k = swap.i_outv, swap.i_outp
            state.villagers[j] -= 1
            state.villagers[k] += 1
            state.effort[j] = state.effort[k]
            state.effort[k] = 0.0
            for t in (j, k):
                c_v = instance.e_v * state.villagers[t]
                c_full = min(instance.e_p * state.effort[t] + c_v, 1.0)
                state.u_att[t] = utilities_of(instance, c_full, t)[1]
            state.swaps += 1

    # A zero-spread fixed target keeps attacker utility 0 at any coverage,
    # so leftover effort raises the defender's side for free.
    if spread[i_star] == 0.0 and state.ranger_remaining > 0.0:
        have = (
            instance.e_p * state.effort[i_star]
            + instance.e_v * state.villagers[i_star]
        )
        top_up = min(state.ranger_remaining, max(1.0 - have, 0.0) / instance.e_p)
        state.effort[i_star] += top_up
        state.ranger_remaining -= top_up

    waterfill._refresh_levels(state)
    if on_state is not None:
        on_state(state)
    return StrategyProfile(state.effort, state.villagers), state
