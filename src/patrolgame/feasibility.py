"""Consistency checks: can a fixed allocation on one target be completed?

Given a candidate attacked target and fixed resources on it, decide whether
the remaining rangers and villagers can cover every other target well enough
that the candidate stays an attacker best response, and produce a witness
profile when they can. Villagers are placed greedily, each where it covers
the most still-needed coverage; rangers fill whatever coverage remains.
Villager effectiveness may be a scalar or vary per target.

Rows: one greedy fill (``_fill``), the only caller of ``_place_villagers``,
decides many rows at once. A row is a need per target plus the ranger effort
and villagers it has already spent, and gets the answer it would get alone.
Each array operation covers one block of ``_BLOCK_CELLS`` cells (rows times
targets), so memory stays O(block × n). Rows come from three sources:

- query rows (``feasible_rows``) fix ``p_star`` effort and ``v_star``
  villagers on ``i_star``; past the attacker-floor test, every other target
  must be held to ``i_star``'s attacker utility;
- witness rows (``witness_blocks``) are query rows that also build each
  feasible row's profile (p, v) from the greedy's villagers and the trimmed
  ranger effort; ``tdbs`` scores the blocks as they come. Both kinds of
  query share one loop (``_query_blocks``);
- level rows (``_levels_feasible``) hold every target to one attacker
  level, with nothing spent. The minimax search (``_minimax_profile``),
  which seeds ``solve_hw``'s pruning, checks ``_LEVELS_PER_ROUND`` of them
  per round and builds its profile as witness rows do.

So a target's v = 0 query past the floor test is the level row at its own
attacker reward, where its own need is zero.

The shared candidate search ``candidates`` runs in lockstep: each round of
the villager search (``most_villagers``) is one call, with up to a block
of rows spread over the searches still open, v = 0 first. ``solve_hw``
calls it only on the targets its bound keeps (``_upper_bounds``, from
ORIGAMI's pooled-coverage sweep in ``_pooled_level``).

Slack (all from ``model.REL_TOL``): a witness reported as feasible keeps
``i_star`` within ``instance.tol`` of the attacker's best, so it stays in
the attacker's tied set (``model.tied_defender_utilities``). Two slacks
share that budget, at most half each:

- the attacker-floor test accepts a utility up to ``tol / 2`` below a
  target's penalty (full coverage then leaves that target at most
  ``tol / 2`` above ``i_star``);
- the ranger-coverage sum may exceed the ranger budget by the unitless
  ``_COVERAGE_SLACK``. ``_fill``'s witness trims that shortfall out of the
  effort, lowering some targets' coverage by at most as much in total, and a
  coverage drop of sigma raises a target's attacker utility by at most
  ``sigma * (R_a - P_a) <= sigma * 2 * max|payoff| = tol / 2``.

Ranger effort on the fixed target may exceed the budget by
``REL_TOL * ranger_budget``, as in ``model.validate_profile``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Tuple

import numpy as np

from .model import REL_TOL, GameDefinitionError, Instance, StrategyProfile, utilities_of

# Slack on the ranger-coverage sum: its trim lifts a utility by at most
# tol / 2 (module docstring).
_COVERAGE_SLACK = REL_TOL / 4

# Cells (query rows times targets) the greedy handles in one array
# operation; bounds the transient memory of a batched check at O(block × n).
_BLOCK_CELLS = 2**13

# Attacker levels the minimax search checks per round (``_minimax_profile``).
_LEVELS_PER_ROUND = 32


def TargetSpecificInstance(base: Instance, e_v) -> Instance:
    """``base`` with a per-target villager effectiveness ``e_v``.

    Kept under the name of the former wrapper class because
    ``perfbench/workloads.py`` builds its per-target instances through it,
    and the benchmark must run unchanged against older and newer versions of
    the library. New code passes the vector to ``Instance`` directly.
    """
    return dataclasses.replace(base, e_v=e_v)


def _min_coverage(instance, u) -> np.ndarray:
    """Per-target minimum coverage forcing attacker utility down to <= u.

    ``u`` is a number, or a column of them for one row each. Where the
    payoff spread is zero (reward and penalty both zero by the sign
    constraints) the utility is 0 at any coverage, so c_min is 0. A u far
    below a narrow target's penalty may overflow the ratio; it clips to 1.
    """
    spread = instance.spread_att
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_min = (instance.reward_att - u) / spread
    np.clip(c_min, 0.0, 1.0, out=c_min)
    flat = ~(spread > 0)
    if flat.any():
        c_min[..., flat] = 0.0
    return c_min


def _attacker_floor(instance) -> np.ndarray:
    """Per target, the lowest utility the attacker-floor test accepts there:
    its penalty less the ``tol / 2`` slack (module docstring)."""
    return instance.penalty_att - instance.tol / 2


def _floor_of_others(instance) -> np.ndarray:
    """Per target i, the lowest utility the attacker-floor test accepts on
    every other target: the largest ``_attacker_floor`` over j != i."""
    floor = _attacker_floor(instance)
    top = int(np.argmax(floor))
    others = np.full(instance.n, floor[top])
    others[top] = max(floor[:top].max(initial=-np.inf), floor[top + 1 :].max(initial=-np.inf))
    return others


def _query_rows(instance, i_star, p_star, v_star):
    """The query arrays as (int, float, int) vectors of one length.

    GameDefinitionError unless every query names a target and stays within
    the budgets (effort within ``REL_TOL * ranger_budget`` of its budget, as
    in ``model.validate_profile``).
    """
    i_star, v_star = np.asarray(i_star), np.asarray(v_star)
    p_star = np.asarray(p_star, dtype=float)
    if not (i_star.ndim == 1 and i_star.shape == p_star.shape == v_star.shape):
        raise GameDefinitionError("query rows must be 1-D arrays of one length")
    if i_star.dtype.kind not in "iu" or v_star.dtype.kind not in "iu":
        raise GameDefinitionError("target indices and villager counts must be integers")
    if not np.all((0 <= i_star) & (i_star < instance.n)):
        raise GameDefinitionError("target index out of range")
    if not np.all((0.0 <= p_star) & (p_star <= instance.ranger_budget * (1.0 + REL_TOL))):
        raise GameDefinitionError("p_star outside the ranger budget")
    if not np.all((0 <= v_star) & (v_star <= instance.villager_budget)):
        raise GameDefinitionError("v_star outside the villager budget")
    return i_star, p_star, v_star


def fixed_target_utilities(instance, i_star, p_star, v_star):
    """(defender, attacker) utility on ``i_star`` with ``p_star`` effort and ``v_star`` villagers.

    Each argument may instead be an array with one entry per query; the
    utilities are then arrays too.
    """
    e_v = instance.e_v[i_star] if isinstance(instance.e_v, np.ndarray) else instance.e_v
    return utilities_of(instance, np.minimum(instance.e_p * p_star + e_v * v_star, 1.0), i_star)


def _fill_in_order(counts: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """How much of each entry of a row of ``counts`` its row's budget ``spare`` covers, in order."""
    before = np.cumsum(counts, axis=1)
    before -= counts
    np.subtract(spare[:, None], before, out=before)
    np.maximum(before, 0.0, out=before)
    return np.minimum(before, counts, out=before)


def _descending(sizes: np.ndarray) -> np.ndarray:
    """Each row's cells of ``sizes`` by decreasing size, ties by column.

    Returned as positions in ``sizes.ravel()``, one row of them per row, as
    flat indexing is the faster gather and scatter. Zero sizes stand for no
    piece and may come last in any order. A plain sort gives this order
    wherever no two nonzero sizes tie; the rows where some do are sorted
    again, stably. The stable sort alone took about twice as long on the
    benchmark's per-target rows.
    """
    keys = np.negative(sizes)
    order = np.argsort(keys, axis=1)
    starts = np.arange(0, keys.size, keys.shape[1])[:, None]
    order += starts
    ranked = keys.ravel()[order]
    tied = ranked[:, 1:] == ranked[:, :-1]
    tied &= ranked[:, 1:] < 0.0
    rows = np.flatnonzero(tied.any(axis=1))
    if rows.size:
        order[rows] = np.argsort(keys[rows], axis=1, kind="stable") + starts[rows]
    return order


def _place_villagers(c_min: np.ndarray, e_v, spare: np.ndarray, counts: bool = False):
    """Residual need the greedy villagers leave per row; with ``counts``, their counts too.

    ``c_min`` holds one row of needs per query and ``spare`` that query's
    villagers. Target j's need splits into whole-villager pieces of size
    e_v[j] and one smaller remainder; placing villagers one at a time where
    the next one covers the most is the same as taking the ``spare`` largest
    pieces overall, ties to the lowest target index. Zero-size remainders
    are never taken. Returns ``(left, alloc)``: every row's residual need
    (zero on a row with a villager for every piece), and every row's
    villager counts, or None without ``counts``. Only the ranking of the
    pieces forks on the type of ``e_v``. Temporaries are updated in place,
    to keep a block's memory small.
    """
    n = c_min.shape[1]
    whole = np.divide(c_min, e_v)
    whole += REL_TOL  # exact multiples must not round down
    np.floor(whole, out=whole)
    remainder = np.multiply(whole, e_v)
    np.subtract(c_min, remainder, out=remainder)
    np.maximum(remainder, 0.0, out=remainder)
    # No row takes more of a target's whole pieces than it has villagers, so
    # the cap changes no answer; it keeps the sums below finite at a tiny e_v.
    np.minimum(whole, spare.max(initial=0) + 1.0, out=whole)
    has_remainder = remainder > 0.0

    if isinstance(e_v, np.ndarray):
        # Pieces interleaved as (whole_0, remainder_0, whole_1, ...), so
        # sorting by size with ties by column orders equal pieces by target.
        sizes = np.empty((c_min.shape[0], 2 * n))
        sizes[:, 0::2], sizes[:, 1::2] = e_v, remainder
        order = _descending(sizes)
        sizes[:, 0::2], sizes[:, 1::2] = whole, has_remainder  # now the piece counts
        del whole, remainder
        pieces = sizes.ravel()
        pieces[order] = _fill_in_order(pieces[order], spare)  # now the pieces taken
        del order
        whole_taken, remainder_taken = sizes[:, 0::2], sizes[:, 1::2] > 0.0
    else:
        # Scalar e_v: whole pieces are all the same size and larger than any
        # remainder, so they go in target order, and only a row with
        # villagers to spare after all of them ranks its remainders. The
        # general sort above gives the same bits for a scalar too, but this
        # branch stays: sending scalars through it cut tdbs-synthetic's
        # solves_per_s from about 53 to about 19 (2-vCPU VM).
        whole_taken = _fill_in_order(whole, spare)
        remainder_taken = np.zeros(whole.shape, dtype=bool)
        n_whole = whole.sum(axis=1)
        extra = np.flatnonzero(n_whole < spare)
        if extra.size:
            order = _descending(remainder[extra])
            top = np.empty(order.shape, dtype=bool)
            top.ravel()[order] = np.arange(n) < (spare[extra] - n_whole[extra])[:, None]
            # a row with a villager for every piece reaches zero-size remainders too
            remainder_taken[extra] = top & has_remainder[extra]
    left = np.multiply(whole_taken, e_v)
    np.subtract(c_min, left, out=left)
    np.maximum(left, 0.0, out=left)
    left[remainder_taken] = 0.0
    alloc = (whole_taken + remainder_taken).astype(np.int64) if counts else None
    return left, alloc


def _fill(instance, c_min, p_star, v_star, witness: bool = False):
    """Greedy fill of rows of needs: ``(feasible, p, v)``.

    Row k of ``c_min`` holds one row's need per target, and ``p_star[k]``
    and ``v_star[k]`` the ranger effort and villagers it has already spent.
    The spare villagers go where each covers the most still-needed coverage
    (``_place_villagers``), and ``feasible`` says whether the rangers left
    cover every row's residual need within ``_COVERAGE_SLACK``. With
    ``witness``, row j of ``p`` and ``v`` is the witness of the j-th
    feasible row: the greedy's villagers, and ranger effort covering the
    residual need, its total trimmed to the budget left (the
    ``_COVERAGE_SLACK`` shortfall); without it both are None.
    """
    left, alloc = _place_villagers(c_min, instance.e_v, instance.villager_budget - v_star, witness)
    budget = np.maximum(instance.ranger_budget - p_star, 0.0)
    feasible = left.sum(axis=1) <= budget * instance.e_p + _COVERAGE_SLACK
    if not witness:
        return feasible, None, None
    p, budget = left[feasible] / instance.e_p, budget[feasible]
    total = p.sum(axis=1)
    over = (total > budget) & (total > 0.0)
    # Divide first: budget / total can be subnormal and lose the digits that keep the sum in budget.
    p[over] = p[over] / total[over][:, None] * budget[over][:, None]
    return feasible, p, alloc[feasible]


def _blocks(instance, count: int):
    """Slices of ``count`` rows, ``_BLOCK_CELLS`` cells at a time."""
    step = max(1, _BLOCK_CELLS // instance.n)
    return (slice(start, start + step) for start in range(0, count, step))


def _query_blocks(instance, i_star, p_star, v_star, witness: bool):
    """``_fill`` on ``_query_rows``'s arrays, one block at a time: ``(block, rows, fill)``.

    ``rows`` indexes the block's queries past the attacker-floor test (every
    other target can be pushed down to the fixed target's utility u); each
    needs ``_min_coverage(u)`` on every other target, and ``fill`` is
    ``_fill``'s answer for them.
    """
    floor = _floor_of_others(instance)
    for block in _blocks(instance, i_star.shape[0]):
        fixed, spent_p, spent_v = i_star[block], p_star[block], v_star[block]
        u = fixed_target_utilities(instance, fixed, spent_p, spent_v)[1]
        rows = np.flatnonzero(u >= floor[fixed])
        c_min = _min_coverage(instance, u[rows, None])
        c_min[np.arange(rows.size), fixed[rows]] = 0.0
        yield block, rows, _fill(instance, c_min, spent_p[rows], spent_v[rows], witness)


def feasible_rows(instance: Instance, i_star, p_star, v_star) -> np.ndarray:
    """Per query row, whether ``p_star`` effort and ``v_star`` villagers on
    ``i_star`` extend to a full profile that keeps ``i_star`` attacked.

    ``i_star``, ``p_star`` and ``v_star`` are arrays with one entry per
    query, and ``e_v`` may be a scalar or per target. Only the answer is
    computed (``_fill``'s): no villager counts, no witness.
    """
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    feasible = np.zeros(i_star.shape[0], dtype=bool)
    for block, rows, (ok, _, _) in _query_blocks(instance, i_star, p_star, v_star, witness=False):
        feasible[block.start + rows] = ok
    return feasible


def witness_blocks(instance: Instance, i_star, p_star, v_star):
    """Per block of query rows: ``(block, feasible, p, v)``.

    Takes the arrays ``feasible_rows`` takes and fills them block by block,
    so only one block of rows is held at a time. ``block`` is the slice of
    the queries it covers, ``feasible`` marks the block's feasible queries,
    and row j of ``p`` and ``v`` is the witness of the j-th of them
    (``_fill``'s), with the query's own ``(p_star, v_star)`` on ``i_star``.
    """
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    for block, rows, (ok, p, v) in _query_blocks(instance, i_star, p_star, v_star, witness=True):
        kept = block.start + rows[ok]
        at = np.arange(kept.size), i_star[kept]
        p[at], v[at] = p_star[kept], v_star[kept]
        feasible = np.zeros(i_star[block].shape[0], dtype=bool)
        feasible[rows[ok]] = True
        yield block, feasible, p, v


def _spread(best, top, k: int):
    """Up to ``k`` counts spread evenly over each open bracket ``[best + 1, top]``.

    Returns ``(counts, real)``, both (brackets, k): the counts, and a mask of
    those that are real probes. A bracket of at most ``k`` counts is probed
    whole; a wider one at ``best + floor(s * (top + 1 - best) / (k + 1))``
    for s = 1 .. k, as ``_minimax_profile`` spreads its levels, which at
    ``k = 1`` is the binary search's midpoint. Every ``best`` must be at
    least 0, so no sum here leaves int64.
    """
    steps = np.arange(1, k + 1)
    width = (top - best - 1)[:, None]  # counts in the bracket, less one
    whole, rest = np.divmod(width, k + 1)
    spread = whole * steps + (rest + 2) * steps // (k + 1)  # (width + 2) * steps // (k + 1), exactly
    counts = best[:, None] + np.where(width < k, steps, spread)
    return counts, steps - 1 <= width


def most_villagers(instance: Instance, i_stars) -> Tuple[np.ndarray, int]:
    """Largest v with (i, 0, v) consistent for each target i of ``i_stars``, or -1 where v = 0 is not.

    One search per target over ``[0, villager_budget]``, all in lockstep:
    each round is one ``feasible_rows`` call in which every search still
    open probes ``max(1, rows per block // open searches)`` counts spread
    evenly over its open bracket (``_spread``), so one round of one search
    fills one block. The first round probes v = 0 and spreads the rest
    above it; with one probe a round the search is a binary search. Monotone
    by the resource-reduction property: lowering the count on the attacked
    target never breaks consistency. Returns (counts, rows checked).
    """
    i_stars = np.asarray(i_stars)
    # Per search, the largest count known consistent and the largest not known inconsistent.
    best = np.full(i_stars.shape[0], -1, dtype=np.int64)
    top = np.full(i_stars.shape[0], instance.villager_budget, dtype=np.int64)
    per_block = max(1, _BLOCK_CELLS // instance.n)
    searching = np.arange(i_stars.shape[0])
    checks = 0
    while searching.size:
        k = max(1, per_block // searching.size)
        lo, hi = best[searching], top[searching]
        if lo[0] < 0:  # the first round (later, every open search has a best): v = 0, then k - 1 above it
            zero = np.zeros_like(lo)
            counts, real = _spread(zero, hi, k - 1)
            counts = np.hstack([zero[:, None], counts])
            real = np.hstack([np.ones((lo.size, 1), dtype=bool), real])
        else:
            counts, real = _spread(lo, hi, k)
        rows = np.broadcast_to(searching[:, None], counts.shape)[real]
        ok = np.zeros(counts.shape, dtype=bool)
        ok[real] = feasible_rows(instance, i_stars[rows], np.zeros(rows.size), counts[real])
        checks += rows.size
        best[searching] = lo = np.maximum(lo, np.where(ok, counts, -1).max(axis=1))
        top[searching] = hi = np.minimum(hi, np.where(real > ok, counts - 1, hi[:, None]).min(axis=1))
        searching = searching[hi > lo]
    return best, checks


def candidates(instance: Instance, targets) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """The targets of ``targets`` that can be attacked at all, each with the most villagers it can keep.

    Both solvers start here: ``tdbs`` with every target, ``hw`` with those
    its bound keeps (``_upper_bounds``). ``most_villagers`` searches all of
    ``targets``, an ascending index array, in lockstep. Returns
    ``(i_stars, v_stars, counters)``: the candidates in index order, their
    villager counts, and a ``Counter`` of the ``feasibility_checks`` spent
    (one per query row) and the number of ``candidates``.
    """
    counts, checks = most_villagers(instance, targets)
    attackable = counts >= 0
    counters = Counter({"feasibility_checks": checks, "candidates": int(attackable.sum())})
    return np.asarray(targets)[attackable], counts[attackable], counters


def _levels_feasible(instance, levels: np.ndarray) -> np.ndarray:
    """Per attacker level u of ``levels``, whether the budgets hold every target to at most u.

    Each level is one ``_fill`` row needing every target's
    ``_min_coverage(u)``, with nothing spent.
    """
    feasible = np.empty(levels.size, dtype=bool)
    spent = np.zeros(levels.size, dtype=np.int64)
    for block in _blocks(instance, levels.size):
        c_min = _min_coverage(instance, levels[block, None])
        feasible[block] = _fill(instance, c_min, spent[block], spent[block])[0]
    return feasible


def _minimax_profile(instance: Instance) -> Tuple[StrategyProfile, int]:
    """A profile holding the attacker's best utility lowest, and the level rows checked.

    ORIGAMI's attack-set minimisation (Kiekintveld et al., AAMAS 2009) with
    whole villagers. Holding every target to an attacker level u is
    feasible at u = max R_a and monotone in u, and no level below max P_a
    is feasible. So the search narrows the bracket ``[max P_a, max R_a]``
    in rounds, each one ``_levels_feasible`` call on
    ``_LEVELS_PER_ROUND`` levels spread evenly inside it, until it is
    within ``tol`` or one float step, as ``tdbs.most_effort`` stops. The
    profile is ``_fill``'s witness of the level row at the bracket's
    feasible end, built as ``witness_blocks`` builds its witnesses.
    """
    lo, hi = float(instance.penalty_att.max()), float(instance.reward_att.max())
    steps = np.arange(1, _LEVELS_PER_ROUND + 1) / (_LEVELS_PER_ROUND + 1)
    checks = 0
    while hi - lo > instance.tol:
        levels = lo + (hi - lo) * steps  # ascending; repeats only near one float step
        levels = levels[(lo < levels) & (levels < hi)]
        if levels.size == 0:
            break  # narrower than one float step
        feasible = _levels_feasible(instance, levels)
        checks += levels.size
        first = int(np.argmax(feasible)) if feasible.any() else levels.size
        if first < levels.size:
            hi = float(levels[first])
        if first > 0:
            lo = float(levels[first - 1])
    spent = np.zeros(1, dtype=np.int64)
    _, p, v = _fill(instance, _min_coverage(instance, np.array([[hi]])), spent, spent, witness=True)
    return StrategyProfile(p[0], v[0]), checks


def _pooled_level(instance) -> float:
    """A level z such that no valid profile holds every target's attacker utility to z or below.

    ORIGAMI's pooled-coverage sweep (Kiekintveld et al., AAMAS 2009) with
    integrality dropped. The coverage a valid profile spends is at most
    ``C = e_p * ranger_budget * (1 + REL_TOL) + max(e_v) * villager_budget``
    (effort within ``model.validate_profile``'s slack), and holding every
    target to u takes ``F(u) = sum_j _min_coverage(u)_j``, which falls
    piecewise linearly as u rises. The sweep finds where F crosses C from
    prefix sums over the targets sorted by reward and by penalty, with F
    written as ``sum_{R_j > u} (R_j - u) / spread_j - sum_{P_j > u} (P_j -
    u) / spread_j``. Prefix sums can cancel, so the level returned is
    ``tol / 2`` below the crossing and certified: ``_min_coverage`` sums
    to more than C there, past the rounding of that sum. So any u with
    ``F(u) <= C`` lies above z. Returns -inf where C covers every target
    fully, and nan where the sweep is not finite or the level is not
    certified.
    """
    spread = instance.spread_att
    wide = spread > 0
    total = np.count_nonzero(wide)
    with np.errstate(over="ignore"):
        rangers = instance.e_p * instance.ranger_budget * (1.0 + REL_TOL)
        pooled = rangers + np.max(instance.e_v) * instance.villager_budget
    if pooled >= total:
        return -np.inf
    reward, penalty = instance.reward_att[wide], instance.penalty_att[wide]
    width = 1.0 / spread[wide]
    breaks = np.concatenate([reward, penalty])
    need = np.zeros(breaks.size)  # F at each break
    with np.errstate(over="ignore", invalid="ignore"):
        for ends, sign in ((reward, 1.0), (penalty, -1.0)):
            order = np.argsort(ends)
            # Sums of ends * width and of width over the targets at and past
            # each position in ascending order, and nothing past the last.
            past = np.zeros((2, ends.size + 1))
            past[:, :-1] = np.cumsum(np.stack([ends * width, width])[:, order[::-1]], axis=1)[:, ::-1]
            past = past[:, np.searchsorted(ends[order], breaks, side="right")]
            need += sign * (past[0] - breaks * past[1])
        short = need > pooled  # F(u) > C: u lies below the crossing
        if short.all() or not short.any():
            return np.nan  # F is 0 at the largest reward and ``total`` at the least penalty
        lo = np.where(short, breaks, -np.inf).argmax()
        hi = np.where(short, np.inf, breaks).argmin()
        crossing = breaks[lo] + (breaks[hi] - breaks[lo]) * ((need[lo] - pooled) / (need[lo] - need[hi]))
        level = float(crossing - instance.tol / 2)
    if not np.isfinite(level):
        return np.nan
    rounding = 4 * instance.n * instance.n.bit_length() * np.finfo(float).eps
    return level if _min_coverage(instance, level).sum() > pooled + rounding else np.nan


def _upper_bounds(instance) -> np.ndarray:
    """Per target i, at least the defender utility on i of any valid profile
    that leaves i in the attacker's tied set.

    Such a profile holds the attacker's utility on i at no less than i's
    penalty, than any other target's penalty less ``tol`` (i ties the best
    within ``tol``), and than ``_pooled_level(instance) - tol`` (every
    target is held to that utility plus ``tol``). The coverage on i is then
    at most ``(R_a - level) / spread``, clipped to [0, 1]; a zero-spread
    target holds the attacker at 0 under any coverage up to 1. The bound is
    -inf where the level lies above i's reward, and +inf everywhere where
    ``_pooled_level`` is nan. Memory is O(n), time O(n log n).
    """
    level = _pooled_level(instance)
    if np.isnan(level):
        return np.full(instance.n, np.inf)
    floor = np.maximum(instance.penalty_att, _floor_of_others(instance) - instance.tol / 2)
    lowest = np.maximum(floor, level - instance.tol)
    spread = instance.spread_att
    with np.errstate(divide="ignore", invalid="ignore"):
        coverage = np.clip((instance.reward_att - lowest) / spread, 0.0, 1.0)
    coverage[~(spread > 0)] = 1.0
    bounds = utilities_of(instance, coverage, slice(None))[0]
    bounds[lowest > instance.reward_att] = -np.inf
    return bounds
