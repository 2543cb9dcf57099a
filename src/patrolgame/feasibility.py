"""Consistency checks: can a fixed allocation on one target be completed?

Given a candidate attacked target and fixed resources on it, decide whether
the remaining rangers and villagers can cover every other target well enough
that the candidate stays an attacker best response, and produce a witness
profile when they can. Villagers are placed greedily, each where it covers
the most still-needed coverage; rangers fill whatever coverage remains.
Villager effectiveness may be a scalar or vary per target.

Rows: the greedy works on many queries at once, one row of targets per
query, and each row's answer is the one it would get alone. Each array
operation covers one block of ``_BLOCK_CELLS`` cells (rows times targets),
so memory stays O(block × n) however many rows come in. There are two
kinds of row:

- answer-only rows (``feasible_rows``) sum each row's residual need
  straight from the piece arithmetic, with no villager counts and no
  witness; rows where every piece fits need no greedy at all;
- witness rows run the same greedy with counts and build each feasible
  row's profile (p, v): ``greedy_profiles`` yields them,
  ``check_consistent`` is the one-row case, and ``witness_utilities``
  scores a block of them at once with ``best_response``'s arithmetic and
  keeps none.

The shared candidate search ``candidates`` runs in lockstep: all n
targets' v = 0 tests are one call, and each round of the villager binary
search (``most_villagers``) decides one row per candidate still searching.

Slack (all from ``model.REL_TOL``): a witness reported as feasible keeps
``i_star`` within ``instance.tol`` of the attacker's best, so it stays in
``best_response``'s tied set. Two slacks share that budget, at most half
each:

- the attacker-floor test accepts a utility up to ``tol / 2`` below a
  target's penalty (full coverage then leaves that target at most
  ``tol / 2`` above ``i_star``);
- the ranger-coverage sum may exceed the ranger budget by the unitless
  ``_COVERAGE_SLACK``. ``_witness_blocks`` trims that shortfall out of the
  effort, lowering some targets' coverage by at most as much in total, and a
  coverage drop of sigma raises a target's attacker utility by at most
  ``sigma * (R_a - P_a) <= sigma * 2 * max|payoff| = tol / 2``.

Ranger effort on the fixed target may exceed the budget by
``REL_TOL * ranger_budget``, as in ``model.validate_profile``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    StrategyProfile,
    best_response,
    coverage_of,
    utilities_of,
)

# Slack on the ranger-coverage sum: its trim lifts a utility by at most
# tol / 2 (module docstring).
_COVERAGE_SLACK = REL_TOL / 4

# Cells (query rows times targets) the greedy handles in one array
# operation; bounds the transient memory of a batched check at O(block × n).
_BLOCK_CELLS = 2**13


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


def _min_coverage(instance, u) -> np.ndarray:
    """Per-target minimum coverage forcing attacker utility down to <= u.

    ``u`` is a number, or a column of them for one row each. Where the
    payoff spread is zero (reward and penalty both zero by the sign
    constraints) the utility is 0 at any coverage, so c_min is 0.
    """
    spread = instance.spread_att
    with np.errstate(divide="ignore", invalid="ignore"):
        c_min = (instance.reward_att - u) / spread
    np.clip(c_min, 0.0, 1.0, out=c_min)
    flat = ~(spread > 0)
    if flat.any():
        c_min[..., flat] = 0.0
    return c_min


def _min_coverage_vec(instance, u: float) -> Tuple[np.ndarray, np.ndarray]:
    """(c_min, achievable): ``_min_coverage`` and the attacker-floor test.

    A target counts as achievable when u is at most ``tol / 2`` below its
    penalty floor.
    """
    return _min_coverage(instance, u), u >= instance.penalty_att - instance.tol / 2


def _floor_of_others(instance) -> np.ndarray:
    """Per target i, the lowest utility the attacker-floor test accepts on
    every other target: the largest ``P_a[j] - tol / 2`` over j != i."""
    floor = instance.penalty_att - instance.tol / 2
    top = int(np.argmax(floor))
    others = np.full(instance.n, floor[top])
    others[top] = max(floor[:top].max(initial=-np.inf), floor[top + 1 :].max(initial=-np.inf))
    return others


def min_valid_coverage(instance, i: int, u: float) -> Optional[float]:
    """Smallest coverage on target ``i`` with attacker utility <= ``u``.

    None when no coverage achieves it (u below the attacker's penalty floor).
    """
    c_min, achievable = _min_coverage_vec(instance, u)
    if not achievable[i]:
        return None
    return float(c_min[i])


def total_wasted_coverage(instance, v: np.ndarray, u: float, i_star: int) -> float:
    """Villager coverage in excess of the needed minimum, summed over i != i_star."""
    v = np.asarray(v)
    c_min, achievable = _min_coverage_vec(instance, u)
    others = np.arange(instance.n) != i_star
    if not achievable[others].all():
        raise GameDefinitionError("utility %r is unachievable on some target" % (u,))
    waste = np.maximum(v * np.asarray(instance.e_v) - c_min, 0.0)
    return float(waste[others].sum())


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
    are never taken. Returns ``(short, left, alloc)``: ``short`` indexes the
    rows with fewer villagers than pieces (every other row covers its whole
    need), ``left`` holds those rows' residual need, and ``alloc`` every
    row's villager counts, or None without ``counts``. Temporaries are
    updated in place, to keep a block's memory small.
    """
    n = c_min.shape[1]
    whole = np.divide(c_min, e_v)
    whole += REL_TOL  # exact multiples must not round down
    np.floor(whole, out=whole)
    remainder = np.multiply(whole, e_v)
    np.subtract(c_min, remainder, out=remainder)
    np.maximum(remainder, 0.0, out=remainder)
    # More whole pieces on one target than any row has villagers leave that
    # row short either way; the cap keeps the sums below finite at a tiny e_v.
    np.minimum(whole, spare.max(initial=0) + 1.0, out=whole)
    has_remainder = remainder > 0.0
    n_whole = whole.sum(axis=1)
    short = np.flatnonzero(n_whole + np.count_nonzero(has_remainder, axis=1) > spare)
    alloc = None
    if counts:  # right where every piece fits; the short rows' counts are set below
        alloc = whole + has_remainder
        alloc[short] = 0.0
        alloc = alloc.astype(np.int64)
    if short.size == 0:
        return short, np.empty((0, n)), alloc
    if short.size < c_min.shape[0]:  # from here on every array holds the short rows only
        c_min, whole, remainder = c_min[short], whole[short], remainder[short]
        has_remainder, spare, n_whole = has_remainder[short], spare[short], n_whole[short]

    if isinstance(e_v, np.ndarray):
        # Pieces interleaved as (whole_0, remainder_0, whole_1, ...), so
        # sorting by size with ties by column orders equal pieces by target.
        sizes = np.empty((short.size, 2 * n))
        sizes[:, 0::2], sizes[:, 1::2] = e_v, remainder
        order = _descending(sizes)
        sizes[:, 0::2], sizes[:, 1::2] = whole, has_remainder  # now the piece counts
        del whole, remainder
        pieces = sizes.ravel()
        pieces[order] = _fill_in_order(pieces[order], spare)  # now the pieces taken
        del order
        left = np.multiply(sizes[:, 0::2], e_v)
        np.subtract(c_min, left, out=left)
        np.maximum(left, 0.0, out=left)
        left[sizes[:, 1::2] > 0.0] = 0.0
        if counts:
            alloc[short] = sizes[:, 0::2] + sizes[:, 1::2]
    else:
        # Scalar e_v: whole pieces are all the same size and larger than any
        # remainder, so they go in target order and no sort is needed unless
        # villagers are left over for the remainders. The general sort above
        # gives the same bits for a scalar too, but this branch stays: sending
        # scalars through it cut tdbs-synthetic from about 34 to about 21
        # solves per second (2-vCPU VM).
        left = remainder
        extra = n_whole < spare
        in_order = ~extra if extra.any() else slice(None)
        filled = _fill_in_order(whole[in_order], spare[in_order])
        if counts:
            alloc[short[in_order]] = filled
        np.multiply(filled, e_v, out=filled)
        np.subtract(c_min[in_order], filled, out=filled)
        left[in_order] = np.maximum(filled, 0.0, out=filled)
        del filled
        if extra.any():
            order = _descending(left[extra])
            top = np.empty(order.shape, dtype=bool)
            top.ravel()[order] = np.arange(n) < (spare[extra] - n_whole[extra])[:, None]
            del order
            remainders = left[extra]
            remainders[top] = 0.0
            left[extra] = remainders
            if counts:
                alloc[short[extra]] = whole[extra] + top
    return short, left, alloc


def _fill(instance, floor, i_star, p_star, v_star, counts: bool = False):
    """Greedy fill of rows of queries: (rows, feasible, short, left, alloc).

    ``rows`` indexes the queries passing the attacker-floor test (every
    other target can be pushed down to the fixed target's utility, at least
    ``floor``, the instance's ``_floor_of_others``); for each of them,
    ``feasible`` says whether the rangers can cover the residual need the
    greedy villagers leave. Rows where every piece fits leave none and are
    feasible; ``short``, ``left`` and ``alloc`` are as ``_place_villagers``
    returns them.
    """
    u = fixed_target_utilities(instance, i_star, p_star, v_star)[1]
    rows = np.flatnonzero(u >= floor[i_star])
    c_min = _min_coverage(instance, u[rows, None])
    c_min[np.arange(rows.size), i_star[rows]] = 0.0
    spare = instance.villager_budget - v_star[rows]
    short, left, alloc = _place_villagers(c_min, instance.e_v, spare, counts)
    ranger_coverage = np.maximum(instance.ranger_budget - p_star[rows[short]], 0.0) * instance.e_p
    feasible = np.ones(rows.size, dtype=bool)
    feasible[short] = left.sum(axis=1) <= ranger_coverage + _COVERAGE_SLACK
    return rows, feasible, short, left, alloc


def _blocks(instance, count: int):
    """Slices of ``count`` query rows, ``_BLOCK_CELLS`` cells at a time."""
    step = max(1, _BLOCK_CELLS // instance.n)
    return (slice(start, start + step) for start in range(0, count, step))


def feasible_rows(instance: Instance, i_star, p_star, v_star) -> np.ndarray:
    """``check_consistent(instance, FeasibilityQuery(i, p, v)).feasible`` for every row.

    ``i_star``, ``p_star`` and ``v_star`` are arrays with one entry per
    query. Only the answer is computed: no villager counts, no witness.
    """
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    floor = _floor_of_others(instance)
    feasible = np.zeros(i_star.shape[0], dtype=bool)
    for block in _blocks(instance, i_star.shape[0]):
        rows, ok, _, _, _ = _fill(instance, floor, i_star[block], p_star[block], v_star[block])
        feasible[block.start + rows] = ok
    return feasible


def _witness_blocks(instance, i_star, p_star, v_star):
    """Per block of query rows: ``(block, feasible, p, v)``.

    ``feasible`` marks the block's feasible queries, and row j of ``p`` and
    ``v`` is the witness of the j-th of them: the greedy fill's villagers,
    and ranger effort covering the residual need, its total trimmed to the
    budget left (the ``_COVERAGE_SLACK`` shortfall), with the query's own
    ``(p_star, v_star)`` on ``i_star``.
    """
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    floor = _floor_of_others(instance)
    for block in _blocks(instance, i_star.shape[0]):
        fixed, p_fixed, v_fixed = i_star[block], p_star[block], v_star[block]
        rows, ok, short, left, alloc = _fill(instance, floor, fixed, p_fixed, v_fixed, counts=True)
        residual = np.zeros(alloc.shape)
        residual[short] = left
        kept = rows[ok]
        at = np.arange(kept.size), fixed[kept]
        p = residual[ok] / instance.e_p
        p[at] = 0.0
        remaining_budget = np.maximum(instance.ranger_budget - p_fixed[kept], 0.0)
        total = p.sum(axis=1)
        over = (total > remaining_budget) & (total > 0.0)
        p[over] *= (remaining_budget[over] / total[over])[:, None]
        p[at] = p_fixed[kept]
        v = alloc[ok]
        v[at] = v_fixed[kept]
        feasible = np.zeros(fixed.shape[0], dtype=bool)
        feasible[kept] = True
        yield block, feasible, p, v


def greedy_profiles(instance: Instance, i_star, p_star, v_star) -> Iterator:
    """The witness ``(p, v)`` of every row's query in turn, or None where it is infeasible.

    Takes the arrays ``feasible_rows`` takes and fills them block by
    block, so only one block of rows is held at a time.
    """
    for _, feasible, p, v in _witness_blocks(instance, i_star, p_star, v_star):
        witnesses = zip(p, v)
        for ok in feasible.tolist():
            yield next(witnesses) if ok else None


def witness_utilities(instance: Instance, i_star, p_star, v_star) -> np.ndarray:
    """The defender utility of every row's witness, NaN where the row is infeasible.

    Each equals ``_defender_utility`` of the witness ``greedy_profiles``
    yields, bit for bit: the witnesses of a block are scored together with
    ``best_response``'s per-target arithmetic (coverage, utilities, the
    attacker's tied set within ``instance.tol``, the defender's best in it),
    and no witness is kept.
    """
    utilities = np.full(np.shape(i_star)[0], np.nan)
    for block, feasible, p, v in _witness_blocks(instance, i_star, p_star, v_star):
        u_d, u_a = utilities_of(instance, coverage_of(instance, p, v), slice(None))
        u_d[u_a < u_a.max(axis=1, keepdims=True) - instance.tol] = -np.inf
        utilities[block.start + np.flatnonzero(feasible)] = u_d.max(axis=1)
    return utilities


def check_consistent(instance: Instance, query: FeasibilityQuery) -> FeasibilityAnswer:
    """Decide whether ``query`` extends to a full profile keeping ``i_star`` attacked.

    Greedy fill: the spare villagers go where each covers the most
    still-needed coverage (see _place_villagers), and rangers must cover the
    rest. Works for a scalar and for a per-target ``e_v``.
    """
    witness = next(greedy_profiles(instance, [query.i_star], [query.p_star], [query.v_star]))
    if witness is None:
        return FeasibilityAnswer(False, None)
    return FeasibilityAnswer(True, StrategyProfile(*witness))


def most_villagers(instance: Instance, i_stars) -> Tuple[np.ndarray, int]:
    """Largest v with (i, 0, v) consistent, for each target i of ``i_stars``.

    One binary search per target, all in lockstep: each round decides one
    ``feasible_rows`` row per search still open, and every search probes the
    midpoints it would probe alone. Monotone by the resource-reduction
    property: lowering the count on the attacked target never breaks
    consistency. Each target must be consistent at v = 0. Returns (counts,
    rows checked).
    """
    i_stars = np.asarray(i_stars)
    lo = np.zeros(i_stars.shape[0], dtype=np.int64)
    hi = np.full(i_stars.shape[0], instance.villager_budget, dtype=np.int64)
    best = np.zeros(i_stars.shape[0], dtype=np.int64)
    searching = np.ones(i_stars.shape[0], dtype=bool)
    checks = 0
    while searching.any():
        rows = np.flatnonzero(searching)
        mid = lo[rows] + (hi[rows] - lo[rows]) // 2
        ok = feasible_rows(instance, i_stars[rows], np.zeros(rows.size), mid)
        checks += rows.size
        best[rows[ok]] = mid[ok]
        lo[rows[ok]] = mid[ok] + 1  # wraps only at mid == hi, which ends the search
        hi[rows[~ok]] = mid[~ok] - 1
        searching[rows] = np.where(ok, mid < hi[rows], mid > lo[rows])
    return best, checks


def _defender_utility(instance, p, v) -> float:
    """Defender utility of the profile (p, v), as ``evaluate_profile`` finds it."""
    return best_response(instance, coverage_of(instance, p, v)).defender_utility


def candidates(instance: Instance) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """The targets that can be attacked at all, each with the most villagers it can keep.

    Both solvers start here. Every target's v = 0 test is one
    ``feasible_rows`` call, and ``most_villagers`` searches every attackable
    target in lockstep. Returns ``(i_stars, v_stars, counters)``: the
    candidates in index order, their villager counts, and a ``Counter`` of
    the ``feasibility_checks`` spent (one per query row) and the number of
    ``candidates``.
    """
    n = instance.n
    attackable = feasible_rows(instance, np.arange(n), np.zeros(n), np.zeros(n, dtype=np.int64))
    i_stars = np.flatnonzero(attackable)
    v_stars, checks = most_villagers(instance, i_stars)
    counters = Counter({"feasibility_checks": n + checks, "candidates": int(i_stars.size)})
    return i_stars, v_stars, counters
