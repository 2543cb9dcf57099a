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
  ranger effort; ``tdbs``'s one row per candidate is one, and the winner
  rule scores its blocks as they come. Both kinds of query share one loop
  (``_query_blocks``);
- level rows (``_levels_feasible``) hold every target to one attacker
  level, with nothing spent. The minimax search (``_minimax_profile``),
  which seeds ``solve_hw``'s pruning, checks one of them at the pooled
  crossing first, and ``_LEVELS_PER_ROUND`` per round only where that one
  fails; it builds its profile as witness rows do.

So a target's v = 0 query past the floor test is the level row at its own
attacker reward, where its own need is zero.

Candidates: the paper's multiple-LP shape (Conitzer and Sandholm, EC 2006).
For each attacked target, a solver completes the best allocation that keeps
it attacked, and the best completion wins (``model.first_best``). Both
solvers take their candidates from this module, one function each:

- ``candidates_with_effort`` for ``tdbs``: the searches of ``candidates``
  on every target, then an effort search (``most_effort``'s) per
  candidate, both ended by one witness row per candidate (below);
- ``candidates_above_seed`` for ``hw``: ``candidates`` on the targets its
  bound keeps, then the break-even prune (both below).

``candidates`` runs one villager search per target (``most_villagers``).
Where every count of every villager search fits one block, one call probes
them all; otherwise the searches bisect in lockstep, cheap tests first
(below). Each pipeline builds one ``_Pool`` and passes it to all of its
steps, and its query rows read the attacker floor (``_floor_of_others``)
from that pool: only ``feasible_rows`` and ``witness_blocks``, which take an
instance, derive the floor again.

Pruning ``hw``'s candidates, in two steps, both against a seed: a defender
utility that some valid profile reaches on the target it is attacked on, so
the optimum reaches it too. The first seed is the minimax profile's
(``_minimax_profile``), which holds the attacker's best utility lowest
(ORIGAMI's attack-set minimisation), read on a target it lets be attacked
exactly (``_minimax_seed``): one it attacks already, or one whose ranger
effort can be shed until its attacker utility passes the best. A target
only tied within tol is not enough: it may be no candidate at all. The
search starts at the level where the pooled need meets the budgets'
coverage (``_crossing``, the sweep the bound uses too), and one level row
just above it usually settles it. The seed stays sound however the level
was found: the profile is the witness of a level row the fill finds
feasible.

- Bound: ``_upper_bounds`` gives each target at least the defender utility
  of any valid profile that leaves it in the attacker's tied set (ORIGAMI's
  pooled-coverage sweep in ``_pooled_level``, with integrality dropped). A
  target whose bound is below ``minimax seed - tol`` cannot win. It gets no
  villager search and counts in ``bounded``; the rest go to ``candidates``.
- Break-even: the seed becomes the larger of the minimax seed and the best
  candidate's utility with its villagers and no ranger effort, which that
  candidate's completion reaches. A candidate's defender utility rises with
  the effort on it, and consistency is monotone in effort, so it can reach
  the bar ``seed - tol`` only if its break-even effort, where its utility
  equals the bar, is consistent. Every candidate below the bar with no
  effort is checked at its break-even effort in one batch of query rows,
  and pruned if it fails or its break-even lies past full coverage or the
  ranger budget.

The optimal candidate survives both when its profile is attacked on its own
target: that profile reaches the optimum, at least the seed, with a
consistent effort, at least the break-even, and its utility is at most the
target's bound. This is sound for a scalar ``e_v``, the only kind ``hw``
accepts: a candidate whose profile evaluates above its own target's utility
does so through a tie with a target whose exact completion reaches at least
as much, and that target is never pruned. On exactly tied payoffs the two
may be different co-optimal profiles, so the attacked target can differ
from an unpruned solve while the utility does not. The seed only prunes:
``solve_hw`` returns its own waterfilled winner, never the minimax profile,
which often ties it on another attacked target. ``candidates_above_seed``
builds the solve's one ``_Pool`` before the seed, counts the minimax
search's level rows, the villager search's rows and the
break-even rows in ``feasibility_checks``, the targets never searched in
``bounded``, the attackable targets among the rest in ``candidates``, and
the pruned candidates in ``pruned``, so ``candidates - pruned`` subproblems
run.

Cheap tests first: two tests are implied by consistency, and on ``tdbs``'s
workloads one of them, not the fill, usually binds.

- The attacker-floor test (``_floor_test``, O(1)), which every query row
  runs before its O(n log n) fill: every other target can be pushed down to
  the fixed target's attacker utility u.
- The pooled test (in ``_Pool.passes``, O(log n)), ORIGAMI's pooled coverage
  with integrality dropped: the ranger effort left, ``max(R_p - p, 0) *
  e_p``, plus every spare villager at ``max(e_v)`` covers ``sum_{j != i}
  _min_coverage(u)_j`` within ``_COVERAGE_SLACK`` plus a rounding margin.
  The fill's villagers cover at most ``e_v[j] <= max(e_v)`` each, so its
  residual need is at least that sum less the villagers' share, and a row
  the fill accepts passes. The margin, ``4 (n + 2) eps * (sum_j (|R_j| +
  |P_j|) / spread_j + |u| * sum_j 1 / spread_j + n + cover)``, with the
  first sum at most n by the sign constraints, bounds the rounding of the
  sorted suffix sums and of the fill's own sums, so the
  test rejects only rows the fill surely rejects; a non-finite sum passes.
  Where ``e_v`` is a scalar and every spare villager takes a whole piece,
  the pooled deficit is the fill's own answer.

``_Pool.passes`` answers both tests for query rows. Both searches are one
lockstep bisection (``_bisect``): villager counts over ``[-1,
villager_budget]`` and efforts over ``[0, ranger_budget]``, which differ
only in the midpoint rule. One routine (``_search``) runs it in three steps:

1. bisect on ``_Pool.passes`` alone, with no row (``_cheap_ends``);
2. check each end above the lower bound with one ``feasible_rows`` row
   (``_confirm``). An end at the lower bound passed no probe, so the full
   search ends there too. Consistency is monotone in the fixed resources,
   so where the row finds the end consistent, it is the full search's end:
   every probe a test failed fails the full check too, and every probe both
   passed lies at or below the end, so is consistent too. A wrong rejection
   would change the search's path, which is why the pooled test keeps its
   margin;
3. bisect the searches whose end failed again, on the full check alone
   (``_fall_back``): a count below the failed end, as its answer is the
   same on any path; an effort from the start, as its end depends on its
   path.

``tdbs`` merges step 2 of its two searches into one row per candidate
(``candidates_with_effort``): it runs step 1 for every villager count (or
the one call that probes every count, whose counts need no row), then for
every candidate's effort at that count, and sends one witness row at ``(i,
p_end, v_end)``. Where that row passes it confirms both ends, and it is the
candidate's witness: it is the effort's confirming row, and ``(i, 0,
v_end)`` is consistent by monotonicity. Only a candidate whose row fails
takes steps 2 and 3 one search at a time (``_fall_back_ends``): the count's
row at ``(i, 0, v_end)`` and its fallback where that fails, then a fresh
effort search where the count moved, or the effort's fallback where it did
not; one witness row then serves its new ends.

Rows counted: ``feasibility_checks`` counts the rows sent through
``feasible_rows``, the level rows and ``tdbs``'s one witness row per
candidate, each once, never the cheap tests' answers. The witness rows of
the fallback ends are not counted: rows already confirmed those ends. In
step 3 every probe below the failed end is one row, and every probe at or
above it fails with none. No cheap test runs there: the attacker's utility
on the fixed target falls as its resources grow, so every probe below an
end that passed the floor test passes it too.

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
from typing import Iterator, Tuple

import numpy as np

from .model import REL_TOL, GameDefinitionError, Instance, StrategyProfile, _resolution, coverage_of, utilities_of

# Slack on the ranger-coverage sum: its trim lifts a utility by at most
# tol / 2 (module docstring).
_COVERAGE_SLACK = REL_TOL / 4

# Cells (query rows times targets) the greedy handles in one array
# operation; bounds the transient memory of a batched check at O(block × n).
_BLOCK_CELLS = 2**13

# Attacker levels the minimax search checks per round where its one row at
# the pooled crossing fails (``_minimax_profile``).
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


def _floor_test(instance, floor, i_star, p_star, v_star):
    """``(u, passes)``: the attacker's utility on ``i_star`` under the fixed
    resources, and whether it passes the attacker-floor test there (every
    other target can be pushed down to u).

    ``floor`` is ``_floor_of_others(instance)``; the other arguments are as
    ``fixed_target_utilities`` takes them. Every query row and both searches
    (``_Pool.passes``) decide the test by this one expression.
    """
    u = fixed_target_utilities(instance, i_star, p_star, v_star)[1]
    return u, u >= floor[i_star]


class _Pool:
    """ORIGAMI's pooled coverage (Kiekintveld et al., AAMAS 2009) with integrality dropped.

    Holding every target's attacker utility to u takes ``F(u) = sum_j
    _min_coverage(u)_j``, written over the targets with a spread as
    ``sum_{R_j > u} (R_j - u) / spread_j - sum_{P_j > u} (P_j - u) /
    spread_j``. Built once in O(n log n), the reward- and penalty-sorted
    suffix sums of ``end / spread`` and ``1 / spread`` give F at any u in
    O(log n) (``need``). ``_crossing`` sweeps F; ``passes`` answers
    both cheap tests for query rows (module docstring).
    """

    def __init__(self, instance):
        self.instance = instance
        self.floor = _floor_of_others(instance)
        spread = instance.spread_att
        wide = spread > 0
        self.reward, self.penalty = instance.reward_att[wide], instance.penalty_att[wide]
        width = 1.0 / spread[wide]
        self.sides = []
        with np.errstate(over="ignore", invalid="ignore"):
            for ends in (self.reward, self.penalty):
                order = np.argsort(ends)
                # Sums of ends * width and of width over the targets at and past
                # each position in ascending order, and nothing past the last.
                past = np.zeros((2, ends.size + 1))
                past[:, :-1] = np.cumsum(np.stack([ends * width, width])[:, order[::-1]], axis=1)[:, ::-1]
                self.sides.append((ends[order], past[0], past[1]))
            # ``passes``' rounding margin: 4 (n + 2) eps times what the sums'
            # rounding scales with. By the sign constraints |R_j| + |P_j| is
            # spread_j, so sum_j (|R_j| + |P_j|) / spread_j is at most n.
            self.rounding = 4 * (instance.n + 2) * np.finfo(float).eps
            self.margin_per_u = self.rounding * width.sum()
            self.slack = _COVERAGE_SLACK + self.rounding * 2 * instance.n
        self.own_width = np.zeros(instance.n)
        self.own_width[wide] = width
        self.most_e_v = float(np.max(instance.e_v))

    def need(self, u):
        """F at each level of ``u``, from the sorted suffix sums. May overflow:
        call it under ``np.errstate(over="ignore", invalid="ignore")``."""
        (rewards, reward_width, reward_sum), (penalties, penalty_width, penalty_sum) = self.sides
        at, below = np.searchsorted(rewards, u, side="right"), np.searchsorted(penalties, u, side="right")
        return (reward_width[at] - u * reward_sum[at]) - (penalty_width[below] - u * penalty_sum[below])

    def passes(self, i_star, p_star, v_star):
        """Per query row, whether it passes both cheap tests: the attacker-floor
        test (``_floor_test``) and the pooled test.

        The pooled test holds the other targets to the fixed target's utility
        u: the ranger effort left and every spare villager at ``max(e_v)``
        must cover their ``_min_coverage(u)`` within ``_COVERAGE_SLACK`` plus
        the rounding margin; a non-finite sum passes. Arguments are as
        ``_floor_test`` takes them.
        """
        instance = self.instance
        u, floor_passes = _floor_test(instance, self.floor, i_star, p_star, v_star)
        cover = np.maximum(instance.ranger_budget - p_star, 0.0) * instance.e_p
        cover = cover + (instance.villager_budget - v_star) * self.most_e_v
        with np.errstate(over="ignore", invalid="ignore"):
            own = (instance.reward_att[i_star] - u) * self.own_width[i_star]  # i_star's own need
            need = self.need(u) - np.minimum(np.maximum(own, 0.0), 1.0)
            limit = cover + self.slack + self.rounding * cover + self.margin_per_u * np.abs(u)
            return floor_passes & (~np.isfinite(need) | (need <= limit))


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
    villager counts, or None without ``counts``. The counts are floats until
    the last step, so past 2**53 they round; a row whose counts then sum
    past its ``spare`` takes the excess, a few rounding steps, off its
    largest count, which lowers that target's coverage by far less than
    ``_COVERAGE_SLACK``. Only the ranking of the
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
    if not counts:
        return left, None
    alloc = (whole_taken + remainder_taken).astype(np.int64)
    # Past 2**53 the float counts round, and a row's counts can sum past its
    # spare villagers by a few rounding steps: its largest count gives them up.
    for row in np.flatnonzero(spare >= 2**53):
        excess = sum(alloc[row].tolist()) - int(spare[row])
        if excess > 0:
            alloc[row, np.argmax(alloc[row])] -= excess
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


def _rows_per_block(instance) -> int:
    """Rows of ``instance.n`` cells that fit in one block of ``_BLOCK_CELLS``, at least one."""
    return max(1, _BLOCK_CELLS // instance.n)


def _blocks(instance, count: int):
    """Slices of ``count`` rows, ``_BLOCK_CELLS`` cells at a time."""
    step = _rows_per_block(instance)
    return (slice(start, start + step) for start in range(0, count, step))


def _query_blocks(instance, floor, i_star, p_star, v_star, witness: bool):
    """``_fill`` on ``_query_rows``'s arrays, one block at a time: ``(block, rows, fill)``.

    ``rows`` indexes the block's queries past the attacker-floor test (every
    other target can be pushed down to the fixed target's utility u), with
    ``floor`` its ``_floor_of_others(instance)``; each needs
    ``_min_coverage(u)`` on every other target, and ``fill`` is ``_fill``'s
    answer for them.
    """
    for block in _blocks(instance, i_star.shape[0]):
        fixed, spent_p, spent_v = i_star[block], p_star[block], v_star[block]
        u, passes = _floor_test(instance, floor, fixed, spent_p, spent_v)
        rows = np.flatnonzero(passes)
        c_min = _min_coverage(instance, u[rows, None])
        c_min[np.arange(rows.size), fixed[rows]] = 0.0
        yield block, rows, _fill(instance, c_min, spent_p[rows], spent_v[rows], witness)


def _feasible_rows(instance, floor, i_star, p_star, v_star) -> np.ndarray:
    """``feasible_rows`` with the attacker floor ``floor`` already derived:
    a solve's rows read it from its ``_Pool``."""
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    feasible = np.zeros(i_star.shape[0], dtype=bool)
    for block, rows, (ok, _, _) in _query_blocks(instance, floor, i_star, p_star, v_star, witness=False):
        feasible[block.start + rows] = ok
    return feasible


def feasible_rows(instance: Instance, i_star, p_star, v_star) -> np.ndarray:
    """Per query row, whether ``p_star`` effort and ``v_star`` villagers on
    ``i_star`` extend to a full profile that keeps ``i_star`` attacked.

    ``i_star``, ``p_star`` and ``v_star`` are arrays with one entry per
    query, and ``e_v`` may be a scalar or per target. Only the answer is
    computed (``_fill``'s): no villager counts, no witness.
    """
    return _feasible_rows(instance, _floor_of_others(instance), i_star, p_star, v_star)


def witness_blocks(instance: Instance, i_star, p_star, v_star):
    """Per block of query rows: ``(block, feasible, p, v)``.

    Takes the arrays ``feasible_rows`` takes and fills them block by block,
    so only one block of rows is held at a time. ``block`` is the slice of
    the queries it covers, ``feasible`` marks the block's feasible queries,
    and row j of ``p`` and ``v`` is the witness of the j-th of them
    (``_fill``'s), with the query's own ``(p_star, v_star)`` on ``i_star``.
    """
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    return _witness_blocks(instance, _floor_of_others(instance), i_star, p_star, v_star)


def _witness_blocks(instance, floor, i_star, p_star, v_star):
    """``witness_blocks`` on checked query arrays, with the attacker floor
    ``floor`` already derived: a solve's rows read it from its ``_Pool``."""
    for block, rows, (ok, p, v) in _query_blocks(instance, floor, i_star, p_star, v_star, witness=True):
        kept = block.start + rows[ok]
        at = np.arange(kept.size), i_star[kept]
        p[at], v[at] = p_star[kept], v_star[kept]
        feasible = np.zeros(i_star[block].shape[0], dtype=bool)
        feasible[rows[ok]] = True
        yield block, feasible, p, v


def _bisect(lo, hi, passes, epsilon=None):
    """Lockstep bisections, one per entry of ``lo`` and ``hi``: their final ``(lo, hi)``.

    Each round calls ``passes(rows, mid)`` once, with the bisections still
    open and their midpoints: a midpoint that passes becomes its
    bisection's ``lo``, one that fails bounds its ``hi``. Both arrays are
    narrowed in place. Only the midpoint rule tells the two searches apart:

    - counts (int64, ``epsilon`` None): the midpoint is ``ceil((lo + hi) /
      2)``, a failed one sets ``hi`` to one below it, and a bisection stays
      open while ``lo < hi``. Where ``passes`` is monotone, ``lo`` ends at
      the largest count in ``(lo, hi]`` that passes, or stays if none does;
    - efforts (floats): the midpoint is ``lo / 2 + hi / 2``, a failed one
      becomes ``hi``, and a bisection stays open until it is within
      ``epsilon`` or narrower than one float step.
    """
    while True:
        if epsilon is None:
            mid = (lo >> 1) + (hi >> 1) + (((lo & 1) + (hi & 1) + 1) >> 1)  # within int64
            rows = np.flatnonzero(lo < hi)
        else:
            mid = lo / 2.0 + hi / 2.0  # halves first: lo + hi can overflow
            rows = np.flatnonzero((hi - lo > epsilon) & (mid != lo) & (mid != hi))
        if not rows.size:
            return lo, hi
        mid = mid[rows]
        ok = passes(rows, mid)
        lo[rows[ok]] = mid[ok]
        hi[rows[~ok]] = mid[~ok] - 1 if epsilon is None else mid[~ok]


def _count_query(rows, counts):
    """The villager searches' probes: ``counts`` villagers and no effort."""
    return np.zeros(rows.size), counts


def _effort_query(v_stars):
    """The effort searches' probes: each search's effort with its ``v_stars`` villagers."""
    return lambda rows, mid: (mid, v_stars[rows])


def _cheap_ends(pool, i_stars, lo, hi, query, epsilon=None) -> np.ndarray:
    """Step 1 of the search: per search, the end of its ``_bisect`` on
    ``pool.passes`` alone, with no row.

    Search k bisects ``[lo[k], hi[k]]`` with ``i_stars[k]`` the fixed
    target, and ``query(rows, mid)`` gives the ``(p_star, v_star)`` that
    searches ``rows`` probe at ``mid``.
    """
    return _bisect(lo.copy(), hi.copy(), lambda rows, mid: pool.passes(i_stars[rows], *query(rows, mid)), epsilon)[0]


def _fall_back(pool, i_stars, lo, hi, ends, failed, query, epsilon=None) -> int:
    """Step 3 of the search: the searches ``failed``, whose end a row found
    inconsistent, bisect again on the full check; returns the rows sent.

    ``ends`` is updated in place. One row per midpoint below the failed
    end, and none at or above it: a count's bisection runs from ``lo`` to
    below that end, an effort's over the whole ``[lo, hi]``. Arguments are
    as ``_cheap_ends`` takes them, but counts need no ``hi``.
    """
    instance = pool.instance
    checks = 0

    def full_check(rows, mid):
        nonlocal checks
        ok = mid < ends[failed[rows]]  # every probe from a failed end up fails too
        sent = failed[rows[ok]]
        ok[ok] = _feasible_rows(instance, pool.floor, i_stars[sent], *query(sent, mid[ok]))
        checks += sent.size
        return ok

    # A count's answer is the same on any path, so its bisection goes on below
    # the failed end; an effort's end depends on its path, which starts over.
    top = ends[failed] - 1 if epsilon is None else hi[failed]
    ends[failed] = _bisect(lo[failed], top, full_check, epsilon)[0]
    return checks


def _confirm(pool, i_stars, lo, hi, ends, query, epsilon=None) -> int:
    """Steps 2 and 3 of the search: one ``feasible_rows`` row checks each
    end above ``lo``, and the searches whose end fails fall back
    (``_fall_back``); returns the rows sent, with ``ends`` updated in place."""
    moved = np.flatnonzero(ends > lo)
    if not moved.size:
        return 0
    failed = moved[~_feasible_rows(pool.instance, pool.floor, i_stars[moved], *query(moved, ends[moved]))]
    return moved.size + _fall_back(pool, i_stars, lo, hi, ends, failed, query, epsilon)


def _search(pool, i_stars, lo, hi, query, epsilon=None) -> Tuple[np.ndarray, int]:
    """Per search, the end of its ``_bisect`` on the full check, and the rows sent: ``(ends, checks)``.

    Cheap tests first (module docstring): every search bisects on
    ``pool.passes`` with no row (``_cheap_ends``, whose arguments these
    are), and one ``feasible_rows`` row checks each end above ``lo``; the
    searches whose end fails bisect again on the full check (``_confirm``).
    """
    ends = _cheap_ends(pool, i_stars, lo, hi, query, epsilon)
    return ends, _confirm(pool, i_stars, lo, hi, ends, query, epsilon)


def _villager_ends(pool, i_stars) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``most_villagers``' searches before any confirming row: ``(i_stars,
    ends, lo, checks)``.

    ``i_stars`` comes back checked (``_query_rows``). Where every count of
    every search fits one block, ``ends`` are the one call's exact answers
    and ``lo`` is ``ends``, so no end needs a row more; otherwise ``ends``
    are the cheap tests' (``_cheap_ends``) over ``[lo, villager_budget]``
    with ``lo`` -1, and ``_confirm`` settles them. ``checks`` counts the one
    call's rows.
    """
    instance = pool.instance
    zeros = np.zeros(np.shape(i_stars), dtype=np.int64)
    i_stars = _query_rows(instance, i_stars, zeros, zeros)[0]
    if not i_stars.size:  # before any count is built: budget + 1 may not fit int64
        return i_stars, zeros, zeros, 0
    width = instance.villager_budget + 1
    if width * i_stars.size <= _rows_per_block(instance):
        searches, counts = np.divmod(np.arange(width * i_stars.size), width)
        ok = _feasible_rows(instance, pool.floor, i_stars[searches], np.zeros(counts.size), counts)
        best = np.full(i_stars.size, -1, dtype=np.int64)
        np.maximum.at(best, searches[ok], counts[ok])
        return i_stars, best, best.copy(), counts.size
    lo, hi = np.full(i_stars.size, -1, dtype=np.int64), np.full(i_stars.size, instance.villager_budget, dtype=np.int64)
    return i_stars, _cheap_ends(pool, i_stars, lo, hi, _count_query), lo, 0


def _most_villagers(pool, i_stars) -> Tuple[np.ndarray, int]:
    """``most_villagers`` on ``pool``'s instance."""
    i_stars, ends, lo, checks = _villager_ends(pool, i_stars)
    return ends, checks + _confirm(pool, i_stars, lo, None, ends, _count_query)


def most_villagers(instance: Instance, i_stars) -> Tuple[np.ndarray, int]:
    """Largest v with (i, 0, v) consistent for each target i of ``i_stars``, or -1 where v = 0 is not.

    Consistency is monotone in v by the resource-reduction property:
    lowering the count on the attacked target never breaks it. The searches
    take one of two paths, by size:

    - where every count of every search fits one block, one ``feasible_rows``
      call probes them all, and each search's answer is its largest
      consistent count (there one call costs less than bisecting);
    - otherwise every search bisects ``[-1, villager_budget]`` in lockstep,
      cheap tests first (``_search``).

    Returns (counts, rows checked). GameDefinitionError unless ``i_stars`` is
    a 1-D array of integers, each naming a target (``_query_rows`` checks
    its v = 0 rows).
    """
    return _most_villagers(_Pool(instance), i_stars)


def _effort_bounds(pool, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The effort searches' brackets: ``[0, ranger_budget]``, ``count`` times."""
    return np.zeros(count), np.full(count, float(pool.instance.ranger_budget))


def _most_effort(pool, i_stars, v_stars, epsilon: float) -> Tuple[np.ndarray, int]:
    """``most_effort`` on ``pool``'s instance, with checked query arrays."""
    return _search(pool, i_stars, *_effort_bounds(pool, i_stars.size), _effort_query(v_stars), epsilon)


def most_effort(instance: Instance, i_stars, v_stars, epsilon: float) -> Tuple[np.ndarray, int]:
    """Bisect the ranger effort on every candidate to within ``epsilon``, in lockstep.

    Candidate k keeps ``v_stars[k]`` villagers on target ``i_stars[k]``.
    Every search bisects ``[0, ranger_budget]``, cheap tests first
    (``_search``), and probes the midpoints it would probe alone on the full
    check. Returns (the largest effort found consistent per candidate, rows
    checked). GameDefinitionError unless ``epsilon`` is a finite positive
    real (as ``tdbs.TdbsConfig`` takes it) and ``i_stars`` and ``v_stars``
    are 1-D integer arrays of one length, each a target and a villager count
    within the budget (``_query_rows`` checks their no-effort rows).
    """
    epsilon = _resolution(epsilon)
    i_stars, _, v_stars = _query_rows(instance, i_stars, np.zeros(np.shape(i_stars)), v_stars)
    return _most_effort(_Pool(instance), i_stars, v_stars, epsilon)


def _candidates(pool, targets) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """``candidates`` on ``pool``'s instance."""
    counts, checks = _most_villagers(pool, targets)
    attackable = counts >= 0
    counters = Counter({"feasibility_checks": checks, "candidates": int(attackable.sum())})
    return np.asarray(targets)[attackable], counts[attackable], counters


def candidates(instance: Instance, targets) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """The targets of ``targets`` that can be attacked at all, each with the most villagers it can keep.

    ``hw`` starts here with the targets its bound keeps
    (``candidates_above_seed``), and ``tdbs``'s pipeline
    (``candidates_with_effort``) runs the same searches on every target.
    ``most_villagers`` searches all of ``targets``, an ascending index
    array, in lockstep. Returns ``(i_stars, v_stars, counters)``: the
    candidates in index order, their villager counts, and a ``Counter`` of
    the ``feasibility_checks`` spent (one per query row) and the number of
    ``candidates``.
    """
    return _candidates(_Pool(instance), targets)


def candidates_with_effort(instance: Instance, epsilon: float) -> Tuple[Iterator, Counter]:
    """TDBS's candidates on one ``_Pool``, each with its witness: ``(blocks, counters)``.

    Both searches run on the cheap tests alone (module docstring): every
    target's villager count (or, where every count fits one block, one call
    that probes them all, as ``candidates`` does), then each candidate's
    effort at that count. One witness row per candidate at its two ends
    (``_candidate_witnesses``) then confirms both and is its witness; the
    candidates whose row fails take the full path (``_fall_back_ends``) and
    get one witness row at their new ends.

    ``blocks`` yields ``(targets, p, v)`` for ``model.first_best``: the
    witnesses block by block, the first rows' in index order, then the
    fallback ends'. Only one block is held at a time. ``counters`` counts the
    ``feasibility_checks`` (every row but the fallback ends' witness rows) and
    the ``candidates``, and is complete once ``blocks`` is exhausted.
    RuntimeError if a fallback end's witness row fails, which is a bug.
    """
    pool = _Pool(instance)
    i_stars, counts, known, checks = _villager_ends(pool, np.arange(instance.n))
    attackable = counts >= 0
    i_stars, v_stars, known = i_stars[attackable], counts[attackable], known[attackable]
    p_stars = _cheap_ends(pool, i_stars, *_effort_bounds(pool, i_stars.size), _effort_query(v_stars), epsilon)
    counters = Counter({"feasibility_checks": checks + i_stars.size, "candidates": i_stars.size})

    def blocks():
        passed = np.zeros(i_stars.size, dtype=bool)
        yield from _candidate_witnesses(pool, i_stars, p_stars, v_stars, passed)
        lost = np.flatnonzero(~passed)
        if not lost.size:
            return
        kept, p_kept, v_kept, rows = _fall_back_ends(pool, i_stars[lost], p_stars[lost], v_stars[lost], known[lost], epsilon)
        counters.update(feasibility_checks=rows, candidates=kept.size - lost.size)
        for block, feasible, p, v in _witness_blocks(instance, pool.floor, kept, p_kept, v_kept):
            if not feasible.all():
                raise RuntimeError("tdbs lost a candidate's witness; this is a bug")
            yield kept[block], p, v

    return blocks(), counters


def _candidate_witnesses(pool, i_stars, p_stars, v_stars, passed):
    """One witness row per candidate at its search ends: ``(targets, p, v)``
    per block, for the rows that pass.

    ``passed`` gets each row's answer. Where a row passes it confirms both
    ends: the effort's, as its confirming row would (``_confirm``), and the
    count's, as ``(i, 0, v)`` is consistent too by monotonicity and every
    count the bisection rejected failed a cheap test, so fails the full
    check too. Every row counts in ``feasibility_checks``.
    """
    for block, feasible, p, v in _witness_blocks(pool.instance, pool.floor, i_stars, p_stars, v_stars):
        passed[block] = feasible
        yield i_stars[block][feasible], p, v


def _fall_back_ends(pool, i_stars, p_stars, v_stars, known, epsilon):
    """The full path for candidates whose witness row failed: their ends ``(i_stars, p_stars, v_stars)`` and the rows sent.

    Takes the candidates' search ends, ``p_stars`` to be overwritten, and
    ``known``, each count known consistent (``_villager_ends``' ``lo``).
    Each count above it gets its confirming row at ``(i, 0, v)``, and a
    failed one falls back below it (``_confirm``). Where the count stayed,
    the effort's end failed: its bisection is replayed from ``[0,
    ranger_budget]`` on the full check (``_fall_back``). Where it moved, a
    fresh effort search runs at the new count (``_most_effort``), and a
    count of -1 drops the candidate.
    """
    counts = v_stars.copy()
    checks = _confirm(pool, i_stars, known, None, counts, _count_query)
    stayed = np.flatnonzero(counts == v_stars)
    lo, hi = _effort_bounds(pool, i_stars.size)
    checks += _fall_back(pool, i_stars, lo, hi, p_stars, stayed, _effort_query(v_stars), epsilon)
    moved = np.flatnonzero((counts != v_stars) & (counts >= 0))
    p_stars[moved], more = _most_effort(pool, i_stars[moved], counts[moved], epsilon)
    kept = counts >= 0
    return i_stars[kept], p_stars[kept], counts[kept], checks + more


def candidates_above_seed(instance: Instance) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """HW's candidates, bounded and pruned against a seed: ``(i_stars, v_stars, counters)``.

    On one ``_Pool``: the minimax seed (``_minimax_seed``), the bound
    (``_upper_bounds``), ``candidates`` on the targets it keeps, and the
    break-even rows in one batch (module docstring). Returns the unpruned
    candidates in index order with their villager counts, and a ``Counter``
    of the ``feasibility_checks`` spent (level, villager and break-even
    rows), the ``candidates`` found, how many of them are ``pruned``, and
    the targets ``bounded``. Sound for a scalar ``e_v``.
    """
    pool = _Pool(instance)
    minimax_seed, checks = _minimax_seed(pool)
    searched = np.flatnonzero(_upper_bounds(pool) >= minimax_seed - instance.tol)
    i_stars, v_stars, counters = _candidates(pool, searched)
    at_no_effort = fixed_target_utilities(instance, i_stars, 0.0, v_stars)[0]
    # The seed less tol: a candidate that cannot reach it cannot win.
    bar = max(np.max(at_no_effort, initial=-np.inf), minimax_seed) - instance.tol
    keep = at_no_effort >= bar
    # Coverage, then effort, at which each candidate's defender utility reaches the bar.
    spread = instance.reward_def[i_stars] - instance.penalty_def[i_stars]
    # A coverage of +inf is out of reach, and one of -inf met at no effort.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coverage = (bar - instance.penalty_def[i_stars]) / spread
        effort = (coverage - instance.e_v * v_stars) / instance.e_p
    rows = np.flatnonzero(~keep & (spread > 0) & (coverage <= 1.0) & (effort <= instance.ranger_budget))
    # Rounding can put the break-even a hair below zero effort.
    keep[rows] = _feasible_rows(instance, pool.floor, i_stars[rows], np.maximum(effort[rows], 0.0), v_stars[rows])
    counters.update(feasibility_checks=checks + rows.size, pruned=int(keep.size - keep.sum()), bounded=instance.n - searched.size)
    return i_stars[keep], v_stars[keep], counters


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


def _minimax_profile(pool) -> Tuple[StrategyProfile, int]:
    """A profile holding the attacker's best utility lowest, and the level rows checked.

    ORIGAMI's attack-set minimisation (Kiekintveld et al., AAMAS 2009) with
    whole villagers, on ``pool``'s instance. Holding every target to an
    attacker level u is feasible at u = max R_a and monotone in u, and no
    level below max P_a is feasible. The search starts at the crossing z
    where the pooled need F meets ``e_p * ranger_budget + max(e_v) *
    villager_budget`` (``_crossing``). The fill's villagers cover at most
    ``max(e_v)`` each, so no level more than ``tol / 2`` below z is
    feasible (the ``_COVERAGE_SLACK`` moves a level by at most that);
    wherever every spare villager takes a whole piece, the fill's residual
    is F less the villagers' share, and the minimax level lies within
    ``tol / 2`` below z. The bracket starts
    as ``[max(max P_a, z - tol / 2), max R_a]``, and the first round checks
    one level row at ``max(max P_a, z) + tol / 4`` (at ``max P_a + tol / 4``
    where the pooled cover reaches every target and z is -inf); where that
    row is feasible the bracket is within ``tol``. Otherwise, and from
    ``[max P_a, max R_a]`` where the sweep gives no crossing, the search
    narrows the bracket in rounds, each one ``_levels_feasible`` call on
    ``_LEVELS_PER_ROUND`` levels spread evenly inside it, until it is
    within ``tol`` or one float step, as the effort search (``_bisect``)
    stops. The start only places the rows: the profile is ``_fill``'s
    witness of the level row at the bracket's feasible end, built as
    ``witness_blocks`` builds its witnesses, however that level was found.
    """
    instance = pool.instance
    lo, hi = float(instance.penalty_att.max()), float(instance.reward_att.max())
    with np.errstate(over="ignore"):
        cover = instance.e_p * instance.ranger_budget + np.max(instance.e_v) * instance.villager_budget
    crossing = _crossing(pool, cover)
    steps = np.arange(1, _LEVELS_PER_ROUND + 1) / (_LEVELS_PER_ROUND + 1)
    if np.isnan(crossing):
        levels = lo + (hi - lo) * steps
    else:
        levels = np.array([max(lo, crossing) + instance.tol / 4])
        lo = max(lo, crossing - instance.tol / 2)
    checks = 0
    while hi - lo > instance.tol:
        levels = levels[(lo < levels) & (levels < hi)]  # ascending; repeats only near one float step
        if levels.size == 0:
            break  # narrower than one float step
        feasible = _levels_feasible(instance, levels)
        checks += levels.size
        first = int(np.argmax(feasible)) if feasible.any() else levels.size
        if first < levels.size:
            hi = float(levels[first])
        if first > 0:
            lo = float(levels[first - 1])
        levels = lo + (hi - lo) * steps
    spent = np.zeros(1, dtype=np.int64)
    _, p, v = _fill(instance, _min_coverage(instance, np.array([[hi]])), spent, spent, witness=True)
    return StrategyProfile(p[0], v[0]), checks


def _minimax_seed(pool) -> Tuple[float, int]:
    """A defender utility some valid profile reaches on the target it is
    attacked on, from the minimax profile of ``pool``'s instance; and the
    level rows checked.

    A target the profile already attacks exactly counts as it is. Any
    other target's coverage is lowered, shedding rangers only, until its
    attacker utility passes the profile's best; one its villagers alone
    cover past that point does not count. The lowered profile is valid and
    attacked on that target, so the target's completion reaches at least
    its utility there, and so does the optimum.
    """
    instance = pool.instance
    minimax, checks = _minimax_profile(pool)
    coverage = coverage_of(instance, minimax.p, minimax.v)
    u_d, u_a = utilities_of(instance, coverage, slice(None))
    top = u_a.max()
    # Four eps of coverage lift an attacker utility past its rounding, as
    # spread_att >= |R_a|, |P_a|. A zero-spread target lowers to below zero,
    # so it counts only if attacked already.
    lowered = np.minimum(coverage, _min_coverage(instance, top)) - 4 * np.finfo(float).eps
    lowered_d, lowered_a = utilities_of(instance, lowered, slice(None))
    attacked = (lowered_a >= top) & (lowered >= coverage_of(instance, 0.0, minimax.v))
    return max(u_d[u_a == top].max(), lowered_d[attacked].max(initial=-np.inf)), checks


def _crossing(pool, cover) -> float:
    """The attacker level where the pooled need F of ``pool`` falls to ``cover``.

    ORIGAMI's pooled-coverage sweep (Kiekintveld et al., AAMAS 2009) with
    integrality dropped. Holding every target to u takes ``F(u) = sum_j
    _min_coverage(u)_j``, which falls piecewise linearly as u rises. The
    sweep finds where F crosses ``cover`` from ``_Pool``'s sums over the
    targets sorted by reward and by penalty, read at every break. Prefix
    sums can cancel: below the penalty of a target with a tiny spread, its
    huge width enters both sums and swamps the others. Such breaks lie
    below that penalty, at most 0, so the bracket is read from above: the
    largest break where F exceeds ``cover`` and the next one up, never the
    smallest break where F seems not to. The crossing is interpolated
    linearly between the two. Returns -inf where ``cover`` reaches every
    target fully, and nan where the sweep or the crossing is not finite.
    """
    if cover >= pool.reward.size:
        return -np.inf
    breaks = np.concatenate([pool.reward, pool.penalty])
    with np.errstate(over="ignore", invalid="ignore"):
        need = pool.need(breaks)  # F at each break
        short = need > cover  # F(u) > cover: u lies below the crossing
        if short.all() or not short.any():
            return np.nan  # F is 0 at the largest reward and the target count at the least penalty
        # The crossing lies between the largest break where F exceeds cover
        # and the next break above it; breaks further down never move it.
        lo = np.where(short, breaks, -np.inf).argmax()
        hi = np.where(breaks > breaks[lo], breaks, np.inf).argmin()
        crossing = float(breaks[lo] + (breaks[hi] - breaks[lo]) * ((need[lo] - cover) / (need[lo] - need[hi])))
    return crossing if np.isfinite(crossing) else np.nan


def _pooled_level(pool) -> float:
    """A level z such that no valid profile holds every target's attacker utility to z or below.

    The coverage a valid profile spends is at most ``C = e_p *
    ranger_budget * (1 + REL_TOL) + max(e_v) * villager_budget`` (effort
    within ``model.validate_profile``'s slack). The level returned is
    ``tol / 2`` below the crossing of F and C (``_crossing``) and
    certified: ``_min_coverage`` sums to more than C there, past the
    rounding of that sum. (Where the crossing lies among breaks whose sums
    cancel, the certification or the finiteness check rejects the level.)
    So any u with ``F(u) <= C`` lies above z. Returns -inf where C covers
    every target fully, and nan where the sweep is not finite or the level
    is not certified.
    """
    instance = pool.instance
    with np.errstate(over="ignore"):
        rangers = instance.e_p * instance.ranger_budget * (1.0 + REL_TOL)
        pooled = rangers + np.max(instance.e_v) * instance.villager_budget
    crossing = _crossing(pool, pooled)
    if not np.isfinite(crossing):
        return crossing
    level = crossing - instance.tol / 2
    if not np.isfinite(level):
        return np.nan
    rounding = 4 * instance.n * instance.n.bit_length() * np.finfo(float).eps
    return level if _min_coverage(instance, level).sum() > pooled + rounding else np.nan


def _upper_bounds(pool) -> np.ndarray:
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
    instance = pool.instance
    level = _pooled_level(pool)
    if np.isnan(level):
        return np.full(instance.n, np.inf)
    floor = np.maximum(instance.penalty_att, pool.floor - instance.tol / 2)
    lowest = np.maximum(floor, level - instance.tol)
    spread = instance.spread_att
    with np.errstate(divide="ignore", invalid="ignore"):
        coverage = np.clip((instance.reward_att - lowest) / spread, 0.0, 1.0)
    coverage[~(spread > 0)] = 1.0
    bounds = utilities_of(instance, coverage, slice(None))[0]
    bounds[lowest > instance.reward_att] = -np.inf
    return bounds
