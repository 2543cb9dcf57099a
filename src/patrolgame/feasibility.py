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
- witness rows (``_witness_blocks``) are query rows that also build each
  feasible row's profile (p, v) from the greedy's villagers and the trimmed
  ranger effort; ``tdbs``'s one row per candidate is one, and the winner
  rule scores its blocks as they come. Both kinds of query share one loop
  (``_query_blocks``);
- level rows (``_level_rows``) hold every target to one attacker level,
  with nothing spent. The minimax search (``_minimax_profile``), which
  seeds ``solve_hw``'s pruning, checks one of them at the pooled crossing
  first, and only where that one fails a few more, placed by Newton's
  steps (below); it builds its profile as witness rows do.

So a target's v = 0 query past the floor test is the level row at its own
attacker reward, where its own need is zero.

Candidates: the paper's multiple-LP shape (Conitzer and Sandholm, EC 2006).
For each attacked target, a solver completes the best allocation that keeps
it attacked, and the best completion wins (``model.first_best``). Both
solvers take their candidates from this module, one function each:

- ``candidates_with_effort`` for ``tdbs``: a villager search on every
  target, then an effort search per candidate, both ended by one witness
  row per candidate (below);
- ``candidates_above_seed`` for ``hw``: a villager search on the targets
  its bound keeps (``_candidates``), then the break-even prune (both below).

A villager search is ``most_villagers``' search for one target. Where every
count of every villager search fits one block, one call probes them all;
otherwise the searches bisect in lockstep, cheap tests first (below). Each
pipeline builds one ``_Pool`` and passes it to all of its steps, and its
query rows read the attacker floor (``_floor_of_others``) from that pool:
only ``feasible_rows``, which takes an instance, derives the floor again.

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
  villager search and counts in ``bounded``; the rest are searched.
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
only in the midpoint rule. Each runs in three steps:

1. bisect on ``_Pool.passes`` alone, with no row (``_cheap_ends``);
2. check each end above the lower bound with one full-check row. An end at
   the lower bound passed no probe, so the full search ends there too.
   Consistency is monotone in the fixed resources, so where the row finds
   the end consistent, it is the full search's end: every probe a test
   failed fails the full check too, and every probe both passed lies at or
   below the end, so is consistent too. A wrong rejection would change the
   search's path, which is why the pooled test keeps its margin;
3. find the full search's end where that row fails. A count bisects again
   on the full check below the failed end, one row per probe
   (``_confirm``): its answer is the same on any path. An effort's end
   depends on its path, the bisection from ``[0, ranger_budget]``; the
   certified search (``_certified_search``) replays that path on a few rows.

Certified search: every search it runs is ``_bisect``'s float path, an
effort's to within ``epsilon`` and the minimax level's to within ``tol``.
A bisection's answer is fixed by its decisions, and the full check is
monotone, so once rows have shown a pass at a and a fail at b,
every probe at or below a passes and every probe at or above b fails. The
fill's slack (``_fill``: the cover left less the residual need) is linear
between kinks, and one row gives its slope (``_slope``), so a Newton step
from a or b guesses the threshold. Each round walks every path as far as a
and b decide it, then on by the guess, and sends rows to the two probes
nearest the guess on that path; where both answer as guessed, no probe of
the path is left undecided, and the path ends exactly where the
row-by-row search ends. Newton only places rows: every answer is a row's
pass or fail, from ``_fill``'s own comparison. Where no slope gives a step
(a slope of 0 or NaN, a slack of -inf past the floor test, a step out of
``(a, b)``), a round probes the path's next undecided midpoint instead, as
the row-by-row search does.

Only ``tdbs`` searches efforts, and it merges step 2 of its two searches
into one row per candidate (``candidates_with_effort``): it runs step 1 for
every villager count (or the one call that probes every count, whose counts
need no row), then for every candidate's effort at that count, and sends
one witness row at ``(i, p_end, v_end)``. Where that row passes it confirms
both ends, and it is the candidate's witness: it is the effort's confirming
row, and ``(i, 0, v_end)`` is consistent by monotonicity. Only the candidates whose row fails
take steps 2 and 3 (``_fall_back_ends``): the count's row at ``(i, 0,
v_end)`` and its fallback where that fails, then every effort search in one
certified lockstep, from the failed witness row where the count stayed and
from a fresh cheap search's failed ``hi`` where it moved; one witness row
then serves their new ends.

Level rows: the minimax search bisects the level bracket the crossing row
leaves, as the effort search bisects its effort, and the same certified
search replays that bisection from the crossing row's slack and slope: two
level rows usually settle what took about 30 row-by-row midpoints.

Rows counted: ``feasibility_checks`` counts every row sent to the fill:
through ``feasible_rows``, the fallback's count and effort rows
(``_effort_rows``), the level rows and ``tdbs``'s one witness row per
candidate, each once, never the cheap tests' answers. The rows the certified
search sends to place and confirm its guesses count like any other. The
witness rows of the fallback ends are not counted: rows already confirmed
those ends. In step 3 no probe at or above a failed end costs a row, and
no cheap test runs: the attacker's utility on the fixed target falls as its
resources grow, so every probe below an end that passed the floor test
passes it too.

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
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .model import REL_TOL, GameDefinitionError, Instance, StrategyProfile, coverage_of, utilities_of

# Slack on the ranger-coverage sum: its trim lifts a utility by at most
# tol / 2 (module docstring).
_COVERAGE_SLACK = REL_TOL / 4

# Rounds a certified search's path may stand at one probe before a round
# probes it, as the row-by-row search does (``_certified_search``).
_STALLS = 3

# Cells (query rows times targets) the greedy handles in one array
# operation; bounds the transient memory of a batched check at O(block × n).
_BLOCK_CELLS = 2**13


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
    # An empty plain list is float64; with no entry it holds no non-integer.
    i_star, v_star = (x.astype(np.int64) if x.size == 0 else x for x in (i_star, v_star))
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


class _Filled(NamedTuple):
    """``_fill``'s answer for its rows."""

    feasible: np.ndarray
    p: Optional[np.ndarray]
    v: Optional[np.ndarray]
    slack: np.ndarray  # cover left less residual need; negative exactly where infeasible
    left: np.ndarray  # residual need per row and target


def _fill(instance, c_min, p_star, v_star, witness: bool = False) -> _Filled:
    """Greedy fill of rows of needs: ``(feasible, p, v, slack, left)``.

    Row k of ``c_min`` holds one row's need per target, and ``p_star[k]``
    and ``v_star[k]`` the ranger effort and villagers it has already spent.
    The spare villagers go where each covers the most still-needed coverage
    (``_place_villagers``), which leaves ``left``, and ``feasible`` says
    whether the rangers left cover every row's residual need within
    ``_COVERAGE_SLACK``. ``slack`` is that cover less the residual's sum,
    taken from the comparison's own two sides, so it is negative exactly
    where a row is infeasible. With ``witness``, row j of ``p`` and ``v``
    is the witness of the j-th feasible row: the greedy's villagers, and
    ranger effort covering the residual need, its total trimmed to the
    budget left (the ``_COVERAGE_SLACK`` shortfall); without it both are
    None.
    """
    left, alloc = _place_villagers(c_min, instance.e_v, instance.villager_budget - v_star, witness)
    budget = np.maximum(instance.ranger_budget - p_star, 0.0)
    cover, need = budget * instance.e_p + _COVERAGE_SLACK, left.sum(axis=1)
    feasible = need <= cover
    slack = cover - need
    if not witness:
        return _Filled(feasible, None, None, slack, left)
    p, budget = left[feasible] / instance.e_p, budget[feasible]
    total = p.sum(axis=1)
    over = (total > budget) & (total > 0.0)
    # Divide first: budget / total can be subnormal and lose the digits that keep the sum in budget.
    p[over] = p[over] / total[over][:, None] * budget[over][:, None]
    return _Filled(feasible, p, alloc[feasible], slack, left)


def _slope(instance, c_min, left, i_star=None, p_star=None, v_star=None) -> np.ndarray:
    """Per row of ``_fill``, the slope of its slack along its search.

    The slack is linear between the fill's kinks, so one row gives its
    slope there. Let W be the sum of ``1 / spread_j`` over the targets with
    residual need left and ``0 < c_min_j < 1``: the rate at which the
    residual falls as the attacker level rises. A level row's slack rises at
    W per unit of level. A query row (``i_star`` with ``p_star`` effort and
    ``v_star`` villagers) loses ``e_p`` of ranger cover per unit of effort,
    and its fixed target's attacker utility falls at ``spread_i * e_p``,
    which raises the others' needs at W per unit: its slack falls at ``e_p
    (1 + spread_i W)``, or at ``e_p`` where i's own coverage is saturated.
    """
    spread = instance.spread_att
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        width = np.where(spread > 0, 1.0 / np.where(spread > 0, spread, 1.0), 0.0)
        rate = ((left > 0.0) & (c_min > 0.0) & (c_min < 1.0)) @ width
        if i_star is None:
            return rate
        e_v = instance.e_v[i_star] if isinstance(instance.e_v, np.ndarray) else instance.e_v
        saturated = instance.e_p * p_star + e_v * v_star >= 1.0
        return -instance.e_p * (1.0 + np.where(saturated, 0.0, spread[i_star] * rate))


def _rows_per_block(instance) -> int:
    """Rows of ``instance.n`` cells that fit in one block of ``_BLOCK_CELLS``, at least one."""
    return max(1, _BLOCK_CELLS // instance.n)


def _blocks(instance, count: int):
    """Slices of ``count`` rows, ``_BLOCK_CELLS`` cells at a time."""
    step = _rows_per_block(instance)
    return (slice(start, start + step) for start in range(0, count, step))


def _query_blocks(instance, floor, i_star, p_star, v_star, witness: bool):
    """``_fill`` on ``_query_rows``'s arrays, one block at a time: ``(block, rows, c_min, fill)``.

    ``rows`` indexes the block's queries past the attacker-floor test (every
    other target can be pushed down to the fixed target's utility u), with
    ``floor`` its ``_floor_of_others(instance)``; each needs ``c_min``,
    ``_min_coverage(u)`` on every other target, and ``fill`` is ``_fill``'s
    answer for them.
    """
    for block in _blocks(instance, i_star.shape[0]):
        fixed, spent_p, spent_v = i_star[block], p_star[block], v_star[block]
        u, passes = _floor_test(instance, floor, fixed, spent_p, spent_v)
        rows = np.flatnonzero(passes)
        c_min = _min_coverage(instance, u[rows, None])
        c_min[np.arange(rows.size), fixed[rows]] = 0.0
        yield block, rows, c_min, _fill(instance, c_min, spent_p[rows], spent_v[rows], witness)


def _feasible_rows(instance, floor, i_star, p_star, v_star) -> np.ndarray:
    """``feasible_rows`` with the attacker floor ``floor`` already derived:
    a solve's rows read it from its ``_Pool``."""
    i_star, p_star, v_star = _query_rows(instance, i_star, p_star, v_star)
    feasible = np.zeros(i_star.shape[0], dtype=bool)
    for block, rows, _, fill in _query_blocks(instance, floor, i_star, p_star, v_star, witness=False):
        feasible[block.start + rows] = fill.feasible
    return feasible


def feasible_rows(instance: Instance, i_star, p_star, v_star) -> np.ndarray:
    """Per query row, whether ``p_star`` effort and ``v_star`` villagers on
    ``i_star`` extend to a full profile that keeps ``i_star`` attacked.

    ``i_star``, ``p_star`` and ``v_star`` are arrays with one entry per
    query, and ``e_v`` may be a scalar or per target. Only the answer is
    computed (``_fill``'s): no villager counts, no witness.
    """
    return _feasible_rows(instance, _floor_of_others(instance), i_star, p_star, v_star)


def _witness_blocks(instance, floor, i_star, p_star, v_star, lost=None):
    """Per block of checked query rows (``_query_rows``): ``(block, feasible, p, v)``.

    Fills the rows block by block, so only one block is held at a time.
    ``block`` is the slice of the queries it covers, ``feasible`` marks the
    block's feasible queries, and row j of ``p`` and ``v`` is the witness of
    the j-th of them (``_fill``'s), with the query's own ``(p_star,
    v_star)`` on ``i_star``. ``floor`` is the attacker floor, which a
    solve's rows read from its ``_Pool``.

    With ``lost``, a list, each block with infeasible queries appends their
    ``(positions, slack, slope)`` to it, as ``_effort_rows`` gives them:
    ``tdbs``'s fallback takes its first Newton step from them.
    """
    for block, rows, c_min, fill in _query_blocks(instance, floor, i_star, p_star, v_star, witness=True):
        ok = fill.feasible
        kept = block.start + rows[ok]
        at = np.arange(kept.size), i_star[kept]
        fill.p[at], fill.v[at] = p_star[kept], v_star[kept]
        feasible = np.zeros(i_star[block].shape[0], dtype=bool)
        feasible[rows[ok]] = True
        if lost is not None and not feasible.all():
            slack, slope = np.full(feasible.size, -np.inf), np.full(feasible.size, np.nan)
            failed, queries = rows[~ok], block.start + rows[~ok]
            slack[failed] = fill.slack[~ok]
            slope[failed] = _slope(instance, c_min[~ok], fill.left[~ok], i_star[queries], p_star[queries], v_star[queries])
            out = np.flatnonzero(~feasible)
            lost.append((block.start + out, slack[out], slope[out]))
        yield block, feasible, fill.p, fill.v


def _effort_rows(pool, i_star, p_star, v_star):
    """The effort searches' full-check rows: per query, ``(passes, slack, slope)``.

    Query rows on checked arrays, each with the slack of its fill and that
    slack's slope in the effort (``_slope``); a query that fails the
    attacker-floor test gets no fill, so slack -inf and no slope (nan).
    """
    instance = pool.instance
    passes = np.zeros(i_star.size, dtype=bool)
    slack, slope = np.full(i_star.size, -np.inf), np.full(i_star.size, np.nan)
    for block, rows, c_min, fill in _query_blocks(instance, pool.floor, i_star, p_star, v_star, witness=False):
        at = block.start + rows
        passes[at], slack[at] = fill.feasible, fill.slack
        slope[at] = _slope(instance, c_min, fill.left, i_star[at], p_star[at], v_star[at])
    return passes, slack, slope


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


def _cheap_ends(pool, i_stars, lo, hi, query, epsilon=None) -> Tuple[np.ndarray, np.ndarray]:
    """Step 1 of the searches: per search, the final ``(lo, hi)`` of its
    ``_bisect`` on ``pool.passes`` alone, with no row.

    Search k bisects ``[lo[k], hi[k]]`` with ``i_stars[k]`` the fixed
    target, and ``query(rows, mid)`` gives the ``(p_star, v_star)`` that
    searches ``rows`` probe at ``mid``. Every probe it fails, so at or above
    its ``hi``, fails the full check too.
    """
    return _bisect(lo.copy(), hi.copy(), lambda rows, mid: pool.passes(i_stars[rows], *query(rows, mid)), epsilon)


def _confirm(check, lo, ends) -> int:
    """Steps 2 and 3 of the villager searches: one row checks each count
    above ``lo``, and a count that fails bisects again on the full check,
    from ``lo`` to one below it; returns the rows sent, with ``ends``
    updated in place. A count's answer is the same on any path, so its
    bisection goes on below the failed count. ``check(searches, counts)``
    sends one full-check row per count, with no effort, and answers it.
    """
    moved = np.flatnonzero(ends > lo)
    if not moved.size:
        return 0
    checks = moved.size
    failed = moved[~check(moved, ends[moved])]

    def full_check(rows, counts):
        nonlocal checks
        checks += rows.size
        return check(failed[rows], counts)

    ends[failed] = _bisect(lo[failed], ends[failed] - 1, full_check)[0]
    return checks


def _certified_search(probe, lo, hi, a, b, slack, slope, epsilon) -> Tuple[np.ndarray, np.ndarray, int]:
    """Lockstep searches replayed on what rows have shown: their final ``(lo, hi)`` and the rows sent.

    Search k follows ``_bisect``'s float path to within ``epsilon`` from
    ``(lo[k], hi[k])`` on the full check, which is monotone: its probes lie
    below a threshold (an effort that passes, a level that is infeasible)
    or above it. ``a[k]`` is the largest point known below and ``b[k]`` the
    smallest known above, and ``slack`` and ``slope`` (rows for a and b)
    hold the fill's slack there and its slope (nan where no row gave them);
    all four are updated in place, and ``lo`` and ``hi`` narrowed.
    ``probe(searches, points)`` sends one full-check row per point:
    ``(below, slack, slope)``, ``below`` from the fill's own comparison.

    A bisection's answer is fixed by its decisions, and a probe at or below
    a lies below, one at or above b above. So each round walks every path
    from where it stands as far as a and b decide it (``_Walk``), keeps it
    at its first undecided probe, and walks on by a guess of the threshold:
    Newton's step on the fill's slack from a or b, the shorter one that
    lands strictly inside ``(a, b)`` (none where no slope gives one). The
    rows go to the last probe of that walk guessed below and its first
    guessed above; where both answer as guessed, every probe of the path is
    decided, and the path ends where that walk ended. Where there is no
    guess, or where the path has stood at one probe for ``_STALLS`` rounds,
    a round's row goes to that probe instead, as the row-by-row search sends
    it. The guess only places rows: every decision comes from a and b, so
    every path ends exactly where the row-by-row search ends.
    """
    guess = _newton(a, b, slack, slope)
    checks, stalls = 0, np.zeros(lo.size, dtype=np.int64)
    while True:
        walk = _Walk(lo, hi, a, b, guess)
        before = lo.copy(), hi.copy()
        lo, hi = _bisect(lo, hi, walk, epsilon)
        met = walk.met
        if not met.any():
            return lo, hi, checks
        # The walk went where its guess leads: its final lo is its largest probe
        # guessed below and its final hi its smallest guessed above, each open
        # where it lies strictly between a and b.
        led = lo.copy(), hi.copy()
        nearest = np.stack([np.where(lo > a, lo, np.nan), np.where(hi < b, hi, np.nan)], axis=1)
        lo[met], hi[met] = walk.start[0][met], walk.start[1][met]
        # rounds in a row whose rows left the path where it was
        stalls = np.where((lo == before[0]) & (hi == before[1]), stalls + 1, 0)
        guessed = met & ~np.isnan(guess) & (stalls < _STALLS)
        nearest[~guessed] = np.nan
        points = np.concatenate([nearest, np.where(met & ~guessed, walk.next, np.nan)[:, None]], axis=1)
        searches, column = np.nonzero(~np.isnan(points))
        points = points[searches, column]
        below, row_slack, row_slope = probe(searches, points)
        checks += points.size
        # Where every row of a guess answered as guessed, the path it led is the path.
        missed = np.zeros(lo.size, dtype=bool)
        missed[searches[below != (column == 0)]] = True
        settled = guessed & ~missed
        lo[settled], hi[settled] = led[0][settled], led[1][settled]
        if not (met & ~settled).any():
            return lo, hi, checks
        # A search's rows come in ascending order, so its largest below is the
        # last below of its run and its smallest above the first above.
        same = searches[1:] == searches[:-1]
        last, first = below.copy(), ~below
        last[:-1] &= ~(same & below[1:])
        first[1:] &= ~(same & ~below[:-1])
        for side, k in enumerate((np.flatnonzero(last), np.flatnonzero(first))):
            (a, b)[side][searches[k]] = points[k]
            slack[side, searches[k]], slope[side, searches[k]] = row_slack[k], row_slope[k]
        guess = _newton(a, b, slack, slope)


def _newton(a, b, slack, slope) -> np.ndarray:
    """Per search, Newton's step on the fill's slack from a or from b (rows
    0 and 1 of ``slack`` and ``slope``): of the two steps that land strictly
    inside ``(a, b)``, the shorter; nan where neither does."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = slack / slope
        roots = np.stack([a, b]) - step
        step[~((a < roots) & (roots < b))] = np.nan
        from_b = np.isnan(step[0]) | (np.abs(step[1]) < np.abs(step[0]))
    return np.where(np.isnan(np.where(from_b, step[1], step[0])), np.nan, np.where(from_b, roots[1], roots[0]))


class _Walk:
    """One walk of ``_certified_search``'s paths, as ``_bisect``'s ``passes``.

    Each probe lies below where it is at most the search's guess. The guess
    lies strictly inside ``(a, b)``, so this agrees with a and b wherever
    they decide a probe; where there is no guess, a stands in for it, which
    agrees with them up to the first probe they leave open. ``met`` marks
    the paths that reached a probe that a and b leave open, ``start`` holds
    each one's ``(lo, hi)`` at its first such probe, and ``next`` that probe
    (nan elsewhere). ``lo`` and ``hi`` are the arrays the path narrows.
    """

    def __init__(self, lo, hi, a, b, guess):
        self.lo, self.hi, self.a, self.b = lo, hi, a, b
        self.guess = np.where(np.isnan(guess), a, guess)
        self.met = np.zeros(lo.size, dtype=bool)
        self.start = lo.copy(), hi.copy()
        self.next = np.full(lo.size, np.nan)

    def __call__(self, rows, points):
        open_ = ~self.met[rows] & (self.a[rows] < points) & (points < self.b[rows])
        at = rows[open_]
        self.met[at] = True
        self.start[0][at], self.start[1][at] = self.lo[at], self.hi[at]
        self.next[at] = points[open_]
        return points <= self.guess[rows]


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
    return i_stars, _cheap_ends(pool, i_stars, lo, hi, _count_query)[0], lo, 0


def _most_villagers(pool, i_stars) -> Tuple[np.ndarray, np.ndarray, int]:
    """``most_villagers`` on ``pool``'s instance, with the checked ``i_stars`` first."""
    i_stars, ends, lo, checks = _villager_ends(pool, i_stars)

    def check(searches, counts):
        return _feasible_rows(pool.instance, pool.floor, i_stars[searches], np.zeros(searches.size), counts)

    return i_stars, ends, checks + _confirm(check, lo, ends)


def most_villagers(instance: Instance, i_stars) -> Tuple[np.ndarray, int]:
    """Largest v with (i, 0, v) consistent for each target i of ``i_stars``, or -1 where v = 0 is not.

    Consistency is monotone in v by the resource-reduction property:
    lowering the count on the attacked target never breaks it. The searches
    take one of two paths, by size:

    - where every count of every search fits one block, one ``feasible_rows``
      call probes them all, and each search's answer is its largest
      consistent count (there one call costs less than bisecting);
    - otherwise every search bisects ``[-1, villager_budget]`` in lockstep,
      cheap tests first (``_cheap_ends``), and one row confirms each end
      (``_confirm``).

    Returns (counts, rows checked). GameDefinitionError unless ``i_stars`` is
    a 1-D array of integers, each naming a target (``_query_rows`` checks
    its v = 0 rows).
    """
    return _most_villagers(_Pool(instance), i_stars)[1:]


def _effort_bounds(pool, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The effort searches' brackets: ``[0, ranger_budget]``, ``count`` times."""
    return np.zeros(count), np.full(count, float(pool.instance.ranger_budget))


def _effort_ends(pool, i_stars, v_stars, epsilon, fail, slack, slope) -> Tuple[np.ndarray, int]:
    """Each effort search's end on the full check, and the rows sent.

    Search k bisects ``[0, ranger_budget]`` (``_bisect``) with
    ``v_stars[k]`` villagers on ``i_stars[k]``, on rows placed by
    ``_certified_search``: ``fail[k]`` is an effort known to fail, and
    ``slack`` and ``slope`` hold the fill's slack and its slope at no effort
    (row 0) and at ``fail`` (row 1), nan where no row gave them.
    """
    lo, hi = _effort_bounds(pool, i_stars.size)
    ends, _, checks = _certified_search(
        lambda searches, efforts: _effort_rows(pool, i_stars[searches], efforts, v_stars[searches]),
        lo, hi, lo.copy(), fail, slack, slope, epsilon,
    )
    return ends, checks


def _candidates(pool, targets) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """The targets of ``targets`` that can be attacked at all, each with the most villagers it can keep.

    ``most_villagers``' searches on ``pool``'s instance, for all of
    ``targets``, an ascending index array, in lockstep. Returns ``(i_stars,
    v_stars, counters)``: the candidates in index order, their villager
    counts, and a ``Counter`` of the ``feasibility_checks`` spent (one per
    query row) and the number of ``candidates``.
    """
    targets, counts, checks = _most_villagers(pool, targets)
    attackable = counts >= 0
    counters = Counter({"feasibility_checks": checks, "candidates": int(attackable.sum())})
    return targets[attackable], counts[attackable], counters


def candidates_with_effort(instance: Instance, epsilon: float) -> Tuple[Iterator, Counter]:
    """TDBS's candidates on one ``_Pool``, each with its witness: ``(blocks, counters)``.

    Both searches run on the cheap tests alone (module docstring): every
    target's villager count (or, where every count fits one block, one call
    that probes them all, as in ``most_villagers``), then each candidate's
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
    p_stars = _cheap_ends(pool, i_stars, *_effort_bounds(pool, i_stars.size), _effort_query(v_stars), epsilon)[0]
    counters = Counter({"feasibility_checks": checks + i_stars.size, "candidates": i_stars.size})

    def blocks():
        lost = []
        yield from _candidate_witnesses(pool, i_stars, p_stars, v_stars, lost)
        if not lost:
            return
        index, slack, slope = (np.concatenate(part) for part in zip(*lost))
        kept, p_kept, v_kept, rows = _fall_back_ends(
            pool, i_stars[index], p_stars[index], v_stars[index], known[index], (slack, slope), epsilon
        )
        counters.update(feasibility_checks=rows, candidates=kept.size - index.size)
        for block, feasible, p, v in _witness_blocks(instance, pool.floor, kept, p_kept, v_kept):
            if not feasible.all():
                raise RuntimeError("tdbs lost a candidate's witness; this is a bug")
            yield kept[block], p, v

    return blocks(), counters


def _candidate_witnesses(pool, i_stars, p_stars, v_stars, lost):
    """One witness row per candidate at its search ends: ``(targets, p, v)``
    per block, for the rows that pass.

    Each block's failed rows go to ``lost`` with their slack and slope
    (``_witness_blocks``). Where a row passes it confirms both ends: the
    effort's, as every probe its cheap search failed fails the full check
    too and every probe it passed lies at or below the row, and the
    count's, as ``(i, 0, v)`` is consistent too by monotonicity and every
    count the bisection rejected failed a cheap test, so fails the full
    check too. Every row counts in ``feasibility_checks``.
    """
    for block, feasible, p, v in _witness_blocks(pool.instance, pool.floor, i_stars, p_stars, v_stars, lost):
        yield i_stars[block][feasible], p, v


def _fall_back_ends(pool, i_stars, p_stars, v_stars, known, at_end, epsilon):
    """The full path for candidates whose witness row failed: their ends ``(i_stars, p_stars, v_stars)`` and the rows sent.

    Takes the candidates' search ends, ``known``, each count known
    consistent (``_villager_ends``' ``lo``), and ``at_end``, the failed
    rows' slack and slope. Each count above ``known`` gets its confirming
    row at ``(i, 0, v)``, and a failed one falls back below it
    (``_confirm``); a count of -1 drops the candidate. Then every effort
    search runs on the full check in one lockstep (``_effort_ends``), from
    the slack and slope of its count's last passing row at no effort, where
    one was sent. Where the count stayed, its failed witness row bounds the
    search and gives the first Newton step from above; where it moved, a
    fresh cheap search at the new count gives the bound, the failed ``hi``
    of its bisection.
    """
    counts = v_stars.copy()
    at_zero = np.full((2, counts.size), np.nan)

    def check(searches, counts):
        passes, slack, slope = _effort_rows(pool, i_stars[searches], np.zeros(searches.size), counts)
        # a count bisection's passing rows rise, so the last one is at its count
        at_zero[:, searches[passes]] = slack[passes], slope[passes]
        return passes

    checks = _confirm(check, known, counts)
    kept = counts >= 0
    i_stars, counts, at_zero = i_stars[kept], counts[kept], at_zero[:, kept]
    moved = counts != v_stars[kept]
    fail = p_stars[kept]
    if moved.any():
        bounds = _effort_bounds(pool, int(moved.sum()))
        fail[moved] = _cheap_ends(pool, i_stars[moved], *bounds, _effort_query(counts[moved]), epsilon)[1]
    slack, slope = (np.stack([zero, np.where(moved, np.nan, end[kept])]) for zero, end in zip(at_zero, at_end))
    ends, more = _effort_ends(pool, i_stars, counts, epsilon, fail, slack, slope)
    return i_stars, ends, counts, checks + more


def candidates_above_seed(instance: Instance) -> Tuple[np.ndarray, np.ndarray, Counter]:
    """HW's candidates, bounded and pruned against a seed: ``(i_stars, v_stars, counters)``.

    On one ``_Pool``: the minimax seed (``_minimax_seed``), the bound
    (``_upper_bounds``), the villager searches on the targets it keeps
    (``_candidates``), and the break-even rows in one batch (module
    docstring). Returns the unpruned candidates in index order with their
    villager counts, and a ``Counter`` of the ``feasibility_checks`` spent
    (level, villager and break-even rows), the ``candidates`` found, how
    many of them are ``pruned``, and the targets ``bounded``. Sound for a
    scalar ``e_v``.
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


def _level_rows(instance, levels: np.ndarray):
    """Per attacker level u of ``levels``: whether the budgets hold every
    target to at most u, and the fill's slack and its slope in u (``_slope``).

    Each level is one ``_fill`` row needing every target's
    ``_min_coverage(u)``, with nothing spent.
    """
    feasible = np.empty(levels.size, dtype=bool)
    slack, slope = np.empty(levels.size), np.empty(levels.size)
    spent = np.zeros(levels.size, dtype=np.int64)
    for block in _blocks(instance, levels.size):
        c_min = _min_coverage(instance, levels[block, None])
        fill = _fill(instance, c_min, spent[block], spent[block])
        feasible[block], slack[block], slope[block] = fill.feasible, fill.slack, _slope(instance, c_min, fill.left)
    return feasible, slack, slope


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
    ``tol / 2`` below z. The bracket starts as ``[max(max P_a, z - tol /
    2), max R_a]``, and the first round checks one level row at ``max(max
    P_a, z) + tol / 4`` (at ``max P_a + tol / 4`` where the pooled cover
    reaches every target and z is -inf); where that row is feasible the
    bracket is within ``tol``. Otherwise, and from ``[max P_a, max R_a]``
    where the sweep gives no crossing, the search bisects the bracket on
    ``_bisect``'s float path with ``epsilon = tol``, as the effort search
    does, until it is within ``tol`` or one float step. That bisection is
    replayed on a few level rows placed by Newton's steps on the fill's
    slack, from the first row's slack and slope (``_certified_search``).
    The start only places the rows: the profile is ``_fill``'s witness of
    the level row at the bracket's feasible end, built as a witness row's
    is, however that level was found.
    """
    instance = pool.instance
    lo, hi = float(instance.penalty_att.max()), float(instance.reward_att.max())
    with np.errstate(over="ignore"):
        cover = instance.e_p * instance.ranger_budget + np.max(instance.e_v) * instance.villager_budget
    crossing = _crossing(pool, cover)
    slack, slope = np.full((2, 1), np.nan), np.full((2, 1), np.nan)
    checks = 0
    if not np.isnan(crossing):
        level = max(lo, crossing) + instance.tol / 4
        lo = max(lo, crossing - instance.tol / 2)
        if not lo < level < hi:
            lo = hi  # no level fits in the bracket: the search ends at hi
        elif hi - lo > instance.tol:
            feasible, at_level, rate = _level_rows(instance, np.array([level]))
            side = int(feasible[0])  # the level becomes hi where feasible, else lo
            slack[side], slope[side], checks = at_level, rate, 1
            lo, hi = (lo, level) if side else (level, hi)
    if hi - lo > instance.tol:

        def infeasible(_, levels):
            feasible, at_levels, rates = _level_rows(instance, levels)
            return ~feasible, at_levels, rates

        bracket = np.array([lo]), np.array([hi])
        _, top, more = _certified_search(
            infeasible, *bracket, bracket[0].copy(), bracket[1].copy(), slack, slope, instance.tol,
        )
        hi, checks = top[0], checks + more
    spent = np.zeros(1, dtype=np.int64)
    fill = _fill(instance, _min_coverage(instance, np.array([[hi]])), spent, spent, witness=True)
    return StrategyProfile(fill.p[0], fill.v[0]), checks


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
