"""Approximate solver: two nested binary searches per candidate target.

The shared candidate search (``feasibility.candidates``) binary-searches the
largest villager count each attackable target can keep; ``solve_tdbs`` then
bisects the ranger effort on that target to within a resolution
``epsilon``, keeping the target a best response throughout. Both
dimensions run every candidate's search in lockstep: each round is one
batched ``feasibility.feasible_rows`` call with one row per search still
open, and no witness is built while searching.

Both searches go floor and pool first (``feasibility`` module docstring):
the O(1) attacker-floor test and the O(log n) pooled-coverage test answer
first, with no row. The effort bisection runs on the two tests alone
(``most_effort``); an end that one ``feasible_rows`` row finds consistent
is the full bisection's end, since every midpoint the tests passed lies at
or below it and so is consistent too. Only the bisections whose end fails,
or where neither test ever failed, bisect again on the full check. On the
benchmark's ``tdbs-synthetic`` pools (seeds 320000 and 390001, ``epsilon =
1e-3``) the tests' answer, confirmed by one row or given with none, is the
villager count of 97% of the targets (15,798 of 16,320) and the effort of
89% of the candidates (13,441 of 15,054). On the scalar instances it is
every count and every effort: where each spare villager takes a whole
piece, the pooled deficit is the fill's own answer. The per-target
instances keep the fill-bound efforts, 1,546 of 4,514 candidates, as the
pooled test counts every villager at ``max(e_v)``. Over those pools, at
``epsilon`` 1e-3 and 1e-7, the rows fell from 932,064 (every probe a row)
to 290,427 with the floor test alone, and to 113,550 with both: 212,137 to
42,784 on the scalar instances and 78,290 to 70,766 on the per-target ones,
with every output bit for bit the same.

The candidates' final witnesses are then built once, block by block
(``feasibility.witness_blocks``), and scored with the attacker's tied set
(``model.tied_defender_utilities``); the best wins, ties to the lowest
target index, and only its row is kept. The returned profile's defender
utility trails the exact optimum by less than ``e_p * 2 * M * epsilon``,
where M bounds the absolute input values.

That bound is proven for a scalar villager effectiveness only. The proof
keeps the most villagers each candidate can hold, then the most effort; with
a per-target ``e_v`` the most villagers on the attacked target is not always
optimal, and the bound can fail. On ``generate_instance(GenParams(n=3,
r_p=2, r_v=3, seed=70022))`` with ``e_v = [0.537, 0.163, 0.37]``, the
optimum holds 1 villager on the attacked target for 8.4573, while tdbs at
``epsilon = 1e-6`` keeps 2 for 8.3358, against a bound of 1.2e-5.

``solve_tdbs`` bounds and prunes no target: it searches every one, while
``solve_hw`` searches only those its bound (``feasibility._upper_bounds``)
keeps against the minimax seed. Tried here on the benchmark's
``tdbs-synthetic`` workload (2-vCPU VM), the same bound raised
``solves_per_s`` from 54.5 to 211 in one 25 s run at seed 310000, but:

- ``peak_rss_mb`` rose from 43.8 to 54.5 (+24%), as the benchmark keeps
  every result, about 4 KB at n = 240, and the faster solver makes more;
- answers moved, over the pools at seeds 310000, 330000 and 390001. A
  pruned candidate's witness can win through a tied target, which the kept
  candidates' own completions need not reach. On scalar instances 69 of 72
  answers fell, by at most 0.07 of the gap bound; on per-target ones 49 of
  72 fell, by up to 7.4 times the bound (most villagers first is not
  always best there).

So it waits for a benchmark that keeps one result per input, and for
returning the better of the best witness and the minimax profile. The
former bracket pruning, applied here, lowered per-target answers past the
bound too (on 300 per-target instances with n from 3 to 10, 8 answers, by
up to 84 times the bound at ``epsilon = 1e-3``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .feasibility import _floor_test, _Pool, candidates, feasible_rows, witness_blocks
from .model import (
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    _finite,
    coverage_of,
    evaluate_profile,
    tied_defender_utilities,
)

# Search resolution used by the experiment harness.
DEFAULT_EPSILON = 1e-3


def value_bound(instance) -> float:
    """Max absolute input value M, floored at 1 to avoid degenerate bounds."""
    return float(
        max(
            np.abs(instance.reward_def).max(),
            np.abs(instance.penalty_def).max(),
            np.abs(instance.reward_att).max(),
            np.abs(instance.penalty_att).max(),
            instance.ranger_budget,
            instance.villager_budget,
            1.0,
        )
    )


def utility_gap_bound(instance, epsilon: float) -> float:
    """Guaranteed cap on (exact optimum - returned utility): e_p * 2 * M * epsilon."""
    # M * epsilon first: e_p * 2 * M overflows for M near the float maximum
    return instance.e_p * 2.0 * (value_bound(instance) * epsilon)


@dataclass(frozen=True)
class TdbsConfig:
    """Search resolution ``epsilon`` on the ranger effort of the attacked target."""

    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        epsilon = _finite(self.epsilon, "epsilon")
        if not epsilon > 0:
            raise GameDefinitionError("epsilon must be positive")
        object.__setattr__(self, "epsilon", epsilon)


def _bisect(instance, count: int, epsilon: float, decide) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` effort bisections over ``[0, ranger_budget]`` to within ``epsilon``, in lockstep.

    Each round calls ``decide(rows, mid)`` once with the bisections still
    open and their midpoints; it answers which of them are consistent.
    Returns every bisection's final ``(left, right)``.
    """
    left = np.zeros(count)
    right = np.full(count, float(instance.ranger_budget))
    while True:
        mid = left / 2.0 + right / 2.0  # halves first: left + right can overflow
        # a bisection ends within epsilon, or narrower than one float step
        rows = np.flatnonzero((right - left > epsilon) & (mid != left) & (mid != right))
        if rows.size == 0:
            return left, right
        ok = decide(rows, mid[rows])
        left[rows[ok]] = mid[rows[ok]]
        right[rows[~ok]] = mid[rows[~ok]]


def most_effort(instance: Instance, i_stars, v_stars, epsilon: float):
    """Bisect the ranger effort on every candidate to within ``epsilon``, in lockstep.

    Candidate k keeps ``v_stars[k]`` villagers on target ``i_stars[k]``,
    and every bisection probes the midpoints it would probe alone.

    Floor and pool first: every bisection first runs on the two cheap tests
    alone (``feasibility._Pool.passes``, the predicate the villager search
    bisects on too), which cost no row. Where the tests both passed and
    failed on the way, one ``feasible_rows`` row checks the end.
    Consistency implies both tests and is monotone in the effort, so a
    consistent end lies at or above every midpoint the tests passed: each of
    them was consistent too, and the path is the full check's, bit for bit.
    The other bisections with an end above zero run again on the full check,
    one row per midpoint that passes the floor test and lies below a failed
    end (every effort from there up is inconsistent). The pooled test is not
    run again there: each such midpoint lies below an effort it passed, and
    running it again spared no row on the benchmark's pools.
    Returns (the largest effort found consistent per candidate, rows
    checked).
    """
    pool = _Pool(instance)
    left, right = _bisect(
        instance, len(i_stars), epsilon, lambda rows, mid: pool.passes(i_stars[rows], mid, v_stars[rows])
    )
    # An end at zero passed no midpoint, by either test. One whose right
    # stayed at the budget failed none: it only guesses the whole budget, so
    # it goes to the full check unconfirmed, with no effort known inconsistent.
    unsure = left > 0.0
    capped = np.flatnonzero(unsure & (right < instance.ranger_budget))
    unsure[capped] = ~feasible_rows(instance, i_stars[capped], left[capped], v_stars[capped])
    checks = capped.size
    failed = np.flatnonzero(unsure)
    # every effort from a failed end up is inconsistent too
    inconsistent = np.where(right[failed] < instance.ranger_budget, left[failed], np.inf)

    def full_check(rows, mid):
        nonlocal checks
        fixed, spent_v = i_stars[failed[rows]], v_stars[failed[rows]]
        ok = _floor_test(instance, pool.floor, fixed, mid, spent_v)[1] & (mid < inconsistent[rows])
        sent = np.flatnonzero(ok)
        ok[sent] = feasible_rows(instance, fixed[sent], mid[sent], spent_v[sent])
        checks += sent.size
        return ok

    left[failed] = _bisect(instance, failed.size, epsilon, full_check)[0]
    return left, checks


def solve_tdbs(instance: Instance, config: Optional[TdbsConfig] = None) -> SolveResult:
    """Approximately optimal profile within the configured resolution.

    Works for a scalar and for a per-target villager effectiveness.
    """
    epsilon = (config or TdbsConfig()).epsilon
    i_stars, v_stars, counters = candidates(instance, np.arange(instance.n))
    p_stars, checks = most_effort(instance, i_stars, v_stars, epsilon)
    counters["feasibility_checks"] += checks
    best_utility, best = -np.inf, None
    for _, feasible, p, v in witness_blocks(instance, i_stars, p_stars, v_stars):
        if not feasible.all():
            raise RuntimeError("tdbs lost a candidate's witness; this is a bug")
        utilities = tied_defender_utilities(instance, coverage_of(instance, p, v)).max(axis=1)
        k = int(np.argmax(utilities))  # the first best: ties go to the lowest target
        if utilities[k] > best_utility:
            best_utility, best = utilities[k], StrategyProfile(p[k], v[k])
    result = evaluate_profile(instance, best)
    return replace(result, diagnostics=dict(counters))
