"""Exact solver: greedy villager placement, ranger waterfilling, and swaps.

For a fixed attacked target and villager count on it, remaining villagers go
greedily to whichever other target currently offers the attacker the most
(a heap of every target's current utility, popped once per villager).
Ranger effort is then poured onto the set of targets tied at the highest
attacker utility (the critical set), lowering that "sea level" uniformly;
a target below the sea merges into the set when the sea reaches it.
Pouring pauses at critical points where one villager below the sea can trade
places with a critical target's ranger effort at no change in level; the
trade (a swap) moves the villager to a wider target, shrinking the effort
needed per unit of further lowering. Iterating to ranger exhaustion yields
the waste-minimal, utility-optimal completion. ``solve_hw`` bounds every
target first, searches only those that may win with the shared candidate
search (``feasibility.candidates``), prunes the candidates that cannot win
and waterfills the rest.

Events: one iteration of the pour loop is one event. Merges are not events:
the pour runs past any number of them, with running sums over the targets
below the sea, straight to the highest of the next swap, the next penalty
floor (or the fixed target's level) and the level where the ranger budget
runs out (``_next_event``). ``diagnostics["iterations"]`` counts these
events, and ``get_swap_line`` is called once per iteration. Each fact is
computed once: the pinned mask in ``_refresh_levels``, the merge set in
``_next_event`` and utilities from villagers alone in ``_drop``.

Pruning, in two steps, both against a seed: a defender utility that some
valid profile reaches on the target it is attacked on, so the optimum
reaches it too. The first seed is the minimax profile's
(``feasibility._minimax_profile``), which holds the attacker's best utility
lowest (ORIGAMI's attack-set minimisation), read on a target it lets be
attacked exactly (``_minimax_seed``): one it attacks already, or one whose
ranger effort can be shed until its attacker utility passes the best. A
target only tied within tol is not enough: it may be no candidate at all.

- Bound: ``feasibility._upper_bounds`` gives each target at least the
  defender utility of any valid profile that leaves it in the attacker's
  tied set (ORIGAMI's pooled-coverage sweep, with integrality dropped). A
  target whose bound is below ``minimax seed - tol`` cannot win. It gets no
  villager search and counts in ``bounded``; the rest go to the shared
  candidate search (``feasibility.candidates``).
- Break-even: the seed becomes the larger of the minimax seed and the best
  candidate's utility with its villagers and no ranger effort, which that
  candidate's completion reaches. A candidate's defender utility rises with
  the effort on it, and consistency is monotone in effort, so it can reach
  the bar ``seed - tol`` only if its break-even effort, where its utility
  equals the bar, is consistent. ``solve_hw`` checks every candidate below
  the bar with no effort at its break-even effort in one batched
  ``feasible_rows`` call, and prunes those that fail or whose break-even
  lies past full coverage or the ranger budget.

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
which often ties it on another attacked target. ``diagnostics`` counts the
minimax search's level rows, the villager search's rows and the break-even
rows in ``feasibility_checks``, the targets never searched in ``bounded``,
the attackable targets among the rest in ``candidates``, and the pruned
candidates in ``pruned``, so ``candidates - pruned`` subproblems ran.

Pours hit levels inexactly, so every level comparison (critical-set
membership, pinned-at-floor tests, swap qualification) allows the
instance's utility slack ``instance.tol`` (see ``model``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .feasibility import (
    _candidates,
    _min_coverage,
    _minimax_profile,
    _Pool,
    _upper_bounds,
    feasible_rows,
    fixed_target_utilities,
)
from .model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    attacker_utilities,
    coverage_of,
    evaluate_profile,
    tied_defender_utilities,
    utilities_of,
)

@dataclass
class WaterfillState:
    """Mutable iteration state of one waterfilling subproblem."""

    instance: Instance
    i_star: int
    u_att: np.ndarray      # attacker utility per target, current allocation
    effort: np.ndarray     # ranger effort per target
    villagers: np.ndarray  # villager count per target
    width: np.ndarray      # 1 / (R_a - P_a), inf on zero-spread targets
    sea_level: Optional[float]
    critical: np.ndarray   # bool mask of the critical set
    ranger_remaining: float
    swaps: int = 0
    iterations: int = 0


@dataclass(frozen=True)
class SwapCandidate:
    """A critical point: drop ``u_change`` more, then trade rangers for a villager."""

    u_change: float
    i_outp: int  # critical target giving up its ranger effort
    i_outv: int  # below-sea target giving up one villager


def _drop(state: WaterfillState, i, j, spread_gap):
    """Sea-level drop from u_att[i] until the (i, j) critical point.

    At the critical level, the ranger coverage on ``i`` equals the above-sea
    part of the last villager's coverage on ``j``. ``spread_gap`` is the
    divisor, the payoff spread of ``j`` less that of ``i``; ``i``'s utility
    from its villagers alone comes from its count. Index arrays broadcast: a
    column of ``i`` and a row of ``j`` give a matrix of drops.
    """
    inst = state.instance
    spread = inst.spread_att
    one_less = inst.reward_att[j] - spread[j] * inst.e_v * (state.villagers[j] - 1)
    villagers_only = utilities_of(inst, np.minimum(inst.e_v * state.villagers[i], 1.0), i)[1]
    ranger_dip = state.u_att[i] - villagers_only
    # The spreads divide first, so no product of two payoffs is formed. Past
    # about 1e306 near-equal spreads still overflow; an infinite drop is no swap.
    with np.errstate(over="ignore"):
        return ranger_dip + (one_less - villagers_only) * (spread[i] / spread_gap)


def get_swap_line(state: WaterfillState, pinned: np.ndarray) -> Optional[SwapCandidate]:
    """The highest qualifying swap event on the sea's descent.

    A (critical, donor) pair's critical point is a level that depends only on
    the two targets' villager counts, so it holds for the whole descent: the
    first target may be critical now or merge into the critical set on the
    way down (members are every unpinned target but the fixed one), and the
    donor must still sit below the sea when it gets there. Donors sit
    outside the critical set with a villager, no ranger effort, and strictly
    smaller width; pairs whose critical point lies below the donor's penalty
    floor, or behind the current level, don't qualify. ``u_change`` is the
    sea's drop to the event. ``pinned`` is the mask ``_refresh_levels``
    returned for this state, which must have a sea.
    """
    inst = state.instance
    sea = state.sea_level
    idx = np.arange(inst.n)
    joins = np.where(state.critical, sea, state.u_att)  # sea level at which each target is critical
    members = np.flatnonzero(~pinned & (idx != state.i_star))
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
    raw = _drop(state, members, donors, np.where(diff > 0, diff, np.inf))
    # The sea level at the event; tolerance-level negative drops mean "swap now".
    # A level past -max-float lies below every penalty floor, so it is no swap.
    with np.errstate(over="ignore"):
        level = joins[members] - np.maximum(raw, 0.0)
    ok = (
        (diff > 0)
        & (raw >= -inst.tol)  # critical points already passed never recur
        & (level >= inst.penalty_att[donors] - inst.tol)
        & (pinned[donors] | (state.u_att[donors] <= level))  # the donor has not merged
    )
    level = np.where(ok, level, -np.inf)
    mi, dj = divmod(int(np.argmax(level)), donors.size)
    if not ok[mi, dj]:
        return None
    return SwapCandidate(
        u_change=sea - float(level[mi, dj]),
        i_outp=int(members[mi, 0]),
        i_outv=int(donors[0, dj]),
    )


def _greedy_villagers(inst, i_star: int, v_star: int):
    """Place spare villagers on the max-attacker-utility unpinned targets.

    One villager at a time, each going where the attacker's utility is
    highest (ties to the lowest target) while that target stays more than
    ``tol`` above its penalty floor. A heap holds each eligible target's
    current utility, keyed ``(-u, target)``; each pop places one villager,
    and the target goes back with its next utility while it stays eligible,
    so memory is O(n) however many villagers one target takes.
    """
    villagers = np.zeros(inst.n, dtype=np.int64)
    villagers[i_star] = v_star
    u_att = attacker_utilities(inst, np.minimum(inst.e_v * villagers, 1.0))
    spare = inst.villager_budget - v_star
    reward, penalty = inst.reward_att.tolist(), inst.penalty_att.tolist()
    counts, u = villagers.tolist(), u_att.tolist()
    heap = [(-u[j], j) for j in range(inst.n) if j != i_star and u[j] - penalty[j] > inst.tol]
    heapq.heapify(heap)
    while spare > 0 and heap:
        j = heap[0][1]
        counts[j] += 1
        spare -= 1
        # model.utilities_of, restated on floats: a numpy call per villager is slower
        c = min(inst.e_v * counts[j], 1.0)
        u[j] = reward[j] * (1.0 - c) + penalty[j] * c
        if u[j] - penalty[j] > inst.tol:
            heapq.heapreplace(heap, (-u[j], j))
        else:
            heapq.heappop(heap)
    return np.array(counts, dtype=np.int64), np.array(u)


def _refresh_levels(state: WaterfillState) -> np.ndarray:
    """Recompute sea level and critical set; returns the pinned mask.

    A target is pinned when its attacker utility sits at its penalty floor;
    when all are, ``sea_level`` becomes None.
    """
    tol = state.instance.tol
    pinned = np.abs(state.u_att - state.instance.penalty_att) <= tol
    if pinned.all():
        state.sea_level = None
        state.critical = np.zeros(state.instance.n, dtype=bool)
        return pinned
    unpinned = ~pinned
    sea = float(state.u_att[unpinned].max())
    state.sea_level = sea
    state.critical = unpinned & (state.u_att >= sea - tol)
    return pinned


def _next_event(state: WaterfillState, pinned: np.ndarray, u_star: float):
    """Where the next pour stops: ``(level, budget_spent, swap, merged)``.

    The sea descends from its level; each unpinned target below it merges
    into the critical set when the sea reaches that target's level, so
    between two merge levels the set is fixed and running sums give what a
    pour to any level L costs, ``sum(width * (top - L)) / e_p``, with ``top``
    the sea for the current critical set and a merged target's own level.
    The pour stops at the highest of three events:

    - a floor: the highest penalty floor in the set (every floor once the
      fixed target is critical) and, while it is not, the fixed target's own
      level, which a pinned fixed target never reaches by merging;
    - the budget: the level at which the ranger budget is spent
      (``budget_spent``);
    - a swap: the highest critical point ``get_swap_line`` finds, if it is
      at or above the other two (``swap``, else None). Ties go to the swap.
    ``merged`` is the targets the pour merges, in index order for its sums.
    """
    inst = state.instance
    penalty = inst.penalty_att
    sea, critical, u_att = state.sea_level, state.critical, state.u_att
    if critical[state.i_star]:
        floor = float(penalty.max())
    else:
        floor = max(float(penalty[critical].max()), u_star)
    # Targets at or below the first floor stop never merge.
    merging = np.flatnonzero(~pinned & ~critical & (u_att > floor))
    merging = merging[np.argsort(-u_att[merging], kind="stable")]
    levels = u_att[merging]
    # Segment k runs from the sea (k = 0) or the k-th merge level down to the
    # next one, with the critical set and the first k merged targets wet.
    widths = state.width[merging]
    width_sum = np.cumsum(np.concatenate(([state.width[critical].sum()], widths)))
    top_sum = np.cumsum(np.concatenate(([sea * width_sum[0]], widths * levels)))
    bottom = np.append(levels, -np.inf)
    floors = np.maximum.accumulate(np.concatenate(([floor], penalty[merging])))
    k = int(np.argmax(floors >= bottom))
    floor_level = min(float(floors[k]), sea)
    budget = state.ranger_remaining * inst.e_p
    k = int(np.argmax(top_sum - bottom * width_sum > budget))
    # On Python floats a budget past every level overflows to -inf with no
    # warning, and the floor wins; an np.errstate block per event costs more.
    budget_level = (float(top_sum[k]) - budget) / float(width_sum[k])
    lowest = max(floor_level, budget_level)
    swap = get_swap_line(state, pinned)
    if swap is not None and sea - swap.u_change >= lowest:
        level, budget_spent = sea - swap.u_change, False
    else:
        level, budget_spent, swap = lowest, budget_level >= floor_level, None
    return level, budget_spent, swap, np.sort(merging[levels > level])


def _run_subproblem(instance, i_star, v_star, on_state=None):
    """Waterfill from a consistent (i_star, v_star); returns (profile, final state).

    ``on_state``, if given, is called with the live state at the top of
    every iteration, each of which pours to one event (a swap, a penalty
    floor or the fixed target's level, or the end of the ranger budget),
    and once after termination. The state is mutated in place afterwards,
    so a caller that keeps it must copy it.
    """
    n = instance.n
    penalty = instance.penalty_att
    spread = instance.spread_att
    with np.errstate(divide="ignore"):
        width = np.where(spread > 0, 1.0 / spread, np.inf)
    width.setflags(write=False)

    villagers, u_att = _greedy_villagers(instance, i_star, v_star)
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
        pinned = _refresh_levels(state)
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

        level, budget_spent, swap, merged = _next_event(state, pinned, u_star)
        do_swap = swap is not None
        sea = state.sea_level
        if level >= sea and not do_swap:
            break  # floor reached within tolerance; nothing left to lower
        critical = state.critical
        drop = sea - level
        poured_critical = drop * state.width[critical] / instance.e_p
        poured_merged = (state.u_att[merged] - level) * state.width[merged] / instance.e_p
        pour = float(poured_critical.sum() + poured_merged.sum())
        if budget_spent:
            # The budget level loses digits when the budget is tiny against
            # the levels, and the pour can overshoot it. Past half the effort
            # slack (model), scale the pour back to what is left.
            if pour > state.ranger_remaining + REL_TOL / 2 * instance.ranger_budget:
                poured_critical *= state.ranger_remaining / pour
                poured_merged *= state.ranger_remaining / pour
            state.ranger_remaining = 0.0
        else:
            state.ranger_remaining = max(state.ranger_remaining - pour, 0.0)
        state.u_att[critical] -= drop
        state.effort[critical] += poured_critical
        state.u_att[merged] = level
        state.effort[merged] += poured_merged

        if do_swap:
            j, k = swap.i_outv, swap.i_outp
            state.villagers[j] -= 1
            state.villagers[k] += 1
            state.effort[j] = state.effort[k]
            state.effort[k] = 0.0
            t = [j, k]
            state.u_att[t] = fixed_target_utilities(instance, t, state.effort[t], state.villagers[t])[1]
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

    _refresh_levels(state)
    if on_state is not None:
        on_state(state)
    return StrategyProfile(state.effort, state.villagers), state


def _minimax_seed(instance: Instance):
    """A defender utility some valid profile reaches on the target it is
    attacked on, from the minimax profile; and the level rows checked.

    A target the profile already attacks exactly counts as it is. Any
    other target's coverage is lowered, shedding rangers only, until its
    attacker utility passes the profile's best; one its villagers alone
    cover past that point does not count. The lowered profile is valid and
    attacked on that target, so the target's completion reaches at least
    its utility there, and so does the optimum.
    """
    minimax, checks = _minimax_profile(instance)
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


def solve_hw(instance: Instance) -> SolveResult:
    """Exact optimum over all candidate attacked targets.

    Every candidate of the shared candidate search
    (``feasibility.candidates``) among the targets the bound keeps, that its
    break-even check does not prune (module docstring), is waterfilled from
    its villager count, in index order. The best evaluated utility wins,
    ties to the lowest target index. Needs a scalar villager effectiveness.
    """
    if np.ndim(instance.e_v) != 0:
        raise GameDefinitionError("waterfilling requires uniform villager effectiveness")
    minimax_seed, checks = _minimax_seed(instance)
    # A target whose bound is below the minimax seed less tol cannot win (module docstring).
    pool = _Pool(instance)
    searched = np.flatnonzero(_upper_bounds(pool) >= minimax_seed - instance.tol)
    i_stars, v_stars, counters = _candidates(pool, searched)
    counters.update(iterations=0, swaps=0, pruned=0, bounded=instance.n - searched.size)
    at_no_effort = fixed_target_utilities(instance, i_stars, 0.0, v_stars)[0]
    seed = max(np.max(at_no_effort, initial=-np.inf), minimax_seed)
    # The seed less tol: a candidate that cannot reach it cannot win (module docstring).
    bar = seed - instance.tol
    keep = at_no_effort >= bar
    # Coverage, then effort, at which each candidate's defender utility reaches the bar.
    spread = instance.reward_def[i_stars] - instance.penalty_def[i_stars]
    # A coverage of +inf is out of reach, and one of -inf met at no effort.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coverage = (bar - instance.penalty_def[i_stars]) / spread
        effort = (coverage - instance.e_v * v_stars) / instance.e_p
    rows = np.flatnonzero(~keep & (spread > 0) & (coverage <= 1.0) & (effort <= instance.ranger_budget))
    # Rounding can put the break-even a hair below zero effort.
    keep[rows] = feasible_rows(instance, i_stars[rows], np.maximum(effort[rows], 0.0), v_stars[rows])
    counters.update(feasibility_checks=checks + rows.size, pruned=int(keep.size - keep.sum()))
    best_utility, best = -np.inf, None
    for i_star, v_star in zip(i_stars[keep].tolist(), v_stars[keep].tolist()):
        profile, state = _run_subproblem(instance, i_star, v_star)
        counters.update(iterations=state.iterations, swaps=state.swaps)
        utility = tied_defender_utilities(instance, coverage_of(instance, profile.p, profile.v)).max()
        if utility > best_utility:
            best_utility, best = utility, profile
    if best is None:
        raise RuntimeError("no candidate target was completed; this is a bug")
    return replace(evaluate_profile(instance, best), diagnostics=dict(counters))
