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
the waste-minimal, utility-optimal completion. ``solve_hw`` waterfills
the candidates that ``feasibility.candidates_above_seed`` leaves after its
bound and break-even prune against a seed (the ``feasibility`` module
docstring), and the winner rule (``model.first_best``) keeps the first best.

Events: one iteration of the pour loop is one event. Merges are not events:
the pour runs past any number of them, with running sums over the targets
below the sea, straight to the highest of the next swap, the next penalty
floor (or the fixed target's level) and the level where the ranger budget
runs out (``_next_event``). ``diagnostics["iterations"]`` counts these
events, and ``get_swap_line`` is called once per iteration; it builds its
members x donors matrix only on a layout that ``_swap_free`` did not
certify (below). Each fact is computed once: the pinned mask in
``_refresh_levels``, the merge set in ``_next_event`` and utilities from
villagers alone in ``_drop``.

Swap-free layouts: a swap takes a villager from a donor ``j`` to a narrower
member ``i``, and ``get_swap_line`` finds one only where the donor has not
merged at the pair's level, which needs ``vo_i - e_v s_i >= u_j - tol``:
``i``'s utility with the villager it would gain, from its villagers alone,
against the donor's utility (spreads ``s``). ``_swap_free`` tests every
pair once, at the first event. Where no donor is pinned and every pair
misses by ``2 tol`` (plus rounding), no event can swap: until a swap the
villager counts do not change, members only leave their set, and a donor,
carrying no effort, was never poured. Then ``get_swap_line`` returns None
at once. Every case-study layout is certified; an uncertified layout runs
the matrix search at every event, as before.

Pours hit levels inexactly, so every level comparison (critical-set
membership, pinned-at-floor tests, swap qualification) allows the
instance's utility slack ``instance.tol`` (see ``model``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .feasibility import candidates_above_seed, fixed_target_utilities
from .model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    attacker_utilities,
    first_best,
    utilities_of,
)

# _swap_free's margin over tol: 2 tol + 16 eps max|payoff|, as tol = REL_TOL max|payoff|.
_SWAP_FREE_MARGIN = 2.0 + 16 * float(np.finfo(float).eps) / REL_TOL


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
    swap_free: bool = False  # no event can swap: ``_swap_free`` held at the first event


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
    column of ``i`` and a row of ``j`` give a matrix of drops. Only
    ``get_swap_line``'s matrix search calls it, so a layout ``_swap_free``
    certifies never does.
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

    On a layout ``_swap_free`` certified at its first event
    (``state.swap_free``) it returns None at once and builds no matrix.
    """
    if state.swap_free:
        return None
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


def _swap_free(state: WaterfillState, pinned: np.ndarray) -> bool:
    """Whether no event of this villager layout can swap; call at the first event.

    ``get_swap_line`` takes a (member ``i``, donor ``j``) pair, spreads
    ``s_j > s_i``, with an unpinned donor only where the donor has not merged
    at the pair's level, ``u_j <= level``. With the division cleared, that
    needs ``vo_i - u_j - (s_i / s_j) (ol_j - u_j) >= -tol``: ``vo`` is the
    utility from villagers alone, ``ol`` the donor's with one villager fewer
    (``_drop``), and the ``tol`` covers a critical member's
    ``joins - u_att``. An unpinned donor's coverage is its villagers' alone,
    below 1, so ``ol_j - u_j = e_v s_j`` and the test reads
    ``a_i >= u_j - tol`` with ``a_i = vo_i - e_v s_i``.

    So when no donor is pinned and ``a_i < u_j - margin`` for every pair, no
    pair qualifies now, nor at any later event: without a swap, members
    (unpinned targets but the fixed one) only leave their set and keep their
    ``vo``, and a later donor carries no effort, so it was never poured and
    keeps its utility. Donors here are every other target holding a
    villager, which covers ``get_swap_line``'s at every event, and
    ``vo = u_att`` as no target carries effort yet. The margin,
    ``2 tol + 16 eps max|payoff|``, is one ``tol`` more than the test needs,
    and that ``tol`` also covers the rounding of ``a``, ``u`` and the
    matrix's levels, each a few ``eps`` of the payoffs (every utility lies
    within them). ``max a < min u - margin`` settles most layouts in O(n);
    the rest test every pair.
    """
    inst = state.instance
    member = ~pinned
    member[state.i_star] = False
    donor = state.villagers > 0
    donor[state.i_star] = False
    u = state.u_att[donor]
    if not (u.size and np.count_nonzero(member)):
        return True
    if np.count_nonzero(pinned & donor):
        return False
    spread = inst.spread_att
    s = spread[member]
    # Past about 1e308 the difference overflows to -inf, which passes rightly.
    with np.errstate(over="ignore"):
        a = state.u_att[member] - inst.e_v * s
    margin = _SWAP_FREE_MARGIN * inst.tol
    if float(a.max()) < float(u.min()) - margin:
        return True
    near = a[:, None] >= u - margin
    return not np.count_nonzero(near & (spread[donor] > s[:, None]))


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
        if state.iterations == 1:
            state.swap_free = _swap_free(state, pinned)
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


def solve_hw(instance: Instance) -> SolveResult:
    """Exact optimum over all candidate attacked targets.

    Each candidate the bound keeps and the break-even check does not prune
    (``feasibility.candidates_above_seed``) is waterfilled from its villager
    count, in index order, and the winner rule (``model.first_best``) keeps
    the best evaluated utility, ties to the lowest target index. Needs a
    scalar villager effectiveness.
    """
    if np.ndim(instance.e_v) != 0:
        raise GameDefinitionError("waterfilling requires uniform villager effectiveness")
    i_stars, v_stars, found = candidates_above_seed(instance)
    # Keys in the order results are saved in: the searches', the pour's, then the prune's.
    diagnostics = dict.fromkeys(("feasibility_checks", "candidates", "iterations", "swaps", "pruned", "bounded"), 0)
    diagnostics.update(found)
    p, v = np.zeros((i_stars.size, instance.n)), np.zeros((i_stars.size, instance.n), dtype=np.int64)
    for k, (i_star, v_star) in enumerate(zip(i_stars.tolist(), v_stars.tolist())):
        profile, state = _run_subproblem(instance, i_star, v_star)
        p[k], v[k] = profile.p, profile.v
        diagnostics["iterations"] += state.iterations
        diagnostics["swaps"] += state.swaps
    return first_best(instance, [(p, v)], diagnostics)
