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
the waste-minimal, utility-optimal completion. ``solve_hw`` takes the
candidates of the shared candidate search (``feasibility.candidates``) and
runs its incumbent loop over them, waterfilling each one that can still
win.

Events: one iteration of the pour loop is one event. Merges are not events:
the pour runs past any number of them, with running sums over the targets
below the sea, straight to the highest of the next swap, the next penalty
floor (or the fixed target's level) and the level where the ranger budget
runs out (``_next_event``). ``diagnostics["iterations"]`` counts these
events, and ``get_swap_line`` is called once per iteration.

Bracket pruning: ``solve_hw``'s incumbent loop keeps the incumbent, the best
defender utility some profile is known to reach. It starts at the best
candidate's utility with no ranger effort on it. Before waterfilling,
``solve_hw`` bisects the ranger effort on the candidate, with its villager
count fixed, over a bracket ``[left, right]`` that starts at no effort and
at the effort that fully covers the target (or the whole budget, if less).
Consistency is monotone in effort, so the candidate's own defender utility
never exceeds its value at ``right``; once that upper bound falls more than
``instance.tol`` below the incumbent, the candidate is pruned. A bisection
step is taken only while an infeasible midpoint would prune, and every
waterfilled candidate raises the incumbent to its evaluated utility. This is
sound for a scalar ``e_v``, the only kind ``hw`` accepts: a candidate whose
profile evaluates above its own bound does so through a tie with a target
whose exact completion reaches at least as much, and that target is never
pruned. On exactly tied payoffs the two may be different co-optimal
profiles, so the attacked target can differ from an unpruned solve while
the utility does not. ``diagnostics`` counts the bisection steps in
``feasibility_checks`` and the pruned candidates in ``pruned``, so
``candidates - pruned`` subproblems ran.

Pours hit levels inexactly, so every level comparison (critical-set
membership, pinned-at-floor tests, swap qualification) allows the
instance's utility slack ``instance.tol`` (see ``model``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .feasibility import (
    FeasibilityQuery,
    _defender_utility,
    candidates,
    check_consistent,
    feasible_rows,
    fixed_target_utilities,
)
from .model import (
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    attacker_utilities,
    evaluate_profile,
)

@dataclass
class WaterfillState:
    """Mutable iteration state of one waterfilling subproblem."""

    instance: Instance
    i_star: int
    u_att: np.ndarray            # attacker utility per target, current allocation
    u_att_villagers: np.ndarray  # attacker utility from villagers alone
    effort: np.ndarray           # ranger effort per target
    villagers: np.ndarray        # villager count per target
    width: np.ndarray            # 1 / (R_a - P_a), inf on zero-spread targets
    sea_level: Optional[float]
    critical: np.ndarray         # bool mask of the critical set
    ranger_remaining: float
    swaps: int = 0
    iterations: int = 0

    def snapshot(self) -> "WaterfillState":
        """Deep-enough copy for invariant checks across iterations."""
        return replace(
            self,
            u_att=self.u_att.copy(),
            u_att_villagers=self.u_att_villagers.copy(),
            effort=self.effort.copy(),
            villagers=self.villagers.copy(),
            critical=self.critical.copy(),
        )


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
    divisor, the payoff spread of ``j`` less that of ``i``. Index arrays
    broadcast: a column of ``i`` and a row of ``j`` give a matrix of drops.
    """
    inst = state.instance
    spread = inst.spread_att
    one_less = inst.reward_att[j] - spread[j] * inst.e_v * (state.villagers[j] - 1)
    villagers_only = state.u_att_villagers[i]
    ranger_dip = state.u_att[i] - villagers_only
    return ranger_dip + (one_less - villagers_only) * spread[i] / spread_gap


def min_drop_before_swap(state: WaterfillState, i: int, j: int) -> float:
    """Sea-level drop from u_att[i] until the (i, j) critical point.

    Requires i in the critical set, j outside it with a villager, and
    differing payoff spreads.
    """
    spread = state.instance.spread_att
    if spread[i] == spread[j]:
        raise GameDefinitionError("equal payoff spreads admit no critical point")
    return float(_drop(state, i, j, spread[j] - spread[i]))


def get_swap_line(state: WaterfillState) -> Optional[SwapCandidate]:
    """The highest qualifying swap event on the sea's descent.

    A (critical, donor) pair's critical point is a level that depends only on
    the two targets' villager counts, so it holds for the whole descent: the
    first target may be critical now or merge into the critical set on the
    way down (members are every unpinned target but the fixed one), and the
    donor must still sit below the sea when it gets there. Donors sit
    outside the critical set with a villager, no ranger effort, and strictly
    smaller width; pairs whose critical point lies below the donor's penalty
    floor, or behind the current level, don't qualify. ``u_change`` is the
    sea's drop to the event.
    """
    if state.sea_level is None:
        return None
    inst = state.instance
    sea = state.sea_level
    idx = np.arange(inst.n)
    pinned = np.abs(state.u_att - inst.penalty_att) <= inst.tol
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
    """Where the next pour stops: ``(level, budget_spent, swap)``.

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
    budget_level = float((top_sum[k] - budget) / width_sum[k])
    lowest = max(floor_level, budget_level)
    swap = get_swap_line(state)
    if swap is not None and sea - swap.u_change >= lowest:
        return sea - swap.u_change, False, swap
    return lowest, budget_level >= floor_level, None


def hw_subproblem(
    instance: Instance,
    i_star: int,
    v_star: int,
    on_state: Optional[Callable[[WaterfillState], None]] = None,
) -> StrategyProfile:
    """Optimal completion for a fixed attacked target and villager count on it.

    ``on_state`` is invoked with the live state at the top of every
    waterfilling iteration, each of which pours to one event (a swap, a
    penalty floor or the fixed target's level, or the end of the ranger
    budget) past any merges on the way, and once after termination
    (snapshot to keep).
    Raises GameDefinitionError for a per-target ``e_v``, or when ``v_star``
    villagers on ``i_star`` admit no consistent completion.
    """
    _require_scalar_e_v(instance)
    if not check_consistent(instance, FeasibilityQuery(i_star, 0.0, v_star)).feasible:
        raise GameDefinitionError("target %d cannot keep %d villagers" % (i_star, v_star))
    profile, _ = _run_subproblem(instance, i_star, v_star, on_state)
    return profile


def _require_scalar_e_v(instance) -> None:
    if np.ndim(instance.e_v) != 0:
        raise GameDefinitionError("waterfilling requires uniform villager effectiveness")


def _run_subproblem(instance, i_star, v_star, on_state=None):
    """Waterfill from a consistent (i_star, v_star); returns (profile, final state)."""
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
        u_att_villagers=u_att.copy(),
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

        level, budget_spent, swap = _next_event(state, pinned, u_star)
        do_swap = swap is not None
        sea = state.sea_level
        if level >= sea and not do_swap:
            break  # floor reached within tolerance; nothing left to lower
        critical = state.critical
        merged = np.flatnonzero(~pinned & ~critical & (state.u_att > level))
        drop = sea - level
        poured_critical = drop * state.width[critical] / instance.e_p
        poured_merged = (state.u_att[merged] - level) * state.width[merged] / instance.e_p
        if budget_spent:
            state.ranger_remaining = 0.0
        else:
            pour = float(poured_critical.sum() + poured_merged.sum())
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
            for t in (j, k):
                v_t = state.villagers[t]
                state.u_att[t] = fixed_target_utilities(instance, t, state.effort[t], v_t)[1]
                state.u_att_villagers[t] = fixed_target_utilities(instance, t, 0.0, v_t)[1]
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


def _bracket_prunes(instance, i_star: int, v_star: int, incumbent: float):
    """Whether bisecting the effort on ``i_star`` proves it cannot beat ``incumbent``.

    Returns ``(pruned, checks)``. The largest consistent effort, capped at
    full coverage, lies in ``[left, right]``, so the defender utility at
    ``right`` bounds the candidate's own. A step is taken only while an
    infeasible midpoint would prune, so a feasible one never lifts the
    utility at ``left`` past the incumbent.
    """
    def below(effort):
        u_def = fixed_target_utilities(instance, i_star, effort, v_star)[0]
        return u_def < incumbent - instance.tol

    # Effort past full coverage gains nothing, so the bracket ends there.
    saturated = max(1.0 - instance.e_v * v_star, 0.0) / instance.e_p
    left, right = 0.0, min(instance.ranger_budget, saturated)
    checks = 0
    while not below(right):
        mid = (left + right) / 2.0
        if mid == left or mid == right or not below(mid):
            return False, checks
        checks += 1
        if feasible_rows(instance, [i_star], [mid], [v_star])[0]:
            left = mid
        else:
            right = mid
    return True, checks


def solve_hw(instance: Instance) -> SolveResult:
    """Exact optimum over all candidate attacked targets.

    For each candidate of the shared candidate search
    (``feasibility.candidates``), in index order, run the waterfilling
    subproblem from its villager count, unless its effort bracket proves it
    cannot beat the incumbent (module docstring). The best evaluated utility
    wins, ties to the lowest target index. Needs a scalar villager
    effectiveness.
    """
    _require_scalar_e_v(instance)
    i_stars, v_stars, counters = candidates(instance)
    counters.update(iterations=0, swaps=0, pruned=0)
    # The best candidate with no ranger effort on it: its greedy fill reaches that much.
    at_no_effort = fixed_target_utilities(instance, i_stars, 0.0, v_stars)[0]
    incumbent = float(np.max(at_no_effort, initial=-np.inf))
    best_utility, best = -np.inf, None
    for i_star, v_star in zip(i_stars.tolist(), v_stars.tolist()):
        pruned, checks = _bracket_prunes(instance, i_star, v_star, incumbent)
        counters.update(feasibility_checks=checks, pruned=int(pruned))
        if pruned:
            continue
        profile, state = _run_subproblem(instance, i_star, v_star)
        counters.update(iterations=state.iterations, swaps=state.swaps)
        utility = _defender_utility(instance, profile.p, profile.v)
        incumbent = max(incumbent, utility)
        if utility > best_utility:
            best_utility, best = utility, profile
    if best is None:
        raise RuntimeError("no candidate target was completed; this is a bug")
    return replace(evaluate_profile(instance, best), diagnostics=dict(counters))
