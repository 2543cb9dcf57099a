"""Exact solver: greedy villager placement, ranger waterfilling, and swaps.

For a fixed attacked target and villager count on it, remaining villagers go
greedily to whichever other target currently offers the attacker the most.
Ranger effort is then poured onto the set of targets tied at the highest
attacker utility (the critical set), lowering that "sea level" uniformly.
Pouring pauses at critical points where one villager below the sea can trade
places with a critical target's ranger effort at no change in level; the
trade (a swap) moves the villager to a wider target, shrinking the effort
needed per unit of further lowering. Iterating to ranger exhaustion yields
the waste-minimal, utility-optimal completion; ``solve_hw`` runs it for the
candidates of the shared loop ``feasibility.best_candidate`` that can still
win.

Bracket pruning: the loop hands each candidate the incumbent, the best
defender utility some profile is known to reach. Before waterfilling,
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

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .feasibility import (
    FeasibilityQuery,
    best_candidate,
    check_consistent,
    fixed_target_utilities,
)
from .model import (
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    attacker_utilities,
    utilities_of,
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
    next_level: Optional[float]
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
    raw = _drop(state, members, donors, np.where(diff > 0, diff, np.inf))
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
    return SwapCandidate(
        u_change=float(drops[mi, dj]),
        i_outp=int(members[mi, 0]),
        i_outv=int(donors[0, dj]),
    )


def _greedy_villagers(inst, i_star: int, v_star: int):
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


def _refresh_levels(state: WaterfillState) -> np.ndarray:
    """Recompute sea level, next level, and critical set; returns the pinned mask.

    A target is pinned when its attacker utility sits at its penalty floor;
    when all are, ``sea_level`` becomes None.
    """
    tol = state.instance.tol
    pinned = np.abs(state.u_att - state.instance.penalty_att) <= tol
    if pinned.all():
        state.sea_level = None
        state.next_level = None
        state.critical = np.zeros(state.instance.n, dtype=bool)
        return pinned
    unpinned = ~pinned
    sea = float(state.u_att[unpinned].max())
    critical = unpinned & (state.u_att >= sea - tol)
    below = unpinned & ~critical
    state.sea_level = sea
    state.next_level = float(state.u_att[below].max()) if below.any() else None
    state.critical = critical
    return pinned


def hw_subproblem(
    instance: Instance,
    i_star: int,
    v_star: int,
    on_state: Optional[Callable[[WaterfillState], None]] = None,
) -> StrategyProfile:
    """Optimal completion for a fixed attacked target and villager count on it.

    ``on_state`` is invoked with the live state at the top of every
    waterfilling iteration and once after termination (snapshot to keep).
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
        next_level=None,
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

        swap = get_swap_line(state)
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
        if state.next_level is not None:
            stop = max(stop, state.next_level)
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
                state.u_att_villagers[t] = utilities_of(instance, min(c_v, 1.0), t)[1]
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
        if check_consistent(instance, FeasibilityQuery(i_star, mid, v_star)).feasible:
            left = mid
        else:
            right = mid
    return True, checks


def solve_hw(instance: Instance) -> SolveResult:
    """Exact optimum over all candidate attacked targets.

    Per candidate of the shared loop, run the waterfilling subproblem from
    the maximum consistent villager count, unless its effort bracket proves
    it cannot beat the incumbent (module docstring). Needs a scalar villager
    effectiveness.
    """
    _require_scalar_e_v(instance)

    def complete(i_stars, v_stars):
        def finish(k, incumbent):
            i_star, v_star = int(i_stars[k]), int(v_stars[k])
            pruned, checks = _bracket_prunes(instance, i_star, v_star, incumbent)
            profile, iterations, swaps = None, 0, 0
            if not pruned:
                profile, state = _run_subproblem(instance, i_star, v_star)
                profile, iterations, swaps = (profile.p, profile.v), state.iterations, state.swaps
            return profile, {
                "feasibility_checks": checks,
                "iterations": iterations,
                "swaps": swaps,
                "pruned": int(pruned),
            }

        return finish, {}

    return best_candidate(instance, complete)
