"""Exact solver: greedy villager placement, ranger waterfilling, and swaps.

For a fixed attacked target and villager count on it, remaining villagers go
greedily to whichever other target currently offers the attacker the most.
Ranger effort is then poured onto the set of targets tied at the highest
attacker utility (the critical set), lowering that "sea level" uniformly.
Pouring pauses at critical points where one villager below the sea can trade
places with a critical target's ranger effort at no change in level; the
trade (a swap) moves the villager to a wider target, shrinking the effort
needed per unit of further lowering. Iterating to ranger exhaustion yields
the waste-minimal, utility-optimal completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .feasibility import FeasibilityQuery, check_consistent, max_feasible_villagers
from .model import (
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    evaluate_profile,
)

# Absolute tolerance for critical-set membership and pinned-at-floor tests;
# continuous pours hit levels inexactly.
LEVEL_TOL = 1e-9


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
    unassigned_villagers: int
    swaps: int = 0
    iterations: int = 0

    def snapshot(self) -> "WaterfillState":
        """Deep-enough copy for invariant checks across iterations."""
        return WaterfillState(
            instance=self.instance,
            i_star=self.i_star,
            u_att=self.u_att.copy(),
            u_att_villagers=self.u_att_villagers.copy(),
            effort=self.effort.copy(),
            villagers=self.villagers.copy(),
            width=self.width,
            sea_level=self.sea_level,
            next_level=self.next_level,
            critical=self.critical.copy(),
            ranger_remaining=self.ranger_remaining,
            unassigned_villagers=self.unassigned_villagers,
            swaps=self.swaps,
            iterations=self.iterations,
        )


@dataclass(frozen=True)
class SwapCandidate:
    """A critical point: drop ``u_change`` more, then trade rangers for a villager."""

    u_change: float
    i_outp: int  # critical target giving up its ranger effort
    i_outv: int  # below-sea target giving up one villager


def min_drop_before_swap(state: WaterfillState, i: int, j: int) -> float:
    """Sea-level drop from u_att[i] until the (i, j) critical point.

    At the critical level, the ranger coverage on ``i`` equals the above-sea
    part of the last villager's coverage on ``j``. Requires i in the critical
    set, j outside it with a villager, and differing payoff spreads.
    """
    inst = state.instance
    spread = inst.spread_att
    s_i, s_j = float(spread[i]), float(spread[j])
    if s_i == s_j:
        raise GameDefinitionError("equal payoff spreads admit no critical point")
    one_less = inst.reward_att[j] - s_j * inst.e_v * (state.villagers[j] - 1)
    ranger_dip = state.u_att[i] - state.u_att_villagers[i]
    return float(ranger_dip + (one_less - state.u_att_villagers[i]) * s_i / (s_j - s_i))


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

    spread = inst.spread_att
    s_i = spread[members][:, None]
    s_j = spread[donors][None, :]
    diff = s_j - s_i  # > 0 means the donor is strictly narrower
    one_less = inst.reward_att[donors] - spread[donors] * inst.e_v * (
        state.villagers[donors] - 1
    )
    villagers_only = state.u_att_villagers[members][:, None]
    ranger_dip = (state.u_att[members] - state.u_att_villagers[members])[:, None]
    raw = ranger_dip + (one_less[None, :] - villagers_only) * s_i / np.where(
        diff > 0, diff, np.inf
    )
    drops = np.maximum(raw, 0.0)  # tolerance-level negatives mean "swap now"
    ok = (
        (diff > 0)
        & (raw >= -LEVEL_TOL)  # critical points already passed never recur
        & (state.sea_level - drops >= inst.penalty_att[donors][None, :] - LEVEL_TOL)
    )
    drops = np.where(ok, drops, np.inf)
    flat = int(np.argmin(drops))
    mi, dj = divmod(flat, donors.size)
    if not np.isfinite(drops[mi, dj]):
        return None
    return SwapCandidate(
        u_change=float(drops[mi, dj]),
        i_outp=int(members[mi]),
        i_outv=int(donors[dj]),
    )


def _coverage_utility(inst, i: int, effort: float, villagers: int) -> Tuple[float, float]:
    """(current, villagers-only) attacker utility on one target."""
    e_v = inst.e_v
    c_full = min(inst.e_p * effort + e_v * villagers, 1.0)
    c_v = min(e_v * villagers, 1.0)
    r, p = inst.reward_att[i], inst.penalty_att[i]
    return float(r * (1 - c_full) + p * c_full), float(r * (1 - c_v) + p * c_v)


def _greedy_villagers(inst, i_star: int, v_star: int):
    """Place spare villagers on the max-attacker-utility unpinned targets."""
    n = inst.n
    villagers = np.zeros(n, dtype=np.int64)
    villagers[i_star] = v_star
    u_att = np.empty(n)
    for i in range(n):
        u_att[i], _ = _coverage_utility(inst, i, 0.0, int(villagers[i]))
    idx = np.arange(n)
    spare = inst.villager_budget - v_star
    placed = 0
    for _ in range(spare):
        eligible = (idx != i_star) & (u_att - inst.penalty_att > LEVEL_TOL)
        if not eligible.any():
            break
        j = int(np.argmax(np.where(eligible, u_att, -np.inf)))
        villagers[j] += 1
        u_att[j], _ = _coverage_utility(inst, j, 0.0, int(villagers[j]))
        placed += 1
    return villagers, u_att, spare - placed


def _refresh_levels(state: WaterfillState) -> bool:
    """Recompute sea level, next level, and critical set; False if all pinned."""
    unpinned = np.abs(state.u_att - state.instance.penalty_att) > LEVEL_TOL
    if not unpinned.any():
        state.sea_level = None
        state.next_level = None
        state.critical = np.zeros(state.instance.n, dtype=bool)
        return False
    sea = float(state.u_att[unpinned].max())
    critical = unpinned & (state.u_att >= sea - LEVEL_TOL)
    below = unpinned & ~critical
    state.sea_level = sea
    state.next_level = float(state.u_att[below].max()) if below.any() else None
    state.critical = critical
    return True


def hw_subproblem(
    instance: Instance,
    i_star: int,
    v_star: int,
    on_state: Optional[Callable[[WaterfillState], None]] = None,
) -> StrategyProfile:
    """Optimal completion for a fixed attacked target and villager count on it.

    ``on_state`` is invoked with the live state at the top of every
    waterfilling iteration and once after termination (snapshot to keep).
    """
    profile, _ = _run_subproblem(instance, i_star, v_star, on_state)
    return profile


def _run_subproblem(instance, i_star, v_star, on_state=None):
    if np.ndim(instance.e_v) != 0:
        raise GameDefinitionError("waterfilling requires uniform villager effectiveness")
    if not check_consistent(instance, FeasibilityQuery(i_star, 0.0, v_star)).feasible:
        raise GameDefinitionError(
            "no consistent completion for target %d with %d villagers" % (i_star, v_star)
        )

    n = instance.n
    penalty = instance.penalty_att
    spread = instance.spread_att
    with np.errstate(divide="ignore"):
        width = np.where(spread > 0, 1.0 / spread, np.inf)
    width.setflags(write=False)

    villagers, u_att, unassigned = _greedy_villagers(instance, i_star, v_star)
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
        unassigned_villagers=unassigned,
    )

    max_iterations = 4 * (n * n + 2 * n) + 64
    while state.ranger_remaining > 0.0:
        if not _refresh_levels(state):
            break
        u_star = float(state.u_att[i_star])
        pinned = np.abs(state.u_att - penalty) <= LEVEL_TOL
        # Terminal: the sea has reached the fixed target's level and some
        # penalty floor pins it there, so no further lowering is possible.
        if state.sea_level <= u_star + LEVEL_TOL and bool(
            np.any(pinned & (penalty >= u_star - LEVEL_TOL))
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
        if state.critical[i_star]:
            floor = float(penalty.max())
        else:
            floor = float(penalty[state.critical].max())
        if state.sea_level - u_delta < floor:
            u_delta = state.sea_level - floor
            do_swap = False
        if state.next_level is not None and state.sea_level - u_delta < state.next_level:
            u_delta = state.sea_level - state.next_level
            do_swap = False
        # Never pour other targets below the fixed target's level; when that
        # target is unpinned this duplicates the next-level cap, but a pinned
        # one (zero spread) never enters the critical set to stop the pour.
        if not state.critical[i_star] and state.sea_level - u_delta < u_star:
            u_delta = state.sea_level - u_star
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
                current, villagers_only = _coverage_utility(
                    instance, t, float(state.effort[t]), int(state.villagers[t])
                )
                state.u_att[t] = current
                state.u_att_villagers[t] = villagers_only
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

    Per candidate: binary-search the maximum consistent villager count, run
    the waterfilling subproblem, and keep the best evaluated profile. Needs
    a scalar villager effectiveness.
    """
    best: Optional[SolveResult] = None
    checks = 0
    iterations = 0
    swaps = 0
    for i_star in range(instance.n):
        checks += 1
        if not check_consistent(instance, FeasibilityQuery(i_star, 0.0, 0)).feasible:
            continue
        v_star, _, calls = max_feasible_villagers(instance, i_star)
        checks += calls
        profile, state = _run_subproblem(instance, i_star, v_star)
        iterations += state.iterations
        swaps += state.swaps
        result = evaluate_profile(instance, profile)
        if best is None or result.defender_utility > best.defender_utility:
            best = result
    if best is None:
        raise RuntimeError("no candidate target is consistent; this is a bug")
    return SolveResult(
        profile=best.profile,
        attacked=best.attacked,
        defender_utility=best.defender_utility,
        attacker_utility=best.attacker_utility,
        diagnostics={
            "feasibility_checks": checks,
            "iterations": iterations,
            "swaps": swaps,
        },
    )
