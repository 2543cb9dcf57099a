"""Approximate solver: two nested binary searches per candidate target.

For each target that can be made the attacker's best response at all, first
binary-search the largest villager count that can sit on it, then binary-
search the ranger effort on it to within a resolution ``epsilon``, keeping
the target a best response throughout. The returned profile's defender
utility trails the exact optimum by less than ``e_p * 2 * M * epsilon``,
where M bounds the absolute input values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .feasibility import FeasibilityQuery, check_consistent, max_feasible_villagers
from .model import GameDefinitionError, Instance, SolveResult, evaluate_profile

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
    return instance.e_p * 2.0 * value_bound(instance) * epsilon


@dataclass(frozen=True)
class TdbsConfig:
    """Search resolution ``epsilon`` on the ranger effort of the attacked target."""

    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not self.epsilon > 0:
            raise GameDefinitionError("epsilon must be positive")


def solve_tdbs(instance: Instance, config: Optional[TdbsConfig] = None) -> SolveResult:
    """Approximately optimal profile within the configured resolution.

    Works for a scalar and for a per-target villager effectiveness.
    """
    config = config or TdbsConfig()
    epsilon = config.epsilon

    best: Optional[SolveResult] = None
    checks = 0
    candidates = 0
    for i_star in range(instance.n):
        checks += 1
        if not check_consistent(instance, FeasibilityQuery(i_star, 0.0, 0)).feasible:
            continue
        candidates += 1
        v_star, witness, calls = max_feasible_villagers(instance, i_star)
        checks += calls

        left, right = 0.0, float(instance.ranger_budget)
        while right - left > epsilon:
            mid = (left + right) / 2.0
            if mid == left or mid == right:
                break  # interval narrower than one float step
            answer = check_consistent(instance, FeasibilityQuery(i_star, mid, v_star))
            checks += 1
            if answer.feasible:
                left = mid
                witness = answer.witness
            else:
                right = mid

        result = evaluate_profile(instance, witness)
        if best is None or result.defender_utility > best.defender_utility:
            best = result

    if best is None:
        raise RuntimeError("no candidate target is consistent; this is a bug")
    return SolveResult(
        profile=best.profile,
        attacked=best.attacked,
        defender_utility=best.defender_utility,
        attacker_utility=best.attacker_utility,
        diagnostics={"feasibility_checks": checks, "candidates": candidates},
    )
