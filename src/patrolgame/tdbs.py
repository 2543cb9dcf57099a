"""Approximate solver: two nested binary searches per candidate target.

The shared candidate loop (``feasibility.best_candidate``) binary-searches
the largest villager count each attackable target can keep; this module's
completion then binary-searches the ranger effort on that target to within
a resolution ``epsilon``, keeping the target a best response throughout.
The returned profile's defender utility trails the exact optimum by less
than ``e_p * 2 * M * epsilon``, where M bounds the absolute input values.

That bound is proven for a scalar villager effectiveness only. The proof
keeps the most villagers each candidate can hold, then the most effort; with
a per-target ``e_v`` the most villagers on the attacked target is not always
optimal, and the bound can fail. On ``generate_instance(GenParams(n=3,
r_p=2, r_v=3, seed=70022))`` with ``e_v = [0.537, 0.163, 0.37]``, the
optimum holds 1 villager on the attacked target for 8.4573, while tdbs at
``epsilon = 1e-6`` keeps 2 for 8.3358, against a bound of 1.2e-5.

This is also why the completion ignores the loop's incumbent and bracket
pruning stays with ``solve_hw``: the pruning argument needs exact
completions. Applied here, it lowered per-target answers past the bound (on
300 per-target instances with n from 3 to 10, 8 answers, by up to 84 times
the bound at ``epsilon = 1e-3``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .feasibility import FeasibilityQuery, best_candidate, check_consistent
from .model import GameDefinitionError, Instance, SolveResult

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
    epsilon = (config or TdbsConfig()).epsilon

    def complete(i_star, v_star, witness, _incumbent):
        checks = 0
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
        return witness, {"feasibility_checks": checks}

    return best_candidate(instance, complete)
