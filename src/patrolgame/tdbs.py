"""Approximate solver: two nested binary searches per candidate target.

The villager search (``feasibility.candidates``' search) finds the largest
villager count each attackable target can keep; the effort search
(``feasibility.most_effort``'s) then bisects the ranger effort on that
target to within a resolution ``epsilon``, keeping the target a best
response throughout. ``feasibility.candidates_with_effort`` runs both for
every target on one pool of sorted sums, each dimension every candidate's
search in lockstep.

Both searches answer on two cheap tests first, with no row (the
``feasibility`` module docstring): the O(1) attacker-floor test and the
O(log n) pooled-coverage test. Then one witness row per candidate, at its
villager count and its effort, confirms both ends at once and is the
candidate's witness; only a candidate whose row fails goes back to the
full check, one search at a time, and gets one more witness row at its new
ends. On the benchmark's ``tdbs-synthetic`` pools (seed 320000) that row is
the only one on every scalar candidate: 5,207 rows for 5,207 candidates;
the per-target instances send 10,749 rows for 2,263 candidates, as the
pooled test counts every villager at ``max(e_v)`` and leaves more
fill-bound efforts.

The witnesses stream, block by block, into the winner rule both solvers
share (``model.first_best``): the best wins, ties to the lowest target
index, and only its row is kept. The returned profile's defender utility
trails the exact optimum by less than ``e_p * 2 * M * epsilon``, where M
bounds the absolute input values.

That bound is proven for a scalar villager effectiveness only. The proof
keeps the most villagers each candidate can hold, then the most effort; with
a per-target ``e_v`` the most villagers on the attacked target is not always
optimal, and the bound can fail. On ``generate_instance(GenParams(n=3,
r_p=2, r_v=3, seed=70022))`` with ``e_v = [0.537, 0.163, 0.37]``, the
optimum holds 1 villager on the attacked target for 8.4573, while tdbs at
``epsilon = 1e-6`` keeps 2 for 8.3358, against a bound of 1.2e-5.

``solve_tdbs`` bounds and prunes no target: it searches every one, while
``solve_hw`` completes only the candidates that
``feasibility.candidates_above_seed`` keeps against the minimax seed. The same bound here is faster but moves
answers: a pruned candidate's witness can win through a tied target, which
the kept candidates' own completions need not reach, and on per-target
instances answers fell past the gap bound. So it waits for returning the
better of the best witness and the minimax profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .feasibility import candidates_with_effort
from .model import Instance, SolveResult, _resolution, first_best

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
        object.__setattr__(self, "epsilon", _resolution(self.epsilon))


def solve_tdbs(instance: Instance, config: Optional[TdbsConfig] = None) -> SolveResult:
    """Approximately optimal profile within the configured resolution.

    Works for a scalar and for a per-target villager effectiveness.
    """
    blocks, counters = candidates_with_effort(instance, (config or TdbsConfig()).epsilon)
    return first_best(instance, blocks, counters)
