"""Approximate solver: two nested binary searches per candidate target.

The shared candidate search (``feasibility.candidates``) finds the largest
villager count each attackable target can keep; the effort search
(``feasibility.most_effort``) then bisects the ranger effort on that
target to within a resolution ``epsilon``, keeping the target a best
response throughout. ``feasibility.candidates_with_effort`` runs both for
every target on one pool of sorted sums. Each dimension runs every
candidate's search in lockstep, and no witness is built while searching.

Both searches are one routine in ``feasibility`` (its module docstring):
the O(1) attacker-floor test and the O(log n) pooled-coverage test answer
first, with no row; an end that one ``feasible_rows`` row finds consistent
is the full search's end, and only the searches whose end fails bisect
again on the full check. On the benchmark's ``tdbs-synthetic`` pools the
tests' answer is most villager counts and efforts: on the scalar
instances every one, as where each spare villager takes a whole piece the
pooled deficit is the fill's own answer; the per-target instances keep
more fill-bound efforts, as the pooled test counts every villager at
``max(e_v)``.

The candidates' final witnesses are then built once, block by block
(``feasibility.witness_blocks``), and scored as they come by the winner
rule both solvers share (``model.first_best``): the best wins, ties to the
lowest target index, and only its row is kept. The returned profile's defender
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

from .feasibility import candidates_with_effort, witness_blocks
from .model import GameDefinitionError, Instance, SolveResult, _finite, first_best

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


def solve_tdbs(instance: Instance, config: Optional[TdbsConfig] = None) -> SolveResult:
    """Approximately optimal profile within the configured resolution.

    Works for a scalar and for a per-target villager effectiveness.
    """
    epsilon = (config or TdbsConfig()).epsilon
    i_stars, v_stars, p_stars, counters = candidates_with_effort(instance, epsilon)

    def witnesses():
        for _, feasible, p, v in witness_blocks(instance, i_stars, p_stars, v_stars):
            if not feasible.all():
                raise RuntimeError("tdbs lost a candidate's witness; this is a bug")
            yield p, v

    return first_best(instance, witnesses(), counters)
