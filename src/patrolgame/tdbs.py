"""Approximate solver: two nested binary searches per candidate target.

The shared candidate search (``feasibility.candidates``) binary-searches the
largest villager count each attackable target can keep; ``solve_tdbs`` then
bisects the ranger effort on that target to within a resolution
``epsilon``, keeping the target a best response throughout. Both
dimensions run every candidate's search in lockstep: each round is one
batched ``feasibility.feasible_rows`` call with one row per search still
open, and no witness is built while searching. The candidates' final
witnesses are then built once, block by block
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

This is also why ``solve_tdbs`` prunes no candidate and pruning stays
with ``solve_hw``: its break-even argument needs exact completions. Applied
here, the former bracket pruning lowered per-target answers past the bound
(on 300 per-target instances with n from 3 to 10, 8 answers, by up to 84
times the bound at ``epsilon = 1e-3``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .feasibility import candidates, feasible_rows, witness_blocks
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


def most_effort(instance: Instance, i_stars, v_stars, epsilon: float):
    """Bisect the ranger effort on every candidate to within ``epsilon``, in lockstep.

    Candidate k keeps ``v_stars[k]`` villagers on target ``i_stars[k]``.
    Each round decides one ``feasible_rows`` row per bisection still open,
    and every bisection probes the midpoints it would probe alone. Returns
    (the largest effort found consistent per candidate, rows checked).
    """
    left = np.zeros(len(i_stars))
    right = np.full(len(i_stars), float(instance.ranger_budget))
    checks = 0
    while True:
        mid = left / 2.0 + right / 2.0  # halves first: left + right can overflow
        # a bisection ends within epsilon, or narrower than one float step
        rows = np.flatnonzero((right - left > epsilon) & (mid != left) & (mid != right))
        if rows.size == 0:
            return left, checks
        ok = feasible_rows(instance, i_stars[rows], mid[rows], v_stars[rows])
        checks += rows.size
        left[rows[ok]] = mid[rows[ok]]
        right[rows[~ok]] = mid[rows[~ok]]


def solve_tdbs(instance: Instance, config: Optional[TdbsConfig] = None) -> SolveResult:
    """Approximately optimal profile within the configured resolution.

    Works for a scalar and for a per-target villager effectiveness.
    """
    epsilon = (config or TdbsConfig()).epsilon
    i_stars, v_stars, counters = candidates(instance)
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
