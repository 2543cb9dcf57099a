"""Regression tests for the tolerance policy: fine search resolutions, payoff
scale invariance, and witness soundness at ties.

Every slack in the library is derived from ``model.REL_TOL`` and the
instance's own scale, so neither the tdbs resolution nor the unit the
payoffs are written in may change which target is attacked.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from patrolgame import feasibility, tdbs
from patrolgame.bench import GenParams, generate_instance
from patrolgame.model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    attacker_utilities,
    compute_coverage,
    validate_profile,
)
from patrolgame.oracle import solve_oracle
from patrolgame.planner import case_study_scenario
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound
from patrolgame.waterfill import solve_hw

from conftest import rebind, scaled, witness_of

EPSILONS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-11, 1e-13)


def epsilon_family():
    for k in range(60):
        yield generate_instance(
            GenParams(n=2 + k % 12, r_p=float(k % 5), r_v=(k // 5) % 6, seed=90_000 + k)
        )


def scale_family():
    for k in range(60):
        yield generate_instance(
            GenParams(n=2 + k % 6, r_p=float(1 + k % 3), r_v=k % 4, seed=80_000 + k)
        )


@pytest.fixture(scope="module")
def epsilon_sweep():
    """tdbs gaps to solve_hw per (instance, epsilon), plus every feasible
    answer those solves received, each with its one-row witness."""
    answers = []
    rows_of = feasibility._feasible_rows

    def recording_rows(instance, floor, i_star, p_star, v_star):
        feasible = rows_of(instance, floor, i_star, p_star, v_star)
        for row in np.flatnonzero(feasible):
            # the witness the row stands for, rebuilt one query at a time
            query = (int(i_star[row]), float(p_star[row]), int(v_star[row]))
            witness = witness_of(instance, *query)
            assert witness is not None, query
            answers.append((instance, query[0], witness))
        return feasible

    gaps = []
    with pytest.MonkeyPatch.context() as mp:
        # every query row: the searches' and hw's break-even rows
        rebind(mp, "_feasible_rows", recording_rows)
        for k, inst in enumerate(epsilon_family()):
            exact = solve_hw(inst).defender_utility
            for epsilon in EPSILONS:
                approx = solve_tdbs(inst, TdbsConfig(epsilon)).defender_utility
                gaps.append((k, epsilon, exact - approx, utility_gap_bound(inst, epsilon)))
    return gaps, answers


def test_tdbs_within_gap_bound_at_fine_epsilon(epsilon_sweep):
    gaps, _ = epsilon_sweep
    failures = [g for g in gaps if not g[2] < g[3]]
    assert not failures, failures[:5]


def test_feasible_witness_keeps_fixed_target_tied(epsilon_sweep):
    _, answers = epsilon_sweep
    assert len(answers) > 10_000
    failures = []
    for inst, i_star, witness in answers:
        assert validate_profile(inst, witness) == []
        u_att = attacker_utilities(inst, compute_coverage(inst, witness))
        # the tie rule of model.best_response
        if not u_att[i_star] >= u_att.max() - inst.tol:
            failures.append((i_star, float(u_att.max() - u_att[i_star]), inst.tol))
    assert not failures, (len(failures), failures[:5])


@pytest.fixture(scope="module")
def unscaled_results():
    """(instance, oracle utility, hw result, tdbs result) at scale 1."""
    return [
        (inst, solve_oracle(inst).defender_utility, solve_hw(inst), solve_tdbs(inst))
        for inst in scale_family()
    ]


# 1e-9 is where an absolute 1e-9 level tolerance in the waterfill fails.
@pytest.mark.parametrize("factor", [1e-9, 1e-6, 1e6])
def test_payoff_scale_invariance(unscaled_results, factor):
    # Scaling every payoff by a positive factor scales every utility by it
    # and keeps each best response, so the scaled game's optimum is the
    # unscaled oracle's times the factor.
    failures = []
    for k, (inst, exact, hw_0, tdbs_0) in enumerate(unscaled_results):
        rescaled = scaled(inst, factor)
        hw = solve_hw(rescaled)
        if abs(hw.defender_utility / factor - exact) > 1e-6:
            failures.append("k=%d: hw %r vs oracle %r" % (k, hw.defender_utility / factor, exact))
        for name, base, result in (("hw", hw_0, hw), ("tdbs", tdbs_0, solve_tdbs(rescaled))):
            if result.attacked != base.attacked:
                failures.append("k=%d: %s attacks %d, not %d" % (k, name, result.attacked, base.attacked))
            u = result.defender_utility / factor
            if not u == pytest.approx(base.defender_utility, rel=1e-9):
                failures.append("k=%d: %s utility %r vs %r" % (k, name, u, base.defender_utility))
    assert not failures, failures[:5]


def swap_family():
    for n, seed in ((30, 1), (50, 2), (40, 3), (20, 4), (60, 5)):
        yield generate_instance(GenParams(n=n, r_p=n / 2, r_v=n // 2, seed=seed))


@pytest.fixture(scope="module")
def unscaled_swaps():
    swaps = [solve_hw(inst).diagnostics["swaps"] for inst in swap_family()]
    assert sum(swaps) > 0
    return swaps


@pytest.mark.parametrize("factor", [1e-300, 1e-160, 1e160, 1e300])
def test_hw_swaps_do_not_depend_on_payoff_scale(unscaled_swaps, factor):
    # a product of two payoff-scale numbers overflows past about 1e154 and
    # underflows below about 1e-154, which loses or invents swaps
    swaps = [solve_hw(scaled(inst, factor)).diagnostics["swaps"] for inst in swap_family()]
    assert swaps == unscaled_swaps


def test_largest_finite_spreads_solve_without_warnings():
    # max|payoff| = 8.9e307 keeps every R - P below the largest float, but
    # near-equal spreads overflow the critical-point drop of some swap pairs
    for inst in swap_family():
        big = scaled(inst, 8.9e307 * REL_TOL / inst.tol)  # tol is REL_TOL * max|payoff|
        hw = solve_hw(big)
        assert hw.attacked == solve_hw(inst).attacked
        assert solve_tdbs(big).defender_utility <= hw.defender_utility + big.tol


@pytest.mark.parametrize("k", [1, 2, 4, 64])
def test_smallest_normal_spreads_are_rejected_or_solve_without_warnings(k):
    # The pour's widths 1 / (R_a - P_a) overflowed their sum, or the width
    # itself, near the float floor, so the pour lost a target; Instance now
    # rejects such spreads, and from a few times the smallest float up they solve
    solved = 0
    for inst in swap_family():
        factor = k * np.finfo(float).tiny / inst.spread_att[inst.spread_att > 0].min()
        try:
            small = scaled(inst, factor)
        except GameDefinitionError:
            continue
        assert solve_hw(small).attacked == solve_hw(inst).attacked
        assert solve_tdbs(small).attacked == solve_tdbs(inst).attacked
        solved += 1
    if k >= 4:
        assert solved == 5


@pytest.mark.parametrize("e_v", [1e-200, np.finfo(float).tiny])
def test_tiny_villager_effectiveness_solves_without_warnings(e_v):
    # c_min / e_v reaches about 1e307 whole pieces per target: their sums
    # overflowed, and the counts of rows short of villagers were cast to int64
    inst = dataclasses.replace(case_study_scenario().instance, e_v=e_v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = solve_hw(inst).defender_utility
        approx = solve_tdbs(inst).defender_utility
    assert abs(exact - approx) < utility_gap_bound(inst, tdbs.DEFAULT_EPSILON)


@pytest.mark.parametrize("r_p", [1e-7, 1e-9, 1e-20])
def test_tiny_ranger_budgets_stay_within_budget(r_p):
    # The budget level (top_sum - budget) / width_sum loses digits when
    # e_p * budget is tiny against top_sum, and the pour used to overshoot
    # the budget past validate_profile's slack: on 33 of these seeds at 1e-7
    # and on 144 at 1e-9, solve_hw raised "ranger budget exceeded".
    for seed in range(300):
        inst = generate_instance(GenParams(n=6, r_p=r_p, r_v=3, seed=seed))
        hw = solve_hw(inst)
        assert validate_profile(inst, hw.profile) == [], seed
        tdbs_utility = solve_tdbs(inst, TdbsConfig(1e-12)).defender_utility
        assert hw.defender_utility >= tdbs_utility - inst.tol, seed
    for seed in range(40):
        inst = generate_instance(GenParams(n=4, r_p=r_p, r_v=2, seed=seed))
        exact = solve_oracle(inst).defender_utility
        assert solve_hw(inst).defender_utility == pytest.approx(exact, abs=10 * inst.tol), seed


def test_ranger_budget_near_the_float_maximum():
    # left + right overflowed in tdbs's effort bisection, which then probed
    # inf; hw's budget level overflowed; e_p * 2 * M overflowed the bound
    inst = generate_instance(GenParams(n=6, r_p=1e308, r_v=3, seed=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hw = solve_hw(inst)
        approx = solve_tdbs(inst)
    bound = utility_gap_bound(inst, tdbs.DEFAULT_EPSILON)
    assert math.isfinite(bound)
    assert -inst.tol <= hw.defender_utility - approx.defender_utility < bound
    assert validate_profile(inst, approx.profile) == []


def test_near_maximal_payoffs_solve_without_warnings():
    # get_swap_line's event level (the sea less a drop) overflowed to -inf,
    # with a warning, for a pair whose drop is near the float maximum
    inst = Instance(
        ranger_budget=1e-300, villager_budget=3, e_p=0.7, e_v=0.5,
        reward_def=[4.738603321874879e306, 2.651321762577593e307, 2.2434512391097415e307],
        penalty_def=[-5.563305990457868e307, -7.576392978786383e307, -8.384557448424439e307],
        reward_att=[6.051301801758165e307, 4.205277813471052e307, 1.570214860859802e307],
        penalty_att=[-9.225315486885325e307, -3.906912147968705e307, -8.209717534900214e307],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hw = solve_hw(inst)
        oracle = solve_oracle(inst)
    assert (hw.attacked, hw.defender_utility) == (oracle.attacked, oracle.defender_utility)
