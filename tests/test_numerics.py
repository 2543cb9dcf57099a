"""Regression tests for the tolerance policy: fine search resolutions, payoff
scale invariance, and witness soundness at ties.

Every slack in the library is derived from ``model.REL_TOL`` and the
instance's own scale, so neither the tdbs resolution nor the unit the
payoffs are written in may change which target is attacked.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from patrolgame import feasibility, tdbs, waterfill
from patrolgame.feasibility import FeasibilityQuery
from patrolgame.bench import GenParams, generate_instance
from patrolgame.model import attacker_utilities, compute_coverage, validate_profile
from patrolgame.oracle import solve_oracle
from patrolgame.planner import case_study_scenario
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound
from patrolgame.waterfill import solve_hw

from conftest import scaled

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
    check = feasibility.check_consistent
    rows_of = feasibility.feasible_rows

    def recording_rows(instance, i_star, p_star, v_star):
        feasible = rows_of(instance, i_star, p_star, v_star)
        for row in np.flatnonzero(feasible):
            # the witness the row stands for, rebuilt by the one-row check
            query = FeasibilityQuery(int(i_star[row]), float(p_star[row]), int(v_star[row]))
            answer = check(instance, query)
            assert answer.feasible, query
            answers.append((instance, query.i_star, answer.witness))
        return feasible

    gaps = []
    with pytest.MonkeyPatch.context() as mp:
        # the candidate search looks the batched check up in feasibility, the
        # effort bisection in tdbs, and hw's bracket in waterfill
        for module in (feasibility, tdbs, waterfill):
            mp.setattr(module, "feasible_rows", recording_rows)
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
