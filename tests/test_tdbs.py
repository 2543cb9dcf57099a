import dataclasses
import tracemalloc

import numpy as np
import pytest

from patrolgame import feasibility, tdbs
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import feasible_rows
from patrolgame.model import (
    GameDefinitionError,
    Instance,
    best_response,
    compute_coverage,
    evaluate_profile,
    validate_profile,
)
from patrolgame.oracle import solve_oracle
from patrolgame.planner import case_study_scenario
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound, value_bound

from conftest import most_effort_blind, most_villagers_blind, random_instance, symmetric_instance


class TestConfig:
    def test_default_epsilon_matches_harness(self):
        assert TdbsConfig().epsilon == 1e-3

    def test_epsilon_must_be_positive(self):
        with pytest.raises(GameDefinitionError):
            TdbsConfig(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), "0.1", 10**400])
    def test_epsilon_must_be_a_finite_real(self, epsilon):
        # an infinite epsilon used to end every effort bisection at once
        with pytest.raises(GameDefinitionError):
            TdbsConfig(epsilon=epsilon)

    def test_value_bound_floor(self):
        inst = Instance(0.5, 0, 0.3, 0.2, [0.1], [-0.1], [0.2], [-0.2])
        assert value_bound(inst) == 1.0

    def test_value_bound_covers_inputs(self):
        inst = random_instance(1, n=4, r_p=12, r_v=3)
        m = value_bound(inst)
        assert m >= inst.ranger_budget
        assert m >= np.abs(inst.reward_att).max()


class TestSolveTdbs:
    def test_symmetric_within_guarantee(self):
        inst = symmetric_instance()
        result = solve_tdbs(inst, TdbsConfig(1e-3))
        # symmetry puts the optimum at 0; the guarantee is e_p * 2M * eps
        assert utility_gap_bound(inst, 1e-3) == pytest.approx(1e-3)
        assert -1e-3 <= result.defender_utility <= 0.0
        assert result.attacked in (0, 1)

    def test_no_resources(self):
        inst = Instance(0.0, 0, 0.5, 0.5, [1.0, 2.0], [-1.0, -2.0], [3.0, 1.0], [-1.0, -1.0])
        result = solve_tdbs(inst)
        assert result.attacked == 0
        assert result.defender_utility == -1.0
        assert result.profile.p.tolist() == [0.0, 0.0]
        assert result.profile.v.tolist() == [0, 0]

    def test_within_bound_of_oracle(self):
        for k in range(30):
            inst = random_instance(20_000 + k, n=5, r_p=2, r_v=2)
            exact = solve_oracle(inst).defender_utility
            result = solve_tdbs(inst, TdbsConfig(1e-6))
            assert exact - result.defender_utility < utility_gap_bound(inst, 1e-6)

    def test_returned_profile_is_consistent(self):
        for k in range(20):
            inst = random_instance(21_000 + k, n=4, r_p=3, r_v=3)
            result = solve_tdbs(inst, TdbsConfig(1e-4))
            assert validate_profile(inst, result.profile) == []
            again = evaluate_profile(inst, result.profile)
            assert again.defender_utility == result.defender_utility
            assert again.attacked == result.attacked
            br = best_response(inst, compute_coverage(inst, result.profile))
            assert br.target == result.attacked

    def test_check_count_scaling(self):
        for k in range(10):
            inst = random_instance(22_000 + k, n=6, r_p=3, r_v=3)
            for epsilon in (1e-3, 1e-6):
                result = solve_tdbs(inst, TdbsConfig(epsilon))
                budget = 4 * inst.n * np.log2(value_bound(inst) / epsilon)
                assert result.diagnostics["feasibility_checks"] <= budget

    def test_target_specific_dispatch(self):
        inst = random_instance(23_000, n=4, r_p=2, r_v=2)
        ts = dataclasses.replace(inst, e_v=np.full(4, inst.e_v))
        plain = solve_tdbs(inst, TdbsConfig(1e-4))
        via_ts = solve_tdbs(ts, TdbsConfig(1e-4))
        assert via_ts.defender_utility == pytest.approx(
            plain.defender_utility, abs=1e-9
        )

    def test_target_specific_against_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(15):
            inst = random_instance(24_000 + k, n=3, r_p=2, r_v=2)
            ts = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.9, 3).round(3))
            exact = solve_oracle(ts).defender_utility
            result = solve_tdbs(ts, TdbsConfig(1e-6))
            assert exact - result.defender_utility < utility_gap_bound(ts, 1e-6)


def test_infeasible_final_witness_is_a_bug(monkeypatch):
    # the whole ranger budget on either target, next to its villager, leaves
    # the other target uncovered and more attractive
    inst = symmetric_instance()

    def full_effort(pool, i_stars, v_stars, epsilon):
        return np.full(len(i_stars), pool.instance.ranger_budget), 0

    monkeypatch.setattr(feasibility, "_most_effort", full_effort)
    assert not feasible_rows(inst, [0, 1], [1.0, 1.0], [1, 1]).any()
    with pytest.raises(RuntimeError, match="lost a candidate's witness"):
        solve_tdbs(inst)


@pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
def test_builds_one_witness_row_per_candidate(monkeypatch, block_cells):
    # 16 cells put one row of the n = 21 case study in each block
    monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
    fill = feasibility._fill
    witness_rows = []

    def counting_fill(instance, c_min, p_star, v_star, witness=False):
        if witness:
            witness_rows.append(len(c_min))
        return fill(instance, c_min, p_star, v_star, witness)

    monkeypatch.setattr(feasibility, "_fill", counting_fill)
    for inst in (symmetric_instance(), case_study_scenario().instance,
                 generate_instance(GenParams(n=40, r_p=20, r_v=20, seed=3))):
        witness_rows.clear()
        result = solve_tdbs(inst)
        assert sum(witness_rows) == result.diagnostics["candidates"] > 1


def test_search_memory_stays_bounded():
    # The lockstep searches hold O(block x n) temporaries and no witnesses;
    # keeping every candidate's witness peaked at 15.8 MB here.
    inst = generate_instance(GenParams(n=1000, r_p=500, r_v=500, seed=7))
    tracemalloc.start()
    try:
        solve_tdbs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_witness_trim_stays_in_a_tiny_budget():
    # The trim scaled the witness effort by budget / total = 2.7e-317, a
    # subnormal that kept too few digits: the trimmed sum landed 4e-8 over
    # the 1e-300 budget, and evaluate_profile raised "ranger budget exceeded".
    inst = Instance(
        ranger_budget=1e-300, villager_budget=2, e_p=8.900295434028806e-308, e_v=1.0,
        reward_def=[5.8862715301427725e299, 1.8727813821541652e300, 5.018986402798981e300,
                    2.452319954812039e300, 8.459211508506028e300],
        penalty_def=[-4.6986e-320, -5.345e-320, -3.481e-320, -5.24e-322, -5.382e-320],
        reward_att=[6.252987614873884e-300, 0.0, 6.27412628571791e-300, 4.591780345604479e-300, 0.0],
        penalty_att=[-6.563434911373349e-09, 0.0, -6.541254191938573e-09, -3.3635780419163277e-09, 0.0],
    )
    result = solve_tdbs(inst)
    assert validate_profile(inst, result.profile) == []
    oracle = solve_oracle(inst)
    assert (result.attacked, result.defender_utility) == (oracle.attacked, oracle.defender_utility)


@pytest.mark.parametrize(
    "seed, share",
    [
        # blind: 5,896 rows; floor first: 530; floor and pool first: 479
        (7, 1 / 2),
        # blind: 3,006 rows; floor first: 2,465, as the fill, not the floor
        # test, binds most efforts here; floor and pool first: 232
        (6, 1 / 5),
    ],
    ids=["seed7-half", "seed6-fifth"],
)
def test_floor_first_searches_send_at_most_a_share_of_the_blind_rows(seed, share):
    # One feasible_rows row per probe, as before the searches went floor
    # first, sends far more rows than the floor and pooled tests leave to
    # the fill. A slide back to blind probing, or to the floor test alone,
    # fails this without timing anything.
    inst = generate_instance(GenParams(n=240, r_p=120, r_v=120, seed=seed))
    result = solve_tdbs(inst)
    counts, villager_rows = most_villagers_blind(inst, np.arange(inst.n))
    kept = counts >= 0
    _, effort_rows = most_effort_blind(inst, np.flatnonzero(kept), counts[kept], tdbs.DEFAULT_EPSILON)
    assert result.diagnostics["feasibility_checks"] <= (villager_rows + effort_rows) * share
