import dataclasses

import numpy as np
import pytest

from patrolgame.model import (
    GameDefinitionError,
    Instance,
    best_response,
    compute_coverage,
    evaluate_profile,
    validate_profile,
)
from patrolgame.oracle import solve_oracle
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound, value_bound

from conftest import random_instance, symmetric_instance


class TestConfig:
    def test_default_epsilon_matches_harness(self):
        assert TdbsConfig().epsilon == 1e-3

    def test_epsilon_must_be_positive(self):
        with pytest.raises(GameDefinitionError):
            TdbsConfig(epsilon=0.0)

    def test_value_bound_floor(self):
        inst = Instance(0.5, 0, 0.3, 0.2, [0.1], [-0.1], [0.2], [-0.2])
        assert value_bound(inst) == 1.0

    def test_value_bound_covers_inputs(self):
        inst = random_instance(1, n=4, r_p=12, r_v=3)
        m = value_bound(inst)
        assert m >= inst.ranger_budget
        assert m >= np.abs(inst.reward_att).max()

    def test_understated_bound_rejected(self):
        inst = random_instance(2, n=3, r_p=1, r_v=1)
        with pytest.raises(GameDefinitionError):
            solve_tdbs(inst, TdbsConfig(1e-3, value_bound=0.5))


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
