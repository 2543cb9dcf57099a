import dataclasses

import numpy as np
import pytest

from patrolgame.model import (
    GameDefinitionError,
    Instance,
    StrategyProfile,
    evaluate_profile,
    validate_profile,
)
from patrolgame.oracle import (
    EnumerationLimitError,
    VillagerSpecificInstance,
    solve_oracle,
    solve_oracle_villager_specific,
    _placements,
)
from patrolgame.waterfill import solve_hw

from conftest import random_instance, symmetric_instance


class TestSolveOracle:
    def test_symmetric_matches_hw(self):
        inst = symmetric_instance()
        assert solve_hw(inst).defender_utility == 0.0
        # the oracle bisects continuous effort, so it is exact only up to its
        # fill slack (~1e-12 utility here)
        assert solve_oracle(inst).defender_utility == pytest.approx(0.0, abs=1e-9)

    def test_placement_count(self):
        # distributing at most one villager over two targets: none, 0, 1
        assert len(list(_placements(2, 1))) == 3
        inst = random_instance(42, n=2, r_p=1, r_v=1)
        assert solve_oracle(inst).diagnostics["placements"] == 3

    def test_matches_hw_on_seeded_instance(self):
        inst = random_instance(4242, n=4, r_p=2, r_v=2)
        assert solve_oracle(inst).defender_utility == pytest.approx(
            solve_hw(inst).defender_utility, abs=1e-6
        )

    def test_bisection_stops_on_the_float_step(self):
        # near an effort of 1e6 one float step is wider than the bisection
        # tolerance, so a bisection that ends inside the budget stops there
        inst = dataclasses.replace(random_instance(1, n=4, r_p=2, r_v=2), ranger_budget=1e6)
        assert solve_oracle(inst).defender_utility == pytest.approx(
            solve_hw(inst).defender_utility, abs=10 * inst.tol
        )

    def test_cap_refusal(self):
        inst = random_instance(7, n=5, r_p=2, r_v=4)
        with pytest.raises(EnumerationLimitError):
            solve_oracle(inst, cap=10)

    def test_upper_bounds_sampled_profiles(self):
        rng = np.random.default_rng(19)
        for k in range(20):
            inst = random_instance(30_000 + k, n=4, r_p=2, r_v=2)
            top = solve_oracle(inst).defender_utility
            for _ in range(25):
                p = rng.uniform(0, 1, 4)
                total = p.sum()
                if total > 0:
                    p *= rng.uniform(0, inst.ranger_budget) / total
                v = np.zeros(4, dtype=np.int64)
                for _ in range(int(rng.integers(0, inst.villager_budget + 1))):
                    v[int(rng.integers(0, 4))] += 1
                profile = StrategyProfile(p, v)
                assert validate_profile(inst, profile) == []
                assert evaluate_profile(inst, profile).defender_utility <= top + 1e-9

    def test_returned_profile_valid(self):
        inst = random_instance(31_000, n=4, r_p=2, r_v=3)
        result = solve_oracle(inst)
        assert validate_profile(inst, result.profile) == []
        assert evaluate_profile(inst, result.profile).defender_utility == (
            result.defender_utility
        )


class TestVillagerSpecific:
    def partition_instance(self):
        base = Instance(
            ranger_budget=0.0,
            villager_budget=4,
            e_p=0.9,
            e_v=0.3,
            reward_def=[1.0, 1.0],
            penalty_def=[-1.0, -1.0],
            reward_att=[1.0, 1.0],
            penalty_att=[-1.0, -1.0],
        )
        return VillagerSpecificInstance(base, [0.3, 0.3, 0.4, 0.2])

    def test_balanced_split_is_optimal(self):
        result = solve_oracle_villager_specific(self.partition_instance())
        assert result.defender_utility == pytest.approx(0.2, abs=1e-9)
        sums = [0.0, 0.0]
        for j, target in enumerate(result.assignment):
            sums[target] += [0.3, 0.3, 0.4, 0.2][j]
        assert sums[0] == pytest.approx(sums[1])

    def test_brute_force_cross_check(self):
        # independent exhaustive scan over all 2^4 two-target assignments
        vs = self.partition_instance()
        eff = [0.3, 0.3, 0.4, 0.2]
        best = -np.inf
        for mask in range(16):
            c = [0.0, 0.0]
            for j in range(4):
                c[(mask >> j) & 1] += eff[j]
            c = [min(x, 1.0) for x in c]
            u_a = [1.0 - 2 * x for x in c]
            u_d = [2 * x - 1.0 for x in c]
            top = max(u_a)
            value = max(u_d[i] for i in range(2) if u_a[i] >= top - 1e-9)
            best = max(best, value)
        assert solve_oracle_villager_specific(vs).defender_utility == pytest.approx(best)

    def test_zero_villagers(self):
        base = Instance(0.0, 0, 0.5, 0.5, [1.0, 1.0], [-1.0, -2.0], [2.0, 3.0], [-1.0, -1.0])
        result = solve_oracle_villager_specific(VillagerSpecificInstance(base, []))
        assert result.attacked == 1
        assert result.defender_utility == -2.0

    def test_single_villager_symmetric(self):
        base = Instance(0.0, 1, 0.5, 0.5, [1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0])
        result = solve_oracle_villager_specific(VillagerSpecificInstance(base, [0.4]))
        # either placement is optimal by symmetry; utility is that of the
        # uncovered target being attacked at the tie... the covered target
        # keeps the attacker at 1 - 0.8 = 0.2 < 1, so the bare one is hit
        assert result.defender_utility == pytest.approx(-1.0)

    def test_cap_refusal(self):
        base = Instance(0.0, 25, 0.5, 0.5, [1.0] * 4, [-1.0] * 4, [1.0] * 4, [-1.0] * 4)
        vs = VillagerSpecificInstance(base, [0.5] * 25)
        with pytest.raises(EnumerationLimitError):
            solve_oracle_villager_specific(vs)

    def test_effectiveness_vector_length_checked(self):
        base = Instance(0.0, 2, 0.5, 0.5, [1.0], [-1.0], [1.0], [-1.0])
        with pytest.raises(GameDefinitionError):
            VillagerSpecificInstance(base, [0.5])

    @pytest.mark.parametrize("e_v", [[np.nan, 0.5], [0.5, np.inf], [0.0, 0.5], [0.5, 1.5]])
    def test_effectiveness_outside_unit_interval_rejected(self, e_v):
        # NaN fails every comparison, so it must not pass as in range
        base = Instance(0.0, 2, 0.5, 0.5, [1.0], [-1.0], [1.0], [-1.0])
        with pytest.raises(GameDefinitionError):
            VillagerSpecificInstance(base, e_v)

    def test_balanced_partitions_win_generally(self):
        # whenever a balanced split exists (symmetric payoffs, total < 2),
        # the optimum equals the balanced-split utility
        rng = np.random.default_rng(23)
        for _ in range(10):
            half = rng.uniform(0.05, 0.2, 3)
            eff = np.concatenate([half, rng.permutation(half)])
            base = Instance(
                0.0, 6, 0.9, 0.3, [1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]
            )
            vs = VillagerSpecificInstance(base, eff)
            result = solve_oracle_villager_specific(vs)
            c = min(float(half.sum()), 1.0)
            assert result.defender_utility == pytest.approx(2 * c - 1.0, abs=1e-9)
