import dataclasses

import numpy as np
import pytest

from patrolgame.model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    ProfileValidationError,
    StrategyProfile,
    best_response,
    compute_coverage,
    evaluate_profile,
    first_best,
    tied_defender_utilities,
    utilities_of,
    validate_profile,
)

from conftest import random_instance, scalar_best_response, symmetric_instance


def make(n=2, **kw):
    args = dict(
        ranger_budget=1.0,
        villager_budget=2,
        e_p=0.5,
        e_v=0.5,
        reward_def=[1.0] * n,
        penalty_def=[-1.0] * n,
        reward_att=[1.0] * n,
        penalty_att=[-1.0] * n,
    )
    args.update(kw)
    return Instance(**args)


class TestInstanceValidation:
    def test_vector_lengths_must_agree(self):
        with pytest.raises(GameDefinitionError):
            make(reward_att=[1.0, 1.0, 1.0])

    def test_sign_conventions(self):
        with pytest.raises(GameDefinitionError):
            make(reward_att=[-0.5, 1.0])
        with pytest.raises(GameDefinitionError):
            make(penalty_def=[0.5, -1.0])

    def test_effectiveness_range(self):
        with pytest.raises(GameDefinitionError):
            make(e_p=0.0)
        with pytest.raises(GameDefinitionError):
            make(e_v=1.5)
        make(e_p=1.0, e_v=1.0)  # boundary is allowed

    def test_arrays_are_read_only(self):
        inst = make()
        with pytest.raises(ValueError):
            inst.reward_att[0] = 2.0

    def test_replaced_instance_shares_its_vectors(self):
        inst = make(e_v=[0.25, 0.5])
        moved = dataclasses.replace(inst, e_p=0.75, ranger_budget=3.0)
        for name in ("reward_def", "penalty_def", "reward_att", "penalty_att", "e_v"):
            assert getattr(moved, name) is getattr(inst, name)
            with pytest.raises(ValueError):
                getattr(moved, name)[0] = 0.0
        # a writable array, or a read-only view of one, is still copied
        values = np.array([2.0, 3.0])
        fresh = make(reward_att=values)
        values[0] = 9.0
        assert fresh.reward_att.tolist() == [2.0, 3.0]
        view = values[:]
        view.setflags(write=False)
        assert make(reward_att=view).reward_att is not view

    def test_results_carry_no_instance_dict(self):
        inst = make()
        result = evaluate_profile(inst, StrategyProfile([0.0] * 2, [0] * 2))
        for obj in (inst, result.profile, result):
            assert not hasattr(obj, "__dict__")

    def test_per_target_effectiveness(self):
        inst = make(e_v=[0.25, 0.5])
        assert inst.e_v.tolist() == [0.25, 0.5]
        with pytest.raises(ValueError):
            inst.e_v[0] = 1.0
        assert compute_coverage(inst, StrategyProfile([0.0, 0.0], [1, 1])).tolist() == [0.25, 0.5]
        with pytest.raises(GameDefinitionError):
            make(e_v=[0.5, 0.5, 0.5])
        with pytest.raises(GameDefinitionError):
            make(e_v=[0.5, 0.0])
        with pytest.raises(GameDefinitionError):
            make(e_v=[[0.5, 0.5]])

    @pytest.mark.parametrize("e_v", [5e-324, [0.5, 1e-310]])
    def test_subnormal_villager_effectiveness_is_rejected(self, e_v):
        # 1 / e_v overflows below the smallest normal float
        with pytest.raises(GameDefinitionError):
            make(e_v=e_v)
        make(e_v=np.finfo(float).tiny)

    def test_subnormal_ranger_effectiveness_is_rejected(self):
        # 1 / e_p overflows below the smallest normal float
        with pytest.raises(GameDefinitionError, match="ranger effectiveness"):
            make(e_p=5e-324)
        make(e_p=np.finfo(float).tiny)

    def test_villager_budget_must_fit_int64(self):
        make(villager_budget=2**63 - 1)
        with pytest.raises(GameDefinitionError):
            make(villager_budget=2**63)

    def test_tol_is_derived_from_payoffs_only(self):
        inst = make(reward_def=[3.0, 1.0], penalty_att=[-1.0, -40.0], ranger_budget=500.0)
        assert inst.tol == REL_TOL * 40.0
        scaled = dataclasses.replace(inst, penalty_att=inst.penalty_att * 1e6)
        assert scaled.tol == REL_TOL * 40.0e6
        with pytest.raises(TypeError):
            make(tol=1.0)

    def test_spread_is_derived_and_read_only(self):
        inst = make(reward_att=[3.0, 0.0], penalty_att=[-1.0, 0.0])
        assert inst.spread_att.tolist() == [4.0, 0.0]
        assert inst.spread_att is inst.spread_att  # a field, not rebuilt per read
        with pytest.raises(ValueError):
            inst.spread_att[0] = 1.0
        scaled = dataclasses.replace(inst, reward_att=[5.0, 2.0])
        assert scaled.spread_att.tolist() == [6.0, 2.0]
        assert inst.spread_att.tolist() == [4.0, 0.0]
        with pytest.raises(TypeError):
            make(spread_att=[1.0, 1.0])
        with pytest.raises(ValueError):
            dataclasses.replace(inst, spread_att=np.ones(2))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="400-digits")]
    )
    def test_non_finite_rejected(self, bad):
        for name in ("reward_def", "penalty_def", "reward_att", "penalty_att"):
            with pytest.raises(GameDefinitionError):
                make(**{name: [bad, -1.0 if name.startswith("penalty") else 1.0]})
        with pytest.raises(GameDefinitionError):
            make(e_v=bad)
        with pytest.raises(GameDefinitionError):
            make(e_v=[0.5, bad])
        with pytest.raises(GameDefinitionError):
            make(ranger_budget=bad)
        with pytest.raises(GameDefinitionError):
            make(villager_budget=bad)
        with pytest.raises(GameDefinitionError):
            make(ranger_budget="3")

    @pytest.mark.parametrize(
        "payoffs",
        [
            dict(reward_att=[1e308, 5e307], penalty_att=[-1e308, -1e308]),
            dict(reward_def=[1e308, 5e307], penalty_def=[-1e308, -1e308]),
            dict(
                reward_def=[1e308, 1e308],
                penalty_def=[-1e308, -1e308],
                reward_att=[1e308, 5e307],
                penalty_att=[-1e308, -1e308],
            ),
        ],
        ids=["attacker", "defender", "both"],
    )
    def test_overflowing_payoff_spread_is_rejected(self, payoffs):
        # R - P is inf on target 0, which the coverage arithmetic of every
        # solver turns into inf or NaN utilities
        with pytest.raises(GameDefinitionError, match="spread"):
            make(ranger_budget=1, villager_budget=1, **payoffs)

    def test_largest_finite_spread_is_accepted(self):
        top = np.finfo(float).max / 2
        inst = make(reward_att=[top, 1.0], penalty_att=[-top, -1.0])
        assert inst.spread_att[0] == 2 * top

    def test_attacker_spreads_whose_widths_overflow_are_rejected(self):
        # the pour's total width, the sum of 1 / (R_a - P_a), is inf here
        with pytest.raises(GameDefinitionError, match="spread"):
            make(
                reward_def=[5e-320, 4e-320],
                penalty_def=[-2e-320, -3e-320],
                reward_att=[6e-320, 3e-320],
                penalty_att=[-4e-320, -2e-320],
            )
        # tiny defender payoffs and zero attacker spreads are fine
        make(reward_def=[5e-320, 4e-320], penalty_def=[-2e-320, -3e-320])
        make(reward_att=[0.0, 1.0], penalty_att=[0.0, -1.0])

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(n=0), "at least one target"),
            (dict(ranger_budget=-1.0), "ranger budget"),
            (dict(villager_budget=2.5), "villager budget must be a nonnegative integer"),
        ],
    )
    def test_structural_rejections(self, kw, message):
        with pytest.raises(GameDefinitionError, match=message):
            make(**kw)


class TestComputeCoverage:
    def test_direct_formula_with_clamp(self):
        inst = make()
        cov = compute_coverage(inst, StrategyProfile([1.0, 0.0], [0, 2]))
        assert cov.tolist() == [0.5, 1.0]

    def test_zero_profile(self):
        inst = make()
        assert compute_coverage(inst, StrategyProfile([0.0] * 2, [0] * 2)).tolist() == [0.0, 0.0]

    def test_clamp_at_one(self):
        inst = make(ranger_budget=3.0)
        cov = compute_coverage(inst, StrategyProfile([3.0, 0.0], [0, 0]))
        assert cov[0] == 1.0

    def test_dimension_mismatch(self):
        inst = make()
        with pytest.raises(GameDefinitionError):
            compute_coverage(inst, StrategyProfile([0.0], [0]))


class TestTargetUtilities:
    """(defender, attacker) utility on one target (``utilities_of``)."""

    def test_symmetric_midpoint(self):
        assert utilities_of(make(), 0.5, 0) == (0.0, 0.0)

    def test_zero_coverage(self):
        inst = make()
        u_d, u_a = utilities_of(inst, 0.0, 1)
        assert u_d == inst.penalty_def[1]
        assert u_a == inst.reward_att[1]

    def test_full_coverage(self):
        inst = make()
        u_d, u_a = utilities_of(inst, 1.0, 0)
        assert u_d == inst.reward_def[0]
        assert u_a == inst.penalty_att[0]


class TestBestResponse:
    def test_strict_argmax(self):
        inst = make()
        br = best_response(inst, np.array([0.0, 0.5]))
        assert br.target == 0
        assert br.attacker_utility == 1.0

    def test_defender_favouring_tie(self):
        inst = make(reward_def=[0.4, 1.0], penalty_def=[0.0, -1.0])
        # coverage 0.5 on both: attacker utility ties at 0, defender gets
        # (0.2, 0) so the attacker picks target 0.
        br = best_response(inst, np.array([0.5, 0.5]))
        assert br.target == 0
        assert br.defender_utility == pytest.approx(0.2)

    def test_full_tie_lowest_index(self):
        br = best_response(make(), np.array([0.5, 0.5]))
        assert br.target == 0

    def test_argmax_property_random(self):
        rng = np.random.default_rng(3)
        for k in range(200):
            inst = random_instance(800 + k, n=int(rng.integers(1, 7)), r_p=1, r_v=1)
            cov = rng.uniform(0.0, 1.0, inst.n)
            br = best_response(inst, cov)
            u_a = inst.reward_att * (1 - cov) + inst.penalty_att * cov
            assert br.attacker_utility >= u_a.max() - 1e-9


class TestTiedDefenderUtilities:
    def test_block_matches_best_response_row_by_row(self):
        # Dyadic payoffs and coverages tie exactly; coverages nudged by just
        # under or over tol tie, or not, within the slack.
        rng = np.random.default_rng(4)
        kinds = {"tied": 0, "defender picks a later target": 0, "slack decides": 0}
        for k in range(200):
            n = int(rng.integers(1, 7))
            inst = make(
                n=n,
                reward_def=rng.choice([0.0, 1.0, 2.0], n),
                penalty_def=rng.choice([-2.0, -1.0], n),
                reward_att=rng.choice([1.0, 2.0], n),
                penalty_att=rng.choice([-2.0, -1.0], n),
            )
            coverage = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (20, n))
            nudge = rng.choice([-1.1, -0.9, 0.0, 0.9, 1.1], (20, n)) * inst.tol / inst.spread_att
            nudged = np.clip(coverage + nudge, 0.0, 1.0)
            coverage[5:] = nudged[5:]
            block = tied_defender_utilities(inst, coverage)
            assert block.shape == coverage.shape
            for row, cov in zip(block, coverage):
                br = best_response(inst, cov)
                assert row.tolist() == tied_defender_utilities(inst, cov).tolist()
                assert int(np.argmax(row)) == br.target
                assert row.max() == br.defender_utility
                assert (br.target, br.attacker_utility, br.defender_utility) == scalar_best_response(
                    inst, cov, inst.tol
                )
                u_a = inst.reward_att * (1 - cov) + inst.penalty_att * cov
                kinds["tied"] += int(np.count_nonzero(np.isfinite(row)) > 1)
                kinds["defender picks a later target"] += int(br.target > np.argmax(np.isfinite(row)))
                kinds["slack decides"] += int(np.any((u_a < u_a.max()) & np.isfinite(row)))
        assert min(kinds.values()) > 100, kinds


class TestFirstBest:
    # In the symmetric game, the villager on one target and the ranger on the
    # other tie at utility 0 whichever target is attacked.
    on_0 = np.array([[0.0, 1.0]]), np.array([[1, 0]])
    on_1 = np.array([[1.0, 0.0]]), np.array([[0, 1]])

    def test_ties_go_to_the_lowest_target_in_any_block_order(self):
        inst = symmetric_instance()
        for blocks in (
            [(np.array([1]), *self.on_1), (np.array([0]), *self.on_0)],
            [(np.array([0]), *self.on_0), (np.array([1]), *self.on_1)],
            [(np.array([1, 0]), np.vstack([self.on_1[0], self.on_0[0]]), np.vstack([self.on_1[1], self.on_0[1]]))],
        ):
            result = first_best(inst, iter(blocks), {"candidates": 2})
            assert result.profile.v.tolist() == [1, 0] and result.defender_utility == 0.0
            assert result.diagnostics == {"candidates": 2}

    def test_a_better_row_wins_from_a_later_block(self):
        inst = symmetric_instance()
        nothing = np.array([0]), np.zeros((1, 2)), np.zeros((1, 2), dtype=np.int64)
        result = first_best(inst, iter([nothing, (np.array([1]), *self.on_1)]), {})
        assert result.profile.v.tolist() == [0, 1] and result.defender_utility == 0.0

    def test_no_row_is_a_bug(self):
        empty = np.array([], dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)
        with pytest.raises(RuntimeError, match="no candidate target was completed"):
            first_best(symmetric_instance(), iter([empty]), {})


class TestValidateProfile:
    def test_exactly_at_budget(self):
        inst = make(villager_budget=1)
        assert validate_profile(inst, StrategyProfile([0.5, 0.5], [1, 0])) == []

    def test_ranger_budget_exceeded(self):
        violations = validate_profile(make(), StrategyProfile([1.0, 0.5], [0, 0]))
        assert violations == ["ranger budget exceeded"]

    def test_negative_villagers(self):
        violations = validate_profile(make(), StrategyProfile([0.0, 0.0], [-1, 0]))
        assert "negative villager count" in violations

    def test_non_integral_villagers(self):
        violations = validate_profile(make(), StrategyProfile([0.0, 0.0], [0.5, 0.0]))
        assert "non-integral villager count" in violations

    @pytest.mark.parametrize("count", [1e30, 2.0**70, 2**70, 2**63])
    def test_counts_past_int64_exceed_the_budget(self, count):
        profile = StrategyProfile([0.0, 0.0], [count, 0])
        assert validate_profile(make(), profile) == ["villager budget exceeded"]

    def test_counts_summing_past_int64_exceed_the_budget(self):
        profile = StrategyProfile([0.0, 0.0], [2**62, 2**62])
        assert validate_profile(make(), profile) == ["villager budget exceeded"]

    def test_budget_tolerance(self):
        inst = make()
        assert validate_profile(inst, StrategyProfile([1.0 + 5e-10, 0.0], [0, 0])) == []

    @pytest.mark.parametrize(
        "p, violation",
        [
            ([np.nan, 0.0], "non-finite ranger effort"),
            ([np.inf, 0.0], "non-finite ranger effort"),
            ([-0.25, 0.5], "negative ranger effort"),
        ],
    )
    def test_bad_ranger_effort_is_listed(self, p, violation):
        assert violation in validate_profile(make(), StrategyProfile(p, [0, 0]))

    def test_profile_length_must_match(self):
        with pytest.raises(GameDefinitionError, match="entries for 2 targets"):
            validate_profile(make(), StrategyProfile([0.0] * 3, [0] * 3))

    def test_villager_vector_must_be_1d(self):
        with pytest.raises(GameDefinitionError, match="1-D"):
            StrategyProfile(np.zeros(2), np.zeros((2, 2), dtype=np.int64))


class TestEvaluateProfile:
    def test_symmetric_example(self):
        inst = symmetric_instance()
        result = evaluate_profile(inst, StrategyProfile([0.0, 1.0], [1, 0]))
        assert result.attacked == 0
        assert result.defender_utility == 0.0
        assert result.diagnostics == {}

    def test_zero_profile_attacks_max_reward(self):
        inst = make(reward_att=[2.0, 5.0], penalty_def=[-1.0, -3.0])
        result = evaluate_profile(inst, StrategyProfile([0.0] * 2, [0] * 2))
        assert result.attacked == 1
        assert result.defender_utility == -3.0

    def test_invalid_profile_rejected(self):
        with pytest.raises(ProfileValidationError) as err:
            evaluate_profile(make(), StrategyProfile([2.0, 0.0], [0, 0]))
        assert "ranger budget exceeded" in err.value.violations

    def test_matches_scalar_reevaluation(self):
        # independent plain-Python evaluator on a seeded 4-target instance
        rng = np.random.default_rng(7)
        for k in range(50):
            inst = random_instance(900 + k, n=4, r_p=2, r_v=2)
            p = rng.uniform(0, 1, 4)
            p *= inst.ranger_budget / p.sum()
            v = np.array([1, 1, 0, 0])
            result = evaluate_profile(inst, StrategyProfile(p, v))
            cov = [min(inst.e_p * p[i] + inst.e_v * v[i], 1.0) for i in range(4)]
            target, u_a, u_d = scalar_best_response(inst, cov)
            assert result.attacked == target
            assert result.attacker_utility == pytest.approx(u_a, abs=1e-12)
            assert result.defender_utility == pytest.approx(u_d, abs=1e-12)

    def test_pure_function_bit_identical(self):
        inst = random_instance(123, n=5, r_p=2, r_v=2)
        profile = StrategyProfile([0.3, 0.4, 0.0, 0.8, 0.5], [0, 1, 1, 0, 0])
        a = evaluate_profile(inst, profile)
        b = evaluate_profile(inst, profile)
        assert a.defender_utility == b.defender_utility
        assert a.attacker_utility == b.attacker_utility
        assert a.attacked == b.attacked


class TestMonotonicity:
    def test_more_resources_never_help_attacker(self):
        rng = np.random.default_rng(11)
        for k in range(100):
            inst = random_instance(1500 + k, n=4, r_p=3, r_v=3)
            p = rng.uniform(0, 0.5, 4)
            v = rng.integers(0, 2, 4)
            i = int(rng.integers(0, 4))
            cov = compute_coverage(inst, StrategyProfile(p, v))
            bumped = p.copy()
            bumped[i] += 0.25
            cov2 = compute_coverage(inst, StrategyProfile(bumped, v))
            u_a = inst.reward_att * (1 - cov) + inst.penalty_att * cov
            u_a2 = inst.reward_att * (1 - cov2) + inst.penalty_att * cov2
            u_d = inst.reward_def * cov + inst.penalty_def * (1 - cov)
            u_d2 = inst.reward_def * cov2 + inst.penalty_def * (1 - cov2)
            assert u_a2[i] <= u_a[i] + 1e-12
            assert u_d2[i] >= u_d[i] - 1e-12

    def test_coverage_always_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for k in range(100):
            inst = random_instance(1700 + k, n=5, r_p=4, r_v=4)
            p = rng.uniform(0, 1, 5)
            v = rng.integers(0, 3, 5)
            cov = compute_coverage(inst, StrategyProfile(p, v))
            assert np.all(cov >= 0.0) and np.all(cov <= 1.0)
