import json

import numpy as np
import pytest

from patrolgame import planner
from patrolgame.model import (
    REL_TOL,
    GameDefinitionError,
    StrategyProfile,
    evaluate_profile,
    validate_profile,
)
from patrolgame.planner import (
    BudgetSweepRow,
    InstanceFormatError,
    ScenarioInstance,
    budget_sweep,
    case_study_scenario,
    compare_with_baseline,
    effectiveness_grid,
    get_solver,
    grid_csv,
    load_instance,
    load_result,
    save_instance,
    save_result,
    scenario_to_dict,
    shift_effectiveness,
    sweep_csv,
    tally_csv,
    terrain_adjust,
    with_effectiveness,
)
from patrolgame.waterfill import solve_hw

from conftest import random_instance, symmetric_instance


class TestFileRoundTrip:
    def test_instance_round_trip_bit_exact(self, tmp_path):
        inst = random_instance(61, n=6, r_p=2.5, r_v=3)
        scenario = ScenarioInstance(
            inst,
            labels=tuple("t%d" % i for i in range(6)),
            slope_class=("high", "low", "average", "high", "low", "average"),
            baseline=StrategyProfile(np.full(6, 2.5 / 6), [1, 0, 1, 0, 1, 0]),
        )
        path = tmp_path / "inst.json"
        save_instance(path, scenario)
        loaded = load_instance(path)
        assert np.array_equal(loaded.instance.reward_att, inst.reward_att)
        assert np.array_equal(loaded.instance.penalty_def, inst.penalty_def)
        assert loaded.instance.e_p == inst.e_p
        assert loaded.instance.e_v == inst.e_v
        assert loaded.instance.ranger_budget == inst.ranger_budget
        assert loaded.labels == scenario.labels
        assert loaded.slope_class == scenario.slope_class
        assert np.array_equal(loaded.baseline.p, scenario.baseline.p)
        assert np.array_equal(loaded.baseline.v, scenario.baseline.v)

    def test_result_round_trip(self, tmp_path):
        inst = random_instance(62, n=4, r_p=2, r_v=2)
        result = solve_hw(inst)
        path = tmp_path / "out.json"
        save_result(path, result)
        loaded = load_result(path)
        assert np.array_equal(loaded.profile.p, result.profile.p)
        assert np.array_equal(loaded.profile.v, result.profile.v)
        assert loaded.defender_utility == result.defender_utility
        assert loaded.diagnostics == result.diagnostics
        # re-validation on load: the profile still checks out and the
        # utilities recompute identically
        assert validate_profile(inst, loaded.profile) == []
        again = evaluate_profile(inst, loaded.profile)
        assert again.defender_utility == loaded.defender_utility
        assert again.attacked == loaded.attacked

    def test_missing_field_named(self, tmp_path):
        doc = scenario_to_dict(ScenarioInstance(random_instance(63, n=3, r_p=1, r_v=1)))
        del doc["reward_attacker"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="reward_attacker"):
            load_instance(path)

    def test_wrong_length_named(self, tmp_path):
        doc = scenario_to_dict(ScenarioInstance(random_instance(64, n=3, r_p=1, r_v=1)))
        doc["penalty_defender"] = [-1.0, -1.0]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="penalty_defender"):
            load_instance(path)

    def test_per_target_e_v_triggers_variant(self, tmp_path):
        doc = scenario_to_dict(ScenarioInstance(random_instance(65, n=3, r_p=1, r_v=1)))
        doc["e_v"] = [0.2, 0.3, 0.4]
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(doc))
        loaded = load_instance(path)
        assert isinstance(loaded.instance.e_v, np.ndarray)
        assert loaded.instance.e_v.tolist() == [0.2, 0.3, 0.4]
        assert scenario_to_dict(loaded)["e_v"] == [0.2, 0.3, 0.4]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_tokens_rejected(self, tmp_path, token):
        doc = scenario_to_dict(ScenarioInstance(random_instance(66, n=3, r_p=1, r_v=1)))
        doc["reward_attacker"][1] = 12345.5
        text = json.dumps(doc).replace("12345.5", token)
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(InstanceFormatError, match=token):
            load_instance(path)
        result = tmp_path / "result.json"
        result.write_text('{"p": [%s], "v": [0], "attacked": 0,'
                          ' "defender_utility": 0.0, "attacker_utility": 0.0}' % token)
        with pytest.raises(InstanceFormatError, match=token):
            load_result(result)

    @pytest.mark.parametrize("value", ["1" * 400, '"abc"'], ids=["400-digits", "string"])
    def test_result_utility_must_be_a_float(self, tmp_path, value):
        result = tmp_path / "result.json"
        result.write_text('{"p": [0.0], "v": [0], "attacked": 0,'
                          ' "defender_utility": %s, "attacker_utility": 0.0}' % value)
        with pytest.raises(InstanceFormatError, match="defender_utility"):
            load_result(result)

    @pytest.mark.parametrize(
        "diagnostics, field",
        [('[1]', "'diagnostics'"), ('{"candidates": "abc"}', "diagnostics.candidates"),
         ('{"pruned": 2.5}', "diagnostics.pruned"), ('{"swaps": true}', "diagnostics.swaps")],
        ids=["not-an-object", "string", "non-integral-float", "bool"],
    )
    def test_result_diagnostics_must_be_integers(self, tmp_path, diagnostics, field):
        result = tmp_path / "result.json"
        result.write_text('{"p": [0.0], "v": [0], "attacked": 0, "defender_utility": 0.0,'
                          ' "attacker_utility": 0.0, "diagnostics": %s}' % diagnostics)
        with pytest.raises(InstanceFormatError, match=field):
            load_result(result)

    @pytest.mark.parametrize(
        "p, v, attacked, field",
        [("[0.5, 0.5]", "[1]", 0, "'v'"), ("[0.5]", "[1, 0]", 0, "'v'"),
         ("[0.5, 0.5]", "[1, 0]", -3, "'attacked'"), ("[0.5, 0.5]", "[1, 0]", 2, "'attacked'"),
         ("[]", "[]", 0, "'attacked'"),
         ('["abc"]', "[0]", 0, r"'p'\[0\] should be a number"),
         ("[[1.0]]", "[0]", 0, r"'p'\[0\] should be a number"),
         ("[0.5, true]", "[0, 1]", 0, r"'p'\[1\] should be a number"),
         ("[0.5, 0.5]", "[1, 0.5]", 0, r"'v'\[1\] should be a whole number")],
        ids=["short-v", "long-v", "negative-attacked", "attacked-past-the-end", "no-targets",
             "string-p", "nested-p", "bool-p", "fractional-v"],
    )
    def test_result_profile_and_attacked_must_agree(self, tmp_path, p, v, attacked, field):
        result = tmp_path / "result.json"
        result.write_text('{"p": %s, "v": %s, "attacked": %d, "defender_utility": 0.0,'
                          ' "attacker_utility": 0.0}' % (p, v, attacked))
        with pytest.raises(InstanceFormatError, match=field):
            load_result(result)

    @pytest.mark.parametrize(
        "v, counts",
        [("[2.0, 0.0]", [2, 0]), ("[2, %d]" % (2**60 + 1), [2, 2**60 + 1])],
        ids=["whole-floats", "past-2**53"],
    )
    def test_result_counts_read_back_exactly(self, tmp_path, v, counts):
        result = tmp_path / "result.json"
        result.write_text('{"p": [0.5, 0.5], "v": %s, "attacked": 0,'
                          ' "defender_utility": 0.0, "attacker_utility": 0.0}' % v)
        assert load_result(result).profile.v.tolist() == counts

    def test_result_document_must_be_an_object(self, tmp_path):
        result = tmp_path / "result.json"
        result.write_text("[0.0, 0]")
        with pytest.raises(InstanceFormatError, match="result document must be a JSON object"):
            load_result(result)

    def test_baseline_length_must_match(self):
        # a file's baseline fails its own length check first; this is the direct route
        inst = random_instance(77, n=3, r_p=1, r_v=1)
        with pytest.raises(GameDefinitionError, match="baseline profile length mismatch"):
            ScenarioInstance(inst, baseline=StrategyProfile([0.0] * 4, [0] * 4))


class TestCaseStudy:
    def test_bundled_scenario_parses(self):
        scenario = case_study_scenario()
        inst = scenario.instance
        assert inst.n == 21
        assert inst.reward_att[0] == 6.83
        assert inst.reward_att[20] == 5.70
        assert np.all(inst.reward_def == 10.0)
        assert np.all(inst.penalty_att == -10.0)
        assert np.array_equal(inst.penalty_def, -inst.reward_att)
        assert scenario.baseline is not None
        assert validate_profile(inst, scenario.baseline) == []
        assert scenario.slope_class is not None


class TestBudgetSweep:
    def scenario(self):
        return ScenarioInstance(symmetric_instance())

    def test_zero_budget_row_is_base_utility(self):
        rows = budget_sweep(self.scenario(), max_extra=0, solver="hw")
        base = solve_hw(symmetric_instance()).defender_utility
        assert rows[0] == BudgetSweepRow(0, 0, 0, base)

    def test_argmax_over_splits(self):
        rows = budget_sweep(self.scenario(), max_extra=3, solver="hw")
        row = rows[3]
        # candidates at b = 3, ratio 3:1 are (1 ranger, 0) and (0, 3)
        from patrolgame.planner import added_budgets

        utilities = {
            (k, m): solve_hw(added_budgets(symmetric_instance(), k, m)).defender_utility
            for k, m in ((1, 0), (0, 3))
        }
        assert row.defender_utility == pytest.approx(max(utilities.values()))
        assert (row.rangers_added, row.villagers_added) in utilities

    def test_cost_constraint_invariant(self):
        rows = budget_sweep(self.scenario(), max_extra=7, solver="tdbs")
        for row in rows:
            assert 3 * row.rangers_added + row.villagers_added <= row.extra_budget

    def test_monotone_in_budget(self):
        rows = budget_sweep(self.scenario(), max_extra=6, solver="hw")
        utilities = [r.defender_utility for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_csv_header(self):
        rows = budget_sweep(self.scenario(), max_extra=1, solver="hw")
        text = sweep_csv(rows)
        assert text.startswith("extra_budget,rangers_added,villagers_added,defender_utility\n")
        assert len(text.strip().split("\n")) == 3

    def test_csv_cells_read_back_exactly(self):
        rows = budget_sweep(ScenarioInstance(random_instance(71, n=5, r_p=1.3, r_v=2)), max_extra=5)
        cells = read_csv(sweep_csv(rows), len(rows))
        for line, row in zip(cells, rows):
            assert [int(c) for c in line[:3]] == [
                row.extra_budget, row.rangers_added, row.villagers_added
            ]
            assert float(line[3]) == row.defender_utility

    @pytest.mark.parametrize("max_extra", [-1, -3])
    def test_negative_extra_budget_rejected(self, max_extra):
        with pytest.raises(GameDefinitionError):
            budget_sweep(self.scenario(), max_extra=max_extra)

    @pytest.mark.parametrize("max_extra", [2.5, 2.0, True, "2"])
    def test_extra_budget_must_be_an_integer(self, max_extra):
        # range() used to raise a TypeError, and True swept one extra budget
        with pytest.raises(GameDefinitionError, match="integer"):
            budget_sweep(self.scenario(), max_extra=max_extra)

    @pytest.mark.parametrize("cost", [np.nan, np.inf, -np.inf, 0.0, -1.0, "3"])
    def test_costs_must_be_finite_and_positive(self, cost):
        with pytest.raises(GameDefinitionError):
            budget_sweep(self.scenario(), max_extra=1, cost_ranger=cost)
        with pytest.raises(GameDefinitionError):
            budget_sweep(self.scenario(), max_extra=1, cost_villager=cost)

    def test_rangers_stop_once_they_cover_every_target(self, monkeypatch):
        # the case study needs ceil(21 / 0.6 - 4) = 31 more rangers for full
        # coverage; a million-ranger budget must not mean a million solves
        calls = []
        monkeypatch.setattr(planner, "solve_hw", lambda inst: calls.append(inst) or solve_hw(inst))
        rows = budget_sweep(case_study_scenario(), 1, cost_ranger=1e-6)
        assert len(calls) <= 33
        assert rows[1].rangers_added <= 31

    def test_ranger_cap_keeps_the_best_split(self):
        # at 0.05 a ranger, a budget of 2 buys up to 40; the sweep stops at 31
        scenario = case_study_scenario()
        rows = budget_sweep(scenario, max_extra=2, cost_ranger=0.05)
        best = None
        for k in range(41):
            villagers = int(np.floor((2 - k * 0.05) / 1.0 + REL_TOL))
            u = solve_hw(planner.added_budgets(scenario.instance, k, villagers)).defender_utility
            if best is None or u > best.defender_utility:
                best = BudgetSweepRow(2, k, villagers, u)
        assert rows[2] == best

    def test_villagers_stop_once_they_fill_every_target(self, monkeypatch):
        # 5e-324 a villager buys infinitely many; the case study fills each of
        # its 21 targets with ceil(1 / 0.4) = 3 and holds 8, so 55 more do
        calls = []
        monkeypatch.setattr(planner, "solve_hw", lambda inst: calls.append(inst) or solve_hw(inst))
        rows = budget_sweep(case_study_scenario(), 1, cost_villager=5e-324)
        assert [inst.villager_budget for inst in calls] == [8, 8 + 55]
        assert rows[1] == BudgetSweepRow(1, 0, 55, solve_hw(calls[1]).defender_utility)

    def test_villager_cap_keeps_the_best_split(self):
        # at 0.1 a villager a budget of 2 buys up to 20; three fill both
        # targets of the symmetric instance, which already holds one
        rows = budget_sweep(self.scenario(), max_extra=2, cost_ranger=1.0, cost_villager=0.1)
        uncapped = max(
            solve_hw(planner.added_budgets(symmetric_instance(), k, m)).defender_utility
            for k, m in ((0, 20), (1, 10), (2, 0))
        )
        assert rows[2].villagers_added <= 3
        assert rows[2].defender_utility == uncapped

    def test_villager_cap_fills_by_the_coverage_product(self):
        # 1 / e_v is exactly 5.0 here, but 5 * e_v < 1: each target takes 6
        e_v = np.nextafter(0.2, 0.0)
        assert 5 * e_v < 1.0
        inst = planner.added_budgets(
            with_effectiveness(ScenarioInstance(symmetric_instance()), 0.5, e_v).instance, 0, 1
        )
        assert list(planner._recruit_splits(inst, 1, 3.0, 1e-300)) == [(0, 2 * 6 - 2)]

    def test_unbounded_recruits_rejected(self):
        # the villagers filling all 21 targets at the smallest normal e_v
        # overflow a float, so there is no cap
        tiny = with_effectiveness(case_study_scenario(), 0.6, np.finfo(float).tiny)
        assert list(planner._recruit_splits(tiny.instance, 1, 3.0, 1.0)) == [(0, 1)]
        with pytest.raises(GameDefinitionError, match="unboundedly many"):
            list(planner._recruit_splits(tiny.instance, 1, 3.0, 5e-324))


def read_csv(text, rows):
    """The cells of every line after the header, checking the line count."""
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == rows + 2
    return [line.split(",") for line in lines[1:-1]]


class TestGridCsv:
    def test_cells_read_back_exactly(self):
        grid = effectiveness_grid(case_study_scenario(), solver="hw", values=(0.3, 0.55, 0.9))
        assert len(grid.settings) == 6
        for line, s in zip(read_csv(grid_csv(grid), 6), grid.settings):
            assert [float(c) for c in line] == [
                s.e_p,
                s.e_v,
                s.comparison.optimal.defender_utility,
                s.comparison.baseline_utility,
                s.comparison.improvement,
            ]
        tally = read_csv(tally_csv(grid), 21)
        assert [[int(c) for c in line] for line in tally] == [
            [i, int(up), int(down)]
            for i, (up, down) in enumerate(zip(grid.increase_count, grid.decrease_count))
        ]


class TestCompareWithBaseline:
    def test_optimal_baseline_gives_zero_deltas(self):
        inst = random_instance(70, n=4, r_p=2, r_v=2)
        optimal = solve_hw(inst)
        scenario = ScenarioInstance(inst, baseline=optimal.profile)
        comparison = compare_with_baseline(scenario, solver="hw")
        assert comparison.improvement == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(comparison.coverage_delta, 0.0, atol=1e-12)

    def test_improvement_nonnegative_for_any_baseline(self):
        rng = np.random.default_rng(29)
        for k in range(15):
            inst = random_instance(71_000 + k, n=4, r_p=2, r_v=2)
            p = rng.uniform(0, 1, 4)
            p *= inst.ranger_budget / p.sum()
            v = np.zeros(4, dtype=np.int64)
            v[int(rng.integers(0, 4))] = inst.villager_budget
            scenario = ScenarioInstance(inst, baseline=StrategyProfile(p, v))
            comparison = compare_with_baseline(scenario, solver="hw")
            assert comparison.improvement >= -1e-12

    def test_missing_baseline_rejected(self):
        with pytest.raises(GameDefinitionError):
            compare_with_baseline(ScenarioInstance(random_instance(72, n=3, r_p=1, r_v=1)))

    def test_effectiveness_grid_counts(self):
        scenario = case_study_scenario()
        grid = effectiveness_grid(scenario, solver="tdbs", values=(0.2, 0.5, 0.8))
        # 3 + 2 + 1 ordered pairs with e_p >= e_v
        assert len(grid.settings) == 6
        assert grid.increase_count.shape == (21,)
        for s in grid.settings:
            assert s.e_p >= s.e_v
            assert s.comparison.improvement >= -1e-12


class TestTerrainAdjust:
    def test_shift_per_class(self):
        assert shift_effectiveness(0.5, "high") == pytest.approx(0.6)
        assert shift_effectiveness(0.5, "average") == 0.5
        assert shift_effectiveness(0.05, "low") == 0.01  # clamped

    def test_unknown_class_is_rejected(self):
        with pytest.raises(GameDefinitionError, match="unknown slope class 'steep'"):
            shift_effectiveness(0.5, "steep")

    def test_adjusted_instance(self):
        inst = random_instance(75, n=3, r_p=1, r_v=1)
        scenario = ScenarioInstance(inst, slope_class=("high", "average", "low"))
        ts = terrain_adjust(scenario, e_p=0.7, e_v=0.5)
        assert isinstance(ts.e_v, np.ndarray)
        assert ts.e_v.tolist() == pytest.approx([0.6, 0.5, 0.4])
        assert ts.e_p == 0.7
        assert np.array_equal(ts.reward_att, inst.reward_att)
        assert ts.villager_budget == inst.villager_budget

    def test_requires_slope_classes(self):
        with pytest.raises(GameDefinitionError):
            terrain_adjust(ScenarioInstance(random_instance(76, n=2, r_p=1, r_v=1)), 0.5, 0.5)


class TestWithEffectiveness:
    def test_swap_preserves_everything_else(self):
        scenario = case_study_scenario()
        swapped = with_effectiveness(scenario, 0.8, 0.2)
        assert swapped.instance.e_p == 0.8
        assert swapped.instance.e_v == 0.2
        assert np.array_equal(swapped.instance.reward_att, scenario.instance.reward_att)
        assert swapped.baseline is scenario.baseline


class TestSolverRegistry:
    def test_names_resolve(self):
        inst = random_instance(77, n=3, r_p=1, r_v=1)
        for name in planner.SOLVER_NAMES:
            result = get_solver(name)(inst)
            assert validate_profile(inst, result.profile) == []
        with pytest.raises(GameDefinitionError):
            get_solver("simplex")

    def test_solver_looked_up_at_call_time(self, monkeypatch):
        # Wrapping planner.solve_hw must reach the comparisons and sweeps.
        calls = []
        monkeypatch.setattr(planner, "solve_hw", lambda inst: calls.append(inst) or solve_hw(inst))
        baseline = StrategyProfile([0.0] * 2, [0] * 2)
        scenario = ScenarioInstance(symmetric_instance(), baseline=baseline)
        compare_with_baseline(scenario, solver="hw")
        budget_sweep(scenario, max_extra=1, solver="hw")
        assert len(calls) == 1 + 2
