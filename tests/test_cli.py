import json

import pytest

from patrolgame.cli import build_parser, cli_dispatch
from patrolgame.model import evaluate_profile, validate_profile
from patrolgame.planner import (
    SOLVER_NAMES,
    ScenarioInstance,
    budget_sweep,
    case_study_scenario,
    compare_with_baseline,
    effectiveness_grid,
    grid_csv,
    load_instance,
    load_result,
    save_instance,
    scenario_to_dict,
    sweep_csv,
    tally_csv,
    with_effectiveness,
)

from conftest import random_instance

# Attacker spreads of a few 1e-320: each 1 / (R_a - P_a) overflows.
SUBNORMAL_SPREADS = {
    "n": 2, "ranger_budget": 1.0, "villager_budget": 1, "e_p": 0.7, "e_v": 0.3,
    "reward_defender": [5e-320, 4e-320], "penalty_defender": [-2e-320, -3e-320],
    "reward_attacker": [6e-320, 3e-320], "penalty_attacker": [-4e-320, -2e-320],
}
# The README's attacker payoffs with subnormal defender payoffs.
TINY_DEFENDER_PAYOFFS = {
    "n": 3, "ranger_budget": 1.0, "villager_budget": 1, "e_p": 0.7, "e_v": 0.3,
    "reward_defender": [5e-320, 4e-320, 8e-320], "penalty_defender": [-2e-320, -3e-320, -1e-320],
    "reward_attacker": [6.0, 3.0, 7.0], "penalty_attacker": [-4.0, -2.0, -5.0],
}


def assert_validation_error(code, capsys, out, message=""):
    """Exit 1 with an ``error:`` line naming ``message``, no traceback, no output file."""
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(path, ScenarioInstance(random_instance(80, n=4, r_p=2, r_v=2)))
    return path


class TestSolve:
    def test_solve_writes_result(self, instance_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = cli_dispatch(
            ["solve", "--algorithm", "hw", "--input", str(instance_file), "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        result = load_result(out)
        inst = load_instance(instance_file).instance
        assert validate_profile(inst, result.profile) == []
        assert evaluate_profile(inst, result.profile).defender_utility == pytest.approx(
            result.defender_utility, abs=1e-12
        )
        assert "defender utility" in capsys.readouterr().out

    def test_unknown_algorithm_is_usage_error(self, instance_file, tmp_path, capsys):
        code = cli_dispatch(
            ["solve", "--algorithm", "foo", "--input", str(instance_file), "--output", "x.json"]
        )
        capsys.readouterr()
        assert code == 2

    def test_default_epsilon_matches_harness(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "--algorithm", "tdbs", "--input", "a", "--output", "b"])
        assert args.epsilon == 1e-3

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        code = cli_dispatch(
            ["solve", "--input", str(tmp_path / "nope.json"), "--output", "x.json"]
        )
        capsys.readouterr()
        assert code == 1

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = scenario_to_dict(ScenarioInstance(random_instance(81, n=3, r_p=1, r_v=1)))
        del doc["n"]
        bad.write_text(json.dumps(doc))
        code = cli_dispatch(["solve", "--input", str(bad), "--output", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "n" in err

    def test_hw_rejects_per_target_effectiveness(self, tmp_path, capsys):
        doc = scenario_to_dict(ScenarioInstance(random_instance(82, n=3, r_p=1, r_v=1)))
        doc["e_v"] = [0.2, 0.2, 0.2]
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert cli_dispatch(["solve", "--algorithm", "hw", "--input", str(path), "--output", str(out)]) == 1
        capsys.readouterr()
        assert cli_dispatch(["solve", "--algorithm", "tdbs", "--input", str(path), "--output", str(out)]) == 0
        capsys.readouterr()


    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_file_is_validation_error(self, tmp_path, capsys, token):
        doc = scenario_to_dict(ScenarioInstance(random_instance(83, n=3, r_p=1, r_v=1)))
        path = tmp_path / "inf.json"
        doc["reward_attacker"][0] = 12345.5
        path.write_text(json.dumps(doc).replace("12345.5", token))
        out = tmp_path / "o.json"
        assert cli_dispatch(["solve", "--input", str(path), "--output", str(out)]) == 1
        assert token in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare", "solve-hw", "compare-hw"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan", "-1"])
    def test_bad_epsilon_is_validation_error(
        self, instance_file, tmp_path, capsys, command, epsilon
    ):
        out = tmp_path / "o.out"
        args = {
            "solve": ["solve", "--algorithm", "tdbs", "--input", str(instance_file)],
            "sweep": ["sweep", "--algorithm", "tdbs", "--budget-max", "1"],
            "compare": ["compare", "--algorithm", "tdbs"],
            # the exact solvers ignore epsilon, but it is checked all the same
            "solve-hw": ["solve", "--algorithm", "hw", "--input", str(instance_file)],
            "compare-hw": ["compare", "--algorithm", "hw"],
        }[command]
        assert cli_dispatch(args + ["--epsilon", epsilon, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epsilon" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("reward_attacker", 10**400), ("ranger_budget", 10**400), ("villager_budget", 10**30)],
    )
    def test_oversized_number_is_validation_error(self, tmp_path, capsys, key, value):
        doc = scenario_to_dict(ScenarioInstance(random_instance(84, n=3, r_p=1, r_v=1)))
        if isinstance(doc[key], list):
            doc[key][0] = value
        else:
            doc[key] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert cli_dispatch(["solve", "--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


    def test_subnormal_villager_effectiveness_is_validation_error(self, tmp_path, capsys):
        doc = scenario_to_dict(ScenarioInstance(random_instance(85, n=3, r_p=1, r_v=1)))
        doc["e_v"] = 5e-324
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert cli_dispatch(["solve", "--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "effectiveness" in err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", SOLVER_NAMES)
    def test_overflowing_payoff_spread_is_validation_error(self, tmp_path, capsys, algorithm):
        # R - P overflows to inf on target 0
        doc = {
            "n": 2, "ranger_budget": 1.0, "villager_budget": 1, "e_p": 0.5, "e_v": 0.5,
            "reward_defender": [1e308, 1e308], "penalty_defender": [-1e308, -1e308],
            "reward_attacker": [1e308, 5e307], "penalty_attacker": [-1e308, -1e308],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code = cli_dispatch(["solve", "--algorithm", algorithm, "--input", str(path), "--output", str(out)])
        assert_validation_error(code, capsys, out, "spread")

    @pytest.mark.parametrize("algorithm", SOLVER_NAMES)
    def test_attacker_spreads_whose_widths_overflow_are_validation_errors(
        self, tmp_path, capsys, algorithm
    ):
        # 1 / (R_a - P_a) sums to inf over these subnormal spreads; hw used to
        # lose both targets from its pour and raise a RuntimeError
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(SUBNORMAL_SPREADS))
        out = tmp_path / "o.json"
        code = cli_dispatch(["solve", "--algorithm", algorithm, "--input", str(path), "--output", str(out)])
        assert_validation_error(code, capsys, out, "spread")

    @pytest.mark.parametrize("algorithm", SOLVER_NAMES)
    def test_subnormal_ranger_effectiveness_is_validation_error(self, tmp_path, capsys, algorithm):
        doc = dict(TINY_DEFENDER_PAYOFFS, e_p=5e-324)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code = cli_dispatch(["solve", "--algorithm", algorithm, "--input", str(path), "--output", str(out)])
        assert_validation_error(code, capsys, out, "ranger effectiveness")

    def test_tiny_defender_payoffs_solve_with_hw_as_the_oracle(self, tmp_path, capsys):
        # hw's break-even coverage (bar - P_d) / (R_d - P_d) overflows here
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_DEFENDER_PAYOFFS))
        results = {}
        for algorithm in ("hw", "oracle"):
            out = tmp_path / (algorithm + ".json")
            code = cli_dispatch(["solve", "--algorithm", algorithm, "--input", str(path), "--output", str(out)])
            assert code == 0
            results[algorithm] = load_result(out)
        hw, oracle = results["hw"], results["oracle"]
        assert hw.attacked == oracle.attacked
        assert hw.defender_utility == oracle.defender_utility

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", 0, "field 'n' should be a positive integer"),
            ("reward_attacker", [0.0, "x"] + [0.0] * 19, "field 'reward_attacker'[1] should be a number"),
            ("ranger_budget", -1.0, "ranger budget must be a nonnegative real"),
            ("labels", ["only one"], "labels must have one entry per target"),
            ("slope_class", ["high"], "slope classes must have one entry per target"),
            ("slope_class", ["steep"] * 21, "unknown slope class 'steep'"),
            ("baseline", [0.0] * 21, "field 'baseline' should be an object"),
        ],
    )
    def test_malformed_instance_is_validation_error(self, tmp_path, capsys, key, value, message):
        doc = scenario_to_dict(case_study_scenario())
        assert doc["n"] == 21
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code = cli_dispatch(["solve", "--input", str(path), "--output", str(out)])
        assert_validation_error(code, capsys, out, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"[1, 2]", "instance document must be a JSON object"),
            (b'{"n": 2,', "not valid JSON"),
            pytest.param(b"\xff\xfe{}", "not valid JSON", id="not-utf8"),
            pytest.param(b"[" * 100_000, "not valid JSON", id="deeply-nested"),
        ],
    )
    def test_unreadable_document_is_validation_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        out = tmp_path / "o.json"
        code = cli_dispatch(["solve", "--input", str(path), "--output", str(out)])
        assert_validation_error(code, capsys, out, message)


class TestGen:
    def test_gen_then_solve(self, tmp_path, capsys):
        inst = tmp_path / "gen.json"
        assert cli_dispatch(["gen", "--n", "4", "--rp", "2", "--rv", "2", "--seed", "5", "--output", str(inst)]) == 0
        loaded = load_instance(inst)
        assert loaded.instance.n == 4
        out = tmp_path / "sol.json"
        assert cli_dispatch(["solve", "--algorithm", "oracle", "--input", str(inst), "--output", str(out)]) == 0
        capsys.readouterr()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        # numpy's generator rejects it with a ValueError the CLI does not catch
        out = tmp_path / "x.json"
        code = cli_dispatch(["gen", "--n", "3", "--rp", "1", "--rv", "1", "--seed", "-1", "--output", str(out)])
        assert_validation_error(code, capsys, out, "seed")


class TestBench:
    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli_dispatch(
            ["bench", "--n", "3", "4", "--algorithms", "tdbs", "--runs", "2", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("algorithm,n,rp,rv")
        assert len(lines) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags", [["--runs", "0"], ["--runs", "-2"], ["--timeout", "-1"], ["--timeout", "nan"]]
    )
    def test_degenerate_arguments_are_validation_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "bench.csv"
        code = cli_dispatch(["bench", "--n", "3", "--runs", "2", "--output", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = cli_dispatch(["bench", "--n", "3", "--runs", "1", "--seed", "-5", "--output", str(out)])
        assert_validation_error(code, capsys, out, "seed")


class TestSweepCompare:
    def test_sweep_on_bundled_case_study(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(
            ["sweep", "--budget-max", "2", "--algorithm", "tdbs", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "extra_budget,rangers_added,villagers_added,defender_utility"
        assert len(lines) == 4
        capsys.readouterr()

    def test_sweep_effectiveness_override(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(
            ["sweep", "--budget-max", "2", "--ep", "0.5", "--ev", "0.2", "--output", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        scenario = case_study_scenario()
        expected = sweep_csv(budget_sweep(with_effectiveness(scenario, 0.5, 0.2), max_extra=2))
        assert out.read_bytes() == expected.encode()
        assert expected != sweep_csv(budget_sweep(scenario, max_extra=2))

    def test_compare_grid_writes_settings_and_tallies(self, tmp_path, capsys):
        out, tally = tmp_path / "grid.csv", tmp_path / "tally.csv"
        code = cli_dispatch(["compare", "--grid", "--output", str(out), "--tally-output", str(tally)])
        assert code == 0
        assert "wrote 45 settings" in capsys.readouterr().out
        grid = effectiveness_grid(case_study_scenario())
        assert out.read_bytes() == grid_csv(grid).encode()
        assert tally.read_bytes() == tally_csv(grid).encode()
        assert len(out.read_text().splitlines()) == 1 + 45
        assert len(tally.read_text().splitlines()) == 1 + 21

    def test_compare_single_setting(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert cli_dispatch(["compare", "--algorithm", "tdbs", "--output", str(out)]) == 0
        assert out.read_text().startswith("target,coverage_delta")
        capsys.readouterr()

    def test_tally_output_without_grid_is_usage_error(self, tmp_path, capsys):
        out, tally = tmp_path / "compare.csv", tmp_path / "tally.csv"
        code = cli_dispatch(["compare", "--output", str(out), "--tally-output", str(tally)])
        assert code == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists() and not tally.exists()

    def test_tally_output_over_the_grid_output_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # the tally once overwrote the grid CSV, and the command still reported the grid
        monkeypatch.chdir(tmp_path)
        for tally in ("g.csv", "./g.csv", str(tmp_path / "g.csv")):
            code = cli_dispatch(["compare", "--grid", "--output", "g.csv", "--tally-output", tally])
            assert code == 2, tally
            assert "same file" in capsys.readouterr().err
            assert not (tmp_path / "g.csv").exists()

    def test_compare_cells_read_back_exactly(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert cli_dispatch(["compare", "--algorithm", "hw", "--output", str(out)]) == 0
        capsys.readouterr()
        delta = compare_with_baseline(case_study_scenario(), solver="hw").coverage_delta
        lines = out.read_text().split("\n")
        assert lines[0] == "target,coverage_delta"
        assert lines[-1] == "" and len(lines) == delta.size + 2
        for i, line in enumerate(lines[1:-1]):
            target, value = line.split(",")
            assert int(target) == i and float(value) == delta[i]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--cost-ranger", "nan"),
            ("--cost-ranger", "inf"),
            ("--cost-villager", "nan"),
            ("--cost-villager", "inf"),
        ],
    )
    def test_non_finite_cost_is_validation_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(["sweep", "--budget-max", "2", flag, value, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "cost" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_with_tiny_ranger_cost_finishes(self, tmp_path, capsys):
        # a budget of 1 buys a million rangers; past full coverage none is solved
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(
            ["sweep", "--budget-max", "1", "--cost-ranger", "1e-6", "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 3
        capsys.readouterr()

    def test_sweep_with_tiny_villager_cost_finishes(self, tmp_path, capsys):
        # a budget of 1 buys infinitely many villagers; the sweep stops at the
        # count that fills every target
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(
            ["sweep", "--budget-max", "1", "--cost-villager", "5e-324", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text().split("\n")[2].startswith("1,0,55,")
        capsys.readouterr()

    def test_negative_budget_max_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(["sweep", "--budget-max", "-3", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [1e30, 2**70])
    def test_oversized_baseline_count_is_validation_error(self, tmp_path, capsys, count):
        doc = scenario_to_dict(case_study_scenario())
        doc["baseline"]["v"][0] = count
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "compare.csv"
        code = cli_dispatch(["compare", "--input", str(path), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "villager budget exceeded" in err
        assert "negative" not in err
        assert not out.exists()

    def test_usage_error_without_subcommand(self, capsys):
        assert cli_dispatch([]) == 2
        capsys.readouterr()
