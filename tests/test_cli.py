import json

import pytest

from patrolgame.cli import build_parser, cli_dispatch
from patrolgame.model import evaluate_profile, validate_profile
from patrolgame.planner import (
    ScenarioInstance,
    case_study_scenario,
    compare_with_baseline,
    load_instance,
    load_result,
    save_instance,
    scenario_to_dict,
)

from conftest import random_instance


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

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan", "-1"])
    def test_bad_epsilon_is_validation_error(
        self, instance_file, tmp_path, capsys, command, epsilon
    ):
        out = tmp_path / "o.out"
        args = {
            "solve": ["solve", "--algorithm", "tdbs", "--input", str(instance_file)],
            "sweep": ["sweep", "--algorithm", "tdbs", "--budget-max", "1"],
            "compare": ["compare", "--algorithm", "tdbs"],
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


class TestGen:
    def test_gen_then_solve(self, tmp_path, capsys):
        inst = tmp_path / "gen.json"
        assert cli_dispatch(["gen", "--n", "4", "--rp", "2", "--rv", "2", "--seed", "5", "--output", str(inst)]) == 0
        loaded = load_instance(inst)
        assert loaded.instance.n == 4
        out = tmp_path / "sol.json"
        assert cli_dispatch(["solve", "--algorithm", "oracle", "--input", str(inst), "--output", str(out)]) == 0
        capsys.readouterr()


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

    def test_compare_single_setting(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert cli_dispatch(["compare", "--algorithm", "tdbs", "--output", str(out)]) == 0
        assert out.read_text().startswith("target,coverage_delta")
        capsys.readouterr()

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
