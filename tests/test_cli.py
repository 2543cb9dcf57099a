import json

import pytest

from patrolgame.cli import build_parser, cli_dispatch
from patrolgame.model import evaluate_profile, validate_profile
from patrolgame.planner import (
    ScenarioInstance,
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

    def test_usage_error_without_subcommand(self, capsys):
        assert cli_dispatch([]) == 2
        capsys.readouterr()
