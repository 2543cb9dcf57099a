import numpy as np
import pytest

from patrolgame.bench import GenParams, generate_instance, run_benchmark
from patrolgame.model import GameDefinitionError


class TestGenerateInstance:
    def test_same_seed_same_instance(self):
        a = generate_instance(GenParams(n=6, r_p=3.0, r_v=3, seed=99))
        b = generate_instance(GenParams(n=6, r_p=3.0, r_v=3, seed=99))
        assert np.array_equal(a.reward_att, b.reward_att)
        assert np.array_equal(a.penalty_def, b.penalty_def)
        assert a.e_p == b.e_p and a.e_v == b.e_v

    def test_vector_lengths(self):
        inst = generate_instance(GenParams(n=5, r_p=2.0, r_v=2, seed=1))
        assert inst.n == 5
        assert len(inst.reward_def) == 5

    def test_draws_within_ranges(self):
        # 1000 sampled instances stay inside the documented ranges with
        # strictly ordered effectiveness
        for seed in range(1000):
            inst = generate_instance(GenParams(n=3, r_p=1.0, r_v=1, seed=seed))
            assert np.all(inst.reward_def >= 0) and np.all(inst.reward_def < 10)
            assert np.all(inst.reward_att >= 0) and np.all(inst.reward_att < 10)
            assert np.all(inst.penalty_def >= -10) and np.all(inst.penalty_def < 0)
            assert np.all(inst.penalty_att >= -10) and np.all(inst.penalty_att < 0)
            assert 0.0 < inst.e_v < inst.e_p < 1.0

    def test_invalid_params(self):
        with pytest.raises(GameDefinitionError):
            GenParams(n=0, r_p=1.0, r_v=1, seed=0)
        with pytest.raises(GameDefinitionError):
            GenParams(n=2, r_p=-1.0, r_v=1, seed=0)

    @pytest.mark.parametrize(
        "n, r_v", [(4, 2.7), (4, 2.0), (2.5, 1), (4.0, 1), (True, 1), (4, False)]
    )
    def test_sizes_must_be_integers(self, n, r_v):
        # a float r_v used to build int(r_v) villagers while reports named r_v
        with pytest.raises(GameDefinitionError):
            GenParams(n=n, r_p=1.0, r_v=r_v, seed=1)

    def test_numpy_integer_sizes_accepted(self):
        inst = generate_instance(GenParams(n=np.int64(4), r_p=1.0, r_v=np.int32(2), seed=1))
        assert inst.n == 4 and inst.villager_budget == 2

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, True, False, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy's generator rejects a negative seed with a plain ValueError
        with pytest.raises(GameDefinitionError, match="seed"):
            GenParams(n=4, r_p=1.0, r_v=2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        ours = generate_instance(GenParams(n=4, r_p=1.0, r_v=2, seed=np.uint64(7)))
        theirs = generate_instance(GenParams(n=4, r_p=1.0, r_v=2, seed=7))
        assert np.array_equal(ours.reward_att, theirs.reward_att)


class TestRunBenchmark:
    def test_row_count(self):
        grid = [GenParams(n=n, r_p=1.0, r_v=1, seed=5) for n in (2, 3, 4)]
        report = run_benchmark(grid, ["tdbs", "hw"], runs=2, timeout=100.0)
        assert len(report.rows) == 6

    def test_default_runs_is_thirty(self):
        import inspect

        assert inspect.signature(run_benchmark).parameters["runs"].default == 30
        assert inspect.signature(run_benchmark).parameters["timeout"].default == 7200.0

    def test_timeout_rows_recorded_at_cap(self):
        grid = [GenParams(n=3, r_p=1.0, r_v=1, seed=5)]
        report = run_benchmark(grid, ["tdbs"], runs=3, timeout=0.0)
        row = report.rows[0]
        assert row.timeouts == 3
        assert row.mean_s == 0.0 and row.min_s == 0.0

    @pytest.mark.parametrize(
        "runs, timeout", [(0, 100.0), (-2, 100.0), (2, -1.0), (2, float("nan"))]
    )
    def test_degenerate_arguments_rejected(self, runs, timeout):
        with pytest.raises(GameDefinitionError):
            run_benchmark([GenParams(n=2, r_p=1.0, r_v=1, seed=0)], ["tdbs"], runs=runs, timeout=timeout)

    @pytest.mark.parametrize("runs", [2.5, 2.0, True, "2"])
    def test_runs_must_be_an_integer(self, runs):
        # range() used to raise a TypeError, and True ran once
        with pytest.raises(GameDefinitionError, match="integer"):
            run_benchmark([GenParams(n=2, r_p=1.0, r_v=1, seed=0)], ["tdbs"], runs=runs)

    def test_unknown_algorithm(self):
        with pytest.raises(GameDefinitionError):
            run_benchmark([GenParams(n=2, r_p=1.0, r_v=1, seed=0)], ["simplex"], runs=1)

    def test_csv_shape(self, tmp_path):
        grid = [GenParams(n=2, r_p=1.0, r_v=1, seed=5)]
        report = run_benchmark(grid, ["oracle"], runs=2, timeout=100.0)
        path = tmp_path / "bench.csv"
        report.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "algorithm,n,rp,rv,runs,mean_s,std_s,min_s,p97_s,timeouts"
        assert len(lines) == 2
        assert lines[1].startswith("oracle,2,")

    def test_csv_cells_read_back_exactly(self):
        grid = [GenParams(n=n, r_p=1.5, r_v=1, seed=5) for n in (2, 3)]
        report = run_benchmark(grid, ["tdbs", "hw"], runs=3, timeout=100.0)
        lines = report.to_csv().split("\n")
        assert lines[-1] == "" and len(lines) == len(report.rows) + 2
        for line, row in zip(lines[1:], report.rows):
            cells = line.split(",")
            assert cells[0] == row.algorithm
            assert [int(cells[k]) for k in (1, 3, 4, 9)] == [row.n, row.r_v, row.runs, row.timeouts]
            assert [float(c) for c in cells[5:9]] == [row.mean_s, row.std_s, row.min_s, row.p97_s]
            assert float(cells[2]) == row.r_p


class TestScalingShape:
    def test_polynomial_growth_and_stability(self):
        # desk-scale sanity of the runtime curves: doubling n must not blow
        # up either solver, and tdbs must be insensitive to the budgets
        small = [GenParams(n=100, r_p=50.0, r_v=50, seed=31)]
        large = [GenParams(n=200, r_p=100.0, r_v=100, seed=31)]
        r_small = run_benchmark(small, ["tdbs", "hw"], runs=2, timeout=600.0)
        r_large = run_benchmark(large, ["tdbs", "hw"], runs=2, timeout=600.0)
        by_alg = lambda rep: {r.algorithm: r.mean_s for r in rep.rows}
        t_small, t_large = by_alg(r_small), by_alg(r_large)
        assert t_large["hw"] <= 40 * t_small["hw"]
        assert t_large["tdbs"] <= 8 * t_small["tdbs"]

    def test_tdbs_budget_stability(self):
        cells = [GenParams(n=100, r_p=float(r), r_v=r, seed=37) for r in (10, 20, 30, 40, 50)]
        report = run_benchmark(cells, ["tdbs"], runs=2, timeout=600.0)
        means = [row.mean_s for row in report.rows]
        assert max(means) < 5 * np.median(means)
