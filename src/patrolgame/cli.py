"""Command-line batch planner.

Subcommands: ``solve`` an instance file, ``gen`` a synthetic instance,
``bench`` solver runtimes, ``sweep`` extra recruitment budget, ``compare``
against a bundled or supplied baseline. Exit codes: 0 success, 1 validation
or file error, 2 usage error. Numeric output always lands in files (JSON or
CSV); stdout carries a short human summary.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .bench import DEFAULT_RUNS, DEFAULT_TIMEOUT, GenParams, generate_instance, run_benchmark
from .model import GameDefinitionError, ProfileValidationError
from .oracle import EnumerationLimitError
from .planner import (
    SOLVER_NAMES,
    InstanceFormatError,
    ScenarioInstance,
    budget_sweep,
    case_study_scenario,
    compare_with_baseline,
    csv_text,
    effectiveness_grid,
    get_solver,
    grid_csv,
    load_instance,
    save_instance,
    save_result,
    sweep_csv,
    tally_csv,
    with_effectiveness,
)
from .tdbs import DEFAULT_EPSILON

_USAGE_ERROR = 2
_VALIDATION_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolgame",
        description="Plan mixed ranger/villager patrols against a best-responding poacher.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--algorithm", choices=SOLVER_NAMES, default="hw")
    solve.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    solve.add_argument("--input", required=True)
    solve.add_argument("--output", required=True)

    gen = sub.add_parser("gen", help="generate a seeded synthetic instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--rp", type=float, required=True)
    gen.add_argument("--rv", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    bench = sub.add_parser("bench", help="time solvers on seeded instances")
    bench.add_argument("--n", type=int, nargs="+", required=True)
    bench.add_argument("--rp", type=float, default=None, help="default: floor(n/2)")
    bench.add_argument("--rv", type=int, default=None, help="default: floor(n/2)")
    bench.add_argument(
        "--algorithms", nargs="+", choices=SOLVER_NAMES, default=["tdbs", "hw"]
    )
    bench.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    bench.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", required=True)

    sweep = sub.add_parser("sweep", help="allocate extra recruitment budget")
    sweep.add_argument("--input", default=None, help="default: bundled case study")
    # The oracle's enumeration is too slow to repeat across a sweep.
    sweep.add_argument("--algorithm", choices=("tdbs", "hw"), default="hw")
    sweep.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sweep.add_argument("--budget-max", type=int, default=30)
    sweep.add_argument("--cost-ranger", type=float, default=3.0)
    sweep.add_argument("--cost-villager", type=float, default=1.0)
    sweep.add_argument("--ep", type=float, default=None, help="override e_p")
    sweep.add_argument("--ev", type=float, default=None, help="override e_v")
    sweep.add_argument("--output", required=True)

    compare = sub.add_parser("compare", help="optimal strategy vs the baseline")
    compare.add_argument("--input", default=None, help="default: bundled case study")
    compare.add_argument("--algorithm", choices=SOLVER_NAMES, default="hw")
    compare.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    compare.add_argument(
        "--grid", action="store_true", help="sweep the 45 (e_p, e_v) settings"
    )
    compare.add_argument("--output", required=True)
    compare.add_argument("--tally-output", default=None, help="per-target tallies (with --grid)")
    return parser


def _load_scenario(path: Optional[str]) -> ScenarioInstance:
    if path is None:
        return case_study_scenario()
    return load_instance(path)


def _cmd_solve(args) -> int:
    scenario = _load_scenario(args.input)
    result = get_solver(args.algorithm, args.epsilon)(scenario.instance)
    save_result(args.output, result)
    print(
        "%s: attacked target %d, defender utility %.6f (written to %s)"
        % (args.algorithm, result.attacked, result.defender_utility, args.output)
    )
    return 0


def _cmd_gen(args) -> int:
    instance = generate_instance(GenParams(n=args.n, r_p=args.rp, r_v=args.rv, seed=args.seed))
    save_instance(args.output, ScenarioInstance(instance))
    print("wrote %d-target instance to %s" % (args.n, args.output))
    return 0


def _cmd_bench(args) -> int:
    grid = []
    for n in args.n:
        r_p = args.rp if args.rp is not None else float(n // 2)
        r_v = args.rv if args.rv is not None else n // 2
        grid.append(GenParams(n=n, r_p=r_p, r_v=r_v, seed=args.seed))
    report = run_benchmark(grid, args.algorithms, runs=args.runs, timeout=args.timeout)
    report.write_csv(args.output)
    print("wrote %d benchmark rows to %s" % (len(report.rows), args.output))
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.input)
    if args.ep is not None or args.ev is not None:
        inst = scenario.instance
        scenario = with_effectiveness(
            scenario,
            args.ep if args.ep is not None else inst.e_p,
            args.ev if args.ev is not None else inst.e_v,
        )
    rows = budget_sweep(
        scenario,
        max_extra=args.budget_max,
        solver=args.algorithm,
        cost_ranger=args.cost_ranger,
        cost_villager=args.cost_villager,
        epsilon=args.epsilon,
    )
    with open(args.output, "w") as fh:
        fh.write(sweep_csv(rows))
    print("wrote %d sweep rows to %s" % (len(rows), args.output))
    return 0


def _cmd_compare(args) -> int:
    if args.tally_output and not args.grid:
        print("error: --tally-output needs --grid", file=sys.stderr)
        return _USAGE_ERROR
    if args.tally_output and os.path.realpath(args.tally_output) == os.path.realpath(args.output):
        print("error: --output and --tally-output name the same file", file=sys.stderr)
        return _USAGE_ERROR
    scenario = _load_scenario(args.input)
    if args.grid:
        grid = effectiveness_grid(scenario, solver=args.algorithm, epsilon=args.epsilon)
        with open(args.output, "w") as fh:
            fh.write(grid_csv(grid))
        if args.tally_output:
            with open(args.tally_output, "w") as fh:
                fh.write(tally_csv(grid))
        print("wrote %d settings to %s" % (len(grid.settings), args.output))
        return 0
    comparison = compare_with_baseline(scenario, solver=args.algorithm, epsilon=args.epsilon)
    with open(args.output, "w") as fh:
        fh.write(csv_text("target,coverage_delta", enumerate(comparison.coverage_delta)))
    print(
        "defender utility %.6f vs baseline %.6f (improvement %.4f); wrote %s"
        % (
            comparison.optimal.defender_utility,
            comparison.baseline_utility,
            comparison.improvement,
            args.output,
        )
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def cli_dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (
        GameDefinitionError,
        ProfileValidationError,
        InstanceFormatError,
        EnumerationLimitError,
        OSError,
    ) as err:
        print("error: %s" % err, file=sys.stderr)
        return _VALIDATION_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
