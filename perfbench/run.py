"""Closed-loop benchmark of the patrolgame solvers, one client in one process.

    python3 perfbench/run.py --workload hw-synthetic --seed 310000 --seconds 25 --trace 0

Run from the repository root. The library is imported from ``src/`` beside
this directory and from nowhere else. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The line before it is a JSON ``info`` object with the
environment, sample counts and, when traced, the layers ranked by self time.
End-to-end timings are divided by the host pace measured beside them
(see pace.py); ``info.measured`` has them undivided.
"""

import os

# One thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("hw-synthetic", "tdbs-synthetic", "case-study")

# Seeds used when --seed is omitted; README.md names the held-out seed.
DEFAULT_SEEDS = {"hw-synthetic": 310_000, "tdbs-synthetic": 320_000, "case-study": 330_000}

# Set-up is measured in fresh processes, some before the timed region and
# some after the checks; the median is reported.
SETUP_PROBES = (4, 3)

# Reference-kernel time after each solve, as a share of the solve's time
# (see pace.py).
PACE_SHARE = 0.1


def _import_library() -> None:
    """Import patrolgame from ROOT/src, or exit 2 when it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import patrolgame
    except ImportError as err:
        print("perfbench: cannot import patrolgame from %s: %s" % (src, err), file=sys.stderr)
        sys.exit(2)
    if Path(patrolgame.__file__).resolve().parent.parent != src:
        print("perfbench: patrolgame was imported from %s" % patrolgame.__file__, file=sys.stderr)
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this fresh process, print the seconds, exit")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _set_up(workload, seed, scale):
    """Input generation (or scenario load) and one warm-up solve per solver used."""
    inputs = workload.make_inputs(seed, scale)
    workload.warm_up(inputs)
    return inputs


def _setup_seconds(workload: str, seed: int, probes: int) -> list:
    """(seconds, pace) of import, input generation and warm-up in ``probes`` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, pace_now = done.stdout.split()[-2:]
        samples.append((float(seconds), float(pace_now)))
    return samples


def _run_round(workload, inputs, r, log) -> None:
    """Round ``r`` runs pool item r mod pool size; an exception is logged, not raised."""
    items = inputs["items"]
    item = r % len(items)
    before = len(log.solves)
    try:
        workload.run_item(inputs, items[item], log)
    except Exception:
        if not (len(log.solves) > before and log.solves[-1].result is None):
            log.errors.append(traceback.format_exc())  # raised outside any solve
    for position, solve in enumerate(log.solves[before:]):
        solve.key = (item, position)


def _outcome(workload, inputs, log):
    """(attempted, failed, messages) for one log; outside any timed region."""
    failed, messages = workload.check(inputs, log)
    return (len(log.solves) + len(log.errors), failed + len(log.errors),
            messages + log.errors)


def _environment(args, scale):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale": dataclasses.asdict(scale),
    }


def run(args, scale=None):
    """One benchmark run; returns (result, info), the two lines ``main`` prints."""
    from perfbench import pace, workloads

    scale = scale or workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    info = _environment(args, scale)
    if args.trace:
        return _run_traced(args, scale, workload, info)

    setup = _setup_seconds(args.workload, args.seed, SETUP_PROBES[0])
    inputs = _set_up(workload, args.seed, scale)
    log = workloads.SolveLog(pace_share=PACE_SHARE)
    rounds = 0
    busy = paced_busy = 0.0  # seconds spent in rounds, kernel excluded: as measured, over the pace
    paces = []
    start = time.perf_counter()
    while True:
        solves, chunks = len(log.solves), len(log.kernel)
        t0 = time.perf_counter()
        _run_round(workload, inputs, rounds, log)
        round_s = time.perf_counter() - t0
        kernel = log.kernel[chunks:]
        paces.append(pace.pace(kernel or pace.sample(0.0)))  # empty only if the round raised
        for solve in log.solves[solves:]:
            solve.paced = solve.seconds / paces[-1]
        busy += round_s - sum(kernel)
        paced_busy += (round_s - sum(kernel)) / paces[-1]
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, messages = _outcome(workload, inputs, log)
    setup += _setup_seconds(args.workload, args.seed, SETUP_PROBES[1])
    times = [s.seconds for s in log.solves]
    paced = [s.paced for s in log.solves]
    metrics = {
        "setup_s": (statistics.median(seconds / p for seconds, p in setup), "s"),
        "solves_per_s": (len(paced) / paced_busy, "1/s"),
        "solve_s.p50": (statistics.median(paced) if paced else paced_busy, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info.update(rounds=rounds, solves=len(times), inputs=len({s.key for s in log.solves}),
                busy_s=busy, pace=statistics.median(paces), setup_samples=setup,
                failed_frac=failed / attempted if attempted else 0.0,
                measured={"setup_s": statistics.median(seconds for seconds, _ in setup),
                          "solves_per_s": len(times) / busy,
                          "solve_s.p50": statistics.median(times) if times else busy})
    # A p90 needs ten samples beyond it, so only runs with 100+ solves give one.
    if len(paced) >= 100:
        info["solve_s.p90"] = statistics.quantiles(paced, n=10)[-1]
    return _result(attempted, failed, messages, metrics), info


def _run_traced(args, scale, workload, info):
    """Run each round untraced, then traced; per-layer metrics from the traced half."""
    from perfbench import trace, workloads

    setup_tracer = trace.Tracer()
    setup_tracer.install()
    try:
        inputs = workload.make_inputs(args.seed, scale)
    finally:
        setup_tracer.uninstall()
    workload.warm_up(inputs)

    tracer = trace.Tracer()
    plain, traced = workloads.SolveLog(), workloads.SolveLog()
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _run_round(workload, inputs, rounds, plain)
        t1 = time.perf_counter()
        tracer.install()
        try:
            _run_round(workload, inputs, rounds, traced)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        rounds += 1
        if t2 - start >= args.seconds:
            break

    attempted, failed, messages = _outcome(workload, inputs, plain)
    messages += ["traced run: " + d for d in workloads.same_outputs(plain, traced)]
    messages += ["trace missed calls: " + m for m in tracer.mismatches]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-%d.jsonl.gz" % (args.workload, args.seed))
    span_count = tracer.write(spans_path)

    metrics = trace.per_layer_metrics(tracer, setup_tracer, traced_s, plain_s)
    shares = {layer: metrics["layer.%s.self_frac" % layer][0] for layer in trace.LAYERS[:-1]}
    info.update(
        rounds=rounds,
        solves=len(traced.solves),
        traced_s=traced_s,
        untraced_s=plain_s,
        top_layers=sorted(shares.items(), key=lambda kv: -kv[1]),
        absent=tracer.absent,
        reconciled_solves=tracer.reconciled,
        reconcile_skipped=sorted(tracer.skipped),
        spans=span_count,
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return _result(attempted, failed, messages, metrics), info


def _result(attempted, failed, messages, metrics):
    for message in messages:
        print("perfbench: FAILED: " + message, file=sys.stderr)
    return {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    _import_library()
    from perfbench import pace, workloads

    if args.setup_probe:
        _set_up(workloads.WORKLOADS[args.workload], args.seed, workloads.FULL)
        seconds = time.perf_counter() - start
        print(repr(seconds), repr(pace.pace(pace.sample(0.05))))
        return 0
    result, info = run(args)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
