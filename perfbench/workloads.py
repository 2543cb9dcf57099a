"""The benchmark's workloads: seeded inputs, one closed-loop round, output checks.

Each workload is driven by one client that makes the library calls a real
user makes, one after the other. Inputs come only from the workload seed,
through ``numpy.random.SeedSequence``; instance seeds are drawn from
[1e9, 2**62), so they never meet the small seeds the test suite uses.

A workload draws a pool of items (instances, or one case-study round) and
the timed loop cycles through the pool until its time is up. Solve time
follows the effectiveness pair (e_p, e_v) far more than the payoffs, so the
synthetic pools draw that pair stratified: the k instances of a pool fall
one in each of k equal-probability strata of e_p and of e_v / e_p (a Latin
hypercube over the family's own distribution), and every seed gets a pool
of about the same total cost. Payoffs and budgets are generate_instance's.

- ``hw-synthetic``: ``solve_hw`` on seeded ``generate_instance`` instances,
  the researcher's scaling cell for the exact solver. Nearly all the time
  goes to the waterfilling pour loop.
- ``tdbs-synthetic``: ``solve_tdbs`` on pairs of instances, one with scalar
  villager effectiveness and one with per-target effectiveness, sized so
  both take about as long. Nearly all the time goes to the two feasibility
  checks; waterfilling never runs.
- ``case-study``: the planner's effectiveness grid and budget sweep over the
  bundled 21-target scenario, then tdbs on terrain-adjusted copies of it:
  hundreds of small solves where per-call cost dominates.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from patrolgame import bench, feasibility, model, planner, tdbs, waterfill
from perfbench import pace

# Resolution of every benchmarked tdbs solve, and the finer one its answers
# are checked against.
EPSILON = 1e-3
FINE_EPSILON = EPSILON / 8

# Recruitment cost ratio of the case-study budget sweep (ranger : villager).
COST_RANGER, COST_VILLAGER = 3.0, 1.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` keeps the smoke test fast."""

    hw_n: int
    hw_pool: int  # distinct hw-synthetic instances per seed
    tdbs_n: int  # scalar-e_v tdbs-synthetic instances
    ts_n: int  # per-target-e_v tdbs-synthetic instances
    tdbs_pool: int  # distinct (scalar, per-target) pairs per seed
    warmup_n: int
    grid_values: Tuple[float, ...]
    max_extra: int
    terrain_settings: int  # terrain-adjusted tdbs solves per case-study round


FULL = Scale(
    hw_n=50,
    hw_pool=60,
    tdbs_n=240,
    ts_n=100,
    tdbs_pool=24,
    warmup_n=20,
    grid_values=tuple(round(0.1 * k, 1) for k in range(1, 10)),
    max_extra=30,
    terrain_settings=10,
)
TINY = Scale(
    hw_n=8,
    hw_pool=2,
    tdbs_n=12,
    ts_n=8,
    tdbs_pool=2,
    warmup_n=4,
    grid_values=(0.3, 0.6, 0.9),
    max_extra=3,
    terrain_settings=2,
)


@dataclass
class Solve:
    """One solver call: its input, its output (None if it raised) and wall time.

    ``key`` names the input: (pool item, position in the round), equal for
    every repeat of the same input.
    """

    kind: str  # "hw" or "tdbs"
    instance: object
    result: Optional[model.SolveResult]
    seconds: float
    error: str = ""
    key: Tuple[int, int] = (-1, -1)
    paced: float = 0.0  # seconds over the host pace of its round (see pace.py)


@dataclass
class SolveLog:
    """What the client saw: every solve, planner outputs, and errors between solves.

    With ``pace_share`` set, each solve is followed by reference-kernel runs
    totalling that share of its time (at least one), kept in ``kernel``, so
    the host pace is sampled all through the rounds (see pace.py).
    """

    solves: List[Solve] = field(default_factory=list)
    outputs: List[Tuple[str, object]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    pace_share: float = 0.0
    kernel: List[float] = field(default_factory=list)

    def call(self, kind: str, fn: Callable, instance, *args):
        start = time.perf_counter()
        try:
            result = fn(instance, *args)
        except Exception:
            self.solves.append(
                Solve(kind, instance, None, time.perf_counter() - start, traceback.format_exc())
            )
            raise
        self.solves.append(Solve(kind, instance, result, time.perf_counter() - start))
        if self.pace_share:
            self.kernel += pace.sample(self.pace_share * self.solves[-1].seconds, least=1)
        return result


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed & (2**64 - 1)]))


def _instance_seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(s) for s in rng.integers(10**9, 2**62, size=count)]


def _effectiveness(rng: np.random.Generator, count: int) -> List[Tuple[float, float]]:
    """``count`` (e_p, e_v) pairs, Latin-hypercube stratified.

    generate_instance draws e_p and e_v as the larger and the smaller of two
    uniforms: e_p has CDF x**2 and e_v / e_p is uniform on (0, 1). Each pair
    takes its own stratum of both, jittered away from the stratum edges.
    """
    def strata():
        return (rng.permutation(count) + rng.uniform(0.05, 0.95, count)) / count

    e_p = np.sqrt(strata())
    return [(float(p), float(p * r)) for p, r in zip(e_p, strata())]


def _generate(n: int, seed: int, effectiveness=None) -> model.Instance:
    inst = bench.generate_instance(bench.GenParams(n=n, r_p=n / 2, r_v=n // 2, seed=seed))
    if effectiveness is None:
        return inst
    e_p, e_v = effectiveness
    return dataclasses.replace(inst, e_p=e_p, e_v=e_v)


def _target_specific(n: int, seed: int, rng: np.random.Generator, effectiveness=None):
    base = _generate(n, seed, effectiveness)
    e_v = base.e_p * rng.uniform(0.1, 1.0, n)  # inside (0, e_p)
    return feasibility.TargetSpecificInstance(base, e_v)


def _tdbs(instance, epsilon: float = EPSILON) -> model.SolveResult:
    return tdbs.solve_tdbs(instance, tdbs.TdbsConfig(epsilon=epsilon))


# ---------------------------------------------------------------------------
# Output checks, run after the timed region


def _slack(instance) -> float:
    return 1e-9 * tdbs.value_bound(instance)


def same_result(x: model.SolveResult, y: model.SolveResult) -> bool:
    return (
        x.attacked == y.attacked
        and x.defender_utility == y.defender_utility
        and x.attacker_utility == y.attacker_utility
        and np.array_equal(x.profile.p, y.profile.p)
        and np.array_equal(x.profile.v, y.profile.v)
        and x.diagnostics == y.diagnostics
    )


def _check_solve(s: Solve) -> List[str]:
    """The result is a valid profile whose attacked target is the best response."""
    if s.result is None:
        return ["%s solve raised:\n%s" % (s.kind, s.error)]
    inst, result = s.instance, s.result
    violations = model.validate_profile(inst, result.profile)
    if violations:
        return ["%s profile invalid: %s" % (s.kind, "; ".join(violations))]
    again = model.evaluate_profile(inst, result.profile)
    if again.attacked != result.attacked:
        return ["%s reports target %d attacked, best response is %d"
                % (s.kind, result.attacked, again.attacked)]
    if abs(again.defender_utility - result.defender_utility) > _slack(inst):
        return ["%s reports utility %r, the profile evaluates to %r"
                % (s.kind, result.defender_utility, again.defender_utility)]
    return []


def _check_hw_against_tdbs(s: Solve) -> List[str]:
    """0 <= u_hw - u_tdbs <= utility_gap_bound on the same instance."""
    ref = _tdbs(s.instance)
    gap = s.result.defender_utility - ref.defender_utility
    bound = tdbs.utility_gap_bound(s.instance, EPSILON)
    slack = _slack(s.instance)
    if not -slack <= gap <= bound + slack:
        return ["hw - tdbs utility gap %r outside [0, %r]" % (gap, bound)]
    return []


def _check_tdbs_against_finer(s: Solve) -> List[str]:
    """A finer tdbs solve agrees within the sum of both gap bounds."""
    ref = _tdbs(s.instance, FINE_EPSILON)
    gap = abs(s.result.defender_utility - ref.defender_utility)
    bound = tdbs.utility_gap_bound(s.instance, EPSILON) + tdbs.utility_gap_bound(
        s.instance, FINE_EPSILON
    )
    if gap > bound + _slack(s.instance):
        return ["tdbs at eps=%r and eps=%r differ by %r > %r"
                % (EPSILON, FINE_EPSILON, gap, bound)]
    return []


def _check_solves(log: SolveLog) -> Tuple[int, List[str]]:
    """(failed solves, failure messages) over every solve in the log.

    The first solve of each input is checked against a reference solve;
    every repeat must return exactly what the first did.
    """
    failed, messages = 0, []
    first: Dict[Tuple[int, int], model.SolveResult] = {}
    for s in log.solves:
        problems = _check_solve(s)
        if not problems and s.key in first:
            if not same_result(first[s.key], s.result):
                problems = ["%s solve of input %r differs from its first solve" % (s.kind, s.key)]
        elif not problems:
            first[s.key] = s.result
            if s.kind == "hw":
                problems = _check_hw_against_tdbs(s)
            else:
                problems = _check_tdbs_against_finer(s)
        if problems:
            failed += 1
            messages.extend(problems)
    return failed, messages


def same_outputs(a: SolveLog, b: SolveLog) -> List[str]:
    """Differences between two logs of the same rounds (traced against untraced)."""
    if len(a.solves) != len(b.solves):
        return ["%d solves against %d" % (len(a.solves), len(b.solves))]
    diffs = []
    for k, (x, y) in enumerate(zip(a.solves, b.solves)):
        if (x.result is None) != (y.result is None):
            diffs.append("solve %d raised on one side only" % k)
        elif x.result is not None and not same_result(x.result, y.result):
            diffs.append("solve %d differs" % k)
    return diffs


# ---------------------------------------------------------------------------
# Workloads. Each has make_inputs (whose "items" the loop cycles through),
# warm_up, run_item and check.


class HwSynthetic:
    name = "hw-synthetic"
    tag = 1  # keeps the input streams of the workloads apart

    def make_inputs(self, seed: int, scale: Scale):
        rng = _rng(self.tag, seed)
        seeds = _instance_seeds(rng, scale.hw_pool + 1)
        effectiveness = _effectiveness(rng, scale.hw_pool)
        return {
            "warmup": _generate(scale.warmup_n, seeds[0]),
            "items": [_generate(scale.hw_n, s, e) for s, e in zip(seeds[1:], effectiveness)],
        }

    def warm_up(self, inputs) -> None:
        waterfill.solve_hw(inputs["warmup"])

    def run_item(self, inputs, instance, log: SolveLog) -> None:
        log.call("hw", waterfill.solve_hw, instance)

    def check(self, inputs, log: SolveLog) -> Tuple[int, List[str]]:
        return _check_solves(log)


class TdbsSynthetic:
    name = "tdbs-synthetic"
    tag = 2

    def make_inputs(self, seed: int, scale: Scale):
        rng = _rng(self.tag, seed)
        seeds = _instance_seeds(rng, 2 * scale.tdbs_pool + 2)
        scalar = _effectiveness(rng, scale.tdbs_pool)
        per_target = _effectiveness(rng, scale.tdbs_pool)
        pairs = [
            (_generate(scale.tdbs_n, seeds[2 * k + 2], scalar[k]),
             _target_specific(scale.ts_n, seeds[2 * k + 3], rng, per_target[k]))
            for k in range(scale.tdbs_pool)
        ]
        warmup = (_generate(scale.warmup_n, seeds[0]),
                  _target_specific(scale.warmup_n, seeds[1], rng))
        return {"warmup": warmup, "items": pairs}

    def warm_up(self, inputs) -> None:
        for instance in inputs["warmup"]:
            _tdbs(instance)

    def run_item(self, inputs, pair, log: SolveLog) -> None:
        for instance in pair:
            log.call("tdbs", tdbs.solve_tdbs, instance, tdbs.TdbsConfig(epsilon=EPSILON))

    def check(self, inputs, log: SolveLog) -> Tuple[int, List[str]]:
        return _check_solves(log)


class CaseStudy:
    """The bundled scenario as shipped: its grid and budget sweep, plus seeded terrain solves."""

    name = "case-study"
    tag = 3

    def make_inputs(self, seed: int, scale: Scale):
        rng = _rng(self.tag, seed)
        values = scale.grid_values
        pairs = [(p, v) for p in values for v in values if p >= v]
        terrain = [pairs[int(k)] for k in rng.integers(len(pairs), size=scale.terrain_settings)]
        return {
            "scenario": planner.case_study_scenario(),
            "values": values,
            "grid_size": len(pairs),
            "max_extra": scale.max_extra,
            "items": [terrain],
        }

    def warm_up(self, inputs) -> None:
        scenario = inputs["scenario"]
        waterfill.solve_hw(scenario.instance)
        _tdbs(planner.terrain_adjust(scenario, *inputs["items"][0][0]))

    def run_item(self, inputs, terrain, log: SolveLog) -> None:
        scenario = inputs["scenario"]
        # The grid and the sweep call the solver by this module name; routing it
        # through the log records each solve's input, output and time.
        solve_hw = planner.solve_hw
        planner.solve_hw = lambda instance: log.call("hw", solve_hw, instance)
        try:
            grid = planner.effectiveness_grid(scenario, solver="hw", values=inputs["values"])
            log.outputs.append(("grid", grid))
            rows = planner.budget_sweep(
                scenario,
                max_extra=inputs["max_extra"],
                solver="hw",
                cost_ranger=COST_RANGER,
                cost_villager=COST_VILLAGER,
            )
            log.outputs.append(("sweep", rows))
        finally:
            planner.solve_hw = solve_hw
        for e_p, e_v in terrain:
            instance = planner.terrain_adjust(scenario, e_p, e_v)
            log.call("tdbs", tdbs.solve_tdbs, instance, tdbs.TdbsConfig(epsilon=EPSILON))

    def check(self, inputs, log: SolveLog) -> Tuple[int, List[str]]:
        """Per-solve checks plus acceptance criterion 7 on every grid and sweep."""
        failed, messages = _check_solves(log)
        for kind, output in log.outputs:
            problems = []
            if kind == "grid":
                if len(output.settings) != inputs["grid_size"]:
                    problems.append("grid has %d settings, expected %d"
                                    % (len(output.settings), inputs["grid_size"]))
                problems += ["baseline beats the optimum at e_p=%r e_v=%r" % (s.e_p, s.e_v)
                             for s in output.settings if s.comparison.improvement < -1e-12]
            else:
                utilities = [row.defender_utility for row in output]
                if len(output) != inputs["max_extra"] + 1:
                    problems.append("budget sweep has %d rows" % len(output))
                if any(b < a - 1e-9 for a, b in zip(utilities, utilities[1:])):
                    problems.append("budget sweep is not monotone")
            if problems:
                failed += 1
                messages.extend(problems)
        return failed, messages


WORKLOADS: Dict[str, object] = {w.name: w for w in (HwSynthetic(), TdbsSynthetic(), CaseStudy())}
