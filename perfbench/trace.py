"""Per-layer spans recorded from outside the library.

The tracer wraps the library's layer functions by replacing module
attributes, and only while it is installed. Every module of the package
that holds a reference to a wrapped function (``from .feasibility import
check_consistent`` in ``waterfill``, say) gets the wrapper too, so a call
cannot slip past through an imported name. Spans stay in memory as typed
arrays and are written out once, at the end of the run.

After every top-level solve the tracer reconciles its span counts with the
solver's own ``diagnostics`` counters; a mismatch means some layer's calls
were not seen, and makes the run fail.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

# (span name, module, attribute). The layer is the part of the name before
# the first dot; the private helpers are looked up by name, and a helper a
# refactor renamed or removed is reported as absent.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("feasibility.check_consistent", "patrolgame.feasibility", "check_consistent"),
    ("feasibility.check_consistent_ts", "patrolgame.feasibility", "check_consistent_ts"),
    ("feasibility.max_feasible_villagers", "patrolgame.feasibility", "max_feasible_villagers"),
    ("tdbs.solve_tdbs", "patrolgame.tdbs", "solve_tdbs"),
    ("waterfill.solve_hw", "patrolgame.waterfill", "solve_hw"),
    ("waterfill.pour_loop", "patrolgame.waterfill", "_run_subproblem"),
    ("waterfill.get_swap_line", "patrolgame.waterfill", "get_swap_line"),
    ("waterfill.refresh_levels", "patrolgame.waterfill", "_refresh_levels"),
    ("waterfill.greedy_villagers", "patrolgame.waterfill", "_greedy_villagers"),
    ("model.evaluate_profile", "patrolgame.model", "evaluate_profile"),
    ("planner.effectiveness_grid", "patrolgame.planner", "effectiveness_grid"),
    ("planner.budget_sweep", "patrolgame.planner", "budget_sweep"),
    ("planner.terrain_adjust", "patrolgame.planner", "terrain_adjust"),
    ("bench.generate_instance", "patrolgame.bench", "generate_instance"),
)

LAYERS = ("feasibility", "tdbs", "waterfill", "model", "planner", "bench")
SOLVERS = ("tdbs.solve_tdbs", "waterfill.solve_hw")
CHECKS = ("feasibility.check_consistent", "feasibility.check_consistent_ts")
PLANNER = ("planner.effectiveness_grid", "planner.budget_sweep", "planner.terrain_adjust")


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Span recorder; ``install()`` patches the layers, ``uninstall()`` restores them."""

    def __init__(self, spans=SPANS):
        self.spec = spans
        self.names: List[str] = [name for name, _, _ in spans]
        self.absent: List[str] = []
        self.stats: Dict[str, _Stat] = {name: _Stat() for name in self.names}
        # Span records, one entry per call, in call order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_solve = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.checks_in_pour_loop = 0  # checks _run_subproblem makes itself
        self.feasible_answers = 0
        self.state_counts: Counter = Counter()  # summed WaterfillState counters
        self.diag_sums: Dict[str, Counter] = defaultdict(Counter)
        self.solves_in_planner = 0
        self.reconciled = 0
        self.mismatches: List[str] = []
        self.skipped: set = set()
        self._stack: List[int] = []
        self._child: List[float] = []
        self._solve = -1
        self._solves = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "patrolgame" or key.startswith("patrolgame."))
        ]
        self.absent = []
        for index, (name, module_name, attr) in enumerate(self.spec):
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def _wrap(self, index: int, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(index, name, fn, args, kwargs)

        return traced

    # -- recording ------------------------------------------------------

    def _call(self, index, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        parent_name = self.names[self.span_name[parent]] if parent >= 0 else ""
        top_solve = name in SOLVERS and self._solve < 0
        if top_solve:
            self._solve = self._solves
            self._solves += 1
            before = self._counts()
            if parent_name in PLANNER:
                self.solves_in_planner += 1
        span = len(self.span_name)
        self.span_name.append(index)
        self.span_parent.append(parent)
        self.span_solve.append(self._solve)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append(span)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            child = self._child.pop()
            elapsed = end - start
            if self._child:
                self._child[-1] += elapsed
            stat = self.stats[name]
            stat.calls += 1
            stat.total += elapsed
            stat.self += elapsed - child
            self.span_start[span] = start
            self.span_end[span] = end
            if name in CHECKS and parent_name == "waterfill.pour_loop":
                self.checks_in_pour_loop += 1
            if top_solve:
                self._solve = -1
        if name in CHECKS and getattr(result, "feasible", False):
            self.feasible_answers += 1
        elif name == "waterfill.pour_loop" and isinstance(result, tuple) and len(result) == 2:
            state = result[1]
            self.state_counts["iterations"] += getattr(state, "iterations", 0)
            self.state_counts["swaps"] += getattr(state, "swaps", 0)
        if top_solve:
            self._reconcile(name, getattr(result, "diagnostics", {}), before)
        return result

    def _counts(self) -> Counter:
        counts = Counter({name: stat.calls for name, stat in self.stats.items()})
        counts["checks_in_pour_loop"] = self.checks_in_pour_loop
        counts.update({"state." + k: v for k, v in self.state_counts.items()})
        return counts

    # -- reconciliation -------------------------------------------------

    def _reconcile(self, solver: str, diagnostics: dict, before: Counter) -> None:
        after = self._counts()
        delta = {key: after[key] - before[key] for key in after}
        self.diag_sums[solver].update(
            {k: v for k, v in diagnostics.items() if isinstance(v, (int, float))}
        )
        checks = sum(delta.get(c, 0) for c in CHECKS)
        if solver == "tdbs.solve_tdbs":
            rules = [
                ("feasibility_checks", checks, CHECKS),
                ("candidates", delta.get("feasibility.max_feasible_villagers", 0),
                 ("feasibility.max_feasible_villagers",)),
            ]
        else:
            rules = [
                ("feasibility_checks", checks - delta.get("checks_in_pour_loop", 0),
                 CHECKS + ("waterfill.pour_loop",)),
                ("iterations", delta.get("waterfill.get_swap_line", 0),
                 ("waterfill.get_swap_line",)),
                ("iterations", delta.get("state.iterations", 0), ("waterfill.pour_loop",)),
                ("swaps", delta.get("state.swaps", 0), ("waterfill.pour_loop",)),
            ]
        for key, seen, needs in rules:
            missing = [n for n in needs if n in self.absent]
            if key not in diagnostics or missing:
                self.skipped.add("%s.%s" % (solver, key))
                continue
            if seen != diagnostics[key]:
                self.mismatches.append(
                    "%s solve %d: diagnostics %s=%r but the trace saw %d"
                    % (solver, self._solves - 1, key, diagnostics[key], seen)
                )
        self.reconciled += 1

    # -- reporting ------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self
        return out

    def write(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for k in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[self.span_name[k]],
                            "start": self.span_start[k],
                            "end": self.span_end[k],
                            "parent": self.span_parent[k],
                            "solve": self.span_solve[k],
                        }
                    )
                )
                fh.write("\n")
        return len(self.span_name)


def per_layer_metrics(tracer: Tracer, setup: Tracer, traced_s: float,
                      untraced_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).

    ``tracer`` saw the traced rounds, taking ``traced_s`` against
    ``untraced_s`` for the same rounds untraced; ``setup`` saw input generation.
    """
    stats = tracer.stats

    def calls(name):
        return float(stats[name].calls)

    def self_s(name):
        return stats[name].self

    def us_per_call(name):
        s = stats[name]
        return s.total / s.calls * 1e6 if s.calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    hw = calls("waterfill.solve_hw")
    td = calls("tdbs.solve_tdbs")
    subproblems = calls("waterfill.pour_loop")
    checks = calls("feasibility.check_consistent") + calls("feasibility.check_consistent_ts")
    hw_diag = tracer.diag_sums["waterfill.solve_hw"]
    td_diag = tracer.diag_sums["tdbs.solve_tdbs"]
    layer_self = tracer.layer_self()
    m: Dict[str, Tuple[float, str]] = {}
    for name in ("waterfill.get_swap_line", "feasibility.check_consistent",
                 "feasibility.check_consistent_ts"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
        m[name + ".us_per_call"] = (us_per_call(name), "us")
    for name in ("waterfill.refresh_levels", "waterfill.greedy_villagers",
                 "feasibility.max_feasible_villagers", "model.evaluate_profile"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["waterfill.pour_loop.self_s"] = (self_s("waterfill.pour_loop"), "s")
    m["waterfill.iterations_per_solve"] = (ratio(hw_diag["iterations"], hw), "count/solve")
    m["waterfill.swaps_per_solve"] = (ratio(hw_diag["swaps"], hw), "count/solve")
    m["waterfill.subproblems_per_solve"] = (ratio(subproblems, hw), "count/solve")
    m["waterfill.subproblem_yield"] = (ratio(hw, subproblems), "ratio")
    m["feasibility.feasible_frac"] = (ratio(tracer.feasible_answers, checks), "ratio")
    m["tdbs.solve_tdbs.self_s"] = (self_s("tdbs.solve_tdbs"), "s")
    m["tdbs.checks_per_solve"] = (ratio(td_diag["feasibility_checks"], td), "count/solve")
    m["tdbs.candidates_per_solve"] = (ratio(td_diag["candidates"], td), "count/solve")
    m["planner.effectiveness_grid.s"] = (stats["planner.effectiveness_grid"].total, "s")
    m["planner.budget_sweep.s"] = (stats["planner.budget_sweep"].total, "s")
    m["planner.solves"] = (float(tracer.solves_in_planner), "count")
    m["bench.generate_instance.s"] = (setup.stats["bench.generate_instance"].total, "s")
    for layer in LAYERS[:-1]:
        m["layer.%s.self_frac" % layer] = (ratio(layer_self[layer], traced_s), "ratio")
    m["trace.solves"] = (hw + td, "count")
    m["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")
    return m
