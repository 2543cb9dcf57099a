"""Batch planning: the solver registry, instance files, case-study scenarios,
sweeps and comparisons.

The on-disk instance format is a single JSON document:

    {
      "n": 21,
      "ranger_budget": 4.0, "villager_budget": 8,
      "e_p": 0.6, "e_v": 0.4,            # e_v may be a per-target array
      "reward_defender": [...], "penalty_defender": [...],
      "reward_attacker": [...], "penalty_attacker": [...],
      "labels": [...],                    # optional
      "slope_class": ["high", ...],       # optional, high|average|low
      "baseline": {"p": [...], "v": [...]}  # optional current strategy
    }

"e_v" is a scalar or a per-target array; the hw solver needs a scalar.
Non-finite numbers (NaN, Infinity) are rejected. Floats are serialized by
shortest-repr (up to 17 significant digits), so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    SolveResult,
    StrategyProfile,
    _finite,
    _is_integer,
    compute_coverage,
    evaluate_profile,
)
from .oracle import solve_oracle
from .tdbs import DEFAULT_EPSILON, TdbsConfig, solve_tdbs
from .waterfill import solve_hw

SLOPE_CLASSES = ("high", "average", "low")

# Terrain adjustment: effectiveness shift per slope-variance class, with the
# result clamped away from the (0, 1] boundary.
SLOPE_SHIFT = {"high": 0.1, "average": 0.0, "low": -0.1}
EFFECTIVENESS_CLAMP = (0.01, 0.99)

SWEEP_CSV_HEADER = "extra_budget,rangers_added,villagers_added,defender_utility"


class InstanceFormatError(ValueError):
    """A scenario or result file is malformed; the message names the field."""


@dataclass(frozen=True)
class ScenarioInstance:
    """An instance plus optional case-study metadata."""

    instance: Instance
    labels: Optional[Tuple[str, ...]] = None
    slope_class: Optional[Tuple[str, ...]] = None
    baseline: Optional[StrategyProfile] = None

    def __post_init__(self):
        n = self.instance.n
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != n:
                raise GameDefinitionError("labels must have one entry per target")
        if self.slope_class is not None:
            object.__setattr__(self, "slope_class", tuple(self.slope_class))
            if len(self.slope_class) != n:
                raise GameDefinitionError("slope classes must have one entry per target")
            for cls in self.slope_class:
                if cls not in SLOPE_CLASSES:
                    raise GameDefinitionError("unknown slope class %r" % (cls,))
        if self.baseline is not None:
            if self.baseline.p.shape[0] != n or self.baseline.v.shape[0] != n:
                raise GameDefinitionError("baseline profile length mismatch")


@dataclass(frozen=True)
class BudgetSweepRow:
    extra_budget: int
    rangers_added: int
    villagers_added: int
    defender_utility: float


@dataclass(frozen=True)
class BaselineComparison:
    """Optimal-versus-current coverage deltas and the utility improvement."""

    coverage_delta: np.ndarray
    optimal: SolveResult
    baseline_utility: float
    improvement: float


@dataclass(frozen=True)
class EffectivenessSetting:
    e_p: float
    e_v: float
    comparison: BaselineComparison


@dataclass(frozen=True)
class EffectivenessGrid:
    """Per-setting comparisons plus per-target increase/decrease tallies."""

    settings: Tuple[EffectivenessSetting, ...]
    increase_count: np.ndarray
    decrease_count: np.ndarray


SOLVER_NAMES = ("tdbs", "hw", "oracle")


def get_solver(name: str, epsilon: float = DEFAULT_EPSILON) -> Callable[[Instance], SolveResult]:
    """The solver registered as ``name`` (one of SOLVER_NAMES).

    The solver functions are looked up in this module when called, not
    captured at import, so a caller that rebinds ``planner.solve_hw`` (to
    wrap or log it) reaches every grid, sweep and comparison solve.
    ``epsilon``, the tdbs search resolution, is checked for every solver.
    """
    config = TdbsConfig(epsilon=epsilon)
    if name == "tdbs":
        return lambda inst: solve_tdbs(inst, config)
    if name == "hw":
        return solve_hw
    if name == "oracle":
        return solve_oracle
    raise GameDefinitionError("unknown solver %r" % (name,))


# ---------------------------------------------------------------------------
# File I/O


def _to_float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise InstanceFormatError("field %r is too large for a float" % where) from None


def _field(doc: dict, key: str, kind, path: str = ""):
    where = path + key
    if key not in doc:
        raise InstanceFormatError("missing field %r" % where)
    value = doc[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _to_float(value, where)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise InstanceFormatError("field %r should be %s" % (where, kind.__name__))


def _number_list(doc: dict, key: str, n: Optional[int] = None) -> List[float]:
    """Field ``key`` as a list of floats, of ``n`` entries if ``n`` is given."""
    values = _field(doc, key, list)
    if n is not None and len(values) != n:
        raise InstanceFormatError("field %r should have %d entries" % (key, n))
    out = []
    for k, item in enumerate(values):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise InstanceFormatError("field %r[%d] should be a number" % (key, k))
        out.append(_to_float(item, "%s[%d]" % (key, k)))
    return out


def scenario_from_dict(doc: dict) -> ScenarioInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    n = _field(doc, "n", int)
    if n < 1:
        raise InstanceFormatError("field 'n' should be a positive integer")
    per_target = isinstance(doc.get("e_v"), list)
    instance = Instance(
        ranger_budget=_field(doc, "ranger_budget", float),
        villager_budget=_field(doc, "villager_budget", int),
        e_p=_field(doc, "e_p", float),
        e_v=_number_list(doc, "e_v", n) if per_target else _field(doc, "e_v", float),
        reward_def=_number_list(doc, "reward_defender", n),
        penalty_def=_number_list(doc, "penalty_defender", n),
        reward_att=_number_list(doc, "reward_attacker", n),
        penalty_att=_number_list(doc, "penalty_attacker", n),
    )

    labels = None
    if "labels" in doc:
        labels = tuple(str(x) for x in _field(doc, "labels", list))
    slope = None
    if "slope_class" in doc:
        slope = tuple(str(x) for x in _field(doc, "slope_class", list))
    baseline = None
    if "baseline" in doc:
        sub = doc["baseline"]
        if not isinstance(sub, dict):
            raise InstanceFormatError("field 'baseline' should be an object")
        baseline = StrategyProfile(
            _number_list(sub, "p", n), _number_list(sub, "v", n)
        )
    return ScenarioInstance(instance, labels=labels, slope_class=slope, baseline=baseline)


def scenario_to_dict(scenario: ScenarioInstance) -> dict:
    inst = scenario.instance
    e_v = inst.e_v
    doc = {
        "n": inst.n,
        "ranger_budget": float(inst.ranger_budget),
        "villager_budget": int(inst.villager_budget),
        "e_p": float(inst.e_p),
        "e_v": [float(x) for x in e_v] if isinstance(e_v, np.ndarray) else float(e_v),
        "reward_defender": [float(x) for x in inst.reward_def],
        "penalty_defender": [float(x) for x in inst.penalty_def],
        "reward_attacker": [float(x) for x in inst.reward_att],
        "penalty_attacker": [float(x) for x in inst.penalty_att],
    }
    if scenario.labels is not None:
        doc["labels"] = list(scenario.labels)
    if scenario.slope_class is not None:
        doc["slope_class"] = list(scenario.slope_class)
    if scenario.baseline is not None:
        doc["baseline"] = {
            "p": [float(x) for x in scenario.baseline.p],
            "v": [int(x) for x in scenario.baseline.v],
        }
    return doc


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise InstanceFormatError("non-finite number %s" % token)
    return value


def _load_json(path):
    """The parsed UTF-8 document; NaN, Infinity, overflowing reals, bytes that
    are not UTF-8 and nesting too deep to parse are a format error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise InstanceFormatError("not valid JSON: %s" % err) from err


def load_instance(path) -> ScenarioInstance:
    return scenario_from_dict(_load_json(path))


def save_instance(path, scenario: ScenarioInstance) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def save_result(path, result: SolveResult) -> None:
    doc = {
        "p": [float(x) for x in result.profile.p],
        "v": [int(x) for x in result.profile.v],
        "attacked": int(result.attacked),
        "defender_utility": float(result.defender_utility),
        "attacker_utility": float(result.attacker_utility),
        "diagnostics": {k: int(v) for k, v in result.diagnostics.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_result(path) -> SolveResult:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError("result document must be a JSON object")
    p, v, attacked = _number_list(doc, "p"), _field(doc, "v", list), _field(doc, "attacked", int)
    # Checked as floats; the profile reads the JSON integers, exact past 2**53.
    for k, count in enumerate(_number_list(doc, "v")):
        if not count.is_integer():
            raise InstanceFormatError("field 'v'[%d] should be a whole number" % k)
    if len(v) != len(p):
        raise InstanceFormatError("field 'v' should have %d entries, one per entry of 'p'" % len(p))
    if not 0 <= attacked < len(p):
        raise InstanceFormatError("field 'attacked' should be a target index below %d" % len(p))
    return SolveResult(
        profile=StrategyProfile(p, v),
        attacked=attacked,
        defender_utility=_field(doc, "defender_utility", float),
        attacker_utility=_field(doc, "attacker_utility", float),
        diagnostics=_diagnostics(doc),
    )


def _diagnostics(doc: dict) -> dict:
    """The result's optional counters object; every value must be a JSON integer."""
    counters = doc.get("diagnostics", {})
    if not isinstance(counters, dict):
        raise InstanceFormatError("field 'diagnostics' should be an object")
    return {key: _field(counters, key, int, "diagnostics.") for key in counters}


def case_study_scenario() -> ScenarioInstance:
    """The bundled 21-target scenario with its synthetic baseline.

    Poacher rewards come from surveyed species densities; the budgets,
    baseline allocation, and slope classes shipped here are synthetic
    stand-ins (the real ones are not public).
    """
    data = resources.files("patrolgame.data").joinpath("case_study.json").read_text()
    return scenario_from_dict(json.loads(data))


# ---------------------------------------------------------------------------
# Case-study operations


def with_effectiveness(scenario: ScenarioInstance, e_p: float, e_v) -> ScenarioInstance:
    """The same scenario with effectiveness values swapped in."""
    instance = dataclasses.replace(scenario.instance, e_p=e_p, e_v=e_v)
    return dataclasses.replace(scenario, instance=instance)


def added_budgets(instance: Instance, rangers: int, villagers: int) -> Instance:
    return dataclasses.replace(
        instance,
        ranger_budget=instance.ranger_budget + rangers,
        villager_budget=instance.villager_budget + villagers,
    )


def _recruit_splits(instance, budget: int, cost_ranger: float, cost_villager: float):
    """All (rangers, villagers) a budget buys, spending the rest on villagers.

    Rangers stop at the first count whose whole ranger budget covers every
    target fully: every coverage vector is reachable there, so more rangers
    cannot do better. Villagers stop likewise at the first count that can
    fill every target on its own: any placement of more villagers covers no
    more than one of that many. GameDefinitionError when the budget buys
    unboundedly many of either (a cost and an effectiveness both too small
    for a float).
    """
    # Both caps are floats: an effectiveness too small for one leaves no cap.
    covering = max(np.ceil(instance.n / instance.e_p - instance.ranger_budget), 0.0)
    e_v = np.broadcast_to(instance.e_v, (instance.n,))
    with np.errstate(over="ignore"):
        filling = np.ceil(1.0 / e_v)
        filling += filling * e_v < 1.0  # the fewest villagers filling each target (coverage_of)
        covering_villagers = max(filling.sum() - instance.villager_budget, 0.0)
    # Nudge before flooring so exact multiples of a cost don't round down.
    max_rangers = _whole(min(budget / cost_ranger + REL_TOL, covering))
    for k in range(max_rangers + 1):
        villagers = min((budget - k * cost_ranger) / cost_villager + REL_TOL, covering_villagers)
        yield k, _whole(villagers)


def _whole(count: float) -> int:
    if count == math.inf:
        raise GameDefinitionError("the budget buys unboundedly many recruits")
    return math.floor(count)


def budget_sweep(
    scenario: ScenarioInstance,
    max_extra: int,
    solver: str = "hw",
    cost_ranger: float = 3.0,
    cost_villager: float = 1.0,
    epsilon: float = DEFAULT_EPSILON,
) -> List[BudgetSweepRow]:
    """Best (rangers, villagers) recruitment split per extra budget 0..max_extra.

    GameDefinitionError unless ``max_extra`` is a nonnegative integer, not a
    bool.
    """
    if not _is_integer(max_extra) or max_extra < 0:
        raise GameDefinitionError("extra budget must be a nonnegative integer")
    cost_ranger = _finite(cost_ranger, "ranger cost")
    cost_villager = _finite(cost_villager, "villager cost")
    if cost_ranger <= 0 or cost_villager <= 0:
        raise GameDefinitionError("recruit costs must be positive")
    solve = get_solver(solver, epsilon)
    instance = scenario.instance
    rows: List[BudgetSweepRow] = []
    for budget in range(max_extra + 1):
        best: Optional[BudgetSweepRow] = None
        for rangers, villagers in _recruit_splits(instance, budget, cost_ranger, cost_villager):
            result = solve(added_budgets(instance, rangers, villagers))
            if best is None or result.defender_utility > best.defender_utility:
                best = BudgetSweepRow(budget, rangers, villagers, result.defender_utility)
        rows.append(best)
    return rows


def csv_text(header: str, rows) -> str:
    """CSV lines: ``header``, then one line per row of cells.

    Floats are written by shortest repr, so reading a cell back with
    ``float()`` gives the same value; every other cell is written with ``str``.
    """
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[BudgetSweepRow]) -> str:
    return csv_text(SWEEP_CSV_HEADER, (dataclasses.astuple(r) for r in rows))


def compare_with_baseline(
    scenario: ScenarioInstance, solver: str = "hw", epsilon: float = DEFAULT_EPSILON
) -> BaselineComparison:
    """Optimal minus baseline coverage per target, plus the utility improvement.

    Improvement is relative, (u_opt - u_base) / |u_base|, falling back to the
    absolute difference when the baseline utility is zero.
    """
    if scenario.baseline is None:
        raise GameDefinitionError("scenario has no baseline strategy to compare against")
    instance = scenario.instance
    baseline_result = evaluate_profile(instance, scenario.baseline)
    optimal = get_solver(solver, epsilon)(instance)
    delta = compute_coverage(instance, optimal.profile) - compute_coverage(
        instance, scenario.baseline
    )
    u_base = baseline_result.defender_utility
    gain = optimal.defender_utility - u_base
    improvement = gain / abs(u_base) if u_base != 0.0 else gain
    return BaselineComparison(
        coverage_delta=delta,
        optimal=optimal,
        baseline_utility=u_base,
        improvement=improvement,
    )


def effectiveness_grid(
    scenario: ScenarioInstance,
    solver: str = "hw",
    values: Sequence[float] = tuple(round(0.1 * k, 1) for k in range(1, 10)),
    epsilon: float = DEFAULT_EPSILON,
) -> EffectivenessGrid:
    """Baseline comparison across all (e_p, e_v) pairs with e_p >= e_v.

    The default nine-value grid yields 45 settings. Tallies count, per
    target, in how many settings the optimal coverage rises or falls
    relative to the baseline.
    """
    n = scenario.instance.n
    settings: List[EffectivenessSetting] = []
    increase = np.zeros(n, dtype=np.int64)
    decrease = np.zeros(n, dtype=np.int64)
    for e_p in values:
        for e_v in values:
            if e_p < e_v:
                continue
            comparison = compare_with_baseline(
                with_effectiveness(scenario, e_p, e_v), solver=solver, epsilon=epsilon
            )
            settings.append(EffectivenessSetting(e_p, e_v, comparison))
            increase += comparison.coverage_delta > REL_TOL
            decrease += comparison.coverage_delta < -REL_TOL
    return EffectivenessGrid(tuple(settings), increase, decrease)


def grid_csv(grid: EffectivenessGrid) -> str:
    return csv_text(
        "e_p,e_v,defender_utility,baseline_utility,improvement",
        (
            (
                s.e_p,
                s.e_v,
                s.comparison.optimal.defender_utility,
                s.comparison.baseline_utility,
                s.comparison.improvement,
            )
            for s in grid.settings
        ),
    )


def tally_csv(grid: EffectivenessGrid) -> str:
    return csv_text(
        "target,increase_settings,decrease_settings",
        zip(range(len(grid.increase_count)), grid.increase_count, grid.decrease_count),
    )


def shift_effectiveness(value: float, slope_class: str) -> float:
    """Terrain-adjusted effectiveness for one target's slope-variance class."""
    if slope_class not in SLOPE_SHIFT:
        raise GameDefinitionError("unknown slope class %r" % (slope_class,))
    lo, hi = EFFECTIVENESS_CLAMP
    return min(max(value + SLOPE_SHIFT[slope_class], lo), hi)


def terrain_adjust(scenario: ScenarioInstance, e_p: float, e_v: float) -> Instance:
    """Per-target villager effectiveness from slope-variance classes.

    Villager effectiveness shifts +0.1 on high-variance targets and -0.1 on
    low-variance ones, clamped to [0.01, 0.99]. Ranger effort stays a single
    pooled resource, so e_p is kept scalar (clamped); apply
    shift_effectiveness per target externally if a per-target view is needed.
    """
    if scenario.slope_class is None:
        raise GameDefinitionError("scenario has no slope classes")
    lo, hi = EFFECTIVENESS_CLAMP
    e_v_vec = [shift_effectiveness(e_v, cls) for cls in scenario.slope_class]
    return dataclasses.replace(scenario.instance, e_p=min(max(e_p, lo), hi), e_v=e_v_vec)
