"""Solvers and batch planner for mixed ranger/villager patrol allocation games."""

from .bench import BenchReport, BenchRow, GenParams, generate_instance, run_benchmark
from .feasibility import feasible_rows, most_villagers
from .model import (
    BestResponse,
    GameDefinitionError,
    Instance,
    ProfileValidationError,
    SolveResult,
    StrategyProfile,
    best_response,
    compute_coverage,
    evaluate_profile,
    validate_profile,
)
from .oracle import (
    EnumerationLimitError,
    VillagerSpecificInstance,
    VillagerSpecificResult,
    solve_oracle,
    solve_oracle_villager_specific,
)
from .planner import (
    BaselineComparison,
    BudgetSweepRow,
    ScenarioInstance,
    budget_sweep,
    case_study_scenario,
    compare_with_baseline,
    effectiveness_grid,
    get_solver,
    load_instance,
    load_result,
    save_instance,
    save_result,
    terrain_adjust,
)
from .tdbs import TdbsConfig, solve_tdbs, utility_gap_bound, value_bound
from .waterfill import solve_hw

__all__ = [
    "BenchReport",
    "BenchRow",
    "BestResponse",
    "BaselineComparison",
    "BudgetSweepRow",
    "EnumerationLimitError",
    "GameDefinitionError",
    "GenParams",
    "Instance",
    "ProfileValidationError",
    "ScenarioInstance",
    "SolveResult",
    "StrategyProfile",
    "TdbsConfig",
    "VillagerSpecificInstance",
    "VillagerSpecificResult",
    "best_response",
    "budget_sweep",
    "case_study_scenario",
    "compare_with_baseline",
    "compute_coverage",
    "effectiveness_grid",
    "evaluate_profile",
    "feasible_rows",
    "generate_instance",
    "get_solver",
    "load_instance",
    "load_result",
    "most_villagers",
    "run_benchmark",
    "save_instance",
    "save_result",
    "solve_hw",
    "solve_oracle",
    "solve_oracle_villager_specific",
    "solve_tdbs",
    "terrain_adjust",
    "utility_gap_bound",
    "validate_profile",
    "value_bound",
]

__version__ = "0.1.0"
