import ast
import inspect

import patrolgame
from patrolgame import feasibility, model, tdbs, waterfill

# Test-only API that was removed; none of it may come back.
REMOVED = (
    "FeasibilityQuery",
    "FeasibilityAnswer",
    "check_consistent",
    "min_valid_coverage",
    "total_wasted_coverage",
    "hw_subproblem",
    "min_drop_before_swap",
    "target_utilities",
    "_target_index",
    "_require_scalar_e_v",
    # the search entry points only tests call live in tests/conftest.py
    "most_effort",
    "_most_effort",
    "candidates",
    "witness_blocks",
)


def test_namespace_exports_the_solver_api_only():
    assert len(patrolgame.__all__) == len(set(patrolgame.__all__)) == 40
    for name in patrolgame.__all__:
        assert getattr(patrolgame, name) is not None, name
    namespace = {}
    exec("from patrolgame import *", namespace)
    assert set(patrolgame.__all__) <= set(namespace)
    for module in (patrolgame, feasibility, waterfill, model):
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(waterfill.WaterfillState, "snapshot")
    assert "u_att_villagers" not in waterfill.WaterfillState.__dataclass_fields__
    # the pour's internals stay in waterfill, out of the package namespace
    for name in ("SwapCandidate", "WaterfillState", "get_swap_line"):
        assert name not in patrolgame.__all__ and hasattr(waterfill, name), name
    assert not hasattr(model.StrategyProfile, "zeros")


def test_solvers_bind_no_private_feasibility_name():
    # the candidate pipelines live behind feasibility's public functions
    for module in (tdbs, waterfill):
        imports = [node for node in ast.walk(ast.parse(inspect.getsource(module))) if isinstance(node, ast.ImportFrom)]
        names = [alias.name for node in imports if node.module == "feasibility" for alias in node.names]
        assert names and [name for name in names if name.startswith("_")] == [], module.__name__
