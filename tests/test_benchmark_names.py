"""Every drbench name the benchmark times or imports still exists.

The benchmark under ``perfbench/`` wraps functions listed in
``spans.TARGETS`` and imports readers in ``workloads.py``; a rename would
only fail there.  This reads those files' source and never runs them.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_span_targets_exist():
    tree = module_tree("spans.py")
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    entries = ast.literal_eval(targets)
    assert entries
    for _, module, function in entries:
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)


def test_workload_imports_exist():
    imports = [(node.module, alias.name) for node in ast.walk(module_tree("workloads.py"))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("drbench")
               for alias in node.names]
    assert {name for _, name in imports} >= {"design_from_config", "model_from_spec",
                                             "model_from_json", "predict_r_from_rates",
                                             "crb_rescale"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
