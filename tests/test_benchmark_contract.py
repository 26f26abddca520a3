"""The names the benchmark in perfbench/ reaches into qwalk for.

perfbench/spans.py wraps qwalk functions by (module, name) when it traces,
and perfbench imports some qwalk names directly; a rename or deletion of
any of them would break the benchmark, so it fails here first.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    targets = _load_spans(monkeypatch).TARGETS
    assert targets
    for mod_name, fn_name, *_ in targets:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), (
            f"{mod_name}.{fn_name}"
        )


def test_every_name_imported_from_qwalk_exists():
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qwalk"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert {
        ("qwalk.walks", name)
        for name in ("walk_to_json", "walk_from_json", "grover_to_json", "grover_from_json")
    } <= imported
    for mod_name, name in imported:
        assert hasattr(importlib.import_module(mod_name), name), f"{mod_name}.{name}"
