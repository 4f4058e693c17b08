"""The benchmark's hooks into the program resolve.

``perfbench`` reaches into ``wreathcover`` in two ways: its tracer wraps the
functions listed in ``perfbench/spans.py``'s ``TARGETS`` by module and
attribute, and its scripts import names from ``wreathcover`` modules.  A
rename in ``src/`` breaks only traced benchmark runs, which the test suite
never makes, so this test resolves every such name instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    """(module, attribute) of every entry of spans.TARGETS; importing
    spans.py loads only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(f"wreathcover.{module}", attr) for module, attr, *_ in spans.TARGETS]


def _imports():
    """(module, name) of every ``from wreathcover... import name`` line."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wreathcover"):
                out += [(node.module, alias.name) for alias in node.names]
    return out


def _resolve(module, name):
    """The object ``name`` names in ``module``: a dotted attribute path
    (``GroupTable.from_generators``) or a submodule (``wreathcover``'s
    ``cli``)."""
    target = importlib.import_module(module)
    if not hasattr(target, name.split(".")[0]):
        return importlib.import_module(f"{module}.{name}")
    for part in name.split("."):
        target = getattr(target, part)
    return target


def test_hook_lists_are_read():
    targets = _targets()
    assert ("wreathcover.unbeat", "theorem_bounds") in targets
    assert ("wreathcover.pipelines", "psl_report") in targets
    assert ("wreathcover.pipelines", "load_group") in _imports()


@pytest.mark.parametrize("module, name", sorted(set(_targets() + _imports())))
def test_benchmark_hook_resolves(module, name):
    assert _resolve(module, name) is not None
