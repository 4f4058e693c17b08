"""The benchmark's hooks into the program resolve.

``perfbench`` reaches into ``wreathcover`` in two ways: its tracer wraps the
functions listed in ``perfbench/spans.py``'s ``TARGETS`` by module and
attribute, and its scripts import names from ``wreathcover`` modules.  A
rename in ``src/`` breaks only traced benchmark runs, which the test suite
never makes, so this test resolves every such name instead.  A changed
signature breaks the benchmark's set-up child, so the set-up runs here too.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench script as a module; spans.py and workloads.py import only
    the standard library."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _targets():
    """(module, attribute) of every entry of spans.TARGETS."""
    return [(f"wreathcover.{module}", attr) for module, attr, *_ in _load("spans").TARGETS]


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


@pytest.mark.parametrize("workload", ["lattice", "bnb", "wreath", "theorems"])
def test_benchmark_requests_parse(workload, tmp_path):
    # every argv a workload sends, with the flags run.py appends, is one
    # the CLI accepts; nothing is run
    from wreathcover.cli import build_parser

    workloads = _load("workloads")
    assert workload in workloads.WORKLOADS
    wl = workloads.build(workload, 1, tmp_path)
    assert wl.requests
    for req in wl.requests + wl.probes:
        build_parser().parse_args(
            [*req.argv, "--json", "--threads", "1", "--cache-dir", str(tmp_path / "cache")]
        )


@pytest.mark.parametrize("workload", ["lattice", "bnb", "wreath", "theorems"])
def test_benchmark_requests_pass_the_gate(workload, tmp_path, capsys):
    # every timed request at seed 1, sent once through the CLI with the
    # flags run.py appends, passes the benchmark's correctness gate; a cold
    # request gets a cache directory of its own, as in run.py
    from wreathcover.cli import main

    anchors = _load("anchors")
    wl = _load("workloads").build(workload, 1, tmp_path)
    for i, req in enumerate(wl.requests):
        cache = tmp_path / (f"cold-{i}" if req.cold_cache else "cache")
        status = main([*req.argv, "--json", "--threads", "1", "--cache-dir", str(cache)])
        out = capsys.readouterr().out
        report = json.loads(out) if out else None
        assert anchors.check(req.check, report, status, req.expect) == [], req.label


def test_benchmark_set_up_fills_then_reads_the_lattice(tmp_path):
    # the set-up child enumerates and verifies the groups and fills their
    # lattice cache; a second set-up over the same directory only reads it
    setup_probe = _load("setup_probe")
    setup_probe.set_up(["A5"], ["A5"], str(tmp_path))
    files = sorted(tmp_path.iterdir())
    assert len(files) == 1 and files[0].name.startswith("lattice-")
    written = files[0].read_bytes()
    setup_probe.set_up(["A5"], ["A5"], str(tmp_path))
    assert sorted(tmp_path.iterdir()) == files
    assert files[0].read_bytes() == written
