"""``src/wreathcover`` holds only the program.

Every module-level function and class of ``src/wreathcover``, and every
method of its classes, must be referenced from somewhere other than its own
definition: from another place in ``src/`` or from ``perfbench/`` (whose
tracer names its targets in strings, so perfbench's string constants count
too).  A name that only its own definition or only ``tests/`` references is
test-only code; reference implementations that the tests compare against
belong in ``tests/oracles.py``.  Dunder methods are called by the language
and are not checked.  The match is by name, so it can miss dead code that
shares a name with live code, but it never flags live code.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wreathcover"
PERFBENCH = ROOT / "perfbench"

# module -> why its test-only names stay in src/
ALLOWED_MODULES = {
    "ansets": (
        "the alternating groups' standard target sets and families: the "
        "planned A_n theorem (ROADMAP Direction 5) uses them as its oracle, "
        "and today only tests call them"
    ),
}


def _references(tree: ast.AST, with_strings: bool) -> Counter:
    """How often each identifier is used in ``tree``: names, attributes,
    imported names and (when asked) the dotted parts of string constants."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(part for part in node.value.split(".") if part.isidentifier())
    return out


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of every module-level function and
    class and every non-dunder method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _trees(root: Path):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}


def _unreferenced() -> tuple[int, list[str]]:
    """How many definitions were checked, and those that nothing outside
    themselves and the tests references."""
    src, bench = _trees(SRC), _trees(PERFBENCH)
    refs = Counter()
    for tree in src.values():
        refs.update(_references(tree, with_strings=False))
    for tree in bench.values():
        refs.update(_references(tree, with_strings=True))
    checked, out = 0, []
    for path, tree in src.items():
        if path.stem in ALLOWED_MODULES:
            continue
        for qualname, name, node in _definitions(tree):
            checked += 1
            # uses inside the definition itself (recursion) do not count
            if refs[name] - _references(node, with_strings=False)[name] == 0:
                out.append(f"{path.stem}.{qualname}")
    return checked, out


def test_src_holds_no_test_only_code():
    for module, reason in ALLOWED_MODULES.items():
        assert (SRC / f"{module}.py").is_file() and reason
    checked, unreferenced = _unreferenced()
    assert checked > 100  # the guard reads the real package
    assert unreferenced == []
