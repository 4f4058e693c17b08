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

A defaulted parameter of a function or method of ``src/wreathcover`` must
be passed by some call in ``src/`` or ``perfbench/``: by keyword, by a
``**`` mapping, or positionally at its position (a ``*`` argument counts
as every position).  Calls are matched by name, as above; dunders are not
checked.  A default that only the tests override is a test-only option.

Every field of a dataclass of ``src/wreathcover`` must be read outside its
declaration: by name, as an attribute or a string constant in ``src/`` or
``perfbench/``.  A field that only its constructor calls set is data that
nothing reads.

The same rule keeps ``tests/oracles.py`` to what the tests use: each of its
definitions must be referenced from outside its own definition,
by a test file or by another oracle, so an oracle whose subject is deleted
goes with it.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wreathcover"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


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
        for qualname, name, node in _definitions(tree):
            checked += 1
            # uses inside the definition itself (recursion) do not count
            if refs[name] - _references(node, with_strings=False)[name] == 0:
                out.append(f"{path.stem}.{qualname}")
    return checked, out


def test_src_holds_no_test_only_code():
    checked, unreferenced = _unreferenced()
    assert checked > 100  # the guard reads the real package
    assert unreferenced == []


def _dataclass_fields(tree: ast.Module):
    """(class name, field name) of each annotated field of each
    module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in _references(d, with_strings=False) for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    src = _trees(SRC)
    reads = Counter()
    for tree in list(src.values()) + list(_trees(PERFBENCH).values()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.update(part for part in node.value.split(".") if part.isidentifier())
    fields = [
        (f"{path.stem}.{cls}.{name}", name)
        for path, tree in src.items()
        for cls, name in _dataclass_fields(tree)
    ]
    assert len(fields) > 20  # the guard reads the real package
    assert [qualname for qualname, name in fields if not reads[name]] == []


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, keyed by the name it calls."""
    out = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    out[node.func.id].append(node)
                elif isinstance(node.func, ast.Attribute):
                    out[node.func.attr].append(node)
    return out


def _defaulted(node: ast.FunctionDef, is_method: bool):
    """(name, position) of each defaulted parameter of ``node``; the
    position counts the call's positional arguments (a method's first
    parameter is not one) and is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    shift = 1 if is_method and not static else 0
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_overridden_by_the_program():
    src, bench = _trees(SRC), _trees(PERFBENCH)
    calls = _calls(list(src.values()) + list(bench.values()))
    checked, unpassed = 0, []
    for path, tree in src.items():
        for qualname, name, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            for param, position in _defaulted(node, "." in qualname):
                checked += 1
                if not any(_passes(call, param, position) for call in calls[name]):
                    unpassed.append(f"{path.stem}.{qualname}({param}=)")
    assert checked > 10  # the guard reads the real package
    assert unpassed == []


def test_every_oracle_is_used():
    trees = _trees(TESTS)
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree, with_strings=False))
    oracles = list(_definitions(trees[TESTS / "oracles.py"]))
    assert len(oracles) > 5  # the guard reads the real oracles
    unused = [
        qualname
        for qualname, name, node in oracles
        # uses inside the definition itself (recursion) do not count
        if refs[name] - _references(node, with_strings=False)[name] == 0
    ]
    assert unused == []


def _unused_imports(path: Path) -> list[str]:
    """The names that module-level imports of ``path`` bind and nothing else
    in the file uses; an entry of ``__all__`` counts as a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in used]


def test_no_unused_imports():
    # perfbench/ is the benchmark's and is not checked here
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(paths) > 20  # the guard reads the real files
    assert [name for path in paths for name in _unused_imports(path)] == []
