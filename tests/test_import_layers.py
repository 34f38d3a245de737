"""Every stabhom import points down the stack.

The modules form one stack, lowest first: exactla, algebra, homology,
stable, fpfun, then the command-line layer (serialize, randmod, laws,
main).  A module may import only modules below it, at module level or
inside a function: an import inside a function is where a cycle hides,
since it runs only when called.  The two package __init__ files sit on
top: they may import every layer, and no layer may import them.

exactla alone chooses between its list core and its numpy route for a
kernel, and alone writes the rows a kernel on lists reads: no other module
names the bound, the elimination entry, the cores, the kernel writer or
the integer scaling.  The same holds for a relation's path sum, which runs
on integer rows over Q.  Inside exactla the bound is read only where a core,
a kernel writer or a Kronecker route is chosen, so the one size rule cannot
fork again.

Every function the package defines has a caller in the package or in the
benchmark (perfbench/), so that API only tests read does not grow back:
test references belong in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stabhom"

LAYERS = [
    "stabhom.exactla",
    "stabhom.algebra",
    "stabhom.homology",
    "stabhom.stable",
    "stabhom.fpfun",
    "stabhom.cli.serialize",
    "stabhom.cli.randmod",
    "stabhom.cli.laws",
    "stabhom.cli.main",
]
PACKAGES = ["stabhom.cli", "stabhom"]
RANK = {name: i for i, name in enumerate(LAYERS + PACKAGES)}


def _module_name(path: Path, root: Path = SRC) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, root: Path = SRC):
    """(line, imported stabhom module) for every import in the file, at
    any depth; `from x import y` counts x.y when that is a module."""
    name = _module_name(path, root)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            targets = [
                f"{module}.{a.name}" if f"{module}.{a.name}" in RANK else module
                for a in node.names
            ]
        else:
            continue
        for target in targets:
            if target == "stabhom" or target.startswith("stabhom."):
                yield node.lineno, target


FILES = sorted(SRC.rglob("*.py"))


def test_every_module_has_a_layer():
    assert sorted(_module_name(p) for p in FILES) == sorted(RANK)


@pytest.mark.parametrize("path", FILES, ids=_module_name)
def test_imports_point_down_the_stack(path):
    name = _module_name(path)
    upward = [
        f"line {line}: {target}"
        for line, target in _imports(path)
        if RANK.get(target, len(RANK)) >= RANK[name]
    ]
    assert not upward, f"{name} imports from its own layer or above: {upward}"


def test_function_level_and_submodule_imports_are_seen(tmp_path):
    root = tmp_path / "stabhom"
    (root / "cli").mkdir(parents=True)
    src = root / "cli" / "serialize.py"
    src.write_text("from .. import exactla\ndef f():\n    from ..homology import hom_basis\n")
    assert list(_imports(src, root)) == [(1, "stabhom.exactla"), (3, "stabhom.homology")]


# exactla alone decides which kernels run on its list core, writes their rows
# and names its elimination cores and system writers
LIST_ROUTE = {
    "_integers",
    "_integer_rows",
    "SMALL_ENTRIES",
    "_eliminate",
    "_eliminate_rows",
    "_eliminated_kernel",
    "_rref_lists",
    "_rref_numpy",
    "_rref_rational",
    "_kron_lists",
    "_kron_rows",
    "_rational_path_sum",
}


def _names(path: Path):
    """(line, name) for every name, attribute and imported name in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name


@pytest.mark.parametrize("path", FILES, ids=_module_name)
def test_only_exactla_names_its_list_route(path):
    if _module_name(path) == "stabhom.exactla":
        assert {name for _, name in _names(path)} >= LIST_ROUTE
        return
    named = [f"line {line}: {name}" for line, name in _names(path) if name in LIST_ROUTE]
    assert not named, f"{_module_name(path)} names exactla's list route: {named}"


# the functions of exactla that read the size bound: _eliminate chooses the
# core, _eliminated_kernel the writer, and kron_kernel the Kronecker route
SIZE_RULE_READERS = {"_eliminate", "_eliminated_kernel", "kron_kernel"}


def _reads(source: str, name: str):
    """(innermost enclosing function, or None at module level, line) for
    every read of the name in the source."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                out.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_the_size_bound_is_read_only_where_a_route_is_chosen():
    reads = _reads((SRC / "exactla.py").read_text(), "SMALL_ENTRIES")
    assert {function for function, _ in reads} == SIZE_RULE_READERS, reads


def test_reads_are_seen_in_nested_functions_and_at_module_level():
    source = "B = 1\nC = B\ndef f():\n    def g():\n        return B\n    return B + 1\n"
    assert sorted(_reads(source, "B"), key=lambda r: r[1]) == [(None, 2), ("g", 5), ("f", 6)]


# -- every function has a caller in the library or the benchmark -------------

PERFBENCH = SRC.parents[1] / "perfbench"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# functions kept with no caller in src/stabhom or perfbench/, each with why
UNREFERENCED_ALLOWED = {
    "functor_to_dict": "the JSON writer of a functor, kept beside its reader load_functor",
}


def _docstrings(tree):
    bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, bodies)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _referenced(tree):
    """Every name, attribute and part of a dotted string constant other than
    a docstring: the tracer names its targets in such strings."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and DOTTED.fullmatch(node.value)
        ):
            yield from node.value.split(".")


def _is_law(function):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "law"
        for d in function.decorator_list
    )


def unreferenced_functions(src: Path = SRC, bench: Path = PERFBENCH):
    """(module, name) for every function or method defined in src that no
    code in src or bench names, leaving out dunders, @law bodies and the
    package's exports."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.rglob("*.py"))}
    used = {name for tree in trees.values() for name in _referenced(tree)}
    for path in sorted(bench.rglob("*.py")):
        used.update(_referenced(ast.parse(path.read_text(), str(path))))
    exported = {
        alias.name
        for node in trees[src / "__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        (_module_name(path, src), node.name)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_law(node)
        and node.name not in exported
    )


def test_every_function_has_a_caller_in_the_library_or_the_benchmark():
    found = unreferenced_functions()
    assert {name for _, name in found} >= set(UNREFERENCED_ALLOWED), "allowlist is stale"
    extra = [f"{module}.{name}" for module, name in found if name not in UNREFERENCED_ALLOWED]
    assert not extra, f"defined in src/stabhom but named nowhere there or in perfbench/: {extra}"


def test_names_in_dotted_strings_laws_and_exports_count_as_callers(tmp_path):
    src, bench = tmp_path / "stabhom", tmp_path / "perfbench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .core import exported\n")
    (src / "core.py").write_text(
        '"""Module docstring naming docstring_only."""\n'
        "def exported(): pass\n"
        "def traced(): pass\n"
        "def docstring_only(): pass\n"
        "def lonely(): pass\n"
        "def __repr__(): pass\n"
        "@law('x', 'y')\n"
        "def _law_x(ctx): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def unused_method(self):\n"
        "        return self.method()\n"
    )
    (bench / "tracer.py").write_text("TARGETS = [('stabhom.core', 'C.traced')]\n")
    found = unreferenced_functions(src, bench)
    assert found == [
        ("stabhom.core", "docstring_only"),
        ("stabhom.core", "lonely"),
        ("stabhom.core", "unused_method"),
    ]
