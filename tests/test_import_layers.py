"""Every stabhom import points down the stack.

The modules form one stack, lowest first: exactla, algebra, homology,
stable, fpfun, then the command-line layer (serialize, randmod, laws,
main).  A module may import only modules below it, at module level or
inside a function: an import inside a function is where a cycle hides,
since it runs only when called.  The two package __init__ files sit on
top: they may import every layer, and no layer may import them.
"""

import ast
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
