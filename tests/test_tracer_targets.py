"""Every function the benchmark's tracer wraps still exists in stabhom, and
none is stored where the tracer cannot see it.

perfbench/tracer.py finds each target by (home module, attribute path) and
raises TargetMissing when one is gone, but only when the traced benchmark
runs.  This test reads the same table, without installing anything, so a
rename fails here too.

The tracer replaces a function in every stabhom namespace that binds it, so
a function object taken at import time (a dict value, a class attribute, a
default argument, a decorator argument) keeps calling the original and its
calls are not counted.  The second half parses src/stabhom and fails on any
traced module-level function named by code that runs at import time.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_the_tracer_has_targets():
    assert len(TARGETS) > 20


@pytest.mark.parametrize(
    "home,path", sorted({(home, path) for _, home, path in TARGETS}), ids="{}".format
)
def test_tracer_target_resolves(home, path):
    owner = importlib.import_module(home)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer wraps the binding in the owner's own namespace
    assert attr in vars(owner), f"{home}.{path} not found"
    assert callable(vars(owner)[attr])


# -- the blind spot: a traced function named at import time ---------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "stabhom"

# the tracer rebinds module-level functions by identity in each namespace, so a
# function object stored at import time keeps calling the unwrapped original
TRACED = frozenset(path for _, _, path in TARGETS if "." not in path)


def _import_time_names(tree: ast.AST, traced=TRACED):
    """(line, name) of each traced function named by code that runs when the
    module is imported: module- and class-level expressions, decorators and
    default arguments.  Function and lambda bodies run at call time, when
    the tracer's rebinding is seen; imports and the def itself bind the name."""
    found = []

    def visit(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            deferred = args.defaults + [d for d in args.kw_defaults if d is not None]
            for child in deferred + getattr(node, "decorator_list", []):
                visit(child)
            return
        if isinstance(node, ast.Name) and node.id in traced:
            found.append((node.lineno, node.id))
        if isinstance(node, ast.Attribute) and node.attr in traced:
            found.append((node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_guard_sees_the_traced_module_level_functions():
    assert {"hom_basis", "indec_projective", "indec_injective", "fp_eval"} <= TRACED


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_traced_function_is_named_at_import_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _import_time_names(tree) == []


def test_the_guard_flags_a_module_level_dict_of_traced_functions():
    source = """
from .algebra import indec_injective, indec_projective
from . import homology

PROBES = {"P": indec_projective, "I": indec_injective}

class Law:
    build = homology.hom_basis

def pick(kind, probe=indec_projective):
    return {"P": indec_projective}[kind]

@register(indec_injective)
def law():
    return (lambda: indec_projective)()
"""
    assert _import_time_names(ast.parse(source)) == [
        (5, "indec_projective"),
        (5, "indec_injective"),
        (8, "hom_basis"),
        (10, "indec_projective"),
        (13, "indec_injective"),
    ]
