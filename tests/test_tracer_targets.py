"""Every function the benchmark's tracer wraps still exists in stabhom.

perfbench/tracer.py finds each target by (home module, attribute path) and
raises TargetMissing when one is gone, but only when the traced benchmark
runs.  This test reads the same table, without installing anything, so a
rename fails here too.
"""

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
