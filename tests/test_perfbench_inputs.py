"""The benchmark's committed algebra documents build to their closed forms.

perfbench/make_inputs.py checks the library's dimension and class flags of
every algebra against its closed form, but only when the inputs are written
again.  This test reads the committed documents and manifest.json and makes
the same check on every run of the suite.
"""

import json
from pathlib import Path

import pytest

from stabhom.cli.serialize import load_algebra
from stabhom.homology import is_self_injective

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
ALGEBRAS = json.loads((INPUTS / "manifest.json").read_text())["algebras"]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_benchmark_algebra_has_its_closed_form(name):
    entry = ALGEBRAS[name]
    alg = load_algebra(str(INPUTS / entry["file"]))
    assert alg.dim == entry["dimension"]
    assert alg.is_hereditary() == entry["hereditary"]
    assert is_self_injective(alg) == entry["self_injective"]
