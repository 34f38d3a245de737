"""Write the benchmark's committed input documents into perfbench/inputs.

    python3 perfbench/make_inputs.py

Algebra documents are written literally, each next to its closed-form
dimension and class flags in manifest.json.  The cli_docs module pools are
drawn once with stabhom.cli.randmod from a fixed seed and serialized with
stabhom.cli.serialize, so the files are reproducible.  The script checks
that the library's dimension of every algebra equals the closed form before
it writes anything.
"""
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stabhom.algebra import LEFT, RIGHT  # noqa: E402
from stabhom.cli.randmod import random_module  # noqa: E402
from stabhom.cli.serialize import algebra_from_dict, module_to_dict  # noqa: E402
from stabhom.homology import is_self_injective  # noqa: E402

OUT = os.path.join(HERE, "inputs")
MODULE_SEED = 20221218
MODULES_PER_SIDE = 3
MODULE_MAX_DIM = 3


def _field(p):
    return {"kind": "rational"} if p is None else {"kind": "prime", "p": p}


def _doc(p, vertices, arrows, relations, bound):
    doc = {
        "field": _field(p),
        "quiver": {
            "vertices": vertices,
            "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows],
        },
        "relations": [
            {"terms": [{"coeff": c, "path": list(path)} for c, path in rel]}
            for rel in relations
        ],
    }
    if bound is not None:  # omitted: the loader's default bound of 16 applies
        doc["nilpotency_bound"] = bound
    return doc


def two_loop(p, bound):
    """k<x,y>/(x^2, y^2, xy, yx): closed-form dimension 3 (1, x, y)."""
    rels = [[("1", w)] for w in (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"))]
    return _doc(p, ["v"], [("x", "v", "v"), ("y", "v", "v")], rels, bound)


def quantum_exterior(p, q, bound):
    """k<x,y>/(x^2, y^2, xy - q yx): closed-form dimension 4 (1, x, y, yx)."""
    rels = [
        [("1", ("x", "x"))],
        [("1", ("y", "y"))],
        [("1", ("x", "y")), (str(-q % p), ("y", "x"))],
    ]
    return _doc(p, ["v"], [("x", "v", "v"), ("y", "v", "v")], rels, bound)


def nakayama3(p, bound=None):
    """Oriented 3-cycle with rad^2 = 0: closed-form dimension 3 + 3 = 6."""
    arrows = [("x1", "1", "2"), ("x2", "2", "3"), ("x3", "3", "1")]
    rels = [[("1", w)] for w in (("x1", "x2"), ("x2", "x3"), ("x3", "x1"))]
    return _doc(p, ["1", "2", "3"], arrows, rels, bound)


def square(p):
    """Commutative square ab = cd: closed-form dimension 4 + 4 + 1 = 9."""
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    rels = [[("1", ("a", "b")), ("-1", ("c", "d"))]]
    return _doc(p, ["1", "2", "3", "4"], arrows, rels, 5)


def loop2(p):
    """k[x]/(x^2): closed-form dimension 2."""
    return _doc(p, ["v"], [("x", "v", "v")], [[("1", ("x", "x"))]], 6)


def kronecker(p):
    """Two arrows 1 -> 2, no relations: closed-form dimension 4."""
    return _doc(p, ["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [], 4)


def a2(p):
    """1 -> 2, no relations: closed-form dimension 3."""
    return _doc(p, ["1", "2"], [("a", "1", "2")], [], 4)


# name -> (document, closed-form dimension, hereditary, self-injective)
ALGEBRAS = {
    "square_f5": (square(5), 9, False, False),
    "nakayama3_f2": (nakayama3(2), 6, False, True),
    "loop2_q": (loop2(None), 2, False, True),
    "kronecker_f5": (kronecker(5), 4, True, False),
    "kronecker_q": (kronecker(None), 4, True, False),
    "a2_q": (a2(None), 3, True, False),
    "twoloop_f2_b5": (two_loop(2, 5), 3, False, False),
    "twoloop_f2_b6": (two_loop(2, 6), 3, False, False),
    "twoloop_f2_b7": (two_loop(2, 7), 3, False, False),
    "qext_f5_b5": (quantum_exterior(5, 2, 5), 4, False, True),
    "qext_f5_b6": (quantum_exterior(5, 2, 6), 4, False, True),
    "qext_f5_b7": (quantum_exterior(5, 2, 7), 4, False, True),
}

# Algebras of cli_docs, which also get committed module documents.
CLI_ALGEBRAS = (
    "nakayama3_f2",
    "twoloop_f2_b5",
    "qext_f5_b5",
    "twoloop_f2_b6",
    "qext_f5_b6",
    "twoloop_f2_b7",
    "qext_f5_b7",
)


def _write(name, doc):
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(OUT, exist_ok=True)
    manifest = {"algebras": {}, "modules": {}}
    built = {}
    for name, (doc, dim, hereditary, self_inj) in ALGEBRAS.items():
        alg = algebra_from_dict(doc, name)
        got = (alg.dim, alg.is_hereditary(), is_self_injective(alg))
        if got != (dim, hereditary, self_inj):
            raise SystemExit(f"{name}: library gives {got}, closed form {(dim, hereditary, self_inj)}")
        built[name] = alg
        _write(f"{name}.json", doc)
        manifest["algebras"][name] = {
            "file": f"{name}.json",
            "dimension": dim,
            "hereditary": hereditary,
            "self_injective": self_inj,
        }
    rng = random.Random(MODULE_SEED)
    for name in CLI_ALGEBRAS:
        pools = {}
        for side in (LEFT, RIGHT):
            files = []
            for i in range(MODULES_PER_SIDE):
                m = random_module(built[name], side, MODULE_MAX_DIM, rng)[0]
                fname = f"{name}.{side}{i}.json"
                _write(fname, module_to_dict(m, f"{name}.json"))
                files.append(fname)
            pools[side] = files
        manifest["modules"][name] = pools
    _write("manifest.json", manifest)


if __name__ == "__main__":
    main()
