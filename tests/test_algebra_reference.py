"""The degree-by-degree build of BoundQuiverAlgebra against the pair-loop
build it replaced, kept here as the reference.

The reference lists every path up to nilpotency_bound, pairs every path
ending at a relation's source with every path starting at its target, and
eliminates each (source, target) block in one matrix.  Both builds must give
the same basis, the same blocks and the same normal form of every path up to
the bound, and raise NotFiniteDimensional on the same algebras: the fixtures,
the algebra documents of the benchmark, and seeded random algebras with
relations of one length over F2, F5, Q and p = 2^31 - 1.
"""

import json
import random
from pathlib import Path as FilePath

import pytest

from algebras import BUILDERS
from stabhom.algebra import (
    Arrow,
    BoundQuiverAlgebra,
    NotFiniteDimensional,
    Quiver,
    Relation,
)
from stabhom.cli.serialize import load_algebra
from stabhom.exactla import Field, Matrix, rref

INPUTS = FilePath(__file__).resolve().parents[1] / "perfbench" / "inputs"
MANIFEST = json.loads((INPUTS / "manifest.json").read_text())

FIELDS = {
    "F2": Field.prime(2),
    "F5": Field.prime(5),
    "Q": Field.rational(),
    "p31": Field.prime(2 ** 31 - 1),
}


def _target(quiver, path):
    src, arrows = path
    return quiver.arrow_by_name[arrows[-1]].target if arrows else src


def _all_paths(quiver, bound):
    """Every composable path of length 0..bound, shortest first, then by
    source vertex and arrow indices."""
    by_len = [[(v, ()) for v in quiver.vertices]]
    for _ in range(bound):
        by_len.append([
            (path[0], path[1] + (a.name,))
            for path in by_len[-1]
            for a in quiver.arrows_from(_target(quiver, path))
        ])
    return [p for layer in by_len for p in layer]


# -- the reference ----------------------------------------------------------------


def reference_build(quiver, relations, field, bound):
    """(basis, basis_by_block, normal_form) of the pair-loop build, for
    relations as BoundQuiverAlgebra validated them."""
    all_paths = _all_paths(quiver, bound)
    enum_order = {p: i for i, p in enumerate(all_paths)}
    blocks = {}
    for p in all_paths:
        blocks.setdefault((p[0], _target(quiver, p)), []).append(p)

    # span the relation ideal inside the length-truncated path algebra
    ideal_rows = {}
    for rel in relations:
        s = quiver.arrow_by_name[rel.terms[0][1][0]].source
        t = quiver.arrow_by_name[rel.terms[0][1][-1]].target
        min_len = min(len(p) for _, p in rel.terms)
        lefts = [p for p in all_paths if _target(quiver, p) == s]
        rights = [p for p in all_paths if p[0] == t]
        for mu in lefts:
            for lam in rights:
                extra = len(mu[1]) + len(lam[1])
                if extra + min_len > bound:
                    continue
                row = {}
                for coeff, arrows in rel.terms:
                    if extra + len(arrows) > bound:
                        continue  # dies in the truncation
                    key = (mu[0], mu[1] + arrows + lam[1])
                    row[key] = field.add(row.get(key, field.zero()), coeff)
                if any(c != 0 for c in row.values()):
                    ideal_rows.setdefault((mu[0], _target(quiver, lam)), []).append(row)

    basis, expansions, survivors = [], {}, 0
    for block, paths in sorted(blocks.items()):
        paths = sorted(paths, key=lambda p: (len(p[1]), enum_order[p]))
        col_of = {p: j for j, p in enumerate(paths)}
        rows = ideal_rows.get(block, [])
        block_basis = paths
        if rows:
            mat = Matrix.zeros(field, len(rows), len(paths)).data.copy()
            for i, row in enumerate(rows):
                for p, c in row.items():
                    mat[i, col_of[p]] = c
            r, _, pivots = rref(Matrix(field, mat, _trusted=True))
            nonpivot = [j for j in range(len(paths)) if j not in set(pivots)]
            for i, pc in enumerate(pivots):
                expansions[paths[pc]] = [
                    (field.neg(r.data[i, j]), paths[j]) for j in nonpivot if r.data[i, j] != 0
                ]
            block_basis = [paths[j] for j in nonpivot]
        survivors += sum(len(p[1]) >= bound for p in block_basis)
        basis.extend(block_basis)
    if survivors:
        raise NotFiniteDimensional(f"{survivors} path classes survive at length {bound}")

    basis.sort(key=lambda p: (len(p[1]), enum_order[p]))
    basis_index = {p: i for i, p in enumerate(basis)}
    basis_by_block = {}
    for i, p in enumerate(basis):
        basis_by_block.setdefault((p[0], _target(quiver, p)), []).append(i)

    def normal_form(path):
        if path in basis_index:
            return [(field.one(), path)]
        return list(expansions[path])

    return tuple(basis), basis_by_block, normal_form


def _assert_same_as_reference(alg):
    """Compare alg with the reference; return how many of its normal forms
    have more than one term."""
    basis, blocks, normal_form = reference_build(
        alg.quiver, alg.relations, alg.field, alg.nilpotency_bound
    )
    assert alg.basis == basis
    assert alg.basis_by_block == blocks
    combinations = 0
    for path in _all_paths(alg.quiver, alg.nilpotency_bound):
        expected = normal_form(path)
        assert alg.normal_form(path) == expected, path
        combinations += len(expected) > 1
    return combinations


# -- fixtures and benchmark documents ------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fixture_matches_reference(name):
    _assert_same_as_reference(BUILDERS[name]())


@pytest.mark.parametrize("name", sorted(MANIFEST["algebras"]))
def test_benchmark_algebra_matches_reference(name):
    _assert_same_as_reference(load_algebra(str(INPUTS / MANIFEST["algebras"][name]["file"])))


# -- random algebras ----------------------------------------------------------------


def _random_algebra(field, rng):
    """A small random quiver with random relations of one length (2 or 3)
    and a bound of 3 to 5, drawn again while it has over 200 paths so that
    the reference stays fast."""
    while True:
        # few vertices and several arrows, so that parallel paths abound
        vertices = [str(i) for i in range(rng.randint(1, 2))]
        arrows = [
            Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices))
            for i in range(rng.randint(2, 4))
        ]
        quiver = Quiver(vertices, arrows)
        bound = rng.randint(3, 5)
        if len(_all_paths(quiver, bound)) <= 200:
            break
    parallel = {}
    for path in _all_paths(quiver, 3):
        if len(path[1]) >= 2:
            parallel.setdefault((path[0], _target(quiver, path), len(path[1])), []).append(path[1])
    relations = []
    for _, paths in sorted(parallel.items()):
        # at most 3 relations, fewer than the paths where there are several,
        # each a combination of some of them
        for _ in range(rng.randint(0, max(1, min(len(paths) - 1, 3)))):
            terms = []
            for path in rng.sample(paths, rng.randint(1, len(paths))):
                c = field.zero()
                while c == 0:
                    c = field.random_scalar(rng)
                terms.append((c, path))
            relations.append(Relation(terms))
    return quiver, relations, bound


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_random_homogeneous_algebras_match_reference(field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"algebra-reference-{field_name}")
    outcomes = {"finite": 0, "infinite": 0, "combinations": 0}
    for _ in range(100):
        quiver, relations, bound = _random_algebra(field, rng)
        try:
            alg = BoundQuiverAlgebra(quiver, relations, field, bound)
        except NotFiniteDimensional:
            with pytest.raises(NotFiniteDimensional):
                reference_build(quiver, relations, field, bound)
            outcomes["infinite"] += 1
            continue
        outcomes["combinations"] += _assert_same_as_reference(alg)
        outcomes["finite"] += 1
    # both outcomes and normal forms of several terms must be exercised, or
    # the draw tests too little
    assert min(outcomes.values()) >= 10, outcomes
