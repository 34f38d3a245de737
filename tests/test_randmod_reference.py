"""randmod's relation solve and projective quotient against the code they
replaced, kept here as references.

_linear_system used to build each relation block as the sum over terms of
c * np.kron(L, R^T), with an identity matrix standing in for a missing L
or R.  It now writes every term as one broadcast product c L (x) R^T,
with np.eye for a missing factor and c L reduced before the product.  The
system and its right-hand side must be the same entry for entry, over
every backend of the fields below, with the target arrow first, last and
in the middle of a term, and in two terms of one relation.

_projective_quotient used to close its generators under the arrows by a
fixpoint (_invariant_span) and take the cokernel of the SubRep's
inclusion.  It now spans the submodule by the path labels of P(v) applied
to each generator.  The quotient module and the next draw of the random
generator must be the same, on every fixture algebra and both sides.
"""

import random

import numpy as np
import pytest

from algebras import BUILDERS
from stabhom.algebra import (
    LEFT,
    RIGHT,
    Arrow,
    BoundQuiverAlgebra,
    Quiver,
    Relation,
    SubRep,
    arrow_ends,
    arrow_shape,
    compose_path,
    direct_sum,
    in_application_order,
    indec_projective,
)
from stabhom.cli.randmod import _linear_system, _projective_quotient, _random_arrows
from stabhom.cli.serialize import module_to_dict
from stabhom.exactla import Field, Matrix, Subspace
from stabhom.homology import cokernel_map

FIELDS = [Field.prime(2), Field.prime(5), Field.rational(), Field.prime(2147483647)]


def _linear_system_by_kron(alg, side, dims, maps, target):
    field = alg.field
    tgt_arrow = alg.quiver.arrow_by_name[target]
    x_rows, x_cols = arrow_shape(dims, tgt_arrow, side)
    blocks = []
    rhs_parts = []
    for rel in alg.relations:
        touches = any(target in arrows for _, arrows in rel.terms)
        if not touches:
            acc = None
            for coeff, arrows in rel.terms:
                term = compose_path(maps, arrows, side).scale(coeff)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                return None, None, (x_rows, x_cols)
            continue
        coef_block = None
        const = None
        for coeff, arrows in rel.terms:
            if target not in arrows:
                term = compose_path(maps, arrows, side).scale(coeff)
                const = term if const is None else const + term
                continue
            pos = arrows.index(target)
            applied_first, applied_last = in_application_order(
                (arrows[:pos], arrows[pos + 1 :]), side
            )
            left = (
                compose_path(maps, applied_last, side)
                if applied_last
                else Matrix.identity(field, x_rows)
            )
            right = (
                compose_path(maps, applied_first, side)
                if applied_first
                else Matrix.identity(field, x_cols)
            )
            kron = Matrix(
                field,
                field.normalize(np.kron(left.data, right.data.T)),
                _trusted=True,
            ).scale(coeff)
            coef_block = kron if coef_block is None else coef_block + kron
        size = coef_block.rows
        blocks.append(coef_block)
        if const is None:
            rhs_parts.extend([field.zero()] * size)
        else:
            rhs_parts.extend((-const).entries())
    if not blocks:
        return None, None, (x_rows, x_cols)
    system = Matrix(
        field,
        field.normalize(np.concatenate([b.data for b in blocks], axis=0)),
        _trusted=True,
    )
    rhs = Matrix(
        field,
        field.normalize(np.array([rhs_parts], dtype=field.dtype).T),
        _trusted=True,
    )
    return system, rhs, (x_rows, x_cols)


def diamond_algebra(field):
    """1 -a-> 2 =b,c=> 3 -d-> 4 with a.b.d + 3 a.c.d = 0 and a.b - 2 a.c = 0:
    a opens and d closes two terms of one relation, b and c sit in the
    middle of a term and at the end of one."""
    q = Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "3"), Arrow("d", "3", "4")],
    )
    rels = [
        Relation([(field.one(), ("a", "b", "d")), (field.coerce(3), ("a", "c", "d"))]),
        Relation([(field.one(), ("a", "b")), (field.coerce(-2), ("a", "c"))]),
    ]
    return BoundQuiverAlgebra(q, rels, field, 4)


def _algebras(field):
    yield "diamond", diamond_algebra(field)
    for name in ("square", "nakayama", "loop3"):
        yield name, BUILDERS[name](field)


def _positions(alg, target):
    """Where target sits in the terms that mention it."""
    out = set()
    for rel in alg.relations:
        hits = [arrows for _, arrows in rel.terms if target in arrows]
        if len(hits) > 1:
            out.add("two terms")
        for arrows in hits:
            pos = arrows.index(target)
            out.add("first" if pos == 0 else "last" if pos == len(arrows) - 1 else "middle")
    return out


def _targets(alg):
    """Arrows mentioned by a relation but never twice in one term."""
    doubled = {n for rel in alg.relations for _, ar in rel.terms for n in ar if ar.count(n) > 1}
    mentioned = {n for rel in alg.relations for _, ar in rel.terms for n in ar}
    return [a.name for a in alg.quiver.arrows if a.name in mentioned - doubled]


def test_the_cases_cover_every_position_of_the_target():
    alg = diamond_algebra(Field.prime(5))
    seen = set()
    for target in _targets(alg):
        seen |= _positions(alg, target)
    assert seen == {"first", "last", "middle", "two terms"}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_linear_system_equals_the_kronecker_reference(field, side):
    rng = random.Random(5)
    solved = 0
    for _, alg in _algebras(field):
        for target in _targets(alg):
            for _ in range(6):
                dims = {v: rng.randrange(4) for v in alg.quiver.vertices}
                maps = _random_arrows(alg, side, dims, rng, skip=target)
                got = _linear_system(alg, side, dims, maps, target)
                want = _linear_system_by_kron(alg, side, dims, maps, target)
                assert got[2] == want[2]
                assert (got[0] is None) == (want[0] is None)
                if got[0] is not None:
                    solved += 1
                    assert got[0] == want[0]
                    assert got[1] == want[1]
    assert solved >= 10


def _invariant_span(parent, vectors):
    """Arrow-closure of vertexwise generating vectors inside parent."""
    field = parent.algebra.field
    spans = {
        v: Subspace(
            field,
            parent.dims[v],
            Matrix(
                field,
                np.array(vectors.get(v, []), dtype=field.dtype).reshape(
                    -1, parent.dims[v]
                ),
                _trusted=True,
            )
            if vectors.get(v)
            else None,
        )
        for v in parent.vertices
    }
    changed = True
    while changed:
        changed = False
        for a in parent.algebra.quiver.arrows:
            src, tgt = arrow_ends(a, parent.side)
            basis = spans[src].basis
            if basis.rows == 0:
                continue
            pushed = (parent.arrow_maps[a.name] @ basis.transpose()).transpose()
            enlarged = spans[tgt] + Subspace(field, parent.dims[tgt], pushed)
            if enlarged.dim != spans[tgt].dim:
                spans[tgt] = enlarged
                changed = True
    return spans


def _projective_quotient_by_closure(alg, side, max_dim, rng):
    """The quotient as randmod built it before, and the submodule's dimension."""
    vertices = list(alg.quiver.vertices)
    summands = [
        indec_projective(alg, rng.choice(vertices), side)
        for _ in range(rng.randrange(1, 3))
    ]
    parent = direct_sum(summands).module
    field = alg.field
    generators = {v: [] for v in parent.vertices}
    for _ in range(rng.randrange(0, 3)):
        v = rng.choice(vertices)
        if parent.dims[v] == 0:
            continue
        generators[v].append(
            [field.random_scalar(rng) for _ in range(parent.dims[v])]
        )
    spans = _invariant_span(parent, generators)
    sub = SubRep(parent, spans)
    if sub.dim == 0:
        return parent, 0
    quotient, _ = cokernel_map(sub.inclusion)
    return quotient, sub.dim


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_projective_quotient_equals_the_arrow_closure_reference(name, side):
    alg = BUILDERS[name]()
    proper = 0
    for seed in range(80):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = _projective_quotient(alg, side, 3, got_rng)
        want, sub_dim = _projective_quotient_by_closure(alg, side, 3, want_rng)
        assert module_to_dict(got) == module_to_dict(want)
        assert got.key == want.key
        assert got_rng.random() == want_rng.random()
        proper += sub_dim > 0
    # a third of the draws or more quotient by a nonzero submodule
    assert proper >= 80 // 3
