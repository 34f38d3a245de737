"""The Hom layer against the code it replaced, kept here as references.

hom_basis, TensorSpace and tensor_map used to build their Kronecker-shaped
blocks with np.kron and identity matrices; push_coords used to build a
ModuleMap for each basis element, compose it and flatten it again.  The
indexed writes must give the same systems entry for entry, and the
per-vertex products the same coordinates, over every backend: int64 (F2,
F5, p = 2^31 - 1), Python ints (p > 2^32) and fractions (Q).

Hom(P(v), m) and Hom(m, I(v)) build no system at all: they are read off the
path labels of P(v) (Yoneda).  Their stacks and free columns must still be
the kernel of the Kronecker reference system, bit for bit.
"""

import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebras import BUILDERS
from stabhom import homology
from stabhom.algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    ModuleMap,
    arrow_ends,
    direct_sum,
    indec_injective,
    indec_projective,
    simple,
    zero_module,
)
from stabhom.cli.randmod import random_hom_element, random_module
from stabhom.exactla import (
    Field,
    Matrix,
    QuotientSpace,
    Subspace,
    _kernel_form,
    kernel_basis,
    vstack,
)
from stabhom.homology import HomSpace, TensorSpace, hom_basis, push_coords, tensor_map

FIELDS = [
    Field.prime(2),
    Field.prime(5),
    Field.rational(),
    Field.prime(2147483647),
    Field.prime(4294967311),
]
# loop2 and loop3 have a loop (an arrow x -> x), nakayama an oriented cycle
ALGEBRAS = ("a2", "kronecker", "square", "loop2", "loop3", "nakayama")


@lru_cache(maxsize=None)
def _algebra(name, k):
    return BUILDERS[name](FIELDS[k])


def _modules(alg, side, rng, count):
    """Random modules, with zero vertex dimensions, mixed with indecomposable
    projectives and injectives so that Hom spaces between them are rarely 0."""
    out = []
    for _ in range(count):
        v = rng.choice(alg.quiver.vertices)
        extra = rng.choice([indec_projective, indec_injective, simple])(alg, v, side)
        m = random_module(alg, side, 2, rng)[0]
        out.append(rng.choice([m, extra, direct_sum([m, extra]).module]))
    return out


cases = st.tuples(
    st.integers(0, len(FIELDS) - 1),
    st.sampled_from(ALGEBRAS),
    st.sampled_from([LEFT, RIGHT]),
    st.integers(0, 10 ** 6),
)


# -- the references ---------------------------------------------------------------


def _kron(x, y):
    return Matrix(x.field, x.field.normalize(np.kron(x.data, y.data)), _trusted=True)


def _offsets(verts, rows, cols):
    offs, total = {}, 0
    for v in verts:
        offs[v] = total
        total += rows[v] * cols[v]
    return offs, total


def _hom_system_by_kron(a, b):
    """The intertwiner system phi_y A - B phi_x = 0 from I (x) A^T and B (x) I."""
    field = a.algebra.field
    offs, total = _offsets(a.vertices, b.dims, a.dims)
    rows = []
    for ar in a.algebra.quiver.arrows:
        x, y = arrow_ends(ar, a.side)
        da_x, db_y = a.dims[x], b.dims[y]
        if db_y * da_x == 0:
            continue
        block = Matrix.zeros(field, db_y * da_x, total).data.copy()
        ky = _kron(Matrix.identity(field, db_y), a.arrow_maps[ar.name].transpose())
        kx = _kron(b.arrow_maps[ar.name], Matrix.identity(field, da_x))
        if ky.cols:
            block[:, offs[y] : offs[y] + ky.cols] += ky.data
        if kx.cols:
            block[:, offs[x] : offs[x] + kx.cols] -= kx.data
        rows.append(Matrix(field, field.normalize(block), _trusted=True))
    return vstack(field, rows, cols=total)


def _tensor_relations_by_kron(a, b):
    """The balancing relations x.alpha (x) y - x (x) alpha.y from A^T (x) I and I (x) B^T."""
    field = a.algebra.field
    offs, total = _offsets(a.vertices, a.dims, b.dims)
    rows = []
    for ar in a.algebra.quiver.arrows:
        u, w = ar.source, ar.target
        if a.dims[w] * b.dims[u] == 0:
            continue
        block = Matrix.zeros(field, a.dims[w] * b.dims[u], total).data.copy()
        left = _kron(a.arrow_maps[ar.name].transpose(), Matrix.identity(field, b.dims[u]))
        right = _kron(Matrix.identity(field, a.dims[w]), b.arrow_maps[ar.name].transpose())
        if left.cols:
            block[:, offs[u] : offs[u] + left.cols] += left.data
        if right.cols:
            block[:, offs[w] : offs[w] + right.cols] -= right.data
        rows.append(Matrix(field, field.normalize(block), _trusted=True))
    return vstack(field, rows, cols=total)


def _tensor_block_by_kron(src, dst, f, g):
    """tensor_map's vertexwise matrix f_v (x) g_v, identities standing in for None."""
    field = src.left_arg.algebra.field
    big = Matrix.zeros(field, dst.ambient_dim, src.ambient_dim).data.copy()
    for v in src.left_arg.vertices:
        fv = f.vertex_maps[v] if f else Matrix.identity(field, src.left_arg.dims[v])
        gv = g.vertex_maps[v] if g else Matrix.identity(field, src.right_arg.dims[v])
        blk = _kron(fv, gv)
        if blk.rows and blk.cols:
            big[
                dst.offsets[v] : dst.offsets[v] + blk.rows,
                src.offsets[v] : src.offsets[v] + blk.cols,
            ] = blk.data
    return Matrix(field, field.normalize(big), _trusted=True)


def _push_by_maps(source, target, transform):
    """push_coords as a ModuleMap per basis element, composed and flattened."""
    field = source.stack.field
    flats = [transform(f).flat() for f in source.basis_maps()]
    fm = np.array(flats, dtype=field.dtype).reshape(len(flats), target.stack.cols)
    return target.coords_of_flats(Matrix(field, fm))


# -- assembly ---------------------------------------------------------------------------


def _yoneda_shape(a, b):
    """Whether a is an indecomposable projective or b an indecomposable
    injective, building every one of them on their side first: the Yoneda
    route knows those built so far."""
    alg, side = a.algebra, a.side
    return any(
        a == indec_projective(alg, v, side) or b == indec_injective(alg, v, side)
        for v in alg.quiver.vertices
    )


def _assert_hom_matches(a, b):
    yoneda_shape = _yoneda_shape(a, b)
    # the build itself: hom_basis may answer from its memo without a system
    with mock.patch.object(homology, "kernel_basis", wraps=kernel_basis) as spy, \
            mock.patch.object(homology, "_kernel_form", wraps=_kernel_form) as yoneda:
        hom = homology._build_hom(a, b)
    want = _hom_system_by_kron(a, b)
    if yoneda_shape:
        # read off the path labels of P(v): no system is built or eliminated
        assert not spy.called
        assert yoneda.call_count == 1
    else:
        assert spy.call_args.args[0] == want
        assert not yoneda.called
    ref = HomSpace(a, b, *kernel_basis(want, with_free=True))
    assert hom.stack == ref.stack
    assert hom.free == ref.free
    assert hom_basis(a, b).stack == ref.stack


@settings(max_examples=150, deadline=None)
@given(cases)
def test_hom_system_equals_the_kronecker_reference(case):
    k, name, side, seed = case
    rng = random.Random(seed)
    a, b = _modules(_algebra(name, k), side, rng, 2)
    _assert_hom_matches(a, b)


@pytest.mark.parametrize("k", range(len(FIELDS)), ids=[repr(f) for f in FIELDS])
@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_hom_system_equals_the_kronecker_reference_on_canonical_modules(name, side, k):
    # simples and the zero module have zero dimensions at some or all vertices
    alg = _algebra(name, k)
    mods = [zero_module(alg, side)]
    for v in alg.quiver.vertices:
        mods += [simple(alg, v, side), indec_projective(alg, v, side), indec_injective(alg, v, side)]
    for a in mods:
        for b in mods:
            _assert_hom_matches(a, b)


@pytest.mark.parametrize("k", range(len(FIELDS)), ids=[repr(f) for f in FIELDS])
@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_hom_from_a_projective_or_into_an_injective_is_read_off_path_labels(name, side, k):
    alg = _algebra(name, k)
    mods = [zero_module(alg, side)] + _modules(alg, side, random.Random(k), 6)
    for v in alg.quiver.vertices:
        mods += [simple(alg, v, side), indec_projective(alg, v, side), indec_injective(alg, v, side)]
    for v in alg.quiver.vertices:
        p, i = indec_projective(alg, v, side), indec_injective(alg, v, side)
        for m in mods:
            for a, b in ((p, m), (m, i)):
                assert _yoneda_shape(a, b)
                _assert_hom_matches(a, b)
                assert hom_basis(a, b).dim == m.dims[v]


def _identity_quotient(ts):
    field = ts.left_arg.algebra.field
    return QuotientSpace(Matrix.identity(field, ts.ambient_dim), range(ts.ambient_dim))


@settings(max_examples=100, deadline=None)
@given(cases)
def test_tensor_relations_and_blocks_equal_the_kronecker_reference(case):
    k, name, _, seed = case
    alg = _algebra(name, k)
    rng = random.Random(seed)
    a, a2 = _modules(alg, RIGHT, rng, 2)
    b, b2 = _modules(alg, LEFT, rng, 2)
    with mock.patch.object(homology, "Subspace", wraps=Subspace) as spy:
        TensorSpace(a, b)
    assert spy.call_args.args[2] == _tensor_relations_by_kron(a, b)
    f, g = random_hom_element(a, a2, rng), random_hom_element(b, b2, rng)
    for ff, gg, ends in ((None, None, (a, b)), (f, None, (a2, b)), (None, g, (a, b2)), (f, g, (a2, b2))):
        src, dst = TensorSpace(a, b), TensorSpace(*ends)
        want = _tensor_block_by_kron(src, dst, ff, gg)
        got = tensor_map(src, dst, ff, gg)
        assert got == dst.quotient.projection @ want @ src.quotient.section
        # through identity quotients tensor_map returns its vertexwise block itself
        src.quotient, dst.quotient = _identity_quotient(src), _identity_quotient(dst)
        assert tensor_map(src, dst, ff, gg) == want


# -- pushforward ------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(cases)
def test_push_coords_equals_the_per_basis_reference(case):
    k, name, side, seed = case
    rng = random.Random(seed)
    a, b, c = _modules(_algebra(name, k), side, rng, 3)
    source = hom_basis(a, b)
    pre = random_hom_element(c, a, rng)
    target = hom_basis(c, b)
    assert push_coords(source, target, pre=pre) == _push_by_maps(source, target, lambda g: g @ pre)
    post = random_hom_element(b, c, rng)
    target = hom_basis(a, c)
    assert push_coords(source, target, post=post) == _push_by_maps(source, target, lambda g: post @ g)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_push_coords_from_a_zero_hom_space_is_an_empty_matrix(field):
    alg = BUILDERS["a2"](field)
    p, zero = indec_projective(alg, "1"), zero_module(alg, LEFT)
    target = hom_basis(p, p)
    assert target.dim == 1
    pre = push_coords(hom_basis(zero, p), target, pre=ModuleMap.zero(p, zero))
    post = push_coords(hom_basis(p, zero), target, post=ModuleMap.zero(zero, p))
    assert pre.shape == post.shape == (0, 1)


def test_push_coords_checks_the_composition_domain(a2):
    p1, p2 = indec_projective(a2, "1"), indec_projective(a2, "2")
    source = hom_basis(p1, p1)
    with pytest.raises(AlgebraError, match="composition domain mismatch"):
        push_coords(source, hom_basis(p2, p1), pre=ModuleMap.identity(p2))
    with pytest.raises(AlgebraError, match="composition domain mismatch"):
        push_coords(source, hom_basis(p1, p2), post=ModuleMap.identity(p2))
    ident = ModuleMap.identity(p1)
    with pytest.raises(TypeError, match="exactly one"):
        push_coords(source, source)
    with pytest.raises(TypeError, match="exactly one"):
        push_coords(source, source, pre=ident, post=ident)
