"""The Hom layer against the code it replaced, kept here as references.

hom_basis, TensorSpace and tensor_map used to build their Kronecker-shaped
blocks with np.kron and identity matrices; push_coords used to build a
ModuleMap for each basis element, compose it and flatten it again.  The
indexed writes must give the same systems entry for entry, and the
per-vertex products the same coordinates, over every backend: int64 (F2,
F5, p = 2^31 - 1), Python ints (p > 2^32) and fractions (Q).  A tensor
space writes no system or block of its own: it is read off Hom(b, D a),
and tensor_map off pushforwards between such Hom spaces, so the balancing
relations and the blocks f_v (x) g_v by np.kron are references for their
projection, free columns and matrices alone.

A system is written by one of exactla's two writers, _kron_rows (numpy
arrays) or _kron_lists (Python lists, for small F_p systems and every Q
system), and whichever wrote it is compared with the reference.  Over Q
the list writer writes integers, the system times d, the common
denominator of the entries of its terms: they must be d times the
reference, entry for entry.
Every Hom space writes exactly one system, Hom(P(v), m) and Hom(m, I(v))
included, and its stack and free columns are the kernel of the Kronecker
reference system, bit for bit.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebras import BUILDERS
from oracles import basis_maps, section
from test_kernel_reference import assert_same_kernel, reference_kron_kernel
from stabhom import exactla, homology
from stabhom.algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    ModuleMap,
    Representation,
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
    Subspace,
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
    """The balancing relations x (x) alpha.y - x.alpha (x) y from I (x) B^T and A^T (x) I."""
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
            block[:, offs[u] : offs[u] + left.cols] -= left.data
        if right.cols:
            block[:, offs[w] : offs[w] + right.cols] += right.data
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
    flats = [transform(f).flat() for f in basis_maps(source)]
    fm = np.array(flats, dtype=field.dtype).reshape(len(flats), target.stack.cols)
    return target.coords_of_flats(Matrix(field, fm))


# -- assembly ---------------------------------------------------------------------------


@contextmanager
def _written_systems(field):
    """The Kronecker systems homology writes in this block, from either
    writer, each as a pair (matrix over field, d): _kron_rows' arrays, or
    _kron_lists' rows, copied before the list core eliminates them in
    place.  d is 1 over F_p; over Q it is the lcm of the denominators of
    the entries of the terms that write rows.  The rows must be Python
    ints, over F_p of absolute value below p (the writer does not reduce
    them), and are read mod p."""
    systems, scales = [], []
    solve, write_rows, write_lists = exactla.kron_kernel, exactla._kron_rows, exactla._kron_lists

    def kernel(over, offs, total, terms):
        entries = [x for _, m1, _, m2 in terms if m1.shape[0] * m2.shape[0]
                   for m in (m1, m2) for x in m.ravel().tolist()]
        scales.append(1 if over.p else lcm(*(Fraction(x).denominator for x in entries)))
        return solve(over, offs, total, terms)

    def rows(*args):
        out = write_rows(*args)
        systems.append((out, scales[-1]))
        return out

    def lists(offs, total, terms):
        out = write_lists(offs, total, terms)
        assert all(type(x) is int for row in out for x in row)
        if field.p:
            assert all(abs(x) < field.p for row in out for x in row)
        data = np.array(out, dtype=field.dtype).reshape(len(out), total)
        systems.append((Matrix(field, field.normalize(data), _trusted=True), scales[-1]))
        return out

    with mock.patch.object(homology, "kron_kernel", kernel), \
            mock.patch.object(exactla, "_kron_rows", rows), \
            mock.patch.object(exactla, "_kron_lists", lists):
        yield systems


def _assert_written(systems, want):
    """One system was written, and it is want times its d, exactly."""
    [(got, d)] = systems
    assert got.shape == want.shape
    assert got.data.tolist() == [[d * x for x in row] for row in want.data.tolist()]


def _assert_hom_matches(a, b):
    # the build itself: hom_basis may answer from its memo without a system
    with _written_systems(a.algebra.field) as systems:
        hom = homology._build_hom(a, b)
    want = _hom_system_by_kron(a, b)
    _assert_written(systems, want)
    ref = HomSpace(a, b, *kernel_basis(want, with_free=True))
    assert hom.stack == ref.stack
    assert hom.stack.data.dtype == ref.stack.data.dtype
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
def test_hom_from_a_projective_or_into_an_injective_equals_the_kronecker_reference(name, side, k):
    alg = _algebra(name, k)
    mods = [zero_module(alg, side)] + _modules(alg, side, random.Random(k), 6)
    for v in alg.quiver.vertices:
        mods += [simple(alg, v, side), indec_projective(alg, v, side), indec_injective(alg, v, side)]
    for v in alg.quiver.vertices:
        p, i = indec_projective(alg, v, side), indec_injective(alg, v, side)
        for m in mods:
            for a, b in ((p, m), (m, i)):
                _assert_hom_matches(a, b)
                assert hom_basis(a, b).dim == m.dims[v]


@settings(max_examples=100, deadline=None)
@given(cases)
def test_tensor_relations_and_blocks_equal_the_kronecker_reference(case):
    k, name, _, seed = case
    alg = _algebra(name, k)
    rng = random.Random(seed)
    a, a2 = _modules(alg, RIGHT, rng, 2)
    b, b2 = _modules(alg, LEFT, rng, 2)
    ts = TensorSpace(a, b)
    want = _tensor_relations_by_kron(a, b)
    ref = Subspace(alg.field, ts.ambient_dim, want).quotient()
    assert ts.quotient.projection == ref.projection
    assert ts.quotient.free == ref.free
    f, g = random_hom_element(a, a2, rng), random_hom_element(b, b2, rng)
    for ff, gg, ends in ((None, None, (a, b)), (f, None, (a2, b)), (None, g, (a, b2)), (f, g, (a2, b2))):
        src, dst = TensorSpace(a, b), TensorSpace(*ends)
        want = _tensor_block_by_kron(src, dst, ff, gg)
        got = tensor_map(src, dst, ff, gg)
        assert got == dst.quotient.projection @ want @ section(src.quotient)


FIXTURES = [name for name in BUILDERS if not name.endswith("_rational")]


@pytest.mark.parametrize("k", range(len(FIELDS)), ids=[repr(f) for f in FIELDS])
@pytest.mark.parametrize("name", FIXTURES)
def test_a_tensor_with_a_projective_factor_equals_the_kronecker_reference(name, k):
    # a fresh algebra: every Hom space below is built here, none remembered
    alg = BUILDERS[name](FIELDS[k])
    rng = random.Random(k)
    pairs, seen = [], set()
    for v in alg.quiver.vertices:
        p, pr = indec_projective(alg, v, LEFT), indec_projective(alg, v, RIGHT)
        for a in [zero_module(alg, RIGHT), simple(alg, v, RIGHT)] + _modules(alg, RIGHT, rng, 3):
            pairs.append((a, p))
        for b in [zero_module(alg, LEFT), simple(alg, v, LEFT)] + _modules(alg, LEFT, rng, 3):
            pairs.append((pr, b))
    for a, b in pairs:
        if (a.key, b.key) in seen:
            continue
        seen.add((a.key, b.key))
        ts = TensorSpace(a, b)
        ref = Subspace(alg.field, ts.ambient_dim, _tensor_relations_by_kron(a, b)).quotient()
        assert ts.quotient.projection.data.dtype == ref.projection.data.dtype
        assert ts.quotient.projection == ref.projection
        assert ts.quotient.free == ref.free


def _rescaled(m, rng):
    """m conjugated at each vertex by a diagonal matrix of nonzero Fractions
    with numerators and denominators up to 2^70: an isomorphic module whose
    arrow matrices have large denominators."""
    field = m.algebra.field
    scale = {v: [Fraction(rng.choice([-1, 1]) * rng.randint(1, 2 ** 70), rng.randint(1, 2 ** 70))
                 for _ in range(m.dims[v])] for v in m.vertices}
    maps = {}
    for ar in m.algebra.quiver.arrows:
        x, y = arrow_ends(ar, m.side)
        a = m.arrow_maps[ar.name].data
        data = np.empty(a.shape, dtype=object)
        for i, j in np.ndindex(*a.shape):
            data[i, j] = scale[y][i] * a[i, j] / scale[x][j]
        maps[ar.name] = Matrix(field, data, _trusted=True)
    return Representation(m.algebra, m.side, dict(m.dims), maps)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_q_systems_are_written_in_integers_d_times_the_reference(case):
    # over Q the rows are d times the reference, d the lcm of the denominators
    _, name, side, seed = case
    alg = _algebra(name, FIELDS.index(Field.rational()))
    rng = random.Random(seed)
    a, b = (_rescaled(m, rng) for m in _modules(alg, side, rng, 2))
    _assert_hom_matches(a, b)


def test_a_q_hom_system_makes_fractions_only_for_its_kernel_basis(monkeypatch):
    """A Q Hom space is solved on integer rows: the numpy writer (_kron_rows)
    is not called, and the only Fractions made are the basis entries off
    its free columns, at most free x pivots, one Fraction(0) and one
    Fraction(1).  A Fraction is made either by Fraction.__new__ or, from
    integers, by exactla._fraction, which does not call it: both are
    counted."""
    alg = _algebra("kronecker", FIELDS.index(Field.rational()))
    rng = random.Random(1)
    a, b = (_rescaled(direct_sum(_modules(alg, LEFT, rng, 3)).module, rng) for _ in range(2))
    made = []
    make, make_from_integers = Fraction.__new__, exactla._fraction

    def counting(cls, *args, **kwargs):
        made.append(args)
        return make(cls, *args, **kwargs)

    def counting_from_integers(n, d):
        made.append((n, d))
        return make_from_integers(n, d)

    with mock.patch.object(exactla, "_kron_rows") as rows:
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        monkeypatch.setattr(exactla, "_fraction", counting_from_integers)
        hom = homology._build_hom(a, b)
        monkeypatch.undo()
    assert not rows.called
    free, pivots = len(hom.free), hom.stack.cols - len(hom.free)
    assert free and pivots and 2 < len(made) <= free * pivots + 2
    ref = kernel_basis(_hom_system_by_kron(a, b), with_free=True)
    assert (hom.stack, hom.free) == ref


# -- the two routes of the Kronecker kernel -----------------------------------------------

ROUTE_FIELDS = [Field.prime(2), Field.prime(5), Field.prime(2147483647), Field.prime(4294967311)]


def _kron_case(args):
    """(field, offs, total, terms) of a Hom or a tensor system between two
    random representations of a random quiver on 1-3 vertices, with loops
    and zero-dimensional vertices: Hom terms (x, B, y, A^T) for arrows
    x -> y with offsets of the b_v x a_v blocks, tensor terms
    (u, A^T, w, B^T) for arrows u -> w, a on the right, with offsets of
    the a_v x b_v blocks."""
    field, kind, nverts, narrows, density, seed = args
    rng = random.Random(seed)
    verts = [str(v) for v in range(nverts)]
    da = {v: rng.randint(0, 3) for v in verts}
    db = {v: rng.randint(0, 3) for v in verts}

    def arrow_matrix(rows, cols):
        data = [[rng.randrange(1, field.p) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]
        return np.array(data, dtype=field.dtype).reshape(rows, cols)

    terms = []
    for _ in range(narrows):
        s, t = rng.choice(verts), rng.choice(verts)  # s = t is a loop
        if kind == "hom":
            a, b = arrow_matrix(da[t], da[s]), arrow_matrix(db[t], db[s])
            terms.append((s, b, t, a.T))
        else:
            a, b = arrow_matrix(da[s], da[t]), arrow_matrix(db[t], db[s])
            terms.append((s, a.T, t, b.T))
    rows, cols = (db, da) if kind == "hom" else (da, db)
    offs, total = _offsets(verts, rows, cols)
    return field, offs, total, terms


kron_cases = st.tuples(
    st.sampled_from(ROUTE_FIELDS),
    st.sampled_from(["hom", "tensor"]),
    st.integers(1, 3),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 10 ** 6),
).map(_kron_case)


@settings(max_examples=300, deadline=None)
@given(kron_cases)
def test_the_list_route_of_the_kronecker_kernel_equals_the_numpy_route(case):
    field, offs, total, terms = case
    with mock.patch.object(exactla, "SMALL_ENTRIES", 10 ** 9), \
            mock.patch.object(exactla, "_kron_rows") as numpy_route:
        got, got_free = exactla.kron_kernel(field, offs, total, terms)
    assert not numpy_route.called
    with mock.patch.object(exactla, "SMALL_ENTRIES", -1), \
            mock.patch.object(exactla, "_kron_lists") as list_route:
        want, want_free = exactla.kron_kernel(field, offs, total, terms)
    assert not list_route.called
    assert (want, want_free) == kernel_basis(exactla._kron_rows(field, offs, total, terms), with_free=True)
    assert got_free == want_free
    assert got == want
    assert got.data.dtype == want.data.dtype == field.dtype
    if field.dtype == object:
        assert all(type(x) is int for x in got.data.ravel().tolist() + want.data.ravel().tolist())
    # and bit for bit the route it replaced, at the real bound
    assert_same_kernel(exactla.kron_kernel(field, offs, total, terms),
                       reference_kron_kernel(field, offs, total, terms))


def _one_column_system(field, rows, total):
    """A rows x total system whose first column is nonzero in every row: one
    term (x, ones (rows x 1), y, 1 x 0) with x's block at column 0 and y's
    (empty) after it; no term when rows is 0."""
    ones = np.ones((rows, 1), dtype=field.dtype)
    terms = [("x", ones, "y", np.zeros((1, 0), dtype=field.dtype))] if rows else []
    return field, {"x": 0, "y": 1}, total, terms


# the side of exactla's bound, rows x total = SMALL_ENTRIES = N^2
N = isqrt(exactla.SMALL_ENTRIES)
ROUTE_SIZES = [
    (N, N, True),
    (N, N + 1, False),
    (1, N * N, True),
    (1, N * N + 1, False),
    (1, N + 1, True),
    (0, N + 1, True),
]


@pytest.mark.parametrize(
    "rows, total, lists", ROUTE_SIZES, ids=[f"{r}x{t}" for r, t, _ in ROUTE_SIZES]
)
def test_the_kronecker_kernel_route_is_chosen_by_size(rows, total, lists):
    # _eliminate's rule on the system's rows x total entries, whatever the
    # size of its kernel basis
    assert N * N == exactla.SMALL_ENTRIES
    for field in (Field.prime(5), Field.rational()):
        with mock.patch.object(exactla, "_kron_lists", wraps=exactla._kron_lists) as list_route, \
                mock.patch.object(exactla, "_kron_rows", wraps=exactla._kron_rows) as numpy_route:
            basis, free = exactla.kron_kernel(*_one_column_system(field, rows, total))
        # Q always takes the list route, at any size
        takes_lists = lists or field.p is None
        assert (list_route.call_count, numpy_route.call_count) == (int(takes_lists), int(not takes_lists))
        assert free == tuple(range(1 if rows else 0, total))
        assert basis.shape == (len(free), total)


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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_push_coords_through_a_zero_vertex_equals_the_per_basis_reference(field):
    """On A2, S(2) is zero at vertex 1 where P(1) + P(2) and P(1) are not:
    composing through S(2), every entry at vertex 1 is an empty sum, which
    must be a zero of the field's own type on every backend."""
    alg = BUILDERS["a2"](field)
    p1, s2 = indec_projective(alg, "1"), simple(alg, "2")
    a = direct_sum([p1, indec_projective(alg, "2")]).module
    assert s2.dims["1"] == 0 and a.dims["1"] == p1.dims["1"] == 1
    into, out_of, target = hom_basis(a, s2), hom_basis(s2, p1), hom_basis(a, p1)
    assert into.dim == out_of.dim == 1
    for source, kw, transform in (
        (into, {"post": out_of.element([1])}, lambda g: out_of.element([1]) @ g),
        (out_of, {"pre": into.element([1])}, lambda g: g @ into.element([1])),
    ):
        got, want = push_coords(source, target, **kw), _push_by_maps(source, target, transform)
        assert got == want
        assert [type(x) for x in got.entries()] == [type(x) for x in want.entries()]


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
