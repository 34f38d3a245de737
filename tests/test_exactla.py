import pickle
import random
import time
from fractions import Fraction
from math import isqrt, lcm
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from stabhom import exactla
from stabhom.exactla import (
    Field,
    FieldMismatch,
    Matrix,
    ShapeMismatch,
    Subspace,
    coordinates,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
    vstack,
)
from oracles import section

FIELDS = [Field.prime(2), Field.prime(5), Field.rational()]
P31 = 2147483647  # largest prime whose products of two entries fit int64
P32 = 4294967311  # smallest prime above 2^32: computed with Python ints


def field_strategy():
    return st.sampled_from(FIELDS)


def matrix_strategy(max_dim=4, fields=FIELDS):
    return st.tuples(
        st.sampled_from(fields),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.integers(0, 10 ** 6),
    ).map(_build_matrix)


def _build_matrix(args):
    field, rows, cols, seed = args
    rng = np.random.RandomState(seed)
    data = rng.randint(-3, 4, size=(rows, cols))
    return Matrix.from_rows(field, data.tolist())


# -- literal cases ---------------------------------------------------------


def test_rref_rank_one_over_f2():
    m = Matrix.from_rows(Field.prime(2), [[1, 1], [1, 1]])
    r, nrank, pivots = rref(m)
    assert nrank == 1
    assert pivots == (0,)
    assert list(r.data[0]) == [1, 1]


def test_rref_scales_pivot_over_rationals():
    m = Matrix.from_rows(Field.rational(), [[2, 4]])
    r, nrank, _ = rref(m)
    assert nrank == 1
    assert [str(x) for x in r.entries()] == ["1", "2"]


def test_kernel_of_sum_functional():
    m = Matrix.from_rows(Field.rational(), [[1, 1]])
    ker = kernel_basis(m)
    assert ker.rows == 1
    v = ker.data[0]
    assert v[0] == -v[1] and v[0] != 0


def test_solve_over_f2():
    f2 = Field.prime(2)
    m = Matrix.from_rows(f2, [[1, 1]])
    x = solve_matrix(m, Matrix.from_rows(f2, [[1]]))
    assert x is not None
    assert m @ x == Matrix.from_rows(f2, [[1]])


def test_quotient_of_plane_by_diagonal():
    q = Subspace(
        Field.rational(), 2, Matrix.from_rows(Field.rational(), [[1, 1]])
    ).quotient()
    assert q.dim == 1
    assert q.ambient_dim == 2
    assert (q.projection @ section(q)) == Matrix.identity(Field.rational(), 1)


def test_matrix_equality_and_scaling():
    f5 = Field.prime(5)
    m = Matrix.from_rows(f5, [[1, 2], [3, 4]])
    assert m.scale(2) == Matrix.from_rows(f5, [[2, 4], [6, 8]])
    assert (m - m).is_zero()
    assert m.transpose().transpose() == m


def test_field_mismatch_rejected():
    a = Matrix.from_rows(Field.prime(2), [[1]])
    b = Matrix.from_rows(Field.prime(5), [[1]])
    with pytest.raises(FieldMismatch):
        a @ b
    with pytest.raises(FieldMismatch):
        a + b


def test_shape_mismatch_rejected():
    f = Field.rational()
    a = Matrix.from_rows(f, [[1, 2]])
    b = Matrix.from_rows(f, [[1, 2]])
    with pytest.raises(ShapeMismatch):
        a @ b
    with pytest.raises(ShapeMismatch):
        Subspace(f, 3, a)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_and_full_subspaces_equal_the_eliminated_ones(field, n):
    zero = Subspace(field, n)
    assert zero == Subspace(field, n, Matrix.zeros(field, 0, n))
    assert zero.pivots == Subspace(field, n, Matrix.zeros(field, 0, n)).pivots == ()
    # the whole space, as the torsion reject gives it when Hom(a, A) = 0
    full = Subspace(field, n, kernel_basis(Matrix.zeros(field, 0, n)))
    assert full.basis == Matrix.identity(field, n) and full.pivots == tuple(range(n))


def test_reading_echelon_forms_makes_no_rref_call(monkeypatch):
    from stabhom.algebra import indec_projective
    from stabhom.homology import hom_basis
    from algebras import a2_algebra

    alg = a2_algebra()
    hom = hom_basis(indec_projective(alg, "1"), indec_projective(alg, "1"))
    u = Subspace(alg.field, 3, Matrix.from_rows(alg.field, [[1, 2, 0]]))
    calls = []
    real = exactla.rref

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(exactla, "rref", counted)
    Subspace(alg.field, 4)
    u.quotient()
    hom.coords_of_flats(hom.stack.scale(3))
    assert calls == []


def test_scalar_round_trip_formats():
    q = Field.rational()
    assert q.format_scalar(q.parse_scalar("-3/7")) == "-3/7"
    f5 = Field.prime(5)
    assert f5.parse_scalar("7") == 2
    assert f5.format_scalar(f5.coerce(-1)) == "4"


# -- properties ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).rows == m.cols


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rref_idempotent(m):
    r, nrank, pivots = rref(m)
    r2, nrank2, pivots2 = rref(r)
    assert r2 == r and nrank2 == nrank and pivots2 == pivots


def _null_rows_by_loop(r, pivots):
    """The kernel basis of r in rref with these pivots, entry by entry."""
    field = r.field
    free = [c for c in range(r.cols) if c not in pivots]
    out = Matrix.zeros(field, len(free), r.cols).data.copy()
    for k, fc in enumerate(free):
        out[k, fc] = field.one()
        for i, pc in enumerate(pivots):
            out[k, pc] = field.normalize(-r.data[i, fc])
    return Matrix(field, out, _trusted=True)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(max_dim=5))
def test_kernel_basis_is_the_identity_on_its_free_columns(m):
    r, _, pivots = rref(m)
    # the writer on the rref's rows, as Subspace.quotient calls it
    ker, free = exactla._eliminated_kernel(m.field, r.data, pivots, m.cols)
    assert ker == kernel_basis(m) == _null_rows_by_loop(r, pivots)
    assert kernel_basis(m, with_free=True) == (ker, free)
    # row k is nonzero only at free column k and at pivot columns left of it
    assert free == tuple(int(np.flatnonzero(row != 0)[-1]) for row in ker.data)
    assert free == tuple(c for c in range(m.cols) if c not in pivots)
    unit = Matrix(m.field, ker.data[:, list(free)], _trusted=True)
    assert unit == Matrix.identity(m.field, len(free))


@settings(max_examples=100, deadline=None)
@given(matrix_strategy(max_dim=5, fields=FIELDS + [Field.prime(P32)]), st.integers(0, 10 ** 6))
def test_coordinates_read_off_either_echelon_form(m, seed):
    rng = np.random.RandomState(seed)
    u = Subspace(m.field, m.cols, m)
    ker, free = kernel_basis(m, with_free=True)
    for basis, cols in ((u.basis, u.pivots), (ker, free)):
        c = Matrix.from_rows(m.field, rng.randint(-3, 4, size=(3, basis.rows)).tolist())
        assert coordinates(basis, cols, c @ basis) == c
        outside = [j for j in range(m.cols) if j not in cols]
        if outside:
            # a unit vector off the identity columns reads as 0 there, and
            # added to a vector of the span it moves it out of it
            e = Matrix.zeros(m.field, 3, m.cols).data.copy()
            e[0, outside[-1]] = m.field.one()
            e = Matrix(m.field, e)
            assert coordinates(basis, cols, Matrix(m.field, e.data[:1])) is None
            assert coordinates(basis, cols, c @ basis + e) is None


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    assert (m @ ker.transpose()).is_zero()


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(), st.integers(0, 10 ** 6))
def test_solve_recovers_consistent_systems(m, seed):
    rng = np.random.RandomState(seed)
    x0 = Matrix.from_rows(
        m.field, rng.randint(-3, 4, size=(m.cols, 2)).tolist()
    )
    b = m @ x0
    x = solve_matrix(m, b)
    assert x is not None
    assert m @ x == b


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(), st.integers(0, 10 ** 6))
def test_solve_none_means_inconsistent(m, seed):
    rng = np.random.RandomState(seed)
    b = Matrix.from_rows(m.field, rng.randint(-3, 4, size=(m.rows, 1)).tolist())
    x = solve_matrix(m, b)
    if x is None:
        mb = Matrix(m.field, np.concatenate([m.data, b.data], axis=1))
        assert rank(mb) == rank(m) + 1
    else:
        assert m @ x == b


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(max_dim=5), st.integers(0, 10 ** 6))
def test_subspace_dimension_formula(m, seed):
    field = m.field
    rng = np.random.RandomState(seed)
    other = Matrix.from_rows(
        field, rng.randint(-3, 4, size=(2, m.cols)).tolist()
    )
    u = Subspace(field, m.cols, m)
    v = Subspace(field, m.cols, other)
    s = Subspace(field, m.cols, vstack(field, [m, other]))
    for w in (u, v):
        assert rank(vstack(field, [s.basis, w.basis])) == s.dim
    assert max(u.dim, v.dim) <= s.dim <= u.dim + v.dim


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(max_dim=4))
def test_quotient_kills_exactly_the_subspace(m):
    u = Subspace(m.field, m.cols, m)
    q = u.quotient()
    assert q.dim == m.cols - u.dim
    assert u.pivots == rref(m)[2]
    assert q.projection == kernel_basis(u.basis)
    if u.dim:
        assert (q.projection @ u.basis.transpose()).is_zero()
    assert (q.projection @ section(q)) == Matrix.identity(m.field, q.dim)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(max_dim=4), st.integers(0, 10 ** 6))
def test_after_section_is_the_product_with_the_section_bit_for_bit(m, seed):
    q = Subspace(m.field, m.cols, m).quotient()
    rng = np.random.RandomState(seed)
    x = Matrix.from_rows(m.field, rng.randint(-3, 4, size=(3, m.cols)).tolist())
    got, want = q.after_section(x), x @ section(q)
    assert got.data.dtype == want.data.dtype
    assert got.data.tolist() == want.data.tolist()
    assert [type(e) for e in got.data.flat] == [type(e) for e in want.data.flat]


@settings(max_examples=40, deadline=None)
@given(matrix_strategy())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


# -- elimination against the whole-matrix reference --------------------------

ELIM_FIELDS = [Field.prime(2), Field.prime(5), Field.rational(), Field.prime(P31)]


def _rref_by_outer(m, hits=None):
    """The elimination rref replaced: it renormalizes the whole matrix at
    every pivot.  With hits, it records per pivot the number of rows with a
    nonzero entry in the pivot column (the pivot row included)."""
    field = m.field
    a = m.data.copy()
    nr, nc = a.shape
    pivots = []
    row = 0
    for col in range(nc):
        if row == nr:
            break
        piv = None
        for i in range(row, nr):
            if a[i, col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if hits is not None:
            hits.append(int(np.count_nonzero(a[:, col])))
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = field.inv(a[row, col])
        a[row] = field.normalize(a[row] * inv)
        factors = a[:, col].copy()
        factors[row] = field.zero()
        a = field.normalize(a - np.outer(factors, a[row]))
        pivots.append(col)
        row += 1
    return Matrix(field, a, _trusted=True), len(pivots), tuple(pivots)


def _python_int_copy(m):
    """m over a prime field with its entries as Python ints in an object
    array, where the reference's products cannot overflow."""
    data = np.empty(m.shape, dtype=object)
    data[...] = [[int(x) for x in row] for row in m.data]
    return Matrix(m.field, data, _trusted=True)


def _sparse_matrix(args):
    field, rows, cols, density, seed = args
    rng = np.random.RandomState(seed)
    data = rng.randint(-3, 4, size=(rows, cols)) * (rng.random_sample((rows, cols)) < density)
    return Matrix.from_rows(field, data.tolist())


def _assert_same_elimination(m):
    got, want = rref(m), _rref_by_outer(m)
    assert got[1:] == want[1:]
    assert got[0] == want[0]
    assert got[0].data.dtype == want[0].data.dtype


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.sampled_from(ELIM_FIELDS),
        st.integers(1, 12),
        st.integers(1, 16),
        st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
        st.integers(0, 10 ** 6),
    ).map(_sparse_matrix)
)
def test_rref_equals_the_whole_matrix_reference(m):
    _assert_same_elimination(m)


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=repr)
def test_rref_takes_sparse_and_full_pivot_columns(field):
    """A block-diagonal matrix has pivots that hit fewer than half of the
    rows; a dense one whose first column is nonzero has a pivot that hits
    every row, so the numpy core's update gathers every row, the pivot row
    included.  Both have more than SMALL_ENTRIES entries, so over F_p they
    reach the numpy core."""
    block = [[1, 2], [1, 1]]
    sparse = Matrix.from_rows(
        field, [[0] * (2 * k) + row + [0] * (22 - 2 * k) for k in range(12) for row in block]
    )
    dense = Matrix.from_rows(field, [[1] + [(i * j + i + j) % 7 for j in range(16)] for i in range(17)])
    for m, check in ((sparse, lambda h: 1 < h < m.rows / 2), (dense, lambda h: h == m.rows)):
        assert m.data.size > exactla.SMALL_ENTRIES
        hits = []
        _rref_by_outer(m, hits)
        assert any(check(h) for h in hits)
        _assert_same_elimination(m)


@pytest.mark.parametrize("p, bits", [(181, 15), (46337, 31)])
def test_dense_rref_reduces_before_its_working_dtype_overflows(p, bits):
    """Over the largest primes the numpy core works on in int16 and int32,
    lim = 2^bits // (p-1)^2 is 1: an update may take (p-1)^2 from an entry
    once between whole-array reductions.  Dense 30 x 30 matrices, of full
    rank and of rank 20 (their rows past the rank must come back zero),
    make more than lim updates, and any entry that wrapped would change
    the rref."""
    field = Field.prime(p)
    lim = 2 ** bits // (p - 1) ** 2
    rng = np.random.default_rng(p)
    low = rng.integers(0, p, (30, 20)) @ rng.integers(0, p, (20, 30)) % p
    for data in (rng.integers(0, p, (30, 30)), np.full((30, 30), p - 1) - np.eye(30, dtype=int), low):
        m = Matrix(field, data)
        assert m.data.size > exactla.SMALL_ENTRIES
        hits = []
        _rref_by_outer(m, hits)
        assert sum(h > 1 for h in hits) > lim
        _assert_same_elimination(m)
        assert rref(m)[0].data.dtype == field.dtype


# -- the list cores against the numpy cores ----------------------------------

# the numpy core works in int16 for F2, F5 and F181 (the largest prime with
# (p-1)^2 <= 2^15), in int32 for F191 and F46337, in int64 for P31 and on
# Python ints for P32
CORE_FIELDS = [
    Field.prime(2),
    Field.prime(5),
    Field.prime(181),
    Field.prime(191),
    Field.prime(46337),
    Field.prime(P31),
    Field.prime(P32),
]


def _core_matrix(args):
    """A matrix over F_p with 0-12 rows and 0-16 columns at this density;
    with copies, its last row repeats its first and a zero row is added."""
    field, rows, cols, density, copies, seed = args
    rng = random.Random(seed)
    data = [[rng.randrange(1, field.p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    if copies and rows:
        data = data[:-1] + [list(data[0]), [0] * cols]
    return Matrix(field, np.array(data, dtype=object).reshape(len(data), cols))


CORE_MATRICES = st.tuples(
    st.sampled_from(CORE_FIELDS),
    st.integers(0, 12),
    st.integers(0, 16),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 10 ** 6),
).map(_core_matrix)


def _assert_same_array(got, want, dtype):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)
    if dtype == object:
        assert all(type(x) is int for x in got.ravel().tolist() + want.ravel().tolist())


@settings(max_examples=300, deadline=None)
@given(CORE_MATRICES)
def test_the_list_rref_core_equals_the_numpy_core(m):
    field = m.field
    if not m.rows:
        # rref returns a matrix with no rows before choosing a core
        assert rref(m) == (m, 0, ())
        return
    got, got_pivots = exactla._rref_lists(m.data.tolist(), m.cols, field.p)
    want, want_pivots = exactla._rref_numpy(field, m.data)
    assert got_pivots == want_pivots
    _assert_same_array(np.array(got, dtype=field.dtype), want, field.dtype)


@settings(max_examples=300, deadline=None)
@given(CORE_MATRICES)
def test_the_list_kernel_writer_equals_the_numpy_writer(m):
    r, _, pivots = rref(m)
    with mock.patch.object(exactla, "SMALL_ENTRIES", 10 ** 9):
        got, got_free = exactla._eliminated_kernel(m.field, r.data, pivots, m.cols)
    with mock.patch.object(exactla, "SMALL_ENTRIES", -1):
        want, want_free = exactla._eliminated_kernel(m.field, r.data, pivots, m.cols)
    assert got_free == want_free
    _assert_same_array(got.data, want.data, m.field.dtype)


@settings(max_examples=300, deadline=None)
@given(CORE_MATRICES)
def test_the_list_route_of_kernel_basis_equals_the_numpy_route(m):
    # every core and writer on lists, then every one with numpy
    with mock.patch.object(exactla, "SMALL_ENTRIES", 10 ** 9):
        got, got_free = kernel_basis(m, with_free=True)
    with mock.patch.object(exactla, "SMALL_ENTRIES", -1):
        want, want_free = kernel_basis(m, with_free=True)
    assert got_free == want_free
    _assert_same_array(got.data, want.data, m.field.dtype)


@settings(max_examples=300, deadline=None)
@given(CORE_MATRICES, st.integers(0, 10 ** 6), st.sampled_from([10 ** 9, -1]))
def test_the_list_kernel_takes_entries_in_minus_p_to_p(m, seed, bound):
    # _kron_lists writes -x for x in [0, p), and y - x on a loop: the list
    # core and either writer must read any representative of absolute value
    # below p
    p, rng = m.field.p, random.Random(seed)
    rows = [[x - p if x and rng.random() < 0.5 else x for x in row] for row in m.data.tolist()]
    with mock.patch.object(exactla, "SMALL_ENTRIES", bound):
        got, got_free = exactla._eliminated_kernel(
            m.field, *exactla._eliminate_rows(m.field, rows, m.cols), m.cols
        )
    want, want_free = kernel_basis(m, with_free=True)
    assert got_free == want_free
    _assert_same_array(got.data, want.data, m.field.dtype)


def _spy_on(monkeypatch, *names):
    """Wrap exactla's functions of these names; returns name -> call count."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, real=getattr(exactla, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(exactla, name, spy)
    return calls


def test_the_elimination_core_is_chosen_by_size(monkeypatch):
    f5 = Field.prime(5)
    calls = _spy_on(monkeypatch, "_rref_lists", "_rref_numpy")
    rref(Matrix.from_rows(f5, [[1, 2, 3], [4, 0, 1]]))
    assert calls == {"_rref_lists": 1, "_rref_numpy": 0}
    n = isqrt(exactla.SMALL_ENTRIES) + 1
    rref(Matrix.from_rows(f5, [[1 + (i * j) % 4 for j in range(n)] for i in range(n)]))
    assert calls == {"_rref_lists": 1, "_rref_numpy": 1}
    # the bound is inclusive, and Q takes neither core
    for cols in (exactla.SMALL_ENTRIES, exactla.SMALL_ENTRIES + 1):
        rref(Matrix.from_rows(f5, [[1] * cols]))
    rref(Matrix.from_rows(Field.rational(), [[1, 2, 3], [4, 0, 1]]))
    assert calls == {"_rref_lists": 2, "_rref_numpy": 2}


def test_kernel_basis_takes_a_small_matrix_straight_to_lists(monkeypatch):
    # no rref matrix: the list core's rows go to the writer
    f5 = Field.prime(5)
    calls = _spy_on(monkeypatch, "rref", "_rref_lists", "_eliminated_kernel")
    basis, free = kernel_basis(Matrix.from_rows(f5, [[1, 2, 3], [4, 0, 1]]), with_free=True)
    assert calls == {"rref": 0, "_rref_lists": 1, "_eliminated_kernel": 1}
    assert basis == Matrix.from_rows(f5, [[1, 3, 1]]) and free == (2,)


# (rows, cols, rank, core, writer) on each side of SMALL_ENTRIES = 16^2 for
# the matrix and for its (cols - rank) x cols basis; a full-rank matrix has
# an empty basis, returned before a writer is chosen
KERNEL_ROUTES = [
    (0, 16, 0, "lists", "lists"),
    (0, 17, 0, "lists", "numpy"),
    (1, 17, 0, "lists", "numpy"),
    (1, 17, 1, "lists", "numpy"),
    (5, 40, 5, "lists", "numpy"),
    (16, 16, 0, "lists", "lists"),
    (16, 16, 15, "lists", "lists"),
    (16, 16, 16, "lists", None),
    (16, 17, 0, "numpy", "numpy"),
    (16, 17, 16, "numpy", "lists"),
    (17, 1, 0, "lists", "lists"),
    (17, 1, 1, "lists", None),
]


@pytest.mark.parametrize(
    "rows, cols, rank_, core, writer",
    KERNEL_ROUTES,
    ids=[f"{r}x{c}-rank{k}" for r, c, k, _, _ in KERNEL_ROUTES],
)
def test_the_core_reads_the_matrix_and_the_writer_its_basis(monkeypatch, rows, cols, rank_, core, writer):
    """The matrix is the identity on its first rank_ diagonal entries and
    zero elsewhere.  The numpy writer starts from field.zeros of the basis's
    shape; the list writer makes no array before its last, and _rref_numpy's
    zeros have the matrix's shape, never the basis's here."""
    assert isqrt(exactla.SMALL_ENTRIES) == 16
    calls = _spy_on(monkeypatch, "_rref_lists", "_rref_numpy", "_rref_rational")
    shapes = []
    zeros = Field.zeros

    def spy(self, r, c):
        shapes.append((r, c))
        return zeros(self, r, c)

    monkeypatch.setattr(Field, "zeros", spy)
    for field in (Field.prime(5), Field.rational()):
        data = [[int(i == j < rank_) for j in range(cols)] for i in range(rows)]
        m = Matrix(field, np.array(data, dtype=object).reshape(rows, cols))
        shapes.clear()
        basis, free = kernel_basis(m, with_free=True)
        assert free == tuple(range(rank_, cols))
        assert basis.shape == (cols - rank_, cols)
        # Q takes its own core, and writes on lists at any size
        on_lists = field.kind == "prime" and core == "lists"
        numpy_writer = field.kind == "prime" and writer == "numpy"
        if writer:
            assert ((cols - rank_, cols) in shapes) == numpy_writer
        assert calls["_rref_lists"] == on_lists
        assert calls["_rref_numpy"] == (field.kind == "prime" and core == "numpy")
        assert calls["_rref_rational"] == (field.kind == "rational")
        for name in calls:
            calls[name] = 0


def test_rref_leaves_a_matrix_with_no_rows_as_it_is():
    m = Matrix.zeros(Field.prime(5), 0, 4)
    assert rref(m) == (m, 0, ())
    assert rref(m)[0] is m
    assert kernel_basis(m) == Matrix.identity(m.field, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.just(Field.rational()), st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6)
    ).map(_build_matrix)
)
def test_rref_over_q_matches_sympy(m):
    r, nrank, pivots = rref(m)
    want, want_pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                      for row in m.data]).rref()
    assert pivots == tuple(want_pivots) and nrank == len(want_pivots)
    assert [[Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(m.rows)] == [
        list(row) for row in r.data
    ]


def test_rational_products_and_elimination_make_no_fraction_arithmetic(monkeypatch):
    """Over Q, _dot and rref compute on integer numerators: a dense 12 x 12
    product and elimination add, subtract and multiply no Fractions."""
    rng = random.Random(12)
    m = Matrix.from_rows(
        Field.rational(),
        [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(12)]
         for _ in range(12)],
    )
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def spy(x, y, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(x, y)

        monkeypatch.setattr(Fraction, name, spy)
    prod = m @ m
    r, nrank, _ = rref(m)
    monkeypatch.undo()
    assert calls == []
    assert prod == Matrix(m.field, np.dot(m.data, m.data), _trusted=True)
    assert nrank == 12 and r == Matrix.identity(m.field, 12)


def test_rank_counts_the_pivots_of_rref_and_makes_no_rref_or_fraction(monkeypatch):
    """rank reads the pivots of the core rref would use: F_p lists (at most
    SMALL_ENTRIES entries), F_p numpy (more, int64 and Python ints) and Q
    integer rows, with no rref matrix and no Fraction made."""
    cases = [Matrix.zeros(Field.prime(5), 0, 3)]
    for field in FIELDS + [Field.prime(P32)]:
        for rows, cols, inner in ((3, 4, 2), (6, 6, 6), (12, 30, 7), (30, 12, 12)):
            for seed in range(2):
                left = _build_matrix((field, rows, inner, seed))
                right = _build_matrix((field, inner, cols, seed + 10))
                cases.append(left @ right)  # rank at most inner
    assert any(m.data.size > exactla.SMALL_ENTRIES for m in cases)
    want = [rref(m)[1] for m in cases]
    assert len(set(want)) > 3

    def refused(*args):
        raise AssertionError("rank made an rref matrix or a Fraction")

    monkeypatch.setattr(exactla, "rref", refused)
    monkeypatch.setattr(exactla, "Fraction", refused)
    assert [rank(m) for m in cases] == want


# -- primes above 2^31 -----------------------------------------------------------


def _python_int_product(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _dot_by_blocks(field, a, b):
    """a @ b over F_p, k products summed at a time with k (p-1)^2 < 2^63, in
    int64, or in Python ints for an object array."""
    p = field.p
    if field.dtype is object:
        return np.dot(a, b) % p
    k = exactla._INT64_MAX // (p - 1) ** 2
    out = np.dot(a[..., :k], b[:k]) % p
    for s in range(k, a.shape[-1], k):
        out = (out + np.dot(a[..., s : s + k], b[s : s + k]) % p) % p
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CORE_FIELDS),
    st.integers(0, 5),
    st.integers(0, 8),
    st.integers(0, 5),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_one_product_when_the_inner_dimension_fits_equals_the_block_loop(field, r, n, c, vector, seed):
    rng = random.Random(seed)
    a = np.array([[rng.randrange(field.p) for _ in range(n)] for _ in range(r)], dtype=field.dtype)
    b = np.array([[rng.randrange(field.p) for _ in range(c)] for _ in range(n)], dtype=field.dtype)
    a, b = a.reshape(r, n), b.reshape(n, c)
    if vector:
        b = b[:, 0] if c else np.zeros(n, dtype=field.dtype)
    got = exactla._dot(field, a, b)
    want = _dot_by_blocks(field, a, b)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == field.dtype
    assert np.array_equal(got, want)
    width = 1 if vector else c
    ints = [[sum(int(x) * int(y) for x, y in zip(row, col)) % field.p
             for col in b.reshape(n, width).T.tolist()] for row in a.tolist()]
    assert got.reshape(r, width).tolist() == ints


@pytest.mark.parametrize("p", [P31, P32])
def test_large_prime_products_match_python_ints(p):
    field = Field.prime(p)
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(16)] for _ in range(16)]
    other = [[rng.randrange(p) for _ in range(16)] for _ in range(16)]
    a, b = Matrix.from_rows(field, rows), Matrix.from_rows(field, other)
    want = _python_int_product(rows, other, p)
    assert [[int(x) for x in row] for row in (a @ b).data] == want


@pytest.mark.parametrize("p", [P31, P32])
def test_large_prime_rank_and_rref_match_python_ints(p):
    field = Field.prime(p)
    rng = random.Random(p + 1)
    left = [[rng.randrange(p) for _ in range(3)] for _ in range(8)]
    right = [[rng.randrange(p) for _ in range(8)] for _ in range(3)]
    m = Matrix.from_rows(field, _python_int_product(left, right, p))
    assert rank(m) == 3
    got, want = rref(m), _rref_by_outer(_python_int_copy(m))
    assert got[1:] == want[1:]
    assert [[int(x) for x in row] for row in got[0].data] == [
        [int(x) for x in row] for row in want[0].data
    ]


@pytest.mark.parametrize(
    "field,dtype",
    [
        (Field.prime(2), np.int64),
        (Field.prime(5), np.int64),
        (Field.prime(P31), np.int64),
        (Field.prime(P32), object),
        (Field.rational(), object),
    ],
    ids=["F2", "F5", "F_P31", "F_P32", "Q"],
)
def test_kernel_of_an_invertible_matrix_is_empty_in_the_fields_dtype(field, dtype):
    m = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    ker, free = kernel_basis(m, with_free=True)
    assert ker.shape == (0, 3)
    assert free == ()
    assert ker.data.dtype == dtype


def test_each_prime_gets_the_backend_its_products_fit():
    assert Field.prime(5).dtype is np.int64
    assert Field.prime(P31).dtype is np.int64
    assert Field.prime(P32).dtype is object
    assert Matrix.zeros(Field.prime(P32), 2, 2).data.dtype == object
    assert Matrix(Field.prime(P32), np.array([[P32 + 1]])).data[0, 0] == 1


@pytest.mark.parametrize("field", ELIM_FIELDS + [Field.prime(P32)], ids=repr)
def test_object_input_with_integers_past_int64_is_reduced_like_from_rows(field):
    big = [[2 ** 70, -(2 ** 70)], [2 ** 63, -(2 ** 63) - 1]]
    got = Matrix(field, np.array(big, dtype=object))
    want = Matrix.from_rows(field, big)
    assert got == want
    assert got.data.dtype == field.dtype


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(P31)], ids=repr)
def test_unsigned_and_float_input_is_reduced_exactly_over_a_prime_field(field):
    # an int64 cast would wrap 2^63 + 1 and 2^64 - 1, and truncate 2.5
    big = [[2 ** 63 + 1, 2 ** 64 - 1]]
    got = Matrix(field, np.array(big, dtype=np.uint64))
    assert got == Matrix.from_rows(field, big)
    assert got.data.dtype == np.int64
    assert Matrix(field, np.array([[2.0, -3.0]])) == Matrix.from_rows(field, [[2, -3]])
    assert Matrix(field, np.array([[True, False]])) == Matrix.from_rows(field, [[1, 0]])
    for x in (2.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            field.coerce(x)
    with pytest.raises(ValueError, match="not an integer"):
        Matrix(field, np.array([[1.0, 2.5]]))


def test_unsigned_and_float_input_is_exact_over_q():
    q = Field.rational()
    got = Matrix(q, np.array([[2 ** 63 + 1, 2 ** 64 - 1]], dtype=np.uint64))
    assert got.entries() == [Fraction(2 ** 63 + 1), Fraction(2 ** 64 - 1)]
    assert Matrix(q, np.array([[2.5, -0.25]])).entries() == [Fraction(5, 2), Fraction(-1, 4)]


def test_machine_integer_input_over_q_is_held_as_python_ints():
    """A Fraction built from a numpy integer keeps it as its numerator,
    where a product past 2^63 wraps; Q entries hold Python ints instead."""
    q = Field.rational()
    data = np.array([[2 ** 40, 1], [3, 2 ** 40]])
    m = Matrix(q, data)
    assert m == Matrix.from_rows(q, data) == Matrix.from_rows(q, data.tolist())
    assert all(type(x.numerator) is int for x in m.scale(np.int64(-1)).entries())
    want = [2 ** 80 + 3, 2 ** 41, 3 * 2 ** 41, 2 ** 80 + 3]
    assert (m @ m).entries() == [Fraction(x) for x in want]
    assert rank(m @ m - Matrix.from_rows(q, [want[:2], want[2:]])) == 0


# -- primality -----------------------------------------------------------------------


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if exactla._is_prime(n)] == [
        n for n in range(10 ** 5) if _is_prime_by_trial_division(n)
    ]


def test_primality_matches_sympy_on_64_bit_numbers():
    rng = random.Random(64)
    for _ in range(2000):
        n = rng.getrandbits(64) | 1
        assert exactla._is_prime(n) == sympy.isprime(n), n
    for n in (2 ** 61 - 1, 2 ** 64 - 59, 10 ** 18 + 3, 10 ** 18 + 9):
        assert exactla._is_prime(n) == sympy.isprime(n), n


def test_strong_pseudoprime_to_small_bases_is_rejected():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5 and 7
    assert not exactla._is_prime(3215031751)
    with pytest.raises(ValueError, match="prime modulus"):
        Field.prime(3215031751)


@pytest.mark.parametrize("p", [2.5, 7.9, 5.0, "5", True, None], ids=repr)
def test_a_modulus_that_is_not_an_integer_is_refused(p):
    # int(p) would truncate 2.5 to F_2 and 7.9 to F_7
    with pytest.raises(ValueError, match="prime field needs a prime modulus"):
        Field.prime(p)


def test_a_numpy_integer_modulus_is_accepted():
    field = Field.prime(np.int64(5))
    assert field == Field.prime(5) and type(field.p) is int and field.dtype == np.int64


def test_large_prime_modulus_is_accepted_at_once():
    start = time.perf_counter()
    assert Field.prime(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - start < 1.0


def test_modulus_beyond_the_exact_bound_is_rejected():
    with pytest.raises(ValueError, match="too large"):
        Field.prime(exactla._MR_EXACT_BELOW + 2)


# -- exact equality of arrays --------------------------------------------------------


_q_array = exactla._objects  # the Python objects, row-major, in an object array

BIG = 2 ** 70 + 1


@pytest.mark.parametrize(
    "index, changed",
    [
        (3, Fraction(-3, 7)),
        (3, Fraction(4, 7)),
        (3, Fraction(3, 8)),
        (2, Fraction(BIG + 2 ** 64, 7)),
        (2, Fraction(BIG, 11)),
    ],
    ids=["sign", "numerator", "denominator", "big_numerator", "big_denominator"],
)
def test_q_arrays_differing_in_one_entry_are_unequal(index, changed):
    q = Field.rational()
    xs = [Fraction(1), Fraction(-2, 5), Fraction(BIG, 7),
          Fraction(3, 7), Fraction(0), Fraction(1, 10 ** 6)]
    a = _q_array(xs, (2, 3))
    b = _q_array(xs[:index] + [changed] + xs[index + 1:], (2, 3))
    assert exactla._equal(q, a, a.copy())
    assert not exactla._equal(q, a, b) and not exactla._equal(q, b, a)
    assert not np.array_equal(a, b)
    assert Matrix(q, a, _trusted=True) != Matrix(q, b, _trusted=True)


def test_q_int_entries_equal_their_fractions():
    q = Field.rational()
    ints = _q_array([0, 1, -2, BIG], (2, 2))
    fracs = _q_array([Fraction(0), Fraction(1), Fraction(-2), Fraction(BIG)], (2, 2))
    assert exactla._equal(q, ints, fracs) and exactla._equal(q, fracs, ints)
    other = _q_array([Fraction(0), Fraction(1), Fraction(-2), Fraction(BIG, 3)], (2, 2))
    assert not exactla._equal(q, ints, other)


@pytest.mark.parametrize("field", FIELDS + [Field.prime(P32)], ids=repr)
@pytest.mark.parametrize("left, right", [((0, 3), (0, 3)), ((0, 0), (0, 0)), ((3, 0), (3, 0)),
                                         ((0, 3), (3, 0)), ((0, 3), (0, 2)), ((2, 2), (2, 3))])
def test_arrays_of_any_shape_compare_as_numpy_does(field, left, right):
    a, b = field.zeros(*left), field.zeros(*right)
    assert exactla._equal(field, a, b) == np.array_equal(a, b) == (left == right)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Field.prime(5), Field.prime(P32)]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_prime_arrays_compare_as_numpy_does(field, rows, cols, seed):
    rng = random.Random(seed)
    a = field.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = rng.randrange(field.p)
    b = a.copy()
    if a.size and rng.random() < 0.7:
        i, j = rng.randrange(rows), rng.randrange(cols)
        b[i, j] = (b[i, j] + rng.randrange(1, field.p)) % field.p
    assert a.dtype == b.dtype == field.dtype
    assert exactla._equal(field, a, b) == bool(np.array_equal(a, b))
    assert exactla._equal(field, a, a.copy())


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(5)], ids=repr)
def test_coordinates_refuse_a_row_outside_the_span_at_a_non_free_column(field):
    """The basis is the identity at columns 0 and 1; a row that agrees with
    a vector of the span there and differs only at column 2 is outside."""
    basis = Matrix.from_rows(field, [[1, 0, 2], [0, 1, 3]])
    rows = [[1, 1, 5], [2, 4, 16]]
    if field.kind == exactla.RATIONAL:
        rows.append([Fraction(1, 2), Fraction(1, 3), Fraction(2)])
    span = Matrix.from_rows(field, rows)
    want = Matrix.from_rows(field, [r[:2] for r in rows])
    assert coordinates(basis, (0, 1), span) == want
    for i in range(len(rows)):
        for delta in (1, Fraction(1, 10 ** 6)) if field.kind == exactla.RATIONAL else (1,):
            moved = span.data.copy()
            moved[i, 2] = field.add(moved[i, 2], field.coerce(delta))
            assert coordinates(basis, (0, 1), Matrix(field, moved, _trusted=True)) is None


# -- the Q entry boundary: _ratios and _integers read, _fraction makes --------------


def test_fractions_keep_their_numerator_and_denominator_in_two_slots():
    """_ratios reads and _fraction writes Fraction's _numerator and
    _denominator slots: a Python whose Fraction lays out its state another
    way fails here, by name, before any value is read wrong."""
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    f = Fraction(-6, 4)
    assert (f._numerator, f._denominator) == (-3, 2) == f.as_integer_ratio()


WIDE = st.integers(-(2 ** 80), 2 ** 80)


@settings(max_examples=300, deadline=None)
@given(WIDE, WIDE.filter(bool), WIDE, WIDE.filter(bool))
def test_a_fraction_made_from_integers_is_the_one_fraction_makes(n, d, m, e):
    got, want, other = exactla._fraction(n, d), Fraction(n, d), Fraction(m, e)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is type(got.denominator) is int
    assert hash(got) == hash(want) and str(got) == str(want) and repr(got) == repr(want)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is Fraction and back.as_integer_ratio() == want.as_integer_ratio()
    assert got == want and not got != want and got <= want and got >= want
    for op in ("__add__", "__sub__", "__mul__", "__radd__", "__rsub__", "__rmul__", "__neg__",
               "__abs__"):
        args = () if op in ("__neg__", "__abs__") else (other,)
        assert getattr(got, op)(*args).as_integer_ratio() == getattr(want, op)(*args).as_integer_ratio()
    assert (got / other).as_integer_ratio() == (want / other).as_integer_ratio()
    if n:
        assert (other / got).as_integer_ratio() == (other / want).as_integer_ratio()
    assert (got ** 2).as_integer_ratio() == (want ** 2).as_integer_ratio()
    assert (got < other) == (want < other) and (got + 1) == (want + 1)


def _by_as_integer_ratio(xs):
    """_integers with each entry read by as_integer_ratio: the reference for
    the slot reads."""
    pairs = [x.as_integer_ratio() for x in xs]
    d = lcm(*[e for _, e in pairs])
    return [n * (d // e) for n, e in pairs], d


ENTRIES = st.one_of(st.builds(Fraction, WIDE, WIDE.filter(bool)), WIDE)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["fractions", "ints", "mixed"]), st.lists(ENTRIES, max_size=12))
def test_the_slot_reads_equal_as_integer_ratio(kind, xs):
    if kind == "fractions":
        xs = [Fraction(x) for x in xs]
    elif kind == "ints":
        xs = [x for x in xs if type(x) is int]
    ns, ds = exactla._ratios(xs)
    assert list(zip(ns, ds)) == [x.as_integer_ratio() for x in xs]
    assert all(type(n) is int for n in ns + ds)
    assert exactla._integers(xs) == _by_as_integer_ratio(xs)
