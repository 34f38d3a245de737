import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabhom import exactla
from stabhom.exactla import (
    Field,
    FieldMismatch,
    Matrix,
    ShapeMismatch,
    Subspace,
    coordinates,
    free_columns,
    kernel_basis,
    null_rows,
    rank,
    rref,
    solve_matrix,
    solve_right,
)

FIELDS = [Field.prime(2), Field.prime(5), Field.rational()]


def field_strategy():
    return st.sampled_from(FIELDS)


def matrix_strategy(max_dim=4):
    return st.tuples(
        field_strategy(),
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
    x = solve_right(m, np.array([1], dtype=np.int64))
    assert x is not None
    assert list(m.apply(x)) == [1]


def test_quotient_of_plane_by_diagonal():
    q = Subspace(
        Field.rational(), 2, Matrix.from_rows(Field.rational(), [[1, 1]])
    ).quotient()
    assert q.dim == 1
    assert q.ambient_dim == 2
    assert (q.projection @ q.section) == Matrix.identity(Field.rational(), 1)


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


def test_subspace_ambient_mismatch_rejected():
    f = Field.prime(2)
    u = Subspace(f, 2, Matrix.from_rows(f, [[1, 0]]))
    v = Subspace(f, 3, Matrix.from_rows(f, [[1, 0, 0]]))
    with pytest.raises(ShapeMismatch):
        u + v


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_and_full_subspaces_equal_the_eliminated_ones(field, n):
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    assert zero == Subspace(field, n, Matrix.zeros(field, 0, n))
    assert zero.pivots == Subspace(field, n, Matrix.zeros(field, 0, n)).pivots == ()
    assert full == Subspace(field, n, Matrix.identity(field, n))
    assert full.pivots == Subspace(field, n, Matrix.identity(field, n)).pivots
    assert full.pivots == tuple(range(n))


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
    Subspace.zero(alg.field, 4)
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
    """The entry-by-entry construction that null_rows vectorizes."""
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
    ker, free = null_rows(r, pivots)
    assert ker == kernel_basis(m) == _null_rows_by_loop(r, pivots)
    assert free == free_columns(ker)
    assert free == tuple(c for c in range(m.cols) if c not in pivots)
    unit = Matrix(m.field, ker.data[:, list(free)], _trusted=True)
    assert unit == Matrix.identity(m.field, len(free))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(max_dim=5), st.integers(0, 10 ** 6))
def test_coordinates_read_off_either_echelon_form(m, seed):
    rng = np.random.RandomState(seed)
    u = Subspace(m.field, m.cols, m)
    ker = kernel_basis(m)
    for basis, cols in ((u.basis, u.pivots), (ker, free_columns(ker))):
        c = Matrix.from_rows(m.field, rng.randint(-3, 4, size=(3, basis.rows)).tolist())
        assert coordinates(basis, cols, c @ basis) == c
        outside = [j for j in range(m.cols) if j not in cols]
        if outside:
            # a unit vector off the identity columns reads as 0 there
            e = Matrix.zeros(m.field, 1, m.cols).data.copy()
            e[0, outside[0]] = m.field.one()
            assert coordinates(basis, cols, Matrix(m.field, e)) is None


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for row in ker.data:
        assert not m.apply(row).any()


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
        from stabhom.exactla import hstack

        assert rank(hstack(m.field, [m, b])) == rank(m) + 1
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
    s = u + v
    i = u.intersect(v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v)
    assert u.contains(i) and v.contains(i)


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
    assert (q.projection @ q.section) == Matrix.identity(m.field, q.dim)


@settings(max_examples=40, deadline=None)
@given(matrix_strategy())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())
