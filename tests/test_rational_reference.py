"""Q products and Q elimination against the Fraction code they replaced,
kept here as references.

Over Q, _dot used to be numpy's dot on the Fraction entries and rref
Gauss-Jordan on the Fractions, so that every multiply-add was Fraction
arithmetic.  Both now run on integer numerators: _dot clears each
operand's denominators and makes one product of Python ints, and rref
eliminates fraction-free on integer rows.  The reduced row echelon form
is unique and every Fraction is kept in lowest terms, so each entry must
be a Fraction with the same numerator and denominator as the reference's,
and rank and pivots must agree: on negative entries and mixed
denominators, on numerators and denominators past 2^63, on 1-D right
operands, on zero-size shapes and on rank-deficient matrices with free
columns left of later pivots.  The kernel writer, which Subspace.quotient
calls on its rref basis, used to negate the whole pivot block with numpy
(null_rows), zeros included; it now makes a Fraction only for a nonzero
entry, and must give the same kernel basis and free columns as the
entrywise negation below.  kernel_basis used to be that Fraction rref and
then that negation; it now eliminates integer rows and makes Fractions
only for the basis, and must give the same basis, free columns and
Fraction entries.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabhom import exactla
from stabhom.exactla import Field, Matrix, Subspace, kernel_basis, rref

Q = Field.rational()

# small entries: negatives, zeros and mixed denominators
SMALL = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4, 6]))
# numerators and denominators past 2^63
HUGE = st.builds(Fraction, st.integers(-(2 ** 80), 2 ** 80), st.integers(1, 2 ** 80))
ENTRIES = {"small": SMALL, "huge": HUGE, "mixed": st.one_of(SMALL, HUGE)}


# -- the references ---------------------------------------------------------------


def _fraction_dot(a, b):
    """The Q product as it was: numpy's dot on the Fraction entries.  An
    empty sum came out as the int 0 there; the reference reads it as the
    Fraction(0) the product must give."""
    out = np.dot(a, b)
    if not a.shape[-1]:
        out = np.empty(out.shape, dtype=object)
        out[...] = Fraction(0)
    return out


def _fraction_rref(m):
    """The Q elimination as it was: Gauss-Jordan on the Fraction entries.
    The pivot row is scaled by the inverse of its pivot and multiples of it
    are subtracted from the other rows hit at the pivot column, from that
    column on (every row at once when every row is hit)."""
    a = m.data.copy()
    nr, nc = a.shape
    pivots = []
    row = 0
    for col in range(nc):
        if row == nr:
            break
        hit = a[:, col].nonzero()[0]
        later = hit[hit >= row]
        if not later.size:
            continue
        piv = int(later[0])
        if piv != row:
            a[row], a[piv] = a[piv], a[row].copy()
        x = a[row, col]
        prow = a[row, col:].copy() if x == 1 else a[row, col:] * Q.inv(x)
        if len(hit) == nr:
            a[:, col:] = a[:, col:] - a[:, col, None] * prow
        elif len(hit) > 1:
            rows = hit[hit != piv]
            a[rows, col:] = a[rows, col:] - a[rows, col, None] * prow
        a[row, col:] = prow
        pivots.append(col)
        row += 1
    return a, len(pivots), tuple(pivots)


# -- helpers ----------------------------------------------------------------------


def _assert_same_entries(got, want):
    assert got.shape == want.shape
    for x, y in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert type(x) is Fraction and type(y) is Fraction
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)


def _matrix(rows):
    data = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        data[i, :] = row
    return Matrix(Q, data, _trusted=True)


@st.composite
def _matrices(draw, entries, r, c):
    cells = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return _matrix(cells) if r else Matrix.zeros(Q, 0, c)


@st.composite
def _product_operands(draw, entries):
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(_matrices(entries, m, k)), draw(_matrices(entries, k, n))


def _assert_same_elimination(m):
    got, nrank, pivots = rref(m)
    want, want_rank, want_pivots = _fraction_rref(m)
    assert (nrank, pivots) == (want_rank, want_pivots)
    _assert_same_entries(got.data, want)


# -- products ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_match_the_fraction_dot(kind, data):
    a, b = data.draw(_product_operands(ENTRIES[kind]))
    _assert_same_entries((a @ b).data, _fraction_dot(a.data, b.data))


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_matches_the_fraction_dot(kind, data):
    a, b = data.draw(_product_operands(ENTRIES[kind]))
    vec = b.data[:, 0].copy() if b.cols else Matrix.zeros(Q, b.rows, 1).data[:, 0]
    got = a.apply(vec)
    assert got.ndim == 1
    _assert_same_entries(got, _fraction_dot(a.data, vec))


@pytest.mark.parametrize("m, k, n", [(3, 0, 2), (0, 3, 2), (3, 2, 0), (0, 0, 0), (1, 0, 1)])
def test_zero_size_products_give_fraction_zeros(m, k, n):
    a, b = Matrix.zeros(Q, m, k), Matrix.zeros(Q, k, n)
    prod = a @ b
    assert prod.shape == (m, n)
    _assert_same_entries(prod.data, _fraction_dot(a.data, b.data))
    vec = b.data[:, 0].copy() if n else Matrix.zeros(Q, k, 1).data[:, 0]
    _assert_same_entries(a.apply(vec), _fraction_dot(a.data, vec))


# -- elimination ------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_the_fraction_gauss_jordan(kind, data):
    r, c = data.draw(st.integers(1, 7)), data.draw(st.integers(0, 7))
    _assert_same_elimination(data.draw(_matrices(ENTRIES[kind], r, c)))


@st.composite
def _rank_deficient(draw, entries):
    """(l @ e, pivots of e): e in rref of rank k with a free column left of
    its last pivot, and l of shape (r, k), r > k, whose last k rows are the
    identity, so that l @ e has rank k and the pivots of e."""
    c = draw(st.integers(3, 7))
    k = draw(st.integers(2, c - 1))
    pivots = [0] + sorted(draw(st.lists(st.integers(1, c - 2), min_size=k - 2,
                                        max_size=k - 2, unique=True))) + [c - 1]
    e = Matrix.zeros(Q, k, c).data.copy()
    for i, p in enumerate(pivots):
        e[i, p] = Fraction(1)
        for j in range(p + 1, c):
            if j not in pivots:
                e[i, j] = draw(entries)
    top = draw(_matrices(entries, draw(st.integers(1, 4)), k))
    left = np.vstack([top.data, Matrix.identity(Q, k).data])
    return Matrix(Q, _fraction_dot(left, e), _trusted=True), tuple(pivots)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_on_rank_deficient_matrices(kind, data):
    m, pivots = data.draw(_rank_deficient(ENTRIES[kind]))
    assert rref(m)[1:] == (len(pivots), pivots)
    assert any(j not in pivots for j in range(pivots[-1]))
    _assert_same_elimination(m)


@pytest.mark.parametrize("shape", [(3, 0), (1, 0), (2, 3)])
def test_rref_of_zero_and_columnless_matrices(shape):
    m = Matrix.zeros(Q, *shape)
    _assert_same_elimination(m)
    assert rref(m)[1:] == (0, ())


# -- kernel bases -----------------------------------------------------------------


def _fraction_null_rows(r, pivots):
    """The kernel basis by its definition, entry by entry: Fraction(1) at
    the free columns and the negated pivot block at the pivot columns."""
    free = [c for c in range(r.cols) if c not in pivots]
    out = Matrix.zeros(Q, len(free), r.cols).data.copy()
    out[range(len(free)), free] = Fraction(1)
    out[:, list(pivots)] = -r.data[: len(pivots), free].T
    return out, tuple(free)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_quotient_matches_the_entrywise_negation(kind, data):
    m, _ = data.draw(_rank_deficient(ENTRIES[kind]))
    r, _, pivots = rref(m)
    q = Subspace(Q, m.cols, m).quotient()
    want, want_free = _fraction_null_rows(r, pivots)
    assert tuple(q.free) == want_free
    _assert_same_entries(q.projection.data, want)


@pytest.mark.parametrize("shape", [(3, 0), (2, 3), (0, 4)])
def test_the_kernel_writer_of_zero_and_columnless_matrices(shape):
    r = Matrix.zeros(Q, *shape)
    got, free = exactla._eliminated_kernel(Q, r.data, (), r.cols)
    want, want_free = _fraction_null_rows(r, ())
    assert free == want_free
    _assert_same_entries(got.data, want)


def test_the_quotient_makes_no_fraction_for_a_zero_entry(monkeypatch):
    """The pivot block of [[1, 0, 2, 0], [0, 1, 0, 0]] at the free columns
    2 and 3 has one nonzero entry of four: one Fraction is negated."""
    u = Subspace(Q, 4, _matrix([[Fraction(x) for x in row] for row in ([1, 0, 2, 0], [0, 1, 0, 0])]))
    negated = []
    neg = Fraction.__neg__

    def counting(x):
        negated.append(x)
        return neg(x)

    monkeypatch.setattr(Fraction, "__neg__", counting)
    q = u.quotient()
    monkeypatch.undo()
    assert negated == [Fraction(2)]
    _assert_same_entries(q.projection.data, _fraction_null_rows(u.basis, u.pivots)[0])


def _kernel_by_fraction_rref(m):
    """kernel_basis(m, with_free=True) over Q as it was: the Fraction rref,
    then the negated pivot block on its pivot rows."""
    r, _, pivots = rref(m)
    return _fraction_null_rows(r, pivots)


@st.composite
def _kernel_inputs(draw, entries):
    """A matrix of 0-7 rows and 0-7 columns, 0 x n and n x 0 included, with
    some of its rows and columns zero, or a rank-deficient one."""
    if draw(st.booleans()):
        return draw(_rank_deficient(entries))[0]
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    m = draw(_matrices(entries, r, c))
    if not m.rows * m.cols:
        return m
    data = m.data.copy()
    data[draw(st.lists(st.integers(0, r - 1), max_size=r)), :] = Fraction(0)
    data[:, draw(st.lists(st.integers(0, c - 1), max_size=c))] = Fraction(0)
    return Matrix(Q, data, _trusted=True)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_basis_matches_the_fraction_rref_route(kind, data):
    m = data.draw(_kernel_inputs(ENTRIES[kind]))
    got, free = kernel_basis(m, with_free=True)
    want, want_free = _kernel_by_fraction_rref(m)
    assert free == want_free
    assert got.data.dtype == object
    _assert_same_entries(got.data, want)
