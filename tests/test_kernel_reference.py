"""Every kernel basis against the routes it replaced, kept here as references.

exactla used to reach a kernel basis three ways, under three size rules.
kernel_basis took a matrix to Python lists when max(rows, cols) x cols
entries were at most SMALL_ENTRIES, or always over Q (_kernel_on_lists),
and eliminated it there (_kernel_lists); any other went through rref and
null_rows, which wrote the basis on lists (_null_lists) or with numpy
(_null_rows_numpy) by the basis's free columns x columns.  kron_kernel
took _kernel_on_lists' rule too, solve_with_kernel wrote its kernel from
the elimination of [m | b] (_eliminated_kernel), and Subspace.quotient
wrote it with null_rows from its rref basis.  Now _eliminate chooses the
core by the matrix's entries and one writer chooses lists or numpy by the
basis's.  A kernel basis is unique, so every route must give the same
matrix, dtype, entry types and free columns as its reference, on each side
of SMALL_ENTRIES for the matrix and for its basis, over F2, F5,
F(2^31 - 1), F(4294967311) (Python ints) and Q.

The Q core, _rref_rational, used to pivot on the first nonzero entry of
each column; it now pivots on the entry of least absolute value.  The
first-nonzero core is kept here (_first_nonzero_rref_rational), and every
Q route, rref, rank, kernel_basis, solve_with_kernel and kron_kernel, must
give the same Fractions, entry types, pivots and free columns on either
core.
"""

import random
from fractions import Fraction
from itertools import islice
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabhom import exactla
from stabhom.exactla import (
    RATIONAL,
    Field,
    Matrix,
    Subspace,
    kernel_basis,
    kron_kernel,
    rank,
    rref,
    solve_with_kernel,
)

FIELDS = [Field.prime(2), Field.prime(5), Field.prime(2147483647), Field.prime(4294967311), Field.rational()]

# on each side of SMALL_ENTRIES = 16^2 for the matrix (rows x cols) and for a
# kernel basis of it (up to cols x cols)
SHAPES = [(0, 16), (0, 17), (1, 17), (5, 40), (16, 16), (16, 17), (17, 1)]


# -- the references ----------------------------------------------------------------


def _kernel_on_lists(field, rows, cols):
    """The old rule: a rows x cols kernel on lists over Q always, over F_p
    when the matrix and any kernel basis of it fit SMALL_ENTRIES."""
    return field.kind == RATIONAL or max(rows, cols) * cols <= exactla.SMALL_ENTRIES


def _null_lists(prows, pivots, free, nc, p):
    """null_rows' basis over F_p on Python lists, row by row."""
    out = []
    for f in free:
        o = [0] * nc
        o[f] = 1
        for c, row in zip(pivots, prows):
            o[c] = -row[f] % p
        out.append(o)
    return out


def _null_rows_numpy(r, pivots, free):
    """null_rows' basis in one numpy array, for any field."""
    field = r.field
    block = field.normalize(-r.data[: len(pivots), free].T)
    out = field.zeros(len(free), r.cols)
    out[range(len(free)), free] = field.one()
    out[:, list(pivots)] = block
    return out


def _null_rows(r, pivots):
    """The basis of {x : r x = 0} for r in rref, and its free columns."""
    field = r.field
    if len(pivots) == r.cols:
        return Matrix.zeros(field, 0, r.cols), ()
    free = [c for c in range(r.cols) if c not in pivots]
    if field.kind != RATIONAL and len(free) * r.cols <= exactla.SMALL_ENTRIES:
        out = _null_lists(r.data[: len(pivots)].tolist(), pivots, free, r.cols, field.p)
        out = np.array(out, dtype=field.dtype)
    else:
        out = _null_rows_numpy(r, pivots, free)
    return Matrix(field, out, _trusted=True), tuple(free)


def _eliminated_kernel(field, a, pivots, nc):
    """The kernel of the first nc columns of a matrix eliminated as
    exactla._eliminate returns it."""
    if len(pivots) == nc:
        return Matrix.zeros(field, 0, nc), ()
    free = [c for c in range(nc) if c not in pivots]
    if field.kind == RATIONAL:
        zero, one = Fraction(0), Fraction(1)
        flat = []
        for f in free:
            o = [zero] * nc
            o[f] = one
            for c, r in zip(pivots, a):
                if r[f]:
                    o[c] = Fraction(-r[f], r[c])
            flat += o
        out = np.empty((len(free), nc), dtype=object)
        out.ravel()[:] = flat
        return Matrix(field, out, _trusted=True), tuple(free)
    if isinstance(a, list):
        out = _null_lists(a[: len(pivots)], pivots, free, nc, field.p)
        return Matrix(field, np.array(out, dtype=field.dtype), _trusted=True), tuple(free)
    return _null_rows(Matrix(field, a[:, :nc], _trusted=True), pivots)


def _kernel_lists(field, rows, nc):
    """The kernel of the matrix whose rows are these lists, eliminated in place."""
    if field.kind == RATIONAL:
        a, pivots = exactla._rref_rational(rows, nc)
    else:
        a, pivots = exactla._rref_lists(rows, nc, field.p)
    return _eliminated_kernel(field, a, pivots, nc)


def reference_kernel_basis(m):
    """kernel_basis(m, with_free=True) by the old routes."""
    if _kernel_on_lists(m.field, m.rows, m.cols):
        rows = m.data.tolist()
        if m.field.kind == RATIONAL:
            rows = [exactla._integers(r)[0] for r in rows]
        return _kernel_lists(m.field, rows, m.cols)
    r, _, pivots = rref(m)
    return _null_rows(r, pivots)


def reference_kron_kernel(field, offs, total, terms):
    """kron_kernel by the old routes: _kernel_on_lists' rule on the system's
    rows x total, and over Q the terms' integers read off one _integers pass."""
    terms = [t for t in terms if t[1].shape[0] * t[3].shape[0]]
    rows = sum(m1.shape[0] * m2.shape[0] for _, m1, _, m2 in terms)
    if not _kernel_on_lists(field, rows, total):
        return reference_kernel_basis(exactla._kron_rows(field, offs, total, terms))
    if field.kind == RATIONAL:
        flat = [x for _, m1, _, m2 in terms for m in (m1, m2) for x in m.ravel().tolist()]
        ints = iter(exactla._integers(flat)[0])

        def take(m):
            return [list(islice(ints, m.shape[1])) for _ in range(m.shape[0])]

        terms = [(v1, take(m1), v2, take(m2)) for v1, m1, v2, m2 in terms]
    else:
        terms = [(v1, m1.tolist(), v2, m2.tolist()) for v1, m1, v2, m2 in terms]
    return _kernel_lists(field, exactla._kron_lists(offs, total, terms), total)


def _first_nonzero_rref_rational(a, nc):
    """The Q core as it was: fraction-free on integer rows in place, with
    the first nonzero entry of each column, among the unused rows, as its
    pivot x, and each other row r hit there turned into x r - r[col] p,
    divided by its content."""
    nr = len(a)
    pivots = []
    row = 0
    for col in range(nc):
        if row == nr:
            break
        piv = next((i for i in range(row, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        prow = a[row]
        x = prow[col]
        lead = pivots[0] if pivots else col
        tail = prow[lead:]
        for i, r in enumerate(a):
            y = r[col]
            if y and i != row:
                new = [x * u - y * v for u, v in zip(r[lead:], tail)]
                g = gcd(*new)
                if g > 1:
                    new = [u // g for u in new]
                a[i] = r[:lead] + new
        pivots.append(col)
        row += 1
    return a, pivots


def _reference_solve_with_kernel(m, b):
    solved = exactla._solve(m, b)
    if solved is None:
        return None
    x, a, pivots = solved
    return x, _eliminated_kernel(m.field, a, pivots, m.cols)[0]


# -- the comparison ----------------------------------------------------------------


def assert_same_kernel(got, want):
    """Bit for bit: free columns, shape, dtype, entries and entry types."""
    (basis, free), (ref, ref_free) = got, want
    assert free == ref_free
    assert basis.shape == ref.shape
    assert basis.data.dtype == ref.data.dtype == basis.field.dtype
    assert basis.data.tolist() == ref.data.tolist()
    assert [type(x) for x in basis.data.ravel().tolist()] == [type(x) for x in ref.data.ravel().tolist()]


def _case(args):
    """A matrix of one of SHAPES over the field at this density; with few, its
    rows repeat its first two, so its kernel is larger."""
    field, (rows, cols), density, few, seed = args
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return 0
        if field.p:
            return rng.randrange(1, field.p)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 6]))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if few:
        data = [list(data[i % 2]) for i in range(rows)]
    return Matrix(field, np.array(data, dtype=object).reshape(rows, cols)), rng


CASES = st.tuples(
    st.sampled_from(FIELDS),
    st.sampled_from(SHAPES),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.booleans(),
    st.integers(0, 10 ** 6),
).map(_case)


@settings(max_examples=200, deadline=None)
@given(CASES)
def test_every_kernel_route_equals_its_reference(case):
    m, rng = case
    field = m.field
    want = reference_kernel_basis(m)
    assert_same_kernel(kernel_basis(m, with_free=True), want)
    # the one-term Kronecker system -m (x) I_1, whose second block has no columns
    terms = [("x", m.data, "y", np.zeros((1, 0), dtype=field.dtype))]
    offs = {"x": 0, "y": m.cols}
    got = kron_kernel(field, offs, m.cols, terms)
    assert_same_kernel(got, reference_kron_kernel(field, offs, m.cols, terms))
    assert_same_kernel(got, want)
    # one consistent right side and one drawn at random, perhaps inconsistent
    x0 = Matrix(field, np.array([[rng.randrange(5) for _ in range(2)] for _ in range(m.cols)],
                                dtype=object).reshape(m.cols, 2))
    for b in (m @ x0, Matrix(field, np.array([[rng.randrange(5)] for _ in range(m.rows)],
                                              dtype=object).reshape(m.rows, 1))):
        solved, ref = solve_with_kernel(m, b), _reference_solve_with_kernel(m, b)
        assert (solved is None) == (ref is None)
        if solved is not None:
            assert solved[0] == ref[0]
            assert_same_kernel((solved[1], want[1]), (ref[1], want[1]))
            assert solved[1] == want[0]
    u = Subspace(field, m.cols, m)
    q = u.quotient()
    assert_same_kernel((q.projection, tuple(q.free)), _null_rows(u.basis, u.pivots))


# -- the Q core against the first-nonzero core ---------------------------------------


def _rational_entry(draw):
    """A Fraction of a numerator near +-3 or past +-2^70 over a denominator
    up to 10^6."""
    num = draw(st.one_of(
        st.integers(-3, 3),
        st.integers(2 ** 70, 2 ** 70 + 9).map(lambda n: n * draw(st.sampled_from([-1, 1]))),
    ))
    return Fraction(num, draw(st.one_of(st.just(1), st.integers(1, 10 ** 6))))


@st.composite
def rational_matrices(draw):
    """A Q matrix of up to 6 x 7 with zero rows and columns, rows that are
    combinations of others (rank-deficient), and columns given a 1 or -1
    or none."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    data = [[_rational_entry(draw) if draw(st.booleans()) else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]
    for i in range(1, rows):
        kind = draw(st.sampled_from(["own", "zero", "combination"]))
        if kind == "zero":
            data[i] = [Fraction(0)] * cols
        elif kind == "combination":
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
            j = draw(st.integers(0, i - 1))
            data[i] = [c * x + d * y for x, y in zip(data[j], data[i - 1])]
    for j in range(cols):
        kind = draw(st.sampled_from(["unit", "zero", "as_drawn"]))
        if kind == "unit" and rows:
            data[draw(st.integers(0, rows - 1))][j] = Fraction(draw(st.sampled_from([-1, 1])))
        elif kind == "zero":
            for r in data:
                r[j] = Fraction(0)
    out = np.empty((rows, cols), dtype=object)
    out.ravel()[:] = [x for r in data for x in r]
    return Matrix(Field.rational(), out), draw(st.integers(0, 10 ** 6))


def _bits(m):
    """A Matrix's shape, dtype, entries and entry types."""
    return m.shape, m.data.dtype, m.data.tolist(), [type(x) for x in m.data.ravel().tolist()]


def _q_routes(m, seed):
    """Every Q route's output on m, as comparable values."""
    field, rng = m.field, random.Random(seed)
    r, nrank, pivots = rref(m)
    ker, free = kernel_basis(m, with_free=True)
    out = [_bits(r), nrank, pivots, rank(m), _bits(ker), free]
    terms = [("x", m.data, "y", np.zeros((1, 0), dtype=object))]
    got, got_free = kron_kernel(field, {"x": 0, "y": m.cols}, m.cols, terms)
    out += [_bits(got), got_free]
    x0 = Matrix(field, np.array([[Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                                  for _ in range(2)] for _ in range(m.cols)],
                                dtype=object).reshape(m.cols, 2))
    drawn = Matrix(field, np.array([[Fraction(rng.randint(-5, 5))] for _ in range(m.rows)],
                                   dtype=object).reshape(m.rows, 1))
    for b in (m @ x0, drawn):
        solved = solve_with_kernel(m, b)
        out.append(None if solved is None else (_bits(solved[0]), _bits(solved[1])))
    return out


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_every_q_route_gives_the_same_answer_on_either_core(case):
    m, seed = case
    got = _q_routes(m, seed)
    with mock.patch.object(exactla, "_rref_rational", _first_nonzero_rref_rational):
        want = _q_routes(m, seed)
    assert got == want
    # the consistent right side is solved on both
    assert got[-2] is not None


@pytest.mark.parametrize(
    "column, pivot",
    [
        ([6, -4, 3], 3),
        ([6, -1, 3], -1),
        ([0, -4, 2, -2], 2),  # the first of least absolute value
        ([2, 1, -1], 1),  # the search stops at the first 1 or -1
        ([2, -1, 1], -1),
        ([0, 0, 2 ** 70, -(2 ** 70) + 1], -(2 ** 70) + 1),
    ],
)
def test_the_q_core_pivots_on_the_smallest_entry_of_its_column(column, pivot):
    """One column with a second, zero, column: the pivot row comes first
    and keeps the pivot; every other row becomes zero."""
    a, pivots = exactla._rref_rational([[x, 0] for x in column], 2)
    assert pivots == [0]
    assert a == [[pivot, 0]] + [[0, 0]] * (len(column) - 1)
