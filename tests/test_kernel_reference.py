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
"""

import random
from fractions import Fraction
from itertools import islice

import numpy as np
from hypothesis import given, settings, strategies as st

from stabhom import exactla
from stabhom.exactla import (
    RATIONAL,
    Field,
    Matrix,
    Subspace,
    kernel_basis,
    kron_kernel,
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
