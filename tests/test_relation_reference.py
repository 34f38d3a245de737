"""Relation values against the Matrix product chain they replaced, kept
here as the reference, and random_matrix's draws.

A module's relations used to be checked, and randmod's right-hand sides
valued, as the sum over terms of compose_path(maps, path, side).scale(c):
one Matrix per product and per scaled term, and over Q a Fraction per
distinct product entry.  exactla.path_sum_is_zero and path_sum now read
the raw arrays: over F_p _dot's products with the sum reduced once, over
Q integer rows over a common denominator.  Both must agree with the
reference on accepting and rejecting inputs, over every backend: F2, F5,
F(2^31-1) (int64 products split into blocks), F(4294967311) (object
dtype) and Q, with entries and coefficients that have denominators, and
with vertices of dimension 0, where a product is empty.  Over Q randmod
decides its candidates on int64 arrays of their integer draws, which
must give the value of the Fraction matrices they become, for integers
of any size: a product of int64 entries may pass 2^63.  Such a sum, of
integer arrays with integral coefficients, is decided on the arrays' rows
as they are; it must agree with _rational_path_sum, the generic route,
which must still decide any sum with a coefficient that is not integral,
and must drop a term through a space of dimension 0 wherever on its path
that space is.

random_matrix used to build a list of rows of draws and coerce each one
into Matrix.from_rows; it now writes the same draws into one array.
"""

import operator
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebras import BUILDERS
from stabhom.algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    Arrow,
    BoundQuiverAlgebra,
    Quiver,
    Relation,
    Representation,
    _term_arrays,
    arrow_shape,
    compose_path,
)
from stabhom.cli.randmod import random_matrix, random_module
from stabhom import exactla
from stabhom.exactla import Field, Matrix, path_sum, path_sum_is_zero

FIELDS = [
    Field.prime(2),
    Field.prime(5),
    Field.rational(),
    Field.prime(2147483647),
    Field.prime(4294967311),
]


def _reference_value(maps, terms, side):
    """The sum of coeff * (action of path) over the terms, as the Matrix
    product chain; None for none."""
    values = [compose_path(maps, arrows, side).scale(c) for c, arrows in terms]
    return reduce(operator.add, values) if values else None


def diamond_algebra(field):
    """1 -a-> 2 =b,c=> 3 -d-> 4 with a.b.d + c1 a.c.d = 0 and a.b + c2 a.c = 0:
    relations of lengths 3 and 2, two terms each, with coefficients that
    have denominators over Q."""
    c1, c2 = (Fraction(3, 2), Fraction(-2, 5)) if field.kind == "rational" else (3, -2)
    q = Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "3"), Arrow("d", "3", "4")],
    )
    rels = [
        Relation([(field.one(), ("a", "b", "d")), (field.coerce(c1), ("a", "c", "d"))]),
        Relation([(field.one(), ("a", "b")), (field.coerce(c2), ("a", "c"))]),
    ]
    return BoundQuiverAlgebra(q, rels, field, 4)


NAMES = ("diamond", "square", "loop2", "loop3", "nakayama")


@lru_cache(maxsize=None)
def _algebra(name, k):
    return (diamond_algebra if name == "diamond" else BUILDERS[name])(FIELDS[k])


def _matrix(field, rows, cols, entries):
    return Matrix(field, np.array(entries, dtype=field.dtype).reshape(rows, cols), _trusted=True)


def _assert_agree(alg, side, maps):
    """Every nonempty set of terms of every relation, as _check_relations
    and randmod's right-hand sides take them, against the reference; returns
    whether the maps satisfy every relation."""
    field = alg.field
    arrays = {name: m.data for name, m in maps.items()}
    holds = True
    for rel in alg.relations:
        for k in range(1, len(rel.terms) + 1):
            for terms in combinations(rel.terms, k):
                want = _reference_value(maps, terms, side)
                got = path_sum(field, _term_arrays(arrays, terms, side))
                assert Matrix(field, got, _trusted=True) == want
                assert got.dtype == want.data.dtype
                zero = path_sum_is_zero(field, _term_arrays(arrays, terms, side))
                assert zero == want.is_zero()
        holds = holds and path_sum_is_zero(field, _term_arrays(arrays, rel.terms, side))
    return holds


def _accepts(alg, side, dims, maps):
    try:
        Representation(alg, side, dims, maps)
    except AlgebraError:
        return False
    return True


@st.composite
def candidates(draw):
    """(algebra, side, dims, maps): drawn entries, mostly zero so that some
    candidates satisfy the relations, with denominators over Q."""
    k = draw(st.integers(0, len(FIELDS) - 1))
    alg = _algebra(draw(st.sampled_from(NAMES)), k)
    field, side = alg.field, draw(st.sampled_from([LEFT, RIGHT]))
    dims = {v: draw(st.integers(0, 3)) for v in alg.quiver.vertices}
    if field.kind == "rational":
        nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    else:
        nonzero = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(field.zero()), nonzero)
    maps = {}
    for a in alg.quiver.arrows:
        rows, cols = arrow_shape(dims, a, side)
        maps[a.name] = _matrix(field, rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    return alg, side, dims, maps


@settings(max_examples=150, deadline=None)
@given(candidates())
def test_path_sums_agree_with_the_product_chain(candidate):
    alg, side, dims, maps = candidate
    assert _assert_agree(alg, side, maps) == _accepts(alg, side, dims, maps)


@pytest.mark.parametrize("k", range(len(FIELDS)), ids=[repr(f) for f in FIELDS])
def test_path_sums_agree_on_drawn_modules_and_their_candidates(k):
    # random_module's modules satisfy the relations (many by a linear solve,
    # so with denominators over Q); the square's candidates mostly do not,
    # and vertices of dimension 0 come up often at max_dim 2
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for name in NAMES:
        alg = _algebra(name, k)
        for side in (LEFT, RIGHT):
            for _ in range(8):
                m = random_module(alg, side, 2, rng)[0]
                assert _assert_agree(alg, side, m.arrow_maps)
                seen[True] += 1
    square = _algebra("square", k)
    empty = 0
    for _ in range(120):
        dims = {v: rng.randrange(3) for v in square.quiver.vertices}
        empty += 0 in dims.values()
        maps = {
            a.name: random_matrix(square.field, *arrow_shape(dims, a, LEFT), rng)
            for a in square.quiver.arrows
        }
        holds = _assert_agree(square, LEFT, maps)
        assert holds == _accepts(square, LEFT, dims, maps)
        seen[holds] += 1
    assert seen[False] >= 10 and empty >= 10


def test_a_term_through_a_zero_space_keeps_its_shape():
    # a: 1 -> 2 and b: 2 -> 4 through a zero space at 2, c.d nonzero: the
    # empty product a.b is the 3 x 2 zero matrix, so the sum is -c.d
    for field in FIELDS:
        alg = _algebra("square", FIELDS.index(field))
        dims = {"1": 2, "2": 0, "3": 1, "4": 3}
        one = field.one()
        maps = {
            "a": _matrix(field, 0, 2, []),
            "b": _matrix(field, 3, 0, []),
            "c": _matrix(field, 1, 2, [one, one]),
            "d": _matrix(field, 3, 1, [one, field.zero(), one]),
        }
        arrays = {name: m.data for name, m in maps.items()}
        value = path_sum(field, _term_arrays(arrays, alg.relations[0].terms, LEFT))
        assert value.shape == (3, 2)
        assert Matrix(field, value, _trusted=True) == _reference_value(
            maps, alg.relations[0].terms, LEFT
        )
        assert not _accepts(alg, LEFT, dims, maps)


@st.composite
def integer_candidates(draw):
    """(algebra over Q, side, int64 arrays of every arrow): small draws like
    randmod's, mostly zero, or any int64 entries, whose products pass 2^63."""
    alg = _algebra(draw(st.sampled_from(NAMES)), FIELDS.index(Field.rational()))
    side = draw(st.sampled_from([LEFT, RIGHT]))
    dims = {v: draw(st.integers(0, 3)) for v in alg.quiver.vertices}
    bound = draw(st.sampled_from([2, 2 ** 63 - 1]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    arrays = {}
    for a in alg.quiver.arrows:
        rows, cols = arrow_shape(dims, a, side)
        flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        arrays[a.name] = np.array(flat, dtype=np.int64).reshape(rows, cols)
    return alg, side, arrays


@settings(max_examples=150, deadline=None)
@given(integer_candidates())
def test_rational_path_sums_of_integer_arrays_are_those_of_their_fractions(candidate):
    alg, side, arrays = candidate
    field = alg.field
    fractions = {name: Matrix.from_integers(field, a).data for name, a in arrays.items()}
    assert all(type(x) is Fraction for m in fractions.values() for x in m.flat)
    for rel in alg.relations:
        for k in range(1, len(rel.terms) + 1):
            for terms in combinations(rel.terms, k):
                got = path_sum(field, _term_arrays(arrays, terms, side))
                want = path_sum(field, _term_arrays(fractions, terms, side))
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tolist() == want.tolist()
                assert path_sum_is_zero(field, _term_arrays(arrays, terms, side)) == (
                    not want.any()
                )


@contextmanager
def _generic_calls():
    """The calls path_sum_is_zero makes of _rational_path_sum, the generic
    Q route, while the block runs."""
    calls, real = [], exactla._rational_path_sum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_rational_path_sum", lambda terms: calls.append(terms) or real(terms))
        yield calls


def _decided_generically(terms) -> bool:
    return not any(exactla._rational_path_sum(terms)[0])


@settings(max_examples=150, deadline=None)
@given(integer_candidates())
def test_the_direct_rational_decision_agrees_with_the_generic_route(candidate):
    # the diamond's coefficients 3/2 and -2/5 are not integral, so its sums
    # take the generic route; the other relations' coefficients are +-1
    alg, side, arrays = candidate
    field = alg.field
    for rel in alg.relations:
        for k in range(1, len(rel.terms) + 1):
            for terms in combinations(rel.terms, k):
                values = _term_arrays(arrays, terms, side)
                live = [c for c, ms in values if all(m.size for m in ms)]
                with _generic_calls() as calls:
                    got = path_sum_is_zero(field, values)
                assert got == _decided_generically(values)
                assert bool(calls) == any(c.denominator != 1 for c in live)


@pytest.mark.parametrize(
    "c, direct",
    [(Fraction(3), True), (Fraction(1), True), (Fraction(3, 2), False)],
    ids=["integral", "unit", "not-integral"],
)
def test_integral_fraction_coefficients_are_decided_directly(c, direct):
    # c a.b - c d.b on int64 draws, which vanishes when d = a (half the
    # draws) and mostly not otherwise: decided directly exactly when c is
    # integral, and as the generic route and the Fraction arrays decide it
    field, rng = Field.rational(), random.Random(3)

    def draw():
        return np.array([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)], dtype=np.int64)

    seen = set()
    for _ in range(40):
        a, b = draw(), draw()
        d = a if rng.random() < 0.5 else draw()
        values = [(c, (b, a)), (-c, (b, d))]
        with _generic_calls() as calls:
            got = path_sum_is_zero(field, values)
        assert got == _decided_generically(values)
        fractions = [(cf, tuple(Matrix.from_integers(field, m).data for m in ms)) for cf, ms in values]
        assert got == path_sum_is_zero(field, fractions)
        assert bool(calls) != direct
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("term", [0, 1])
@pytest.mark.parametrize("position", range(4))
def test_a_term_through_a_zero_space_is_dropped_wherever_the_space_is(position, term):
    # two paths of length 3, n0 -> n1 -> n2 -> n3 and n0 -> m1 -> m2 -> n3,
    # with the space at one position of one term made 0: an inner space
    # kills only its own term, whose empty rows must not cut the other
    # term's sum short; n0 or n3 kill both
    field, rng = Field.rational(), random.Random(position + 4 * term)
    spaces = [[3, 2, 2, 3], [3, 2, 2, 3]]
    for t in ([0, 1] if position in (0, 3) else [term]):
        spaces[t][position] = 0
    paths = []
    for dims in spaces:
        paths.append(tuple(
            np.array([[rng.randrange(1, 3) for _ in range(dims[i])] for _ in range(dims[i + 1])],
                     dtype=np.int64).reshape(dims[i + 1], dims[i])
            for i in range(3)
        ))
    for coeffs in ((Fraction(1), Fraction(-1)), (Fraction(2), Fraction(1))):
        values = list(zip(coeffs, paths))
        with _generic_calls() as calls:
            got = path_sum_is_zero(field, values)
        assert not calls
        assert got == _decided_generically(values)
        fractions = [(c, tuple(Matrix.from_integers(field, m).data for m in ms)) for c, ms in values]
        assert got == path_sum_is_zero(field, fractions)
        # entries of 1 and 2 make every live product positive
        assert got == (position in (0, 3))


# -- random_matrix --------------------------------------------------------------


class _Recorder(random.Random):
    """A seeded generator that logs what randrange returns: one call per
    draw, over F_p directly and over Q through randint."""

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []

    def randrange(self, *args):
        x = super().randrange(*args)
        self.log.append(x)
        return x


@pytest.mark.parametrize(
    "field", [Field.prime(5), Field.prime(2147483647), Field.prime(4294967311), Field.rational()], ids=repr
)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 2)])
def test_random_matrix_is_its_draws_in_row_major_order(field, shape):
    rows, cols = shape
    rng, ref = _Recorder(23), random.Random(23)
    got = random_matrix(field, rows, cols, rng)
    draws = [field.random_scalar(ref) for _ in range(rows * cols)]
    assert len(rng.log) == rows * cols and rng.random() == ref.random()
    assert got.shape == shape and got.data.dtype == field.dtype
    assert got.entries() == draws
    if field.dtype is object:
        assert [type(x) for x in got.entries()] == [type(x) for x in draws]
    want = (
        Matrix.from_rows(field, [draws[i * cols : (i + 1) * cols] for i in range(rows)])
        if rows
        else Matrix.zeros(field, 0, cols)
    )
    assert got == want and got.data.dtype == want.data.dtype
    assert not got.data.flags.writeable
