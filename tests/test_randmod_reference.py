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

random_module used to draw every candidate as Matrices (Fractions over
Q), build a Representation to check the relations and catch its
AlgebraError, and solve the linear system twice, for one solution
(solve_matrix) and the kernel (kernel_basis).  It now decides candidates
on their raw integer draws, builds one module per accepted draw, and
reads the solution and the kernel off one elimination (solve_with_kernel).
The module, its strategy and attempts, and the generator's state after it
must be the same: on every fixture, both sides, seeds 0-19 and max_dim
0-3, and on algebras with relations over F(2^31-1) and F(4294967311).

_try_linear_solve used to add the random combination sum_i c_i K_i of
the kernel rows to the particular solution one row at a time, drawing c_i
and normalizing after each.  _random_solution draws every c_i first, in
the same order, and adds them with one product.  The solution and the
generator's state after it must be the same over F2, F5, F(2^31-1),
where a plain int64 product of the draws and the kernel would overflow,
F(4294967311) and Q.
"""

import random
from fractions import Fraction

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
    SubRep,
    arrow_ends,
    arrow_shape,
    compose_path,
    direct_sum,
    in_application_order,
    indec_projective,
)
from stabhom.cli.randmod import (
    MAX_REJECTION_TRIES,
    STRATEGY_DIRECT,
    STRATEGY_LINEAR,
    STRATEGY_QUOTIENT,
    STRATEGY_REJECTION,
    _linear_system,
    _projective_quotient,
    _random_arrays,
    _random_solution,
    _solvable_arrow,
    random_module,
)
from stabhom.cli.serialize import module_to_dict
from stabhom.exactla import Field, Matrix, Subspace, kernel_basis, solve_matrix
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
                arrays = _random_arrays(alg, side, dims, rng, skip=target)
                maps = {n: Matrix.from_integers(field, a) for n, a in arrays.items()}
                got = _linear_system(alg, side, dims, arrays, target)
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


# -- random_module ---------------------------------------------------------------


def _random_scalar_by_randint(field, rng):
    """Field.random_scalar as it was: randint(-2, 2) over Q."""
    if field.kind == "prime":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-2, 2))


def _random_arrows_by_scalars(alg, side, dims, rng, skip=None):
    """Every arrow but skip, as a Matrix of row-major scalar draws."""
    field = alg.field
    maps = {}
    for a in alg.quiver.arrows:
        if a.name == skip:
            continue
        rows, cols = arrow_shape(dims, a, side)
        data = np.empty((rows, cols), dtype=field.dtype)
        data.ravel()[:] = [_random_scalar_by_randint(field, rng) for _ in range(rows * cols)]
        maps[a.name] = Matrix(field, data, _trusted=True)
    return maps


def _try_linear_solve_twice(alg, side, dims, rng, target):
    maps = _random_arrows_by_scalars(alg, side, dims, rng, skip=target)
    system, rhs, (x_rows, x_cols) = _linear_system_by_kron(alg, side, dims, maps, target)
    if system is None:
        return None
    particular = solve_matrix(system, rhs)
    if particular is None:
        return None
    free = kernel_basis(system)
    vec = particular.data[:, 0].copy()
    field = alg.field
    for i in range(free.rows):
        c = _random_scalar_by_randint(field, rng)
        vec = field.normalize(vec + c * free.data[i])
    maps[target] = Matrix(field, vec.reshape(x_rows, x_cols).copy(), _trusted=True)
    try:
        return Representation(alg, side, dims, maps)
    except AlgebraError:
        return None


def _random_module_by_candidates(alg, side, max_dim, rng):
    """random_module as it was: a Representation per candidate."""
    dims = {v: rng.randrange(max_dim + 1) for v in alg.quiver.vertices}
    if not alg.relations:
        maps = _random_arrows_by_scalars(alg, side, dims, rng)
        return Representation(alg, side, dims, maps), STRATEGY_DIRECT, 1
    target = _solvable_arrow(alg)
    if target is not None:
        for attempt in range(1, MAX_REJECTION_TRIES + 1):
            rep = _try_linear_solve_twice(alg, side, dims, rng, target)
            if rep is not None:
                return rep, STRATEGY_LINEAR, attempt
    for attempt in range(1, MAX_REJECTION_TRIES + 1):
        try:
            maps = _random_arrows_by_scalars(alg, side, dims, rng)
            return Representation(alg, side, dims, maps), STRATEGY_REJECTION, attempt
        except AlgebraError:
            continue
    return _projective_quotient(alg, side, max_dim, rng), STRATEGY_QUOTIENT, 1


def _module_cases():
    for name in sorted(BUILDERS):
        yield name, BUILDERS[name]()
    for p in (2147483647, 4294967311):
        field = Field.prime(p)
        yield f"diamond@{p}", diamond_algebra(field)
        for name in ("square", "loop2", "loop3", "nakayama"):
            yield f"{name}@{p}", BUILDERS[name](field)


@pytest.mark.parametrize("name,alg", list(_module_cases()), ids=[n for n, _ in _module_cases()])
def test_random_module_equals_the_candidate_reference(name, alg):
    strategies = set()
    for side in (LEFT, RIGHT):
        for seed in range(20):
            for max_dim in range(4):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got, strategy, attempts = random_module(alg, side, max_dim, got_rng)
                want = _random_module_by_candidates(alg, side, max_dim, want_rng)
                assert (got.key, strategy, attempts) == (want[0].key, want[1], want[2])
                assert got_rng.getstate() == want_rng.getstate()
                strategies.add(strategy)
    if not alg.relations:
        assert strategies == {STRATEGY_DIRECT}
    elif _solvable_arrow(alg) is not None:
        assert STRATEGY_LINEAR in strategies
    else:
        # k[x]/(x^n): rejection, and over Q the quotient after
        # MAX_REJECTION_TRIES failed candidates
        assert STRATEGY_REJECTION in strategies
        if name == "loop2_rational":
            assert STRATEGY_QUOTIENT in strategies


# -- the random solution -----------------------------------------------------------


def _random_solution_by_rows(field, particular, free, rng):
    """The random solution as _try_linear_solve added it: one kernel row at
    a time, each coefficient drawn just before its row is added."""
    vec = particular.data[:, 0].copy()
    for i in range(free.rows):
        c = field.random_scalar(rng)
        vec = field.normalize(vec + c * free.data[i])
    return vec


SOLUTION_FIELDS = [
    Field.prime(2),
    Field.prime(5),
    Field.prime(2147483647),
    Field.prime(4294967311),
    Field.rational(),
]


@st.composite
def solutions(draw):
    """(field, particular column, kernel rows, seed): entries reduced mod p,
    or over Q Fractions with small denominators, as solve_with_kernel gives
    them; up to 6 kernel rows (none included)."""
    field = draw(st.sampled_from(SOLUTION_FIELDS))
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    if field.kind == "rational":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        entry = st.one_of(st.integers(0, field.p - 1), st.just(field.p - 1))

    def matrix(rows, cols):
        return Matrix.from_rows(field, [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]) if rows else Matrix.zeros(field, 0, cols)

    return field, matrix(n, 1), matrix(k, n), draw(st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None)
@given(solutions())
def test_random_solution_equals_the_row_by_row_reference(case):
    field, particular, free, seed = case
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = _random_solution(field, particular, free, got_rng)
    want = _random_solution_by_rows(field, particular, free, want_rng)
    assert got.dtype == want.dtype == field.dtype
    assert got.tolist() == want.tolist()
    if field.dtype is object:
        assert [type(x) for x in got.tolist()] == [type(x) for x in want.tolist()]
    assert got_rng.getstate() == want_rng.getstate()


def test_a_random_solution_past_int64_equals_the_reference():
    # at p = 2^31 - 1, six kernel rows of p - 1 weighted by the drawn
    # coefficients sum to more than 2^63 at this seed: a plain int64
    # product wraps, the one _random_solution makes does not
    field = Field.prime(2147483647)
    particular = Matrix.zeros(field, 3, 1)
    free = Matrix.from_rows(field, [[field.p - 1] * 3 for _ in range(6)])
    draws = random.Random(11)
    cs = [field.random_scalar(draws) for _ in range(6)]
    assert sum(c * (field.p - 1) for c in cs) > 2 ** 63 - 1
    wrapped = np.dot(np.array([cs], dtype=np.int64), free.data)[0] % field.p
    got = _random_solution(field, particular, free, random.Random(11))
    want = _random_solution_by_rows(field, particular, free, random.Random(11))
    assert got.tolist() == want.tolist() != wrapped.tolist()
