"""Random module and morphism generation for the verification harness.

Vertex dimensions are sampled uniformly in [0, max_dim].  Arrow matrices
are sampled uniformly when the algebra has no relations.  With relations
the sampler tries, in order:

1. linear solve: pick an arrow that no relation term mentions twice,
   sample every other arrow, and solve the relation equations for the
   picked arrow (choosing a uniformly random solution of the affine
   solution set);
2. bounded rejection: resample everything and recheck the relations;
3. projective quotient: quotient a small random sum of indecomposable
   projectives by the submodule generated by random elements, spanned by
   path labels: g at v generates the image of P(v) -> M (Yoneda), which
   at w is spanned by the path classes of P(v) at w applied to g.  This
   always succeeds but no longer controls the dimension vector.

A candidate is drawn as raw integer arrays (Field.random_integers, the
generator calls of random_scalar: residues mod p over F_p, over Q the
integers random_scalar makes Fractions) and its relations are decided on
those arrays by exactla.path_sum_is_zero.  Only the accepted draw becomes
Matrices (Fractions over Q) and one Representation.  That Representation
checks the relations again after a linear solve, which verifies the
solve, and is trusted after a rejection draw, whose relations were just
decided on the same integers.  A dimension vector whose arrow matrices
would pass the module size cap is refused before any entry is drawn.

What the relations say about a draw is worked out once per algebra and
kept in its cache (BoundQuiverAlgebra._cached): the solvable arrow and,
per side and target arrow, each relation's terms without the target as
arrow names in application order and, for each term c L X R through the
target X, the coerced c with the arrow names of L and R (_linear_plan).
A linear-solve draw only looks up its arrays by those names and
multiplies.

Every module records which strategy produced it, and catalogs aggregate
those counts so reports can show the generation statistics.
"""

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algebra import (
    BoundQuiverAlgebra,
    ModuleMap,
    Representation,
    _projective_with_labels,
    _term_arrays,
    arrow_shape,
    check_module_entries,
    direct_sum,
    in_application_order,
    indec_projective,
    quotient_rep,
)
from ..exactla import (
    RATIONAL,
    Matrix,
    Subspace,
    _dot,
    path_sum,
    path_sum_is_zero,
    solve_with_kernel,
    vstack,
)
from ..fpfun import CONTRAVARIANT, COVARIANT, FpFunctor, FpMorphism
from ..homology import hom_basis, hstack_maps, pushout

MAX_REJECTION_TRIES = 60

STRATEGY_DIRECT = "direct"
STRATEGY_LINEAR = "linear_solve"
STRATEGY_REJECTION = "rejection"
STRATEGY_QUOTIENT = "projective_quotient"


def _random_array(field, rows: int, cols: int, rng) -> np.ndarray:
    """rows x cols draws of field.random_integers, row-major, in one array
    that owns its data (a reshaped view would keep a second array object
    alive with every module drawn): residues in the field's dtype over F_p,
    int64 over Q."""
    data = np.empty((rows, cols), dtype=np.int64 if field.kind == RATIONAL else field.dtype)
    data.ravel()[:] = field.random_integers(rng, rows * cols)
    return data


def random_matrix(field, rows: int, cols: int, rng) -> Matrix:
    """rows x cols draws of field.random_scalar, row-major."""
    return Matrix.from_integers(field, _random_array(field, rows, cols, rng))


def _random_dims(alg: BoundQuiverAlgebra, max_dim: int, rng) -> Dict[str, int]:
    return {v: rng.randrange(max_dim + 1) for v in alg.quiver.vertices}


def _random_arrays(alg, side, dims, rng, skip=None) -> Dict[str, np.ndarray]:
    """_random_array for every arrow but skip, in the quiver's order."""
    return {
        a.name: _random_array(alg.field, *arrow_shape(dims, a, side), rng)
        for a in alg.quiver.arrows
        if a.name != skip
    }


def _module(alg, side, dims, arrays, solved=None, checked=False) -> Representation:
    """The module of drawn arrays, with the solved arrow's Matrix, if any:
    the only Matrices and Representation a draw makes.  The module checks
    the relations once more, on the Matrices, unless the caller has just
    checked them on these arrays (checked): the arrays are the Matrices'
    integers, so that check decides the same equations.  Its shapes are
    checked either way."""
    maps = {name: Matrix.from_integers(alg.field, a) for name, a in arrays.items()}
    if solved is not None:
        maps.update(solved)
    return Representation(alg, side, dims, maps, _trusted=checked)


def _solvable_arrow(alg: BoundQuiverAlgebra) -> Optional[str]:
    """First arrow mentioned by some relation but never twice in a term,
    worked out once per algebra."""
    return alg._cached(("randmod", "solvable"), _find_solvable_arrow, alg)


def _find_solvable_arrow(alg: BoundQuiverAlgebra) -> Optional[str]:
    mentioned = set()
    doubled = set()
    for rel in alg.relations:
        for _, arrows in rel.terms:
            for name in arrows:
                if arrows.count(name) > 1:
                    doubled.add(name)
                else:
                    mentioned.add(name)
    for a in alg.quiver.arrows:
        if a.name in mentioned and a.name not in doubled:
            return a.name
    return None


def _term_values(arrays, terms) -> list:
    """The terms (coeff, arrow names) as exactla's path sums take them."""
    return [(c, tuple(arrays[name] for name in names)) for c, names in terms]


def _linear_plan(alg: BoundQuiverAlgebra, side: str, target: str) -> Tuple:
    """What _linear_system reads off the relations, worked out once per
    algebra, side and target arrow: for each relation, its terms without
    the target as (coeff, the arrow names in application order), and for
    each term c L X R with the target X, the coerced c and the arrow names
    of L and R in application order (empty for an identity)."""
    return alg._cached(("randmod", "linear", side, target), _build_linear_plan, alg, side, target)


def _build_linear_plan(alg, side, target) -> Tuple:
    plan = []
    for rel in alg.relations:
        fixed = tuple(
            (c, in_application_order(arrows, side)) for c, arrows in rel.terms if target not in arrows
        )
        solved = []
        for coeff, arrows in rel.terms:
            if target not in arrows:
                continue
            pos = arrows.index(target)
            # R acts before the target arrow, L after it
            applied_first, applied_last = in_application_order(
                (arrows[:pos], arrows[pos + 1 :]), side
            )
            solved.append(
                (
                    alg.field.coerce(coeff),
                    in_application_order(applied_last, side),
                    in_application_order(applied_first, side),
                )
            )
        plan.append((fixed, tuple(solved)))
    return tuple(plan)


def _linear_system(alg, side, dims, arrays, target: str):
    """Stacked system A vec(X) = rhs for the target arrow's matrix X, from
    the drawn arrays of the other arrows.

    Row-major vectorization: vec(L X R) = (L kron R^T) vec(X), one
    broadcast product per term, with an identity for a missing L or R.
    Relations not mentioning the target must already hold;
    returns None when one fails so the caller resamples.  The target is
    _solvable_arrow's, which some relation mentions, so that relation
    writes a block.  Which terms, coefficients and arrows go where is
    _linear_plan's, so a draw only looks up its arrays and multiplies.
    """
    field = alg.field
    one = field.one()
    tgt_arrow = alg.quiver.arrow_by_name[target]
    x_rows, x_cols = arrow_shape(dims, tgt_arrow, side)
    blocks = []
    rhs_parts = []
    for fixed, solved in _linear_plan(alg, side, target):
        if not solved:
            if not path_sum_is_zero(field, _term_values(arrays, fixed)):
                return None, None, (x_rows, x_cols)
            continue
        block = None
        for c, applied_last, applied_first in solved:
            left, right = (
                path_sum(field, _term_values(arrays, [(one, names)]))
                if names
                else np.eye(n, dtype=field.dtype)
                for names, n in ((applied_last, x_rows), (applied_first, x_cols))
            )
            # c L is reduced first: a product of three reduced factors
            # overflows int64 near p = 2^31
            cl = left if c == 1 else field.normalize(c * left)
            kron = field.normalize(cl[:, None, :, None] * right.T[None, :, None, :])
            block = kron if block is None else field.normalize(block + kron)
        size = block.shape[0] * block.shape[1]
        block = block.reshape(size, x_rows * x_cols)
        blocks.append(block)
        if fixed:
            const = path_sum(field, _term_values(arrays, fixed))
            rhs_parts.extend(field.normalize(-const).ravel().tolist())
        else:
            rhs_parts.extend([field.zero()] * size)
    system = Matrix(field, np.concatenate(blocks, axis=0), _trusted=True)
    # every part is reduced already
    rhs = Matrix(field, np.array([rhs_parts], dtype=field.dtype).T, _trusted=True)
    return system, rhs, (x_rows, x_cols)


def _random_solution(field, particular: Matrix, free: Matrix, rng) -> np.ndarray:
    """A uniformly random solution, as a 1-D array: the particular solution
    (a column) plus sum_i c_i K_i over the kernel rows K_i, the c_i drawn
    first, in row order, and added by one product _dot (a plain int64
    product overflows at p = 2^31 - 1)."""
    vec = particular.data[:, 0]
    if not free.rows:
        return vec
    cs = np.array([[field.random_scalar(rng) for _ in range(free.rows)]], dtype=field.dtype)
    return field.normalize(vec + _dot(field, cs, free.data)[0])


def _try_linear_solve(alg, side, dims, rng, target: str):
    """A module whose target arrow solves the relations for the other
    arrows' draws, or None when the system is inconsistent: one elimination
    of [system | rhs] tells, and when it is consistent gives a particular
    solution and the kernel, from which a uniformly random solution is
    drawn."""
    arrays = _random_arrays(alg, side, dims, rng, skip=target)
    system, rhs, (x_rows, x_cols) = _linear_system(alg, side, dims, arrays, target)
    if system is None:
        return None
    solved = solve_with_kernel(system, rhs)
    if solved is None:
        return None
    vec = _random_solution(alg.field, *solved, rng)
    x = Matrix(alg.field, vec.reshape(x_rows, x_cols).copy(), _trusted=True)
    return _module(alg, side, dims, arrays, {target: x})


def _projective_quotient(alg, side, max_dim, rng) -> Representation:
    vertices = list(alg.quiver.vertices)
    summands = [
        indec_projective(alg, rng.choice(vertices), side)
        for _ in range(rng.randrange(1, 3))
    ]
    parent = direct_sum(summands).module
    field = alg.field
    rows: Dict[str, List[Matrix]] = {w: [] for w in parent.vertices}
    for _ in range(rng.randrange(0, 3)):
        v = rng.choice(vertices)
        if parent.dims[v] == 0:
            continue
        g = Matrix.from_rows(field, [[field.random_scalar(rng)] for _ in range(parent.dims[v])])
        for w, paths in _projective_with_labels(alg, v, side)[1].items():
            rows[w].extend((parent.path_map(p) @ g).transpose() for p in paths)
    spans = {
        w: Subspace(field, parent.dims[w], vstack(field, rows[w], cols=parent.dims[w]))
        for w in parent.vertices
    }
    return quotient_rep(parent, spans)[0]


def random_module(
    alg: BoundQuiverAlgebra, side: str, max_dim: int, rng
) -> Tuple[Representation, str, int]:
    """One random module plus the strategy used and the attempts spent.  A
    dimension vector whose arrow matrices would pass the module size cap
    raises AlgebraTooLarge before any entry is drawn."""
    dims = _random_dims(alg, max_dim, rng)
    check_module_entries(alg.quiver, dims)
    if not alg.relations:
        return _module(alg, side, dims, _random_arrays(alg, side, dims, rng)), STRATEGY_DIRECT, 1
    target = _solvable_arrow(alg)
    if target is not None:
        for attempt in range(1, MAX_REJECTION_TRIES + 1):
            rep = _try_linear_solve(alg, side, dims, rng, target)
            if rep is not None:
                return rep, STRATEGY_LINEAR, attempt
    field = alg.field
    for attempt in range(1, MAX_REJECTION_TRIES + 1):
        arrays = _random_arrays(alg, side, dims, rng)
        if all(
            path_sum_is_zero(field, _term_arrays(arrays, rel.terms, side))
            for rel in alg.relations
        ):
            return _module(alg, side, dims, arrays, checked=True), STRATEGY_REJECTION, attempt
    return _projective_quotient(alg, side, max_dim, rng), STRATEGY_QUOTIENT, 1


def random_catalog(
    alg: BoundQuiverAlgebra,
    side: str,
    count: int,
    max_dim: int,
    rng,
    admit: Optional[Callable[[Representation], None]] = None,
) -> Tuple[List[Representation], Dict[str, int]]:
    """count random modules with aggregated generation statistics.  admit,
    when given, sees each module as soon as it is drawn and may raise to
    refuse it before the next one is drawn."""
    stats = {
        STRATEGY_DIRECT: 0,
        STRATEGY_LINEAR: 0,
        STRATEGY_REJECTION: 0,
        STRATEGY_QUOTIENT: 0,
        "attempts": 0,
    }
    modules = []
    for _ in range(count):
        rep, strategy, attempts = random_module(alg, side, max_dim, rng)
        if admit is not None:
            admit(rep)
        stats[strategy] += 1
        stats["attempts"] += attempts
        modules.append(rep)
    return modules, stats


def random_hom_element(a: Representation, b: Representation, rng) -> ModuleMap:
    """Random element of Hom(a, b); the zero map when the space is zero."""
    hom = hom_basis(a, b)
    if hom.dim == 0:
        return ModuleMap.zero(a, b)
    field = a.algebra.field
    coeffs = [field.random_scalar(rng) for _ in range(hom.dim)]
    return hom.element(coeffs)


def random_fp_morphism(
    alg: BoundQuiverAlgebra, side: str, variance: str, max_dim: int, rng
) -> FpMorphism:
    """Random natural transformation between finitely presented functors.

    Covariant: start from a random presentation g and a random map u out
    of its entry module; the pushout of (u, g) supplies a source functor
    and a commuting square by construction.  Contravariant: extend a
    random presentation along a random map into a fresh codomain.
    """
    a = random_module(alg, side, max_dim, rng)[0]
    b = random_module(alg, side, max_dim, rng)[0]
    c = random_module(alg, side, max_dim, rng)[0]
    if variance == COVARIANT:
        g = random_hom_element(a, b, rng)
        u = random_hom_element(a, c, rng)
        _, leg_c, leg_b = pushout(u, g)
        source = FpFunctor(COVARIANT, leg_c)
        target = FpFunctor(COVARIANT, g)
        return FpMorphism(source, target, u, leg_b)
    f = random_hom_element(a, b, rng)
    source = FpFunctor(CONTRAVARIANT, f)
    u = random_hom_element(b, c, rng)
    extra = random_module(alg, side, max_dim, rng)[0]
    r = random_hom_element(extra, c, rng)
    ds_pres = hstack_maps(u @ f, r)
    target = FpFunctor(CONTRAVARIANT, ds_pres)
    v = direct_sum([a, extra]).injections[0]
    return FpMorphism(source, target, u, v)
