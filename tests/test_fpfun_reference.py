"""The functor layer against its per-variance form, kept here as references.

fpfun.py used to write each operation twice, once per variance, and
homology.py had two mirrored solves, extend_over and lift_along.  Both are
now derived from one variance rule and one factor_through.  The references
below are the mirrored code as it was; the rule must give the same hom
stacks, quotients, matrices and presentation maps, and the same
factorizations, bit for bit, for both variances over every backend: int64
(F2, F5, p = 2^31 - 1) and fractions (Q).
"""

import random
from functools import lru_cache

import pytest

from algebras import BUILDERS
from stabhom.algebra import LEFT, RIGHT, AlgebraError, ModuleMap, zero_module
from stabhom.cli.randmod import random_fp_morphism, random_hom_element, random_module
from stabhom.exactla import Field, Matrix, Subspace, solve_matrix
from stabhom.fpfun import (
    CONTRAVARIANT,
    COVARIANT,
    FpFunctor,
    FpMorphism,
    FpValue,
    fp_cokernel,
    fp_eval,
    fp_eval_morphism,
    fp_kernel,
    fp_representable,
    fp_zero_morphism,
    standard_probes,
)
from stabhom.homology import (
    factor_through,
    hom_basis,
    hstack_maps,
    pullback,
    push_coords,
    pushout,
    vstack_maps,
)

FIELDS = [Field.prime(2), Field.prime(5), Field.rational(), Field.prime(2147483647)]
# loop2 has a loop, nakayama an oriented cycle, square a commutativity relation
ALGEBRAS = ("a2", "kronecker", "square", "loop2", "nakayama")
VARIANCES = (COVARIANT, CONTRAVARIANT)
MAX_DIM = 2


@lru_cache(maxsize=None)
def _algebra(name, k):
    return BUILDERS[name](FIELDS[k])


# -- the references ---------------------------------------------------------------


def _extend_over(h, gamma):
    """Solve beta with beta(gamma(x)) = h(x), for h: A -> C and gamma: A -> B."""
    hom_bc = hom_basis(gamma.codomain, h.codomain)
    hom_ac = hom_basis(h.domain, h.codomain)
    t = push_coords(hom_bc, hom_ac, pre=gamma)
    x = solve_matrix(t.transpose(), Matrix(t.field, hom_ac.coords_of(h).reshape(-1, 1)))
    return None if x is None else hom_bc.element(x.data[:, 0])


def _lift_along(h, s):
    """Solve beta with s(beta(x)) = h(x), for h: A -> C and s: B -> C."""
    hom_ab = hom_basis(h.domain, s.domain)
    hom_ac = hom_basis(h.domain, h.codomain)
    t = push_coords(hom_ab, hom_ac, post=s)
    x = solve_matrix(t.transpose(), Matrix(t.field, hom_ac.coords_of(h).reshape(-1, 1)))
    return None if x is None else hom_ab.element(x.data[:, 0])


def _representable(m, variance):
    nil = zero_module(m.algebra, m.side)
    if variance == COVARIANT:
        return FpFunctor(COVARIANT, ModuleMap.zero(m, nil))
    return FpFunctor(CONTRAVARIANT, ModuleMap.zero(nil, m))


def _eval(func, b):
    f = func.presentation
    if func.variance == COVARIANT:
        hom_x = hom_basis(func.entry, b)
        hom_y = hom_basis(func.relations, b)
        t = push_coords(hom_y, hom_x, pre=f)
    else:
        hom_x = hom_basis(b, func.entry)
        hom_y = hom_basis(b, func.relations)
        t = push_coords(hom_y, hom_x, post=f)
    image = Subspace(b.algebra.field, hom_x.dim, t)
    return FpValue(func, b, hom_x, image, image.quotient())


def _square_commutes(source, target, u, v):
    if source.variance == COVARIANT:
        lhs = source.presentation @ u
        rhs = v @ target.presentation
    else:
        lhs = target.presentation @ v
        rhs = u @ source.presentation
    return lhs == rhs


def _zero_morphism_maps(source, target):
    if source.variance == COVARIANT:
        u = ModuleMap.zero(target.entry, source.entry)
        v = ModuleMap.zero(target.relations, source.relations)
    else:
        u = ModuleMap.zero(source.entry, target.entry)
        v = ModuleMap.zero(source.relations, target.relations)
    return u, v


def _eval_morphism(alpha, b):
    src_val, tgt_val = _eval(alpha.source, b), _eval(alpha.target, b)
    if alpha.source.variance == COVARIANT:
        t = push_coords(src_val.hom, tgt_val.hom, pre=alpha.u)
    else:
        t = push_coords(src_val.hom, tgt_val.hom, post=alpha.u)
    return tgt_val.quotient.projection @ t.transpose() @ src_val.quotient.section


def _cokernel_presentation(alpha):
    if alpha.source.variance == COVARIANT:
        return vstack_maps(alpha.u, alpha.target.presentation)
    return hstack_maps(alpha.u, alpha.target.presentation)


def _kernel_maps(alpha):
    """(presentation of the kernel, u and v of its inclusion)."""
    f = alpha.source.presentation
    g = alpha.target.presentation
    if alpha.source.variance == COVARIANT:
        _, in_x, _ = pushout(alpha.u, g)
        _, in_d, in_y = pushout(in_x, f)
        return in_d, in_x, in_y
    _, pr_x, _ = pullback(alpha.u, g)
    _, pr_d, pr_y = pullback(pr_x, f)
    return pr_d, pr_x, pr_y


# -- comparisons -------------------------------------------------------------------


def _same_maps(x, y):
    """Equal ends and bit-identical vertex matrices."""
    return x.domain == y.domain and x.codomain == y.codomain and all(
        x.vertex_maps[v] == y.vertex_maps[v] for v in x.domain.vertices
    )


def _assert_same_value(got, want):
    assert got.hom.stack == want.hom.stack
    assert got.relations_image.basis == want.relations_image.basis
    assert got.relations_image.pivots == want.relations_image.pivots
    assert got.quotient.projection == want.quotient.projection
    assert got.quotient.section == want.quotient.section


def _assert_same_factorization(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert _same_maps(got, want)


def _probes(alg, side, rng):
    return standard_probes(alg, side)[::2] + [random_module(alg, side, MAX_DIM, rng)[0]]


def _cases():
    for k in range(len(FIELDS)):
        for name in ALGEBRAS:
            for variance in VARIANCES:
                yield pytest.param(k, name, variance, id=f"{FIELDS[k]!r}-{name}-{variance}")


@pytest.mark.parametrize("k, name, variance", _cases())
def test_functor_layer_equals_the_per_variance_reference(k, name, variance):
    alg = _algebra(name, k)
    rng = random.Random(7 * k + len(name))
    side = rng.choice([LEFT, RIGHT])
    probes = _probes(alg, side, rng)
    for _ in range(2):
        alpha = random_fp_morphism(alg, side, variance, MAX_DIM, rng)
        src, tgt = alpha.source, alpha.target
        assert _square_commutes(src, tgt, alpha.u, alpha.v)
        for b in probes:
            _assert_same_value(fp_eval(src, b), _eval(src, b))
            _assert_same_value(fp_eval(tgt, b), _eval(tgt, b))
            assert fp_eval_morphism(alpha, b) == _eval_morphism(alpha, b)

        coker = fp_cokernel(alpha)
        assert coker.variance == variance
        assert _same_maps(coker.presentation, _cokernel_presentation(alpha))
        ker, incl = fp_kernel(alpha)
        pres, u, v = _kernel_maps(alpha)
        assert ker.variance == variance
        assert _same_maps(ker.presentation, pres)
        assert _same_maps(incl.u, u) and _same_maps(incl.v, v)

        zero = fp_zero_morphism(src, tgt)
        zu, zv = _zero_morphism_maps(src, tgt)
        assert _same_maps(zero.u, zu) and _same_maps(zero.v, zv)

        for m in (src.entry, tgt.relations):
            got, want = fp_representable(m, variance), _representable(m, variance)
            assert got.variance == want.variance
            assert _same_maps(got.presentation, want.presentation)


@pytest.mark.parametrize("k, name, variance", _cases())
def test_factor_through_equals_extend_over_and_lift_along(k, name, variance):
    alg = _algebra(name, k)
    rng = random.Random(11 * k + len(name))
    side = rng.choice([LEFT, RIGHT])
    for _ in range(2):
        alpha = random_fp_morphism(alg, side, variance, MAX_DIM, rng)
        g = alpha.target.presentation
        other = random_module(alg, side, MAX_DIM, rng)[0]
        # u itself factors through g in the functor's own direction, as
        # fp_morphism_equal asks; random maps of both shapes mostly do not
        if variance == COVARIANT:
            pre_cases = [alpha.u, random_hom_element(g.domain, other, rng)]
            post_cases = [random_hom_element(other, g.codomain, rng)]
        else:
            pre_cases = [random_hom_element(g.domain, other, rng)]
            post_cases = [alpha.u, random_hom_element(other, g.codomain, rng)]
        pre_cases.append(ModuleMap.identity(g.domain))
        post_cases.append(ModuleMap.identity(g.codomain))
        for h in pre_cases:
            _assert_same_factorization(factor_through(h, pre=g), _extend_over(h, g))
        for h in post_cases:
            _assert_same_factorization(factor_through(h, post=g), _lift_along(h, g))


@pytest.mark.parametrize("variance", VARIANCES)
def test_a_square_that_does_not_commute_raises_the_same_error(variance):
    alg = _algebra("a2", 1)
    rng = random.Random(3)
    broken = 0
    for _ in range(20):
        alpha = random_fp_morphism(alg, LEFT, variance, MAX_DIM, rng)
        u = alpha.u + random_hom_element(alpha.u.domain, alpha.u.codomain, rng)
        if _square_commutes(alpha.source, alpha.target, u, alpha.v):
            FpMorphism(alpha.source, alpha.target, u, alpha.v)
            continue
        broken += 1
        with pytest.raises(AlgebraError, match="morphism square does not commute"):
            FpMorphism(alpha.source, alpha.target, u, alpha.v)
    assert broken >= 3


def test_factor_through_takes_exactly_one_keyword(a2):
    m = random_module(a2, LEFT, MAX_DIM, random.Random(1))[0]
    ident = ModuleMap.identity(m)
    with pytest.raises(TypeError, match="exactly one"):
        factor_through(ident)
    with pytest.raises(TypeError, match="exactly one"):
        factor_through(ident, pre=ident, post=ident)
