"""Finitely presented Hom-functors given by a single module map.

A covariant functor is presented by f: X -> Y, read as the exact row
(Y,-) -> (X,-) -> F -> 0, so F(b) = coker(Hom(Y,b) -> Hom(X,b)) under
precomposition and the defect is w(F) = ker f.  A contravariant functor
is presented by f: Y -> X, read as (-,Y) -> (-,X) -> F -> 0, so
F(b) = coker(Hom(b,Y) -> Hom(b,X)) under postcomposition and the defect
is v(F) = coker f.

Morphisms between presented functors are commuting squares against the
presentations, taken up to homotopy (a difference of entry components
factoring through the target presentation acts as zero on every value).
Kernels are assembled from pushouts (covariant) or pullbacks
(contravariant); their componentwise correctness is confirmed
evaluation-by-evaluation in the test suite rather than assumed.

One variance rule serves both mirrors.  A functor reads a pair (x, y) as
is when covariant and as (y, x) when contravariant (_ordered): the ends
of its presentation, the arguments of its Hom spaces, and the two maps of
a composite.  A map acts on its values by precomposition (push_coords's
pre=) when covariant and by postcomposition (post=) when contravariant
(_acting).  The rule lives in homology.py, next to push_coords, so that
stable.py writes the extension and lifting checks and the certificates
through it too; it is imported here, and COVARIANT and CONTRAVARIANT
still resolve as attributes of this module.  Every operation below is
written once through these two.  A value F(b) is homology's
_presented_value, the one value body, which stable's extension and lifting
checks read too.
Outside them only the validation, the defect (whose two forms differ
mathematically), fp_rho's covariant-only guard and the one-line picks of
stacking and of pushout or pullback look at the variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .exactla import Matrix, QuotientSpace, Subspace, rank
from .algebra import (
    AlgebraError,
    BoundQuiverAlgebra,
    LEFT,
    ModuleMap,
    Representation,
    indec_injective,
    regular_module,
    standard_probes,  # re-exported: the probe list of the functor tests
    zero_module,
)
from .homology import (
    CONTRAVARIANT,
    COVARIANT,
    HomSpace,
    _acting,
    _ordered,
    _presented_value,
    cokernel_map,
    cover_map,
    envelope_map,
    factor_through,
    hstack_maps,
    image_map,
    injective_envelope,
    kernel_map,
    pullback,
    push_coords,
    pushout,
    star_dual,
    star_dual_map,
    transpose,
    vstack_maps,
)
from .stable import fp_certificate

@dataclass(frozen=True)
class FpFunctor:
    """A functor presented by a single module map (see module docstring)."""

    variance: str
    presentation: ModuleMap

    def __post_init__(self):
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"unknown variance: {self.variance!r}")

    @property
    def algebra(self) -> BoundQuiverAlgebra:
        return self.presentation.domain.algebra

    @property
    def side(self) -> str:
        return self.presentation.domain.side

    @property
    def entry(self) -> Representation:
        """The module X whose Hom space carries the values."""
        f = self.presentation
        return _ordered(self.variance, f.domain, f.codomain)[0]

    @property
    def relations(self) -> Representation:
        """The module Y whose Hom space cuts the values down."""
        f = self.presentation
        return _ordered(self.variance, f.domain, f.codomain)[1]


def fp_representable(m: Representation, variance: str = COVARIANT) -> FpFunctor:
    """(m,-) or (-,m), presented with zero relations."""
    nil = zero_module(m.algebra, m.side)
    return FpFunctor(variance, ModuleMap.zero(*_ordered(variance, m, nil)))


@dataclass
class FpValue:
    """The value F(b): a quotient of hom coordinates."""

    functor: FpFunctor
    argument: Representation
    hom: HomSpace
    relations_image: Subspace
    quotient: QuotientSpace

    @property
    def dim(self) -> int:
        return self.quotient.dim


def fp_eval(func: FpFunctor, b: Representation) -> FpValue:
    if b.algebra is not func.algebra or b.side != func.side:
        raise AlgebraError("argument does not match the functor's algebra/side")
    hom, t = _presented_value(func.variance, func.presentation, b)
    image = Subspace(b.algebra.field, hom.dim, t)
    return FpValue(func, b, hom, image, image.quotient())


def fp_defect(func: FpFunctor) -> Representation:
    """w(F) = ker of the presentation (covariant), v(F) = coker
    (contravariant); the contravariant value is cross-checked against
    F evaluated at the regular module."""
    if func.variance == COVARIANT:
        return kernel_map(func.presentation).rep
    out, _ = cokernel_map(func.presentation)
    at_reg = fp_eval(func, regular_module(func.algebra, func.side))
    if at_reg.dim != out.total_dim:
        raise AlgebraError(
            "contravariant defect does not match the value at the regular module"
        )
    return out


@dataclass
class FpMorphism:
    """A natural transformation source -> target between presented functors.

    Covariant case (source f: X -> Y, target g: X' -> Y'): the square is
    (u: X' -> X, v: Y' -> Y) with f.u = v.g, acting on values by
    [phi] -> [phi.u].  Contravariant case (source f: Y -> X, target
    g: Y' -> X'): the square is (u: X -> X', v: Y -> Y') with g.v = u.f,
    acting by [phi] -> [u.phi].
    """

    source: FpFunctor
    target: FpFunctor
    u: ModuleMap
    v: ModuleMap

    def __post_init__(self):
        if self.source.variance != self.target.variance:
            raise AlgebraError("morphism endpoints must share variance")
        # f.u = v.g, each composite read in the functor's order
        var = self.source.variance
        f_u = _ordered(var, self.source.presentation, self.u)
        v_g = _ordered(var, self.v, self.target.presentation)
        if f_u[0] @ f_u[1] != v_g[0] @ v_g[1]:
            raise AlgebraError("morphism square does not commute")


def fp_identity(func: FpFunctor) -> FpMorphism:
    return FpMorphism(
        func,
        func,
        ModuleMap.identity(func.entry),
        ModuleMap.identity(func.relations),
    )


def fp_zero_morphism(source: FpFunctor, target: FpFunctor) -> FpMorphism:
    var = source.variance
    u = ModuleMap.zero(*_ordered(var, target.entry, source.entry))
    v = ModuleMap.zero(*_ordered(var, target.relations, source.relations))
    return FpMorphism(source, target, u, v)


def fp_morphism_equal(a: FpMorphism, b: FpMorphism) -> bool:
    """Homotopy equality: the u-difference factors through the target
    presentation, hence the two squares act identically on every value."""
    if a.source.presentation != b.source.presentation:
        return False
    if a.target.presentation != b.target.presentation:
        return False
    delta = a.u - b.u
    if delta.is_zero():
        return True
    g = a.target.presentation
    return factor_through(delta, **_acting(a.source.variance, g)) is not None


def fp_eval_morphism(
    alpha: FpMorphism,
    b: Representation,
    src_val: Optional[FpValue] = None,
    tgt_val: Optional[FpValue] = None,
) -> Matrix:
    """Matrix of alpha at b, from source-value coordinates to target's."""
    if src_val is None:
        src_val = fp_eval(alpha.source, b)
    if tgt_val is None:
        tgt_val = fp_eval(alpha.target, b)
    acting = _acting(alpha.source.variance, alpha.u)
    t = push_coords(src_val.hom, tgt_val.hom, **acting)
    return src_val.quotient.after_section(tgt_val.quotient.projection @ t.transpose())


def fp_cokernel(alpha: FpMorphism) -> FpFunctor:
    """Cokernel functor, presented over the target's entry module."""
    var = alpha.source.variance
    stack = vstack_maps if var == COVARIANT else hstack_maps
    return FpFunctor(var, stack(alpha.u, alpha.target.presentation))


def fp_kernel(alpha: FpMorphism) -> Tuple[FpFunctor, FpMorphism]:
    """Kernel functor with its inclusion into the source.

    Covariant recipe: push the square out twice; the induced map between
    the pushouts presents the kernel.  Contravariant recipe: the mirror
    image with pullbacks.  Componentwise correctness is confirmed against
    evaluated kernels in the test suite.
    """
    var = alpha.source.variance
    glue = pushout if var == COVARIANT else pullback
    _, leg_x, _ = glue(alpha.u, alpha.target.presentation)
    _, leg_d, leg_y = glue(leg_x, alpha.source.presentation)
    ker = FpFunctor(var, leg_d)
    return ker, FpMorphism(ker, alpha.source, leg_x, leg_y)


# -- sub-stabilization ----------------------------------------------------------


def fp_rho(func: FpFunctor) -> FpMorphism:
    """The canonical transformation F -> (w(F), -) off the defect."""
    if func.variance != COVARIANT:
        raise AlgebraError("sub-stabilization needs a covariant functor")
    w = kernel_map(func.presentation)
    target = fp_representable(w.rep, COVARIANT)
    v = ModuleMap.zero(target.relations, func.relations)
    return FpMorphism(func, target, w.inclusion, v)


def fp_substab(func: FpFunctor) -> FpFunctor:
    """Kernel of rho_F; rho is confirmed to evaluate to an isomorphism at
    every indecomposable injective before the kernel is formed."""
    rho = fp_rho(func)
    alg = func.algebra
    for vtx in alg.quiver.vertices:
        inj = indec_injective(alg, vtx, func.side)
        sv = fp_eval(func, inj)
        tv = fp_eval(rho.target, inj)
        mat = fp_eval_morphism(rho, inj, sv, tv)
        if sv.dim != tv.dim or rank(mat) != sv.dim:
            raise AlgebraError(
                "canonical map to the defect representable is not an "
                f"isomorphism at the injective over vertex {vtx}"
            )
    ker, _ = fp_kernel(rho)
    return ker


# -- named presentations ---------------------------------------------------------


def present_overline_cov(a: Representation) -> FpFunctor:
    """Hom(a,-) modulo injectives, presented by the memoized injective
    envelope map, whose domain may be a module equal to a, seen first."""
    return FpFunctor(COVARIANT, envelope_map(a).map)


def present_underline_contra(a: Representation) -> FpFunctor:
    """Hom(-,a) modulo projectives, presented by the memoized projective
    cover map, whose codomain may be a module equal to a, seen first."""
    return FpFunctor(CONTRAVARIANT, cover_map(a).map)


def present_underline_cov(a: Representation) -> FpFunctor:
    """Hom(a,-) modulo projectives, presented by the certified
    projective approximation a -> Q."""
    cert = fp_certificate(a, "covariant_underline")
    return FpFunctor(COVARIANT, cert.approximation)


def present_overline_contra(a: Representation) -> FpFunctor:
    """Hom(-,a) modulo injectives, presented by the certified injective
    approximation I -> a."""
    cert = fp_certificate(a, "contravariant_overline")
    return FpFunctor(CONTRAVARIANT, cert.approximation)


def present_tensor(a: Representation) -> FpFunctor:
    """The tensor functor of a, presented by duals of a minimal
    presentation; the defect is checked against the star dual of a."""
    td = transpose(a)
    func = FpFunctor(COVARIANT, td.f_star)
    star_dims = star_dual(a).module.dim_vector()
    if td.star_sub.dim_vector() != star_dims:
        raise AlgebraError("tensor presentation defect differs from the star dual")
    return func


def present_tensor_substab(a: Representation) -> FpFunctor:
    """The sub-stabilized tensor functor of a, presented by the image of
    the dualized presentation inside the dual of the relation cover."""
    td = transpose(a)
    im = image_map(td.f_star)
    return FpFunctor(COVARIANT, im.inclusion)


def tensor_envelope_morphism(alg: BoundQuiverAlgebra) -> FpMorphism:
    """The transformation (- (x) regular) -> (- (x) envelope of regular),
    assembled by lifting the envelope through minimal presentations and
    dualizing the resulting chain map.  The regular module is projective,
    so its minimal presentation starts at 0 and the chain map is zero
    there."""
    reg = regular_module(alg, LEFT)
    env = injective_envelope(reg)
    td_reg = transpose(reg)
    td_env = transpose(env.middle)
    source = FpFunctor(COVARIANT, td_reg.f_star)
    target = FpFunctor(COVARIANT, td_env.f_star)

    h0 = factor_through(
        env.inclusion @ td_reg.cover.surjection, post=td_env.cover.surjection
    )
    if h0 is None:
        raise AlgebraError("projective lift of the envelope failed")
    h1 = ModuleMap.zero(td_reg.presentation.domain, td_env.presentation.domain)
    u = star_dual_map(h0, sd_dom=td_reg.sd0, sd_cod=td_env.sd0)
    v = star_dual_map(h1, sd_dom=td_reg.sd1, sd_cod=td_env.sd1)
    return FpMorphism(source, target, u, v)


def present_torsion_radical(alg: BoundQuiverAlgebra) -> FpFunctor:
    """The torsion radical as the kernel of (- (x) regular) -> (- (x) its
    injective envelope)."""
    ker, _ = fp_kernel(tensor_envelope_morphism(alg))
    return ker
