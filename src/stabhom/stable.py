"""Stable-module invariants: factoring subspaces, stable Hom quotients,
torsion and cotorsion operators, approximations by projectives and
injectives, finite-presentation certificates, and the sub-stabilized
tensor product with its torsion radical.

Conventions.  The torsion subrepresentation of a module is computed by
three independent routes (evaluation into the double dual, joint reject
of the regular module, kernel of the projective approximation) that the
torsion-agreement law compares, not this module.

One code path per stable flavor.  Hom modulo projectives (covariant,
presented by an approximation a -> Q into projectives, defect the
torsion) and Hom modulo injectives (contravariant, presented by an
approximation I -> a from injectives, defect the cotorsion) mirror each
other.  stable_hom computes either factoring subspace, extends_to_projectives
and lifts_from_injectives are one check, _approximation is one body for
Q = sum of P(v)^{dim Hom(a, P(v))} and I = sum of I(v)^{dim Hom(I(v), a)},
and fp_certificate builds one four-term sequence, all through homology's
variance rule (_ordered, _acting), the one fpfun reads.  The check reads
the functor's value at each indecomposable through homology's
_presented_value, the value body of fpfun's fp_eval.  The two halves of
hereditary_split stay separate: a shared body would need a variance branch
of its own (to pick a section or a retraction, hstack or vstack) and saves
a few lines, and shared code that branches on its caller reads worse than
two plain halves.

One summand at a time.  The cover P -> b and the envelope a -> I are sums
of copies of indecomposables P(v) and I(v), and Hom is additive
(Auslander-Reiten-Smalo, Representation Theory of Artin Algebras, 1995,
II.1).  So stable_hom composes the small Hom(a, P(v)) or Hom(I(v), b) with
the cover map's or the envelope map's blocks at each group of copies, and
never solves over the whole sum.  It reads those blocks, the parts of
homology's memoized maps (cover_map, envelope_map), and nothing else: not
the maps' layout, and no syzygy or cosyzygy.  The spans are those of the
whole sum, and a
Subspace or a kernel basis depends only on a row space (through the
unique rref), so every output is what the whole sum gives, bit for bit.
The sub-stabilized tensor product is a stable Hom read dually:
(a (x) b)* = Hom(b, D a), and tensor_substab is the annihilator of the
maps b -> D a that factor through an injective.

Once per value.  stable_hom and fp_certificate look their result up in
homology's per-algebra memos (_memoized) and build it (_build_stable_hom,
_build_fp_certificate) on a miss: stable Homs keyed by (flavor, a.key,
b.key), within HOM_MEMO_BUDGET entries counted over each one's Hom stack,
factor basis and quotient projection, and certificates by (kind, a.key),
within MEMO_CAPACITY.  A hit is the stored result, so a certificate's
approximation domain (covariant) or codomain (contravariant), or a stable
Hom's Hom space's domain and codomain, may be an equal copy seen first.
An unknown flavor or kind, a pair over two algebras or sides, a size cap
and a failed vanishing check raise as they would unmemoized, and store
nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .exactla import Matrix, QuotientSpace, Subspace, kernel_basis, rank
from .algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    BoundQuiverAlgebra,
    ModuleMap,
    Representation,
    SubRep,
    direct_sum,
    indec_injective,
    indec_projective,
    quotient_rep,
    regular_module,
    standard_probes,
    zero_module,
)
from .homology import (
    CONTRAVARIANT,
    COVARIANT,
    HomSpace,
    TensorSpace,
    _check_pair,
    _composites,
    _is_exact,
    _memoized,
    _ordered,
    _presented_value,
    cokernel_map,
    cover_map,
    envelope_map,
    eval_double_dual,
    ext1,
    factor_through,
    hom_basis,
    hstack_maps,
    image_map,
    is_injective_module,
    is_projective,
    kernel_map,
    # not called here any more, but kept bound for code that reaches it as
    # stable.projective_cover (the benchmark's tracer tests do)
    projective_cover,
    tensor,
    vstack_maps,
)

MODULO_PROJECTIVES = "modulo_projectives"
MODULO_INJECTIVES = "modulo_injectives"

TORSION_METHODS = ("evaluation", "reject", "approximation")


class ExtensionFailure(AlgebraError):
    """A map to a projective failed to extend over the approximation."""


class LiftFailure(AlgebraError):
    """A map from an injective failed to lift through the approximation."""


class SplitFailure(AlgebraError):
    """A predicted splitting over a hereditary algebra did not materialize."""


class NotHereditary(AlgebraError):
    """The operation requires an acyclic quiver with no relations."""


class VanishingCheckFailed(AlgebraError):
    """A certificate's extension-vanishing condition failed."""


# -- factoring subspaces and stable homs -------------------------------------


@dataclass
class StableHom:
    """Hom(a, b) modulo the chosen factoring subspace."""

    hom: HomSpace
    factor: Subspace
    quotient: QuotientSpace

    @property
    def dim(self) -> int:
        return self.quotient.dim


def stable_hom(a: Representation, b: Representation, flavor: str) -> StableHom:
    """Hom(a, b) modulo the maps factoring through a projective or through
    an injective.  Memoized per flavor and pair of module values, within
    HOM_MEMO_BUDGET entries per algebra (see _stable_entries): the result
    is the stored one, so its Hom space's domain and codomain may be modules
    equal to a and b, seen first."""
    if flavor not in (MODULO_PROJECTIVES, MODULO_INJECTIVES):
        raise ValueError(f"unknown stable hom flavor: {flavor!r}")
    _check_pair(a, b)
    return _memoized(
        "stable", a.algebra, (flavor, a.key, b.key), _build_stable_hom, a, b, flavor,
        size=_stable_entries,
    )


def _stable_entries(s: StableHom) -> int:
    """The entries a StableHom holds: its Hom space's stack (shared with the
    Hom memo while that holds it), factor basis and quotient projection."""
    return sum(x.rows * x.cols for x in (s.hom.stack, s.factor.basis, s.quotient.projection))


def _build_stable_hom(a: Representation, b: Representation, flavor: str) -> StableHom:
    """Hom is additive, so the maps factoring through a projective are
    spanned by Hom(a, P(v)) composed with the cover P -> b at each copy of
    P(v), those through an injective by Hom(I(v), b) composed with the
    envelope a -> I at each copy of I(v), a part of cover_map(b) or
    envelope_map(a) per group of copies; the composites of all summands are
    read in Hom(a, b) at once."""
    hom = hom_basis(a, b)
    field = a.algebra.field
    post = flavor == MODULO_PROJECTIVES
    if not hom.dim:
        # nothing to factor: the quotient of 0 is 0, whatever the cover
        factor = Subspace(field, 0)
        return StableHom(hom, factor, factor.quotient())
    if post:
        homs = [(hom_basis(a, p), maps) for _, p, maps in cover_map(b).parts]
    else:
        homs = [(hom_basis(i, b), maps) for _, i, maps in envelope_map(a).parts]
    parts = [_composites(h, maps, post) for h, maps in homs if h.dim]
    flats = np.concatenate(parts) if parts else field.zeros(0, hom.stack.cols)
    factor = Subspace(field, hom.dim, hom.coords_of_flats(Matrix(field, flats, _trusted=True)))
    return StableHom(hom, factor, factor.quotient())


# -- approximations ------------------------------------------------------------


def _indecomposable(
    variance: str, alg: BoundQuiverAlgebra, v: str, side: str
) -> Representation:
    """The indecomposable projective (covariant) or injective
    (contravariant) over v: where a functor of this variance is probed."""
    indec = indec_projective if variance == COVARIANT else indec_injective
    return indec(alg, v, side)


def _kills_indecomposables(variance: str, gamma: ModuleMap) -> bool:
    """Whether the functor gamma presents vanishes at every indecomposable
    projective (covariant) or injective (contravariant): gamma acting on
    the entry's Hom space there reaches all of it (checked by rank)."""
    alg, side = gamma.domain.algebra, gamma.domain.side
    for v in alg.quiver.vertices:
        hom, t = _presented_value(variance, gamma, _indecomposable(variance, alg, v, side))
        if rank(t) < hom.dim:
            return False
    return True


def extends_to_projectives(gamma: ModuleMap) -> bool:
    """Whether every map from gamma's domain to an indec projective
    extends over gamma."""
    return _kills_indecomposables(COVARIANT, gamma)


def lifts_from_injectives(gamma: ModuleMap) -> bool:
    """Whether every map from an indec injective into gamma's codomain
    lifts through gamma."""
    return _kills_indecomposables(CONTRAVARIANT, gamma)


def _approximation(variance: str, a: Representation) -> ModuleMap:
    """a -> Q = sum of P(v)^{dim Hom(a, P(v))} (covariant) or I = sum of
    I(v)^{dim Hom(I(v), a)} -> a (contravariant), collecting a basis of the
    Hom space between a and each indecomposable, vertex by vertex.
    Unchecked: the wrappers below confirm the extension or lifting
    property."""
    alg, side = a.algebra, a.side
    indecs = [_indecomposable(variance, alg, v, side) for v in a.vertices]
    homs = [hom_basis(*_ordered(variance, a, x)) for x in indecs]
    summands = [x for x, hom in zip(indecs, homs) for _ in range(hom.dim)]
    if not summands:
        return ModuleMap.zero(*_ordered(variance, a, zero_module(alg, side)))
    # at each vertex, the basis maps below one another (into Q) or beside one another (out of I)
    stack = np.vstack if variance == COVARIANT else np.hstack
    maps = {
        w: Matrix(alg.field, stack([g for hom in homs for g in hom.blocks(w)]), _trusted=True)
        for w in a.vertices
    }
    return ModuleMap(*_ordered(variance, a, direct_sum(summands).module), maps)


def left_proj_approximation(a: Representation) -> ModuleMap:
    """a -> sum of P(v)^{dim Hom(a, P(v))}; every map from a to a projective
    extends over it (confirmed: a failure would be a bug).  Its kernel is
    the torsion of a."""
    gamma = _approximation(COVARIANT, a)
    if not extends_to_projectives(gamma):
        raise ExtensionFailure("projective approximation missed an extension")
    return gamma


def right_inj_approximation(a: Representation) -> ModuleMap:
    """sum of I(v)^{dim Hom(I(v), a)} -> a; every map from an injective to a
    lifts through it (confirmed: a failure would be a bug).  Its image is
    the trace of the injectives in a."""
    gamma = _approximation(CONTRAVARIANT, a)
    if not lifts_from_injectives(gamma):
        raise LiftFailure("injective approximation missed a lift")
    return gamma


# -- torsion and cotorsion -----------------------------------------------------


def bass_torsion(a: Representation, method: str = "evaluation") -> SubRep:
    """The torsion subrepresentation, by one of three routes.

    evaluation: kernel of the map into the double dual.
    reject: joint kernel of a basis of Hom(a, A): at each vertex, the
    kernel of the basis maps' matrices stacked one below the other.
    approximation: kernel of the projective approximation.
    """
    if method not in TORSION_METHODS:
        raise ValueError(f"unknown torsion method: {method!r}")
    if method == "evaluation":
        ev, _, _ = eval_double_dual(a)
        return kernel_map(ev)
    if method == "reject":
        field, reg = a.algebra.field, regular_module(a.algebra, a.side)
        hom = hom_basis(a, reg)
        # both counts given, as a.dims[w] may be 0
        stacks = {w: hom.blocks(w).reshape(hom.dim * reg.dims[w], a.dims[w]) for w in a.vertices}
        return SubRep(a, {
            w: Subspace(field, a.dims[w], kernel_basis(Matrix(field, s, _trusted=True)))
            for w, s in stacks.items()
        })
    return kernel_map(_approximation(COVARIANT, a))


def torsionless_quotient(
    a: Representation, torsion: Optional[SubRep] = None
) -> Tuple[Representation, ModuleMap]:
    """a modulo its torsion subrepresentation, with the surjection."""
    if torsion is None:
        torsion = bass_torsion(a, "evaluation")
    return quotient_rep(a, torsion.subspaces)


def cotorsion_trace(a: Representation) -> SubRep:
    """The sum of the images of all maps from injectives into a: the image
    of the unchecked injective approximation I -> a, whose matrix at each
    vertex is the basis maps of every Hom(I(v), a) side by side."""
    return image_map(_approximation(CONTRAVARIANT, a))


def cotorsion_quotient(
    a: Representation, trace: Optional[SubRep] = None
) -> Tuple[Representation, ModuleMap]:
    """a modulo the trace of the injectives, with the surjection."""
    if trace is None:
        trace = cotorsion_trace(a)
    return quotient_rep(a, trace.subspaces)


# -- finite-presentation certificates -------------------------------------------


@dataclass
class FourTermSequence:
    """An exact sequence 0 -> m0 -> m1 -> m2 -> m3 -> 0."""

    modules: Tuple[Representation, Representation, Representation, Representation]
    maps: Tuple[ModuleMap, ModuleMap, ModuleMap]

    def validate(self) -> bool:
        return _is_exact(self.maps)


# certificate kind -> the variance of the functor its approximation presents
_CERTIFICATE_KINDS = {"covariant_underline": COVARIANT, "contravariant_overline": CONTRAVARIANT}


@dataclass
class Certificate:
    """Witness that a stable-hom functor is finitely presented.

    covariant_underline stores 0 -> torsion(a) -> a -> Q -> M -> 0 with Q
    projective and Ext^1(M, P(v)) = 0 for every vertex v;
    contravariant_overline stores 0 -> N -> I -> a -> cotorsion(a) -> 0
    with I injective and Ext^1(I(v), N) = 0 for every vertex v.
    """

    kind: str
    sequence: FourTermSequence
    ext_witness: Dict[str, int]
    approximation: ModuleMap

    def validate(self) -> bool:
        return self.sequence.validate() and self.approximates()

    def approximates(self) -> bool:
        """validate without the exactness check: whether Q is projective
        (covariant_underline) or I injective (contravariant_overline)."""
        if self.kind == "covariant_underline":
            return is_projective(self.sequence.modules[2])
        return is_injective_module(self.sequence.modules[1])


def fp_certificate(a: Representation, kind: str) -> Certificate:
    """The four-term sequence kernel -> gamma.domain -> gamma.codomain ->
    cokernel of the kind's approximation gamma, certified by
    Ext^1(cokernel, P(v)) = 0 (covariant) or Ext^1(I(v), kernel) = 0
    (contravariant) at every vertex v; VanishingCheckFailed otherwise.
    Memoized per kind and module value: the result is the stored one, so
    its approximation's domain (covariant) or codomain (contravariant) may
    be a module equal to a, seen first.  A failed check stores nothing."""
    if kind not in _CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    return _memoized("certificate", a.algebra, (kind, a.key), _build_fp_certificate, a, kind)


def _build_fp_certificate(a: Representation, kind: str) -> Certificate:
    variance = _CERTIFICATE_KINDS[kind]
    covariant = variance == COVARIANT
    gamma = left_proj_approximation(a) if covariant else right_inj_approximation(a)
    ker = kernel_map(gamma)
    coker, cproj = cokernel_map(gamma)
    seq = FourTermSequence(
        (ker.rep, gamma.domain, gamma.codomain, coker), (ker.inclusion, gamma, cproj)
    )
    end = coker if covariant else ker.rep
    witness = {
        v: ext1(*_ordered(variance, end, _indecomposable(variance, a.algebra, v, a.side))).dim
        for v in a.vertices
    }
    if any(witness.values()):
        raise VanishingCheckFailed(f"{kind}: Ext^1 witness nonzero: {witness}")
    return Certificate(kind, seq, witness, gamma)


# -- sub-stabilized tensor product ----------------------------------------------


@dataclass
class SubStabTensor:
    """Kernel of a (x) b -> a (x) I along the injective envelope b -> I.

    Read dually, a (x) b -> a (x) I is Hom(I, D a) -> Hom(b, D a), composing
    with the envelope, whose image is the maps b -> D a that factor through
    an injective.  So the kernel is the annihilator of stable's factoring
    subspace in Hom(b, D a) modulo injectives: the span of its quotient's
    projection, in source's coordinates, which are dual to Hom(b, D a)'s."""

    source: TensorSpace
    stable: StableHom
    kernel: Subspace

    @property
    def dim(self) -> int:
        return self.kernel.dim


def tensor_substab(a: Representation, b: Representation) -> SubStabTensor:
    src = tensor(a, b)
    over = stable_hom(b, src.hom.codomain, MODULO_INJECTIVES)
    return SubStabTensor(src, over, Subspace(a.algebra.field, src.dim, over.quotient.projection))


def torsion_radical(a: Representation) -> SubStabTensor:
    """The sub-stabilization of a (x) regular, for a right module a."""
    if a.side != RIGHT:
        raise AlgebraError("the torsion radical takes a right module")
    return tensor_substab(a, regular_module(a.algebra, LEFT))


# -- hereditary splitting --------------------------------------------------------


@dataclass
class HereditarySplit:
    """Splitting report over a hereditary algebra.

    The torsion part splits off with projective complement; dually the
    injective trace splits off with the cotorsion part as quotient.  The
    law fields compare stable-hom dimensions with plain hom dimensions
    against the probes.
    """

    torsion: SubRep
    torsionless: Representation
    split_iso: ModuleMap
    cotrace: SubRep
    cotorsion: Representation
    cosplit_iso: ModuleMap
    probe_count: int
    underline_law_ok: bool
    overline_law_ok: bool


def hereditary_split(
    a: Representation, probes: Optional[Sequence[Representation]] = None
) -> HereditarySplit:
    alg = a.algebra
    if not alg.is_hereditary():
        raise NotHereditary("splitting requires no cycles and no relations")
    if probes is None:
        probes = standard_probes(alg, a.side)

    tor = bass_torsion(a, "evaluation")
    tless, tproj = torsionless_quotient(a, tor)
    if not is_projective(tless):
        raise SplitFailure("torsionless quotient is not projective")
    section = factor_through(ModuleMap.identity(tless), post=tproj)
    if section is None:
        raise SplitFailure("no section of the torsionless quotient")
    split_iso = hstack_maps(tor.inclusion, section)
    if not split_iso.is_isomorphism():
        raise SplitFailure("torsion + torsionless does not reassemble")

    cotr = cotorsion_trace(a)
    cot, cproj = cotorsion_quotient(a, cotr)
    if not is_injective_module(cotr.rep):
        raise SplitFailure("injective trace is not injective")
    retraction = factor_through(ModuleMap.identity(cotr.rep), pre=cotr.inclusion)
    if retraction is None:
        raise SplitFailure("no retraction onto the injective trace")
    cosplit_iso = vstack_maps(cproj, retraction)
    if not cosplit_iso.is_isomorphism():
        raise SplitFailure("cotorsion + trace does not reassemble")

    underline_ok = all(
        stable_hom(a, b, MODULO_PROJECTIVES).dim == hom_basis(tor.rep, b).dim
        for b in probes
    )
    overline_ok = all(
        stable_hom(b, a, MODULO_INJECTIVES).dim == hom_basis(b, cot).dim
        for b in probes
    )
    return HereditarySplit(
        tor,
        tless,
        split_iso,
        cotr,
        cot,
        cosplit_iso,
        len(probes),
        underline_ok,
        overline_ok,
    )
