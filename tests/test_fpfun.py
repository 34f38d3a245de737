import random

import pytest

from algebras import BUILDERS, a2_algebra
from oracles import basis_maps, fp_identity, fp_morphism_equal, fp_zero_morphism
from stabhom import homology
from stabhom.algebra import (
    AlgebraError,
    LEFT,
    ModuleMap,
    RIGHT,
    indec_injective,
    indec_projective,
    regular_module,
    simple,
)
from stabhom.cli.randmod import random_fp_morphism, random_module
from stabhom.exactla import rank
from stabhom.fpfun import (
    CONTRAVARIANT,
    COVARIANT,
    FpFunctor,
    FpMorphism,
    fp_cokernel,
    fp_defect,
    fp_eval,
    fp_eval_morphism,
    fp_kernel,
    fp_representable,
    fp_rho,
    fp_substab,
    present_overline_contra,
    present_overline_cov,
    present_tensor,
    present_tensor_substab,
    present_torsion_radical,
    present_underline_contra,
    present_underline_cov,
    standard_probes,
    tensor_envelope_morphism,
)
from stabhom.homology import hom_basis, projective_cover, tensor, transpose
from stabhom.stable import stable_hom, tensor_substab, torsion_radical


# -- representables and evaluation ------------------------------------------------


def test_covariant_yoneda(a2):
    for v in a2.quiver.vertices:
        m = simple(a2, v)
        func = fp_representable(m, COVARIANT)
        for b in standard_probes(a2, LEFT):
            assert fp_eval(func, b).dim == hom_basis(m, b).dim


def test_contravariant_yoneda(square):
    m = indec_projective(square, "1")
    func = fp_representable(m, CONTRAVARIANT)
    for b in standard_probes(square, LEFT):
        assert fp_eval(func, b).dim == hom_basis(b, m).dim


def test_identity_presentation_gives_zero_functor(a2):
    p1 = indec_projective(a2, "1")
    func = FpFunctor(COVARIANT, ModuleMap.identity(p1))
    for b in standard_probes(a2, LEFT):
        assert fp_eval(func, b).dim == 0


def test_eval_rejects_wrong_side(a2):
    func = fp_representable(simple(a2, "1"), COVARIANT)
    with pytest.raises(AlgebraError):
        fp_eval(func, simple(a2, "1", RIGHT))


@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
def test_a_zero_entry_hom_space_builds_no_hom_space_of_the_relations(variance, monkeypatch):
    # a fresh A2 (1 -> 2), so no Hom space is memoized yet
    alg = a2_algebra()
    s1, s2, p1 = simple(alg, "1"), simple(alg, "2"), indec_projective(alg, "1")
    # at b = S1, Hom(entry, b) = 0 while Hom(relations, b) = k: covariant
    # Hom(S2, S1) and Hom(P1, S1), contravariant Hom(S1, S2) and Hom(S1, S1)
    relations = p1 if variance == COVARIANT else s1
    pair = (s2, relations) if variance == COVARIANT else (relations, s2)
    func = FpFunctor(variance, ModuleMap.zero(*pair))
    ordered = (lambda x: (x, s1)) if variance == COVARIANT else (lambda x: (s1, x))
    built = []
    real = homology._build_hom
    monkeypatch.setattr(homology, "_build_hom", lambda a, b: built.append((a, b)) or real(a, b))
    value = fp_eval(func, s1)
    assert value.dim == 0 and value.relations_image.ambient_dim == 0
    assert built == [ordered(s2)]
    monkeypatch.undo()
    assert hom_basis(*ordered(s2)).dim == 0 and hom_basis(*ordered(relations)).dim == 1


def test_unknown_variance_rejected(a2):
    s = simple(a2, "1")
    with pytest.raises(ValueError):
        FpFunctor("sideways", ModuleMap.identity(s))


# -- defects ------------------------------------------------------------------------


def test_defect_of_representable_is_the_module(a2):
    p1 = indec_projective(a2, "1")
    func = fp_representable(p1, COVARIANT)
    assert fp_defect(func).dim_vector() == p1.dim_vector()


def test_defect_of_contravariant_representable(a2):
    p1 = indec_projective(a2, "1")
    func = fp_representable(p1, CONTRAVARIANT)
    assert fp_defect(func).dim_vector() == p1.dim_vector()


def test_defect_of_torsion_functor(a2):
    # w(underline Hom(S(1), -)) is the torsion part of S(1)
    func = present_underline_cov(simple(a2, "1"))
    assert fp_defect(func).dim_vector() == (1, 0)


def test_defect_of_cotorsion_functor(a2):
    # v(overline Hom(-, S(2))) is the cotorsion quotient of S(2)
    func = present_overline_contra(simple(a2, "2"))
    assert fp_defect(func).dim_vector() == (0, 1)


def test_defect_zero_iff_vanishing_on_injectives(all_algebras):
    # covariant defect lemma, checked over a controlled functor set
    for alg in all_algebras.values():
        v0 = alg.quiver.vertices[0]
        funcs = [
            fp_representable(simple(alg, v0), COVARIANT),
            present_underline_cov(simple(alg, v0)),
            present_overline_cov(simple(alg, v0)),
            present_tensor(simple(alg, v0, RIGHT)),
        ]
        injectives = [
            indec_injective(alg, v, LEFT) for v in alg.quiver.vertices
        ]
        for func in funcs:
            w = fp_defect(func)
            vanishes = all(fp_eval(func, i).dim == 0 for i in injectives)
            assert (w.total_dim == 0) == vanishes


def test_defect_zero_iff_vanishing_on_projectives(all_algebras):
    # contravariant defect lemma
    for alg in all_algebras.values():
        v0 = alg.quiver.vertices[0]
        funcs = [
            fp_representable(simple(alg, v0), CONTRAVARIANT),
            present_underline_contra(simple(alg, v0)),
            present_overline_contra(simple(alg, v0)),
        ]
        projectives = [
            indec_projective(alg, v, LEFT) for v in alg.quiver.vertices
        ]
        for func in funcs:
            v_def = fp_defect(func)
            vanishes = all(fp_eval(func, p).dim == 0 for p in projectives)
            assert (v_def.total_dim == 0) == vanishes


# -- the four stable-hom presentations ----------------------------------------------


def test_underline_cov_presentation(a2):
    for v in a2.quiver.vertices:
        a = simple(a2, v)
        func = present_underline_cov(a)
        for b in standard_probes(a2, LEFT):
            assert fp_eval(func, b).dim == stable_hom(a, b, "modulo_projectives").dim


def test_overline_cov_presentation(loop3):
    a = simple(loop3, "v")
    func = present_overline_cov(a)
    for b in standard_probes(loop3, LEFT):
        assert fp_eval(func, b).dim == stable_hom(a, b, "modulo_injectives").dim


def test_underline_contra_presentation(kronecker):
    for v in kronecker.quiver.vertices:
        a = simple(kronecker, v)
        func = present_underline_contra(a)
        for b in standard_probes(kronecker, LEFT):
            assert fp_eval(func, b).dim == stable_hom(b, a, "modulo_projectives").dim


def test_overline_contra_presentation(square):
    a = simple(square, "4")
    func = present_overline_contra(a)
    for b in standard_probes(square, LEFT):
        assert fp_eval(func, b).dim == stable_hom(b, a, "modulo_injectives").dim


def test_all_four_presentations_on_random_modules():
    rng = random.Random(13)
    for name in ("a2", "loop2", "square"):
        alg = BUILDERS[name]()
        probes = standard_probes(alg, LEFT)[:4]
        for _ in range(2):
            a = random_module(alg, LEFT, 3, rng)[0]
            for b in probes:
                assert (
                    fp_eval(present_underline_cov(a), b).dim
                    == stable_hom(a, b, "modulo_projectives").dim
                )
                assert (
                    fp_eval(present_overline_cov(a), b).dim
                    == stable_hom(a, b, "modulo_injectives").dim
                )
                assert (
                    fp_eval(present_underline_contra(a), b).dim
                    == stable_hom(b, a, "modulo_projectives").dim
                )
                assert (
                    fp_eval(present_overline_contra(a), b).dim
                    == stable_hom(b, a, "modulo_injectives").dim
                )


# -- tensor presentations --------------------------------------------------------------


def test_tensor_presentation_matches_tensor(a2):
    for v in a2.quiver.vertices:
        a = simple(a2, v, RIGHT)
        func = present_tensor(a)
        for b in standard_probes(a2, LEFT):
            assert fp_eval(func, b).dim == tensor(a, b).dim


def test_tensor_presentation_on_random_modules():
    rng = random.Random(19)
    for name in ("kronecker", "loop3", "nakayama"):
        alg = BUILDERS[name]()
        probes = standard_probes(alg, LEFT)[:4]
        for _ in range(2):
            a = random_module(alg, RIGHT, 3, rng)[0]
            func = present_tensor(a)
            for b in probes:
                assert fp_eval(func, b).dim == tensor(a, b).dim


def test_substab_three_ways(a2):
    a = simple(a2, "2", RIGHT)
    via_kernel = fp_substab(present_tensor(a))
    via_image = present_tensor_substab(a)
    for b in standard_probes(a2, LEFT):
        expect = tensor_substab(a, b).dim
        assert fp_eval(via_kernel, b).dim == expect
        assert fp_eval(via_image, b).dim == expect


def test_substab_vanishes_at_injectives(square):
    a = simple(square, "4", RIGHT)
    func = fp_substab(present_tensor(a))
    for v in square.quiver.vertices:
        assert fp_eval(func, indec_injective(square, v)).dim == 0


def test_rho_targets_the_defect_representable(loop2):
    func = present_tensor(simple(loop2, "v", RIGHT))
    rho = fp_rho(func)
    assert rho.target.relations.is_zero()
    assert rho.target.entry.dim_vector() == fp_defect(func).dim_vector()


def test_rho_requires_covariance(a2):
    func = fp_representable(simple(a2, "1"), CONTRAVARIANT)
    with pytest.raises(AlgebraError):
        fp_rho(func)


def test_torsion_radical_functor(a2, loop2):
    for alg in (a2, loop2):
        func = present_torsion_radical(alg)
        for a in standard_probes(alg, RIGHT):
            assert fp_eval(func, a).dim == torsion_radical(a).dim


def test_tensor_envelope_morphism_kernel_is_torsion_radical(a2):
    alpha = tensor_envelope_morphism(a2)
    ker, _ = fp_kernel(alpha)
    for a in standard_probes(a2, RIGHT):
        assert fp_eval(ker, a).dim == torsion_radical(a).dim


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_the_minimal_presentation_of_the_regular_module_starts_at_zero(name, side):
    # tensor_envelope_morphism writes its syzygy lift as the zero map for this
    td = transpose(regular_module(BUILDERS[name](), side))
    assert td.presentation.domain.is_zero()


# -- morphisms, kernels, cokernels -------------------------------------------------


def test_identity_morphism_evaluates_to_identity(a2):
    func = present_underline_cov(simple(a2, "1"))
    ident = fp_identity(func)
    for b in standard_probes(a2, LEFT):
        val = fp_eval(func, b)
        mat = fp_eval_morphism(ident, b, val, val)
        assert mat.rows == mat.cols == val.dim
        assert rank(mat) == val.dim


def test_zero_morphism_evaluates_to_zero(a2):
    f = fp_representable(simple(a2, "1"), COVARIANT)
    g = fp_representable(simple(a2, "2"), COVARIANT)
    alpha = fp_zero_morphism(f, g)
    for b in standard_probes(a2, LEFT):
        assert fp_eval_morphism(alpha, b).is_zero()


def test_morphism_square_must_commute(a2):
    s1 = simple(a2, "1")
    p1 = indec_projective(a2, "1")
    f = fp_representable(s1, COVARIANT)  # presentation S(1) -> 0
    g = FpFunctor(COVARIANT, ModuleMap.identity(p1))
    # u must make f.pres @ u = v @ g.pres; a nonzero u: P(1) -> S(1)
    # against v = 0 breaks the square only if f.pres @ u is nonzero,
    # which cannot happen here (f.pres maps into 0), so instead check
    # the variance mismatch guard
    h = fp_representable(s1, CONTRAVARIANT)
    with pytest.raises(AlgebraError):
        FpMorphism(f, h, ModuleMap.zero(s1, s1), ModuleMap.zero(s1, s1))


def test_projection_morphism_between_representables(a2):
    cov = projective_cover(simple(a2, "1"))
    rp = fp_representable(cov.middle, CONTRAVARIANT)
    rs = fp_representable(cov.right, CONTRAVARIANT)
    alpha = FpMorphism(
        rp, rs, cov.surjection, ModuleMap.zero(rp.relations, rs.relations)
    )
    # kernel evaluates to Hom(-, radical) inside Hom(-, P(1))
    ker, incl = fp_kernel(alpha)
    rad = cov.left  # the syzygy S(2)
    for b in standard_probes(a2, LEFT):
        got = fp_eval(ker, b).dim
        assert got == hom_basis(b, rad).dim
    # composite kernel -> source -> target evaluates to zero
    for b in standard_probes(a2, LEFT)[:3]:
        m1 = fp_eval_morphism(incl, b)
        m2 = fp_eval_morphism(alpha, b)
        assert (m2 @ m1).is_zero()
    # cokernel of the surjection-induced map vanishes at modules with
    # no maps to P(1) outside those through S(1)
    cok = fp_cokernel(alpha)
    for b in standard_probes(a2, LEFT):
        sv = fp_eval(alpha.source, b)
        tv = fp_eval(alpha.target, b)
        mat = fp_eval_morphism(alpha, b, sv, tv)
        assert fp_eval(cok, b).dim == tv.dim - rank(mat)


def test_kernel_cokernel_on_random_morphisms():
    rng = random.Random(37)
    for name in ("a2", "loop3", "square"):
        alg = BUILDERS[name]()
        probes = standard_probes(alg, LEFT)[:4]
        for variance in (COVARIANT, CONTRAVARIANT):
            for _ in range(2):
                alpha = random_fp_morphism(alg, LEFT, variance, 3, rng)
                ker, incl = fp_kernel(alpha)
                cok = fp_cokernel(alpha)
                for b in probes:
                    sv = fp_eval(alpha.source, b)
                    tv = fp_eval(alpha.target, b)
                    mat = fp_eval_morphism(alpha, b, sv, tv)
                    want_ker = sv.dim - rank(mat)
                    want_cok = tv.dim - rank(mat)
                    assert fp_eval(ker, b).dim == want_ker
                    assert fp_eval(cok, b).dim == want_cok
                    # the inclusion lands in the evaluated kernel
                    incl_mat = fp_eval_morphism(incl, b)
                    assert (mat @ incl_mat).is_zero()
                    assert rank(incl_mat) == want_ker


# -- homotopy equality -----------------------------------------------------------------


def test_homotopic_morphisms_are_equal(loop3):
    reg = regular_module(loop3, LEFT)
    mult = basis_maps(hom_basis(reg, reg))
    r_x = next(f for f in mult if not f.is_isomorphism() and not f.is_zero())
    f_func = FpFunctor(COVARIANT, r_x)  # b -> b / x b
    g_func = FpFunctor(COVARIANT, ModuleMap.identity(reg))
    alpha1 = FpMorphism(f_func, g_func, ModuleMap.identity(reg), r_x)
    beta = ModuleMap.identity(reg)
    alpha2 = FpMorphism(
        f_func,
        g_func,
        alpha1.u + (beta @ g_func.presentation),
        alpha1.v + (f_func.presentation @ beta),
    )
    assert not (alpha1.u == alpha2.u)
    assert fp_morphism_equal(alpha1, alpha2)
    for b in standard_probes(loop3, LEFT):
        assert fp_eval_morphism(alpha1, b) == fp_eval_morphism(alpha2, b)


def test_distinct_morphisms_detected(a2):
    s1 = simple(a2, "1")
    func = fp_representable(s1, COVARIANT)
    ident = fp_identity(func)
    zero = fp_zero_morphism(func, func)
    assert not fp_morphism_equal(ident, zero)
    assert fp_eval_morphism(ident, s1) != fp_eval_morphism(zero, s1)


def test_contravariant_homotopy(loop3):
    reg = regular_module(loop3, LEFT)
    mult = basis_maps(hom_basis(reg, reg))
    r_x = next(f for f in mult if not f.is_isomorphism() and not f.is_zero())
    f_func = FpFunctor(CONTRAVARIANT, r_x)
    g_func = FpFunctor(CONTRAVARIANT, ModuleMap.identity(reg))
    # square: g.pres @ v = u @ f.pres with u: X -> X', v: Y -> Y'
    alpha1 = FpMorphism(f_func, g_func, ModuleMap.identity(reg), r_x)
    beta = ModuleMap.identity(reg)
    alpha2 = FpMorphism(
        f_func,
        g_func,
        alpha1.u + (g_func.presentation @ beta),
        alpha1.v + (beta @ f_func.presentation),
    )
    assert fp_morphism_equal(alpha1, alpha2)
    for b in standard_probes(loop3, LEFT)[:3]:
        assert fp_eval_morphism(alpha1, b) == fp_eval_morphism(alpha2, b)


# -- probe sets -------------------------------------------------------------------------


def test_standard_probes_cover_the_catalog(square):
    probes = standard_probes(square, LEFT)
    dims = {p.dim_vector() for p in probes}
    for v in square.quiver.vertices:
        assert simple(square, v).dim_vector() in dims
        assert indec_projective(square, v).dim_vector() in dims
        assert indec_injective(square, v).dim_vector() in dims
    assert all(p.side == LEFT for p in probes)
