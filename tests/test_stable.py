import dataclasses
import random

import pytest

from algebras import BUILDERS
from stabhom.algebra import (
    AlgebraError,
    LEFT,
    ModuleMap,
    RIGHT,
    direct_sum,
    indec_injective,
    indec_projective,
    regular_module,
    simple,
    zero_module,
)
from stabhom import stable as stable_mod
from stabhom.cli.laws import LAWS, build_context
from stabhom.cli.randmod import random_module
from stabhom.homology import (
    ext1,
    hom_basis,
    hstack_maps,
    injective_envelope,
    is_injective_module,
    is_projective,
    projective_cover,
    star_dual,
    tensor,
    transpose,
)
from stabhom.stable import (
    Certificate,
    FourTermSequence,
    NotHereditary,
    TORSION_METHODS,
    bass_torsion,
    cotorsion_quotient,
    cotorsion_trace,
    extends_to_projectives,
    fp_certificate,
    hereditary_split,
    left_proj_approximation,
    lifts_from_injectives,
    right_inj_approximation,
    stable_hom,
    tensor_substab,
    torsion_radical,
    torsionless_quotient,
)


def _random_modules(name, side, count, seed, max_dim=3):
    alg = BUILDERS[name]()
    rng = random.Random(seed)
    return alg, [random_module(alg, side, max_dim, rng)[0] for _ in range(count)]


# -- factoring subspaces and stable homs ---------------------------------------


def test_pfactor_of_simple_vanishes(a2):
    s1 = simple(a2, "1")
    assert stable_hom(s1, s1, "modulo_projectives").factor.dim == 0


def test_pfactor_of_projective_is_everything(square):
    p = indec_projective(square, "1")
    reg = regular_module(square, LEFT)
    hs = hom_basis(p, reg)
    assert stable_hom(p, reg, "modulo_projectives").factor.dim == hs.dim


def test_ifactor_of_simple_vanishes(a2):
    s2 = simple(a2, "2")
    assert stable_hom(s2, s2, "modulo_injectives").factor.dim == 0


def test_stable_hom_vanishes_on_projective_argument(a2):
    s2 = simple(a2, "2")  # projective over A2
    for v in a2.quiver.vertices:
        assert stable_hom(s2, simple(a2, v), "modulo_projectives").dim == 0


def test_stable_hom_of_nonprojective_simple(a2):
    s1 = simple(a2, "1")
    sh = stable_hom(s1, s1, "modulo_projectives")
    assert sh.dim == 1
    assert sh.hom.dim == 1 and sh.factor.dim == 0


def test_costable_hom_of_noninjective_simple(a2):
    s2 = simple(a2, "2")
    sh = stable_hom(s2, s2, "modulo_injectives")
    assert sh.dim == 1


def test_stable_hom_dimension_formula(all_algebras):
    for alg in all_algebras.values():
        mods = [simple(alg, v) for v in alg.quiver.vertices][:3]
        mods.append(regular_module(alg, LEFT))
        for a in mods:
            for b in mods:
                for flavor in ("modulo_projectives", "modulo_injectives"):
                    sh = stable_hom(a, b, flavor)
                    assert sh.dim == sh.hom.dim - sh.factor.dim


def test_stable_hom_kills_regular_and_injectives(all_algebras):
    for alg in all_algebras.values():
        reg = regular_module(alg, LEFT)
        s = simple(alg, alg.quiver.vertices[0])
        assert stable_hom(reg, s, "modulo_projectives").dim == 0
        inj = indec_injective(alg, alg.quiver.vertices[0])
        assert stable_hom(s, inj, "modulo_injectives").dim == 0


def test_stable_hom_unknown_flavor_rejected(a2):
    s = simple(a2, "1")
    with pytest.raises(ValueError):
        stable_hom(s, s, "modulo_nothing")


# -- torsion subrepresentation ---------------------------------------------------


def test_torsion_of_torsion_simple(a2):
    t = bass_torsion(simple(a2, "1"))
    assert t.dim == t.parent.total_dim
    assert t.dim_vector() == (1, 0)


def test_torsion_of_projectives_vanishes(square):
    for v in square.quiver.vertices:
        assert bass_torsion(indec_projective(square, v)).is_zero()


def test_torsion_of_loop_simple_vanishes(loop2):
    # 1 -> x embeds the simple into the regular module
    assert bass_torsion(simple(loop2, "v")).is_zero()


def test_torsion_methods_agree_on_random_modules():
    for name in ("a2", "kronecker", "square", "loop3", "a2_rational"):
        alg, mods = _random_modules(name, LEFT, 6, seed=11)
        for m in mods:
            subs = [bass_torsion(m, method) for method in TORSION_METHODS]
            assert subs[0] == subs[1] == subs[2]


def test_torsion_unknown_method_rejected(a2):
    with pytest.raises((ValueError, AlgebraError)):
        bass_torsion(simple(a2, "1"), "bogus")


def test_torsionless_quotient_literals(a2):
    q, proj = torsionless_quotient(simple(a2, "1"))
    assert q.is_zero()
    p1 = indec_projective(a2, "1")
    q2, proj2 = torsionless_quotient(p1)
    assert q2.dim_vector() == p1.dim_vector()
    assert proj2.is_isomorphism()


def test_torsion_radical_law_on_random_modules():
    for name in ("a2", "square", "nakayama", "loop2_rational"):
        alg, mods = _random_modules(name, LEFT, 6, seed=5)
        for m in mods:
            q, _ = torsionless_quotient(m)
            assert bass_torsion(q).is_zero()


# -- cotorsion trace ---------------------------------------------------------------


def test_cotrace_of_simple_vanishes(a2):
    s2 = simple(a2, "2")
    assert cotorsion_trace(s2).is_zero()
    q, proj = cotorsion_quotient(s2)
    assert q.dim_vector() == s2.dim_vector()
    assert proj.is_isomorphism()


def test_cotrace_of_injective_is_full(a2):
    i2 = indec_injective(a2, "2")
    assert cotorsion_trace(i2).dim == i2.total_dim
    q, _ = cotorsion_quotient(i2)
    assert q.is_zero()


def test_cotrace_idempotent_on_random_modules():
    for name in ("a2", "kronecker", "loop3", "nakayama"):
        alg, mods = _random_modules(name, LEFT, 6, seed=23)
        for m in mods:
            tr = cotorsion_trace(m)
            rep, incl = tr.materialize()
            inner = cotorsion_trace(rep)
            assert inner.dim == inner.parent.total_dim


# -- approximations -----------------------------------------------------------------


def test_left_approximation_of_torsion_simple(a2):
    gamma = left_proj_approximation(simple(a2, "1"))
    assert gamma.codomain.is_zero()


def test_left_approximation_over_loop(loop2):
    k = simple(loop2, "v")
    gamma = left_proj_approximation(k)
    assert gamma.codomain.total_dim == 2
    assert gamma.is_injective()
    assert extends_to_projectives(gamma)


def test_left_approximation_of_projective_split_monic(square):
    p = indec_projective(square, "2")
    gamma = left_proj_approximation(p)
    assert gamma.is_injective()
    assert extends_to_projectives(gamma)


def test_left_approximation_kernel_is_torsion(all_algebras):
    rng = random.Random(3)
    for alg in all_algebras.values():
        m = random_module(alg, LEFT, 3, rng)[0]
        gamma = left_proj_approximation(m)
        from stabhom.homology import kernel_map

        assert kernel_map(gamma) == bass_torsion(m, "evaluation")


def test_only_the_approximation_torsion_route_skips_the_extension_check(monkeypatch):
    checked = []
    real = stable_mod.extends_to_projectives
    monkeypatch.setattr(
        stable_mod, "extends_to_projectives", lambda gamma: checked.append(gamma) or real(gamma)
    )
    alg = BUILDERS["a3"]()
    m = direct_sum([simple(alg, "1"), indec_projective(alg, "1")]).module
    torsion = bass_torsion(m, "approximation")
    assert torsion.dim_vector() == (1, 0, 0) and not checked
    left_proj_approximation(m)
    assert len(checked) == 1
    # the torsionless-embedding law takes the checked map, one per
    # torsionless catalog module
    ctx = build_context(alg, 3, 3, 2)
    result = LAWS["torsionless-embedding"](ctx)
    assert result.failures == 0 and len(checked) == 1 + result.checks > 1


def test_right_approximation_of_simple(a2):
    gamma = right_inj_approximation(simple(a2, "2"))
    assert gamma.domain.is_zero()


def test_right_approximation_of_injective_split_epi(a2):
    i2 = indec_injective(a2, "2")
    gamma = right_inj_approximation(i2)
    assert gamma.is_surjective()
    assert lifts_from_injectives(gamma)


def test_a_zero_map_out_of_a_projective_does_not_extend_to_projectives(a2):
    # the identity of P(2) does not extend over P(2) -> 0
    p2 = indec_projective(a2, "2")
    assert not extends_to_projectives(ModuleMap.zero(p2, zero_module(a2, p2.side)))


def test_a_zero_map_into_an_injective_does_not_lift_from_injectives(a2):
    # the identity of I(1) does not lift through 0 -> I(1)
    i1 = indec_injective(a2, "1")
    assert not lifts_from_injectives(ModuleMap.zero(zero_module(a2, i1.side), i1))


def test_right_approximation_image_is_cotrace(all_algebras):
    from stabhom.homology import image_map

    rng = random.Random(17)
    for alg in all_algebras.values():
        m = random_module(alg, LEFT, 3, rng)[0]
        gamma = right_inj_approximation(m)
        assert image_map(gamma) == cotorsion_trace(m)


# -- certificates ---------------------------------------------------------------------


def test_certificate_of_torsion_simple(a2):
    cert = fp_certificate(simple(a2, "1"), "covariant_underline")
    assert isinstance(cert, Certificate)
    tor, a, q, m = cert.sequence.modules
    assert tor.dim_vector() == (1, 0)
    assert q.is_zero() and m.is_zero()
    assert not any(cert.ext_witness.values())
    assert cert.validate()


def test_a_certificate_of_an_inexact_sequence_does_not_validate(a2):
    cert = fp_certificate(simple(a2, "1"), "covariant_underline")
    tor, a = cert.sequence.modules[:2]
    maps = (ModuleMap.zero(tor, a),) + cert.sequence.maps[1:]  # tor is S(1), not 0
    bad = dataclasses.replace(cert, sequence=dataclasses.replace(cert.sequence, maps=maps))
    assert cert.validate() and not bad.validate()


@pytest.mark.parametrize("name", ["a2", "a2_rational"])
def test_a_covariant_certificate_whose_q_is_not_projective_does_not_approximate(name):
    """0 -> torsion(a) -> a -> Q -> M -> 0 with Q swapped for S(1), which is
    not projective over A2 (its cover is P(1) of dims (1, 1)); the maps
    stay exact, so only approximates can refuse it."""
    alg = BUILDERS[name]()
    cert = fp_certificate(indec_projective(alg, "1"), "covariant_underline")
    tor, a, q, m = cert.sequence.modules
    s1 = simple(alg, "1")
    assert not q.is_zero() and is_projective(q) and not is_projective(s1)
    seq = dataclasses.replace(cert.sequence, modules=(tor, a, s1, m))
    bad = dataclasses.replace(cert, sequence=seq)
    assert cert.approximates() and cert.validate() and seq.validate()
    assert bad.approximates() is False and bad.validate() is False


@pytest.mark.parametrize("name", ["a2", "a2_rational"])
def test_a_contravariant_certificate_whose_i_is_not_injective_does_not_approximate(name):
    """0 -> N -> I -> a -> cotorsion(a) -> 0 with I swapped for S(2), which is
    not injective over A2 (its envelope is I(2) of dims (1, 1)); the maps
    stay exact, so only approximates can refuse it."""
    alg = BUILDERS[name]()
    cert = fp_certificate(indec_injective(alg, "2"), "contravariant_overline")
    n, i, a, q = cert.sequence.modules
    s2 = simple(alg, "2")
    assert not i.is_zero() and is_injective_module(i) and not is_injective_module(s2)
    seq = dataclasses.replace(cert.sequence, modules=(n, s2, a, q))
    bad = dataclasses.replace(cert, sequence=seq)
    assert cert.approximates() and cert.validate() and seq.validate()
    assert bad.approximates() is False and bad.validate() is False


def test_certificate_over_loop(loop2):
    cert = fp_certificate(simple(loop2, "v"), "covariant_underline")
    tor, a, q, m = cert.sequence.modules
    assert tor.is_zero()
    assert q.total_dim == 2  # the regular module
    assert m.total_dim == 1  # simple cokernel
    assert not any(cert.ext_witness.values())
    assert cert.validate()


def test_certificate_of_projective(square):
    p = indec_projective(square, "1")
    cert = fp_certificate(p, "covariant_underline")
    tor = cert.sequence.modules[0]
    assert tor.is_zero()
    assert cert.sequence.maps[1].is_injective()
    assert not any(cert.ext_witness.values()) and cert.validate()


def test_contravariant_certificate_of_simple(a2):
    cert = fp_certificate(simple(a2, "2"), "contravariant_overline")
    n, i, a, q = cert.sequence.modules
    assert n.is_zero() and i.is_zero()
    assert q.dim_vector() == (0, 1)
    assert not any(cert.ext_witness.values()) and cert.validate()


def test_contravariant_certificate_of_injective(a2):
    i2 = indec_injective(a2, "2")
    cert = fp_certificate(i2, "contravariant_overline")
    q = cert.sequence.modules[3]
    assert q.is_zero()
    assert not any(cert.ext_witness.values()) and cert.validate()


def test_certificates_on_random_modules(all_algebras):
    rng = random.Random(29)
    for alg in all_algebras.values():
        for _ in range(2):
            m = random_module(alg, LEFT, 3, rng)[0]
            for kind in ("covariant_underline", "contravariant_overline"):
                cert = fp_certificate(m, kind)
                assert not any(cert.ext_witness.values())
                assert cert.validate()


def test_certificate_defects_match_torsion_and_cotorsion(all_algebras):
    rng = random.Random(31)
    for alg in all_algebras.values():
        m = random_module(alg, LEFT, 3, rng)[0]
        cov = fp_certificate(m, "covariant_underline")
        assert cov.sequence.modules[0].dim_vector() == bass_torsion(m).rep.dim_vector()
        con = fp_certificate(m, "contravariant_overline")
        cot, _ = cotorsion_quotient(m)
        assert con.sequence.modules[3].dim_vector() == cot.dim_vector()


def test_certificate_unknown_kind_rejected(a2):
    with pytest.raises((ValueError, AlgebraError)):
        fp_certificate(simple(a2, "1"), "sideways")


# -- sub-stabilized tensor and torsion radical -------------------------------------


def test_substab_of_projective_argument_vanishes(a2):
    for v in a2.quiver.vertices:
        p = indec_projective(a2, v, RIGHT)
        for w in a2.quiver.vertices:
            assert tensor_substab(p, simple(a2, w)).dim == 0


def test_substab_worked_example(a2):
    st = tensor_substab(simple(a2, "2", RIGHT), simple(a2, "2"))
    assert st.dim == 1
    assert st.dim == ext1(simple(a2, "1"), simple(a2, "2")).dim


def test_substab_vanishes_on_injective_argument(all_algebras):
    for alg in all_algebras.values():
        a = simple(alg, alg.quiver.vertices[0], RIGHT)
        for v in alg.quiver.vertices:
            assert tensor_substab(a, indec_injective(alg, v)).dim == 0


def test_substab_matches_ext_of_transpose():
    rng = random.Random(41)
    for name in ("a2", "kronecker", "square", "loop3"):
        alg = BUILDERS[name]()
        rights = [random_module(alg, RIGHT, 3, rng)[0] for _ in range(3)]
        lefts = [random_module(alg, LEFT, 3, rng)[0] for _ in range(3)]
        for a in rights:
            tr = transpose(a)
            for b in lefts:
                assert tensor_substab(a, b).dim == ext1(tr.module, b).dim


def test_torsion_radical_kills_projectives(all_algebras):
    for alg in all_algebras.values():
        for v in alg.quiver.vertices:
            assert torsion_radical(indec_projective(alg, v, RIGHT)).dim == 0


def test_torsion_radical_worked_example(a2):
    assert torsion_radical(simple(a2, "2", RIGHT)).dim == 1


def test_torsion_radical_lives_inside_tensor_with_regular(kronecker):
    rng = random.Random(43)
    for _ in range(3):
        a = random_module(kronecker, RIGHT, 3, rng)[0]
        rad = torsion_radical(a)
        full = tensor(a, regular_module(kronecker, LEFT))
        assert rad.kernel.ambient_dim == full.dim
        assert rad.dim <= full.dim


def test_torsion_radical_rejects_left_modules(a2):
    with pytest.raises(AlgebraError):
        torsion_radical(simple(a2, "1", LEFT))


def test_torsion_radical_is_fully_torsion(a2, kronecker, square):
    # star-less right modules tensor to zero with every indec injective
    cases = [
        (a2, simple(a2, "2", RIGHT)),
        (kronecker, simple(kronecker, "2", RIGHT)),
        (square, simple(square, "4", RIGHT)),
    ]
    for alg, a in cases:
        assert star_dual(a).module.total_dim == 0
        for v in alg.quiver.vertices:
            assert tensor(a, indec_injective(alg, v)).dim == 0


# -- hereditary splitting ----------------------------------------------------------


def test_hereditary_split_of_mixed_sum(a2):
    m = direct_sum([simple(a2, "1"), simple(a2, "2")]).module
    report = hereditary_split(m)
    assert report.torsion.dim_vector() == (1, 0)
    assert report.torsionless.dim_vector() == (0, 1)
    assert is_projective(report.torsionless)
    assert report.split_iso.is_isomorphism()
    assert report.cosplit_iso.is_isomorphism()
    assert report.underline_law_ok and report.overline_law_ok


def test_hereditary_split_of_projective(a2):
    p1 = indec_projective(a2, "1")
    report = hereditary_split(p1)
    assert report.torsion.is_zero()
    assert report.split_iso.is_isomorphism()


def test_hereditary_split_of_injective(a2):
    i2 = indec_injective(a2, "2")
    report = hereditary_split(i2)
    assert report.cotrace.dim == report.cotrace.parent.total_dim
    assert report.cotorsion.is_zero()


def test_hereditary_split_on_random_modules():
    rng = random.Random(47)
    for name in ("a2", "a3", "kronecker"):
        alg = BUILDERS[name]()
        for _ in range(4):
            m = random_module(alg, LEFT, 3, rng)[0]
            report = hereditary_split(m)
            assert report.split_iso.is_isomorphism()
            assert report.cosplit_iso.is_isomorphism()
            assert is_projective(report.torsionless)
            assert report.underline_law_ok and report.overline_law_ok


def test_hereditary_split_rejects_bound_algebras(loop2, square):
    with pytest.raises(NotHereditary):
        hereditary_split(simple(loop2, "v"))
    with pytest.raises(NotHereditary):
        hereditary_split(simple(square, "1"))


def _four_term(maps):
    return FourTermSequence((maps[0].domain, *(f.codomain for f in maps)), tuple(maps))


def test_a_four_term_sequence_not_exact_at_its_first_joint_fails_validate():
    """0 -> S(2)^2 -> P(1) -> S(1) -> 0 -> 0 over A2 and F5: exact at P(1)
    and at S(1), and its last map is onto, but at S(2)^2 the kernel of the
    first map is S(2), not the image 0 of 0 -> S(2)^2.  validate fails, as
    it would not if _is_exact joined its end checks by 'and'."""
    alg = BUILDERS["a2"]()
    cov = projective_cover(simple(alg, "1"))
    doubled = hstack_maps(cov.inclusion, cov.inclusion)
    last = ModuleMap.zero(cov.right, zero_module(alg, LEFT))
    exact = _four_term([cov.inclusion, cov.surjection, last])
    assert exact.validate()
    assert not _four_term([doubled, cov.surjection, last]).validate()


def test_a_four_term_sequence_not_exact_at_an_inner_joint_fails_validate():
    """0 -> S(2) -> P(1) -> S(1) -> S(1) -> 0 over A2 and F5 with the
    identity last: its first map is injective and its last onto, but at
    the first S(1) the kernel 0 of the identity is not the image S(1)."""
    alg = BUILDERS["a2"]()
    cov = projective_cover(simple(alg, "1"))
    seq = _four_term([cov.inclusion, cov.surjection, ModuleMap.identity(cov.right)])
    assert cov.inclusion.is_injective() and seq.maps[-1].is_surjective()
    assert not seq.validate()
