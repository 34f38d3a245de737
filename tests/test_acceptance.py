"""Acceptance suite: one test per numbered criterion.

Every check runs at desk scale (quivers with at most five vertices, vertex
dimensions at most six) over F2, F5, and the rationals.  The module catalogs
are generated deterministically, so a green run is reproducible bit for bit.
Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import random
import time

import pytest

from algebras import BUILDERS
from stabhom.algebra import (
    LEFT,
    RIGHT,
    ModuleMap,
    indec_injective,
    indec_projective,
    regular_module,
    simple,
)
from stabhom.cli.randmod import random_catalog, random_fp_morphism, random_module
from stabhom.exactla import rank
from stabhom.fpfun import (
    CONTRAVARIANT,
    COVARIANT,
    FpFunctor,
    fp_cokernel,
    fp_defect,
    fp_eval,
    fp_eval_morphism,
    fp_kernel,
    fp_representable,
    fp_substab,
    present_overline_contra,
    present_overline_cov,
    present_tensor,
    present_tensor_substab,
    present_torsion_radical,
    present_underline_contra,
    present_underline_cov,
    standard_probes,
)
from stabhom.homology import (
    ext1,
    hom_basis,
    injective_envelope,
    is_projective,
    projective_cover,
    star_dual,
    tensor,
    transpose,
)
from stabhom.stable import (
    MODULO_INJECTIVES,
    MODULO_PROJECTIVES,
    TORSION_METHODS,
    bass_torsion,
    cotorsion_quotient,
    cotorsion_trace,
    extends_to_projectives,
    fp_certificate,
    hereditary_split,
    lifts_from_injectives,
    stable_hom,
    tensor_substab,
    torsion_radical,
    torsionless_quotient,
)

HEREDITARY = ("a2", "a2_rational", "a3", "kronecker")
QUASI_FROBENIUS = ("loop2", "loop2_rational", "loop3", "nakayama")
CATALOG_COUNT = 12
CATALOG_SEED = 1
MAX_DIM = 3


@pytest.fixture(scope="session")
def catalogs(all_algebras):
    """Deterministic module catalog per fixture algebra, both sides."""
    out = {}
    for name in sorted(all_algebras):
        alg = all_algebras[name]
        per = {}
        for side in (LEFT, RIGHT):
            rng = random.Random(CATALOG_SEED)
            mods, _ = random_catalog(alg, side, CATALOG_COUNT, MAX_DIM, rng)
            per[side] = mods
        out[name] = per
    return out


def _find_isomorphism(x, y, rng):
    """An explicit isomorphism x -> y, or None when none is found.

    Tries every hom basis map, then random combinations; the search budget
    is generous for these dimensions, so a miss means the modules are very
    likely not isomorphic.
    """
    if x.dim_vector() != y.dim_vector():
        return None
    if x.total_dim == 0:
        return ModuleMap.zero(x, y)
    hs = hom_basis(x, y)
    maps = hs.basis_maps()
    for f in maps:
        if f.is_isomorphism():
            return f
    field = x.algebra.field
    for _ in range(200):
        coeffs = [field.random_scalar(rng) for _ in maps]
        f = hs.element(coeffs)
        if f.is_isomorphism():
            return f
    return None


def test_criterion_01_torsion_methods_agree(all_algebras):
    # evaluation, reject, and approximation torsion coincide as subspaces
    # on 200 random modules per fixture per seed, within the time budget
    start = time.perf_counter()
    for name in sorted(all_algebras):
        alg = all_algebras[name]
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            mods = []
            for side in (LEFT, RIGHT):
                got, _ = random_catalog(alg, side, 100, MAX_DIM, rng)
                mods.extend(got)
            assert len(mods) >= 200
            for m in mods:
                subs = [bass_torsion(m, method) for method in TORSION_METHODS]
                assert subs[0] == subs[1] == subs[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_02_radical_and_coradical_laws(catalogs):
    # torsion of the torsionless quotient vanishes; the cotorsion
    # quotient is idempotent
    for name, per in catalogs.items():
        for side in (LEFT, RIGHT):
            for a in per[side]:
                tless, _ = torsionless_quotient(a)
                assert bass_torsion(tless).is_zero()
                cot, _ = cotorsion_quotient(a)
                assert cotorsion_trace(cot).is_zero()
                cot2, proj2 = cotorsion_quotient(cot)
                assert proj2.is_isomorphism()
                assert cot2.dim_vector() == cot.dim_vector()


def test_criterion_03_certificates_and_defect_isomorphisms(catalogs):
    # both certificate kinds succeed on every catalog module, with exact
    # four-term sequences, passing vanishing checks, and explicit
    # isomorphisms defect w = torsion(a) and defect v = cotorsion(a)
    rng = random.Random(3)
    for name, per in catalogs.items():
        for side in (LEFT, RIGHT):
            for a in per[side]:
                cov = fp_certificate(a, "covariant_underline")
                assert cov.validate()
                assert all(d == 0 for d in cov.ext_witness.values())
                w = fp_defect(FpFunctor(COVARIANT, cov.approximation))
                tor = bass_torsion(a).rep
                assert _find_isomorphism(w, tor, rng) is not None

                con = fp_certificate(a, "contravariant_overline")
                assert con.validate()
                assert all(d == 0 for d in con.ext_witness.values())
                v = fp_defect(FpFunctor(CONTRAVARIANT, con.approximation))
                cot, _ = cotorsion_quotient(a)
                assert _find_isomorphism(v, cot, rng) is not None


def test_criterion_04_presentations_match_stable_homs(catalogs, all_algebras):
    # the four functor presentations agree with direct stable hom
    # dimensions on every catalog module against every probe
    for name, per in catalogs.items():
        alg = all_algebras[name]
        for side in (LEFT, RIGHT):
            probes = standard_probes(alg, side)
            for a in per[side]:
                u_cov = present_underline_cov(a)
                o_cov = present_overline_cov(a)
                u_con = present_underline_contra(a)
                o_con = present_overline_contra(a)
                for b in probes:
                    under = stable_hom(a, b, MODULO_PROJECTIVES).dim
                    over = stable_hom(a, b, MODULO_INJECTIVES).dim
                    assert fp_eval(u_cov, b).dim == under
                    assert fp_eval(o_cov, b).dim == over
                    assert (
                        fp_eval(u_con, b).dim
                        == stable_hom(b, a, MODULO_PROJECTIVES).dim
                    )
                    assert (
                        fp_eval(o_con, b).dim
                        == stable_hom(b, a, MODULO_INJECTIVES).dim
                    )


def test_criterion_05_defect_lemma_both_directions(catalogs, all_algebras):
    # w(F) = 0 iff F kills every indecomposable injective; v(F) = 0 iff
    # F kills the regular module; exercised over representables, all four
    # stable presentations, and the tensor functors
    zero_seen = 0
    nonzero_seen = 0
    for name, per in catalogs.items():
        alg = all_algebras[name]
        lefts = per[LEFT][:2] + [simple(alg, alg.quiver.vertices[0])]
        rights = per[RIGHT][:2] + [
            simple(alg, alg.quiver.vertices[-1], RIGHT)
        ]
        cov_funcs = []
        con_funcs = []
        for a in lefts:
            cov_funcs.append(fp_representable(a, COVARIANT))
            cov_funcs.append(present_underline_cov(a))
            cov_funcs.append(present_overline_cov(a))
            con_funcs.append(fp_representable(a, CONTRAVARIANT))
            con_funcs.append(present_underline_contra(a))
            con_funcs.append(present_overline_contra(a))
        for a in rights:
            cov_funcs.append(present_tensor(a))
            cov_funcs.append(present_tensor_substab(a))
        injectives = [
            indec_injective(alg, v, LEFT) for v in alg.quiver.vertices
        ]
        for func in cov_funcs:
            w = fp_defect(func)
            vanishes = all(fp_eval(func, i).dim == 0 for i in injectives)
            assert (w.total_dim == 0) == vanishes
            if w.total_dim == 0:
                zero_seen += 1
            else:
                nonzero_seen += 1
        for func in con_funcs:
            v_def = fp_defect(func)
            reg = regular_module(alg, func.side)
            assert (v_def.total_dim == 0) == (fp_eval(func, reg).dim == 0)
            if v_def.total_dim == 0:
                zero_seen += 1
            else:
                nonzero_seen += 1
    # both branches of the equivalence must actually occur
    assert zero_seen > 0 and nonzero_seen > 0


def test_criterion_06_tensor_substab_matches_ext_of_transpose(
    catalogs, all_algebras
):
    # dim (a substab-tensor b) equals dim Ext^1(Tr a, b) on well over 500
    # pairs; the tensor presentation has defect a-star; the three substab
    # routes agree at every probe; all within the time budget
    start = time.perf_counter()
    pairs = 0
    rng = random.Random(6)
    for name, per in catalogs.items():
        alg = all_algebras[name]
        for a in per[RIGHT]:
            td = transpose(a)
            for b in per[LEFT]:
                assert tensor_substab(a, b).dim == ext1(td.module, b).dim
                pairs += 1
            wd = fp_defect(present_tensor(a))
            sd = star_dual(a).module
            assert _find_isomorphism(wd, sd, rng) is not None
        probes = standard_probes(alg, LEFT)
        for a in per[RIGHT][:2]:
            via_kernel = fp_substab(present_tensor(a))
            via_image = present_tensor_substab(a)
            for b in probes:
                expect = tensor_substab(a, b).dim
                assert fp_eval(via_kernel, b).dim == expect
                assert fp_eval(via_image, b).dim == expect
    assert pairs >= 500
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_criterion_07_worked_value_two_routes(a2):
    # the substab tensor of the right and left simples at vertex 2 is one
    # dimensional, and equals Ext^1(S(1), S(2)) computed independently
    st = tensor_substab(simple(a2, "2", RIGHT), simple(a2, "2"))
    assert st.dim == 1
    direct_ext = ext1(simple(a2, "1"), simple(a2, "2"))
    assert direct_ext.dim == 1
    td = transpose(simple(a2, "2", RIGHT))
    assert td.module.dim_vector() == (1, 0)
    assert ext1(td.module, simple(a2, "2")).dim == 1


def test_criterion_08_torsion_radical(catalogs, all_algebras):
    # the torsion radical kills every indecomposable right projective and
    # matches its functor presentation on every catalog right module
    for name, per in catalogs.items():
        alg = all_algebras[name]
        for v in alg.quiver.vertices:
            assert torsion_radical(indec_projective(alg, v, RIGHT)).dim == 0
        func = present_torsion_radical(alg)
        for a in per[RIGHT]:
            assert fp_eval(func, a).dim == torsion_radical(a).dim


def test_criterion_09_hereditary_splitting(catalogs, all_algebras):
    # over path algebras torsion splits off: the torsionless part is
    # projective, the module reassembles, and the stable hom laws hold
    # against every catalog probe
    for name in HEREDITARY:
        per = catalogs[name]
        for side in (LEFT, RIGHT):
            for a in per[side]:
                hs = hereditary_split(a, probes=per[side])
                assert hs.split_iso.is_isomorphism()
                assert hs.cosplit_iso.is_isomorphism()
                assert is_projective(hs.torsionless)
                assert hs.underline_law_ok
                assert hs.overline_law_ok
                assert hs.probe_count == len(per[side])


def test_criterion_10_quasi_frobenius_approximations(catalogs):
    # over self injective algebras the injective envelope is a projective
    # approximation and the projective cover is an injective approximation
    for name in QUASI_FROBENIUS:
        per = catalogs[name]
        for a in per[LEFT]:
            env = injective_envelope(a)
            assert extends_to_projectives(env.inclusion)
        for a in per[RIGHT]:
            cov = projective_cover(a)
            assert lifts_from_injectives(cov.surjection)


def test_criterion_11_fp_kernels_and_cokernels(all_algebras):
    # kernel and cokernel of random fp morphisms evaluate componentwise,
    # on at least 50 morphisms against at least 20 probes each
    rng = random.Random(7)
    morphisms = 0
    for name in sorted(all_algebras):
        alg = all_algebras[name]
        probes = list(standard_probes(alg, LEFT))
        pad_rng = random.Random(23)
        while len(probes) < 20:
            probes.append(random_module(alg, LEFT, MAX_DIM, pad_rng)[0])
        for variance in (COVARIANT, CONTRAVARIANT):
            for _ in range(3):
                alpha = random_fp_morphism(alg, LEFT, variance, MAX_DIM, rng)
                ker, incl = fp_kernel(alpha)
                cok = fp_cokernel(alpha)
                for b in probes:
                    sv = fp_eval(alpha.source, b)
                    tv = fp_eval(alpha.target, b)
                    mat = fp_eval_morphism(alpha, b, sv, tv)
                    want_ker = sv.dim - rank(mat)
                    assert fp_eval(ker, b).dim == want_ker
                    assert fp_eval(cok, b).dim == tv.dim - rank(mat)
                    incl_mat = fp_eval_morphism(incl, b)
                    assert (mat @ incl_mat).is_zero()
                    assert rank(incl_mat) == want_ker
                morphisms += 1
    assert morphisms >= 50


def test_criterion_12_star_less_modules_kill_injectives(
    catalogs, all_algebras
):
    # a right module with vanishing star dual tensors to zero with every
    # indecomposable injective
    starless = 0
    for name, per in catalogs.items():
        alg = all_algebras[name]
        pool = per[RIGHT] + [
            simple(alg, v, RIGHT) for v in alg.quiver.vertices
        ]
        for a in pool:
            if star_dual(a).module.total_dim != 0:
                continue
            starless += 1
            for v in alg.quiver.vertices:
                assert tensor(a, indec_injective(alg, v)).dim == 0
    # the check must not be vacuous
    assert starless > 0
