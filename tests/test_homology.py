import dataclasses
import random
from unittest import mock

import pytest

import algebras
from algebras import BUILDERS
from oracles import ext1_brute_force_f2, ext1_cocycle_dim
from stabhom.algebra import (
    LEFT,
    AlgebraError,
    AlgebraTooLarge,
    ModuleMap,
    Representation,
    RIGHT,
    direct_sum,
    indec_injective,
    indec_projective,
    radical_subspaces,
    radical_top_socle,
    regular_module,
    simple,
    socle_subspaces,
    standard_probes,
    zero_module,
)
from stabhom import exactla, homology
from stabhom.cli.laws import build_context, run_laws
from stabhom.cli.randmod import random_catalog, random_module
from stabhom.exactla import Field, Matrix, rank
from stabhom.fpfun import present_overline_cov, present_underline_contra
from stabhom.homology import (
    cokernel_map,
    eval_double_dual,
    ext1,
    factor_through,
    hom_basis,
    hstack_maps,
    image_map,
    injective_envelope,
    is_injective_module,
    is_projective,
    is_self_injective,
    kernel_map,
    projective_cover,
    pullback,
    push_coords,
    pushout,
    star_dual,
    star_dual_map,
    syzygy,
    tensor,
    tensor_map,
    transpose,
    vstack_maps,
)


# -- hom spaces ---------------------------------------------------------------


def test_hom_simple_to_projective_vanishes(a2):
    assert hom_basis(simple(a2, "1"), indec_projective(a2, "1")).dim == 0


def test_hom_endomorphisms_of_projective(a2):
    p1 = indec_projective(a2, "1")
    assert hom_basis(p1, p1).dim == 1


def test_coords_of_flats_rejects_a_non_map(a2):
    p1 = indec_projective(a2, "1")
    hom = hom_basis(p1, p1)  # 1-dimensional inside 2 flat entries
    assert hom.coords_of_flats(hom.stack.scale(2)) == Matrix.from_rows(a2.field, [[2]])
    outside = [j for j in range(hom.stack.cols) if j not in hom.free]
    flat = Matrix.zeros(a2.field, 1, hom.stack.cols).data.copy()
    flat[0, outside[0]] = 1
    with pytest.raises(AlgebraError, match="not in the computed hom space"):
        hom.coords_of_flats(Matrix(a2.field, flat))


@pytest.mark.parametrize("name", ["a2", "a2_rational", "square_big_prime"])
def test_push_coords_from_an_empty_hom_space_composes_nothing(name, monkeypatch):
    # Hom(S(w), S(v)) = 0 between nonzero modules: composed with either end
    # of S(w) + S(v), it goes to the 0 x dim(target) matrix of the field's
    # dtype with no composite made, and the composition's domain is still
    # checked first
    if name == "square_big_prime":
        alg = algebras.square_algebra(exactla.Field.prime(4294967311))
    else:
        alg = BUILDERS[name]()
    v, w = alg.quiver.arrows[0].source, alg.quiver.arrows[0].target
    s_v, s_w = simple(alg, v), simple(alg, w)
    source = hom_basis(s_w, s_v)
    both = direct_sum([s_w, s_v])
    into, out_of = hom_basis(both.module, s_v), hom_basis(s_w, both.module)
    assert source.dim == 0 and into.dim == out_of.dim == 1
    monkeypatch.setattr(homology, "_composites", None)
    for got in (
        push_coords(source, into, pre=both.projections[0]),
        push_coords(source, out_of, post=both.injections[1]),
    ):
        assert got.shape == (0, 1) and got.data.dtype == alg.field.dtype
    with pytest.raises(AlgebraError, match="composition domain mismatch"):
        push_coords(source, into, pre=ModuleMap.identity(s_v))


def test_hom_projective_counts_dimension(all_algebras):
    # Hom(P(v), M) is the vector space M_v
    for alg in all_algebras.values():
        reg = regular_module(alg, LEFT)
        for v in alg.quiver.vertices:
            p = indec_projective(alg, v)
            assert hom_basis(p, reg).dim == reg.dims[v]


def test_loop_endomorphism_algebra(loop2):
    reg = regular_module(loop2, LEFT)
    assert hom_basis(reg, reg).dim == 2


def test_hom_basis_elements_commute_with_action(kronecker):
    p1 = indec_projective(kronecker, "1")
    i2 = indec_injective(kronecker, "2")
    hs = hom_basis(p1, i2)
    assert hs.dim > 0
    for f in hs.basis_maps():
        # ModuleMap construction re-checks the intertwining equations
        ModuleMap(p1, i2, f.vertex_maps)


# -- kernels, images, cokernels ------------------------------------------------


def test_kernel_of_top_projection(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    ker = kernel_map(parts.top_projection)
    assert ker.dim_vector() == (0, 1)
    assert ker.rep.dim_vector() == simple(a2, "2").dim_vector()


def test_image_plus_kernel_ranks(square):
    p = indec_projective(square, "1")
    parts = radical_top_socle(p)
    f = parts.top_projection
    assert kernel_map(f).dim + image_map(f).dim == p.total_dim


def test_cokernel_of_radical_inclusion(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    rep, incl = parts.radical.materialize()
    cok, proj = cokernel_map(incl)
    assert cok.dim_vector() == (1, 0)
    assert proj.is_surjective()
    assert (proj @ incl).is_zero()


# -- covers and envelopes --------------------------------------------------------


def test_projective_cover_of_simple(a2):
    cov = projective_cover(simple(a2, "1"))
    assert cov.middle.dim_vector() == (1, 1)
    assert cov.left.dim_vector() == (0, 1)
    assert cov.validate()


def test_projective_cover_of_projective_splits(square):
    p = indec_projective(square, "2")
    cov = projective_cover(p)
    assert cov.left.is_zero()
    assert cov.middle.dim_vector() == p.dim_vector()
    assert cov.validate()


def test_injective_envelope_of_simple(a2):
    env = injective_envelope(simple(a2, "2"))
    assert env.middle.dim_vector() == (1, 1)
    assert env.right.dim_vector() == (1, 0)
    assert env.validate()


def test_injective_envelope_of_injective_splits(loop3):
    reg = regular_module(loop3, LEFT)
    env = injective_envelope(reg)
    assert env.right.is_zero()
    assert env.validate()


def test_cover_of_zero(a2):
    cov = projective_cover(zero_module(a2, LEFT))
    assert cov.middle.is_zero() and cov.left.is_zero()


def test_a_sequence_with_a_zero_end_map_is_not_exact(a2):
    """0 -> S(2) -> P(1) -> S(1) -> 0 stops being exact when its first map
    is made zero (not injective) or its last (not surjective)."""
    cov = projective_cover(simple(a2, "1"))
    assert cov.validate()
    no_mono = dataclasses.replace(cov, inclusion=ModuleMap.zero(cov.left, cov.middle))
    no_epi = dataclasses.replace(cov, surjection=ModuleMap.zero(cov.middle, cov.right))
    assert not no_mono.validate() and not no_epi.validate()


def test_a_sequence_exact_at_its_middle_with_a_first_map_not_injective_is_not_exact(a2):
    """S(2)^2 -> P(1) -> S(1) over F5 is exact at P(1), the kernel S(2) of
    the cover map being the image of the doubled inclusion, and its last
    map is onto; only its first map fails, being not injective.  validate
    fails, as it would not if _is_exact joined its end checks by 'and'."""
    cov = projective_cover(simple(a2, "1"))
    doubled = hstack_maps(cov.inclusion, cov.inclusion)
    seq = dataclasses.replace(cov, left=doubled.domain, inclusion=doubled)
    assert doubled.codomain is cov.middle and not doubled.is_injective()
    assert kernel_map(cov.surjection).subspaces == image_map(doubled).subspaces
    assert not seq.validate()


def test_a_sequence_exact_at_its_middle_with_a_last_map_not_onto_is_not_exact(a2):
    """S(2) -> P(1) -> S(1)^2 over F5, the cover map doubled: exact at
    P(1), its first map injective, its last not onto.  validate fails, as
    it would not if _is_exact joined its end checks by 'and'."""
    cov = projective_cover(simple(a2, "1"))
    twice = vstack_maps(cov.surjection, cov.surjection)
    seq = dataclasses.replace(cov, right=twice.codomain, surjection=twice)
    assert cov.inclusion.is_injective() and not twice.is_surjective()
    assert kernel_map(twice).subspaces == image_map(cov.inclusion).subspaces
    assert not seq.validate()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_covers_and_envelopes_are_minimal(name):
    """A cover surjects, has the top of its module and its syzygy inside its
    radical; an envelope injects, has the socle of its module and its socle
    inside the image, and intertwines, though it is built unchecked."""
    alg = BUILDERS[name]()
    for side in (LEFT, RIGHT):
        for m in standard_probes(alg, side) + random_catalog(alg, side, 8, 3, random.Random(11))[0]:
            cov = projective_cover(m)
            assert cov.surjection.is_surjective()
            rad_p, rad_m = radical_subspaces(cov.middle), radical_subspaces(m)
            syz = image_map(cov.inclusion).subspaces
            env = injective_envelope(m)
            assert env.inclusion.is_injective()
            env.inclusion._check_intertwiner()
            soc_i, soc_m = socle_subspaces(env.middle), socle_subspaces(m)
            img = image_map(env.inclusion).subspaces
            for v in alg.quiver.vertices:
                assert cov.middle.dims[v] - rad_p[v].dim == m.dims[v] - rad_m[v].dim
                assert rad_p[v].contains(syz[v])
                assert soc_i[v].dim == soc_m[v].dim
                assert img[v].contains(soc_i[v])


def test_a_planted_defect_in_the_cover_fails_the_cover_and_the_envelope(monkeypatch):
    """One entry of the first path action a cover reads is changed.  The
    cover map then fails its intertwiner check, and the envelope map, built
    unchecked, fails it too, in the cover of its dual module."""
    real = homology._label_actions
    calls = []

    def planted(m, paths, shape):
        acts = real(m, paths, shape)
        if not calls:  # the first call of each build: 2 times the identity would intertwine
            acts[(0,) * acts.ndim] += 1
        calls.append(paths)
        return acts

    for field in (Field.prime(5), Field.rational()):
        alg = algebras.a2_algebra(field)  # fresh, so no cover is memoized yet
        m = indec_projective(alg, "1", LEFT)  # P(1) = I(2): 1 -> 1, both maps the identity
        monkeypatch.setattr(homology, "_label_actions", planted)
        with pytest.raises(AlgebraError, match="intertwiner"):
            homology.cover_map(m)
        calls.clear()
        with pytest.raises(AlgebraError, match="intertwiner") as raised:
            homology.envelope_map(m)
        assert "_build_cover_map" in [entry.name for entry in raised.traceback]
        monkeypatch.undo()
        calls.clear()  # the next field's cover plants again
        assert homology.envelope_map(m).map.is_injective()


def test_building_a_cover_makes_no_solve_call(square):
    m = regular_module(square, LEFT)
    real = exactla.solve_matrix
    with mock.patch.object(homology, "solve_matrix", create=True, wraps=real) as local, \
            mock.patch.object(exactla, "solve_matrix", wraps=real) as spy:
        cov = homology._build_projective_cover(homology._build_cover_map(m))
    assert cov.validate()
    assert local.call_count == 0
    assert spy.call_count == 0


def test_syzygy_of_simple_over_loop(loop2):
    s = simple(loop2, "v")
    assert syzygy(s).total_dim == 1


def test_projectivity_predicates(a2, loop2, nakayama):
    assert is_projective(indec_projective(a2, "1"))
    assert not is_projective(simple(a2, "1"))
    assert is_injective_module(indec_injective(a2, "2"))
    assert not is_injective_module(simple(a2, "2"))
    assert is_self_injective(loop2)
    assert is_self_injective(nakayama)
    assert not is_self_injective(a2)


def test_loop_regular_is_projective_and_injective(loop2):
    reg = regular_module(loop2, LEFT)
    assert is_projective(reg)
    assert is_injective_module(reg)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_projectivity_predicates_agree_with_the_far_ends_of_the_sequences(name):
    """is_projective and is_injective_module compare dimensions on the cover
    and envelope maps; the syzygy and the cosyzygy are zero exactly then."""
    alg = BUILDERS[name]()
    for side in (LEFT, RIGHT):
        catalog = random_catalog(alg, side, 8, 3, random.Random(11))[0]
        modules = standard_probes(alg, side) + catalog + [regular_module(alg, side)]
        for m in modules:
            assert is_projective(m) == projective_cover(m).left.is_zero()
            assert is_injective_module(m) == injective_envelope(m).right.is_zero()
        assert any(map(is_projective, modules)) and not all(map(is_projective, modules))


def test_callers_of_the_maps_alone_build_no_syzygy_or_cosyzygy(monkeypatch):
    """The projectivity predicates, the presentations of Hom(-, a) modulo
    projectives and Hom(a, -) modulo injectives, and the quasi-frobenius law
    read the memoized cover and envelope maps: homology's kernel_map and
    cokernel_map, which the sequence builders call, are never called, and
    no memo entry holds a sequence."""
    alg = algebras.nakayama_algebra()  # fresh and self-injective
    ctx = build_context(alg, 1, 3, 2)
    calls = []
    for name in ("kernel_map", "cokernel_map"):
        monkeypatch.setattr(homology, name, lambda f, name=name: calls.append(name))
    for side, _, a in ctx.catalog():
        is_projective(a)
        is_injective_module(a)
        assert present_underline_contra(a).presentation.codomain == a
        assert present_overline_cov(a).presentation.domain == a
    (result,) = run_laws(ctx, ["quasi-frobenius"])
    assert result.failures == 0 and not result.skipped
    assert calls == []
    entries = [e for kind in ("cover", "envelope") for e in alg._cache[("memo", kind)].values()]
    assert entries and all(e.sequence is None for e in entries)


# -- ext groups -------------------------------------------------------------------


def test_ext_simple_against_simple_a2(a2):
    s1, s2 = simple(a2, "1"), simple(a2, "2")
    assert ext1(s1, s2).dim == 1
    assert ext1(s2, s1).dim == 0
    assert ext1(s1, s1).dim == 0


def test_ext_vanishes_on_projectives(square):
    reg = regular_module(square, LEFT)
    for v in square.quiver.vertices:
        p = indec_projective(square, v)
        assert ext1(p, reg).dim == 0


def test_ext_self_extension_of_loop_simple(loop2, loop3):
    k2 = simple(loop2, "v")
    assert ext1(k2, k2).dim == 1
    k3 = simple(loop3, "v")
    assert ext1(k3, k3).dim == 1


def test_ext_kronecker_multiplicity(kronecker):
    s1, s2 = simple(kronecker, "1"), simple(kronecker, "2")
    assert ext1(s1, s2).dim == 2
    assert ext1(s2, s1).dim == 0


def test_ext_reuses_the_memoized_cover(a2):
    s1 = simple(a2, "1")
    res = ext1(s1, simple(a2, "2"))
    assert res.dim == 1
    assert res.cover is projective_cover(s1)


def test_ext_matches_cocycle_oracle_on_canonical_modules(all_algebras):
    for alg in all_algebras.values():
        mods = [simple(alg, v) for v in alg.quiver.vertices]
        mods += [indec_projective(alg, v) for v in alg.quiver.vertices]
        mods = mods[:5]
        for m in mods:
            for n in mods:
                assert ext1(m, n).dim == ext1_cocycle_dim(m, n)


def test_ext_matches_cocycle_oracle_on_random_modules():
    rng = random.Random(7)
    for name in ("a2", "square", "loop3", "nakayama", "loop2_rational"):
        alg = BUILDERS[name]()
        for side in (LEFT, RIGHT):
            mods = [random_module(alg, side, 3, rng)[0] for _ in range(3)]
            for m in mods:
                for n in mods:
                    assert ext1(m, n).dim == ext1_cocycle_dim(m, n)


def test_ext_matches_brute_force_enumeration(loop2, a3, nakayama):
    k = simple(loop2, "v")
    assert ext1(k, k).dim == ext1_brute_force_f2(k, k) == 1
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    assert ext1(s1, s2).dim == ext1_brute_force_f2(s1, s2) == 1
    assert ext1(s2, s1).dim == ext1_brute_force_f2(s2, s1) == 0
    t1, t2 = simple(nakayama, "1"), simple(nakayama, "2")
    assert ext1(t1, t2).dim == ext1_brute_force_f2(t1, t2) == 1


def _ext1_by_restriction_rank(m, n):
    """ext1's former body, kept as a reference: dim Hom(syzygy, n) minus
    the rank of the restriction Hom(P, n) -> Hom(syzygy, n) along the
    cover's inclusion, over the Hom system of the whole cover P."""
    cover = projective_cover(m)
    hom_p = hom_basis(cover.middle, n)
    hom_omega = hom_basis(cover.left, n)
    restriction = push_coords(hom_p, hom_omega, pre=cover.inclusion)
    return hom_omega.dim - rank(restriction)


def test_ext_by_counting_matches_the_restriction_rank_on_standard_probes(all_algebras):
    for alg in all_algebras.values():
        for side in (LEFT, RIGHT):
            probes = standard_probes(alg, side)
            for m in probes:
                for n in probes:
                    assert ext1(m, n).dim == _ext1_by_restriction_rank(m, n)


def test_ext_by_counting_matches_the_restriction_rank_and_oracle_on_catalogs():
    for name in ("a2", "kronecker", "square", "loop3", "nakayama", "a2_rational"):
        alg = BUILDERS[name]()
        for side in (LEFT, RIGHT):
            mods, _ = random_catalog(alg, side, 4, 3, random.Random(11))
            for m in mods:
                for n in mods:
                    want = _ext1_by_restriction_rank(m, n)
                    assert ext1(m, n).dim == want == ext1_cocycle_dim(m, n)


# -- tensor products -----------------------------------------------------------------


def test_tensor_of_simples(a2):
    ts = tensor(simple(a2, "2", RIGHT), simple(a2, "2", LEFT))
    assert ts.dim == 1
    cross = tensor(simple(a2, "2", RIGHT), simple(a2, "1", LEFT))
    assert cross.dim == 0


def test_tensor_unit_isomorphism(all_algebras):
    # e_v Lambda (x) M is the vertex component M_v
    for alg in all_algebras.values():
        reg = regular_module(alg, LEFT)
        for v in alg.quiver.vertices:
            pv = indec_projective(alg, v, RIGHT)
            assert tensor(pv, reg).dim == reg.dims[v]
        full = tensor(regular_module(alg, RIGHT), reg)
        assert full.dim == reg.total_dim


def test_tensor_identity_map(a2):
    s2r = simple(a2, "2", RIGHT)
    p1 = indec_projective(a2, "1")
    ts = tensor(s2r, p1)
    ident = tensor_map(ts, ts)
    assert ident.rows == ident.cols == ts.dim
    assert rank(ident) == ts.dim


def test_tensor_map_respects_composition(a3):
    p1 = indec_projective(a3, "1")
    parts = radical_top_socle(p1)
    f = parts.top_projection
    right = indec_projective(a3, "3", RIGHT)
    src = tensor(right, p1)
    dst = tensor(right, parts.top)
    fm = tensor_map(src, dst, g=f)
    ident = tensor_map(src, src)
    assert (fm @ ident) == fm


def test_tensor_right_exactness_dimension(loop2):
    # k (x) k over k[x]/(x^2): one-dimensional
    k_r = simple(loop2, "v", RIGHT)
    k_l = simple(loop2, "v", LEFT)
    assert tensor(k_r, k_l).dim == 1
    reg_l = regular_module(loop2, LEFT)
    assert tensor(k_r, reg_l).dim == 1


# -- star duality ----------------------------------------------------------------


def test_star_dual_of_simple_vanishes(a2):
    sd = star_dual(simple(a2, "1"))
    assert sd.module.side == RIGHT
    assert sd.module.total_dim == 0


def test_star_dual_of_projective(a2):
    sd = star_dual(indec_projective(a2, "1"))
    assert sd.module.dim_vector() == (1, 0)
    sd2 = star_dual(indec_projective(a2, "2"))
    assert sd2.module.dim_vector() == (1, 1)


def test_star_dual_total_dimension_of_regular(all_algebras):
    for alg in all_algebras.values():
        reg = regular_module(alg, LEFT)
        assert star_dual(reg).module.total_dim == alg.dim


def test_evaluation_iso_on_projectives(square):
    for v in square.quiver.vertices:
        p = indec_projective(square, v)
        ev, _, _ = eval_double_dual(p)
        assert ev.is_isomorphism()


def test_evaluation_kills_simple_with_zero_dual(a2):
    s1 = simple(a2, "1")
    ev, sd, _ = eval_double_dual(s1)
    assert sd.module.total_dim == 0
    assert ev.is_zero()


def test_star_dual_map_contravariant(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    rep, incl = parts.radical.materialize()
    sd_dom = star_dual(rep)
    sd_cod = star_dual(p1)
    starred = star_dual_map(incl, sd_dom, sd_cod)
    assert starred.domain is sd_cod.module
    assert starred.codomain is sd_dom.module


# -- transpose -------------------------------------------------------------------


def test_transpose_of_projective_vanishes(a2, square):
    for alg in (a2, square):
        for v in alg.quiver.vertices:
            assert transpose(indec_projective(alg, v)).module.is_zero()


def test_transpose_of_right_simple(a2):
    tr = transpose(simple(a2, "2", RIGHT))
    assert tr.module.side == LEFT
    assert tr.module.dim_vector() == simple(a2, "1").dim_vector()


def test_transpose_over_loop(loop2):
    tr = transpose(simple(loop2, "v"))
    assert tr.module.total_dim == 1


def test_transpose_four_term_exactness(all_algebras):
    for alg in all_algebras.values():
        m = simple(alg, alg.quiver.vertices[0])
        tr = transpose(m)
        # 0 -> m* -> P0* -> P1* -> tr -> 0
        assert (tr.f_star @ tr.star_sub.inclusion).is_zero()
        assert tr.projection.is_surjective()
        assert kernel_map(tr.projection) == image_map(tr.f_star)
        assert kernel_map(tr.f_star) == tr.star_sub
        euler = (
            tr.star_sub.dim
            - tr.sd0.module.total_dim
            + tr.sd1.module.total_dim
            - tr.module.total_dim
        )
        assert euler == 0


def test_double_transpose_dimension(kronecker):
    # modules without projective summands return with the same dimensions
    s1 = simple(kronecker, "1")
    tr = transpose(s1)
    back = transpose(tr.module)
    assert back.module.dim_vector() == s1.dim_vector()


# -- stacking, pushouts, pullbacks -----------------------------------------------


def test_hstack_vstack_shapes(a2):
    s2 = simple(a2, "2")
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    rep, incl = parts.radical.materialize()
    iso = hom_basis(rep, s2).basis_maps()[0]
    h = hstack_maps(incl, incl)
    assert h.domain.total_dim == 2 * rep.total_dim
    ds = direct_sum([rep, rep])
    assert (h @ ds.injections[0]) == incl
    assert (h @ ds.injections[1]) == incl
    v = vstack_maps(iso, iso)
    assert v.codomain.total_dim == 2 * s2.total_dim
    ds2 = direct_sum([s2, s2])
    assert (ds2.projections[0] @ v) == iso
    assert (ds2.projections[1] @ v) == iso


def test_pushout_square_commutes(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    rep, incl = parts.radical.materialize()
    other = hom_basis(rep, simple(a2, "2")).basis_maps()[0]
    po, leg_p, leg_q = pushout(incl, other)
    assert (leg_p @ incl) == (leg_q @ other)
    # pushout of a mono along any map stays mono
    assert leg_q.is_injective()
    assert po.total_dim == p1.total_dim + 1 - rep.total_dim


def test_pullback_square_commutes(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    f = parts.top_projection
    cov = projective_cover(parts.top)
    pb, leg_p, leg_q = pullback(f, cov.surjection)
    assert (f @ leg_p) == (cov.surjection @ leg_q)
    # pullback of an epi along any map stays epi
    assert leg_p.is_surjective()


def _random_map(a, b, rng):
    hom = hom_basis(a, b)
    if hom.dim == 0:
        return ModuleMap.zero(a, b)
    return hom.element([rng.randrange(5) for _ in range(hom.dim)])


def test_stacked_maps_and_glue_legs_intertwine(all_algebras):
    # hstack_maps and vstack_maps build their results without re-checking
    # them, and pushouts and pullbacks are made from them: check every
    # arrow's intertwiner equation here
    rng = random.Random(41)
    for alg in all_algebras.values():
        mods = [indec_projective(alg, v) for v in alg.quiver.vertices]
        mods += [indec_injective(alg, v) for v in alg.quiver.vertices]
        mods += [random_module(alg, LEFT, 2, rng)[0] for _ in range(3)]
        for _ in range(6):
            a, b, c = (rng.choice(mods) for _ in range(3))
            f, g = _random_map(b, a, rng), _random_map(c, a, rng)
            maps = [hstack_maps(f, g), *pullback(f, g)[1:]]
            f, g = _random_map(a, b, rng), _random_map(a, c, rng)
            maps += [vstack_maps(f, g), *pushout(f, g)[1:]]
            for m in maps:
                m._check_intertwiner()


def test_factor_through_pre_factorization(a2):
    s1 = simple(a2, "1")
    cov = projective_cover(s1)
    parts = radical_top_socle(cov.middle)
    h = parts.top_projection  # P(1) -> top, kills the radical = syzygy
    beta = factor_through(h, pre=cov.surjection)
    assert beta is not None
    assert (beta @ cov.surjection) == h


def test_factor_through_pre_detects_obstruction(a2):
    p1 = indec_projective(a2, "1")
    cov = projective_cover(simple(a2, "1"))
    ident = ModuleMap.identity(p1)
    assert factor_through(ident, pre=cov.surjection) is None


def test_factor_through_post_factorization(a2):
    s2 = simple(a2, "2")
    env = injective_envelope(s2)
    beta = factor_through(env.inclusion, post=env.inclusion)
    assert beta is not None
    assert (env.inclusion @ beta) == env.inclusion
    assert beta == ModuleMap.identity(s2)


def test_factor_through_post_detects_obstruction(a2):
    # the identity of I(2) does not lift through soc I(2) -> I(2)
    env = injective_envelope(simple(a2, "2"))
    ident = ModuleMap.identity(env.middle)
    assert factor_through(ident, post=env.inclusion) is None


def test_direct_sum_hom_additivity(a3):
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    p1 = indec_projective(a3, "1")
    ds = direct_sum([s1, s2])
    assert (
        hom_basis(p1, ds.module).dim
        == hom_basis(p1, s1).dim + hom_basis(p1, s2).dim
    )


def test_a_hom_system_past_the_cap_is_refused_before_it_is_written(a2, monkeypatch):
    # Hom(m, m) for m = S1^2 + S2^2: one arrow 1 -> 2, so 2 x 2 rows for the
    # entries of phi_2 A over the 4 + 4 columns of phi_1 and phi_2
    m = Representation(a2, LEFT, {"1": 2, "2": 2}, {})
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", 32)
    assert homology._build_hom(m, m).dim == 8
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", 31)
    monkeypatch.setattr(homology, "kron_kernel", None)
    with pytest.raises(AlgebraTooLarge, match=r"\(2, 2\) and \(2, 2\) has 4 x 8 = 32 entries, more than 31"):
        homology._build_hom(m, m)


def test_a_hom_system_from_a_projective_or_into_an_injective_takes_the_cap(monkeypatch):
    # a fresh A2, so no Hom space below is remembered.  With m = S1^2 + S2^2,
    # Hom(P(1), m) has m_2 P(1)_1 = 2 rows over m_1 P(1)_1 + m_2 P(1)_2 = 4
    # columns, and Hom(m, I(2)) has I(2)_2 m_1 = 2 rows over 4 columns
    alg = BUILDERS["a2"](exactla.Field.prime(5))
    m = Representation(alg, LEFT, {"1": 2, "2": 2}, {})
    p, i = indec_projective(alg, "1"), indec_injective(alg, "2")
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", 7)
    with pytest.raises(AlgebraTooLarge, match=r"\(1, 1\) and \(2, 2\) has 2 x 4 = 8 entries, more than 7"):
        hom_basis(p, m)
    with pytest.raises(AlgebraTooLarge, match=r"\(2, 2\) and \(1, 1\) has 2 x 4 = 8 entries, more than 7"):
        hom_basis(m, i)
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", 8)
    assert hom_basis(p, m).dim == hom_basis(m, i).dim == 2
