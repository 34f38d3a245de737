import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebras import BUILDERS
from stabhom import algebra as algebra_mod
from stabhom.algebra import (
    AlgebraError,
    AlgebraTooLarge,
    Arrow,
    BoundQuiverAlgebra,
    LEFT,
    NotFiniteDimensional,
    Quiver,
    Relation,
    RIGHT,
    Representation,
    direct_sum,
    dual_module,
    indec_injective,
    indec_projective,
    radical_top_socle,
    regular_module,
    simple,
    to_opposite,
    zero_module,
)
from stabhom.cli.randmod import random_catalog
from stabhom.exactla import Field, Matrix
from stabhom.homology import hom_basis, injective_envelope, projective_cover, star_dual


# -- algebra construction ---------------------------------------------------


def test_a2_basis(a2):
    # e1, e2 and the arrow itself
    assert a2.dim == 3
    assert a2.is_hereditary()


def test_loop2_basis(loop2):
    # 1 and x
    assert loop2.dim == 2
    assert not loop2.is_hereditary()


def test_loop3_basis(loop3):
    assert loop3.dim == 3


def test_nakayama_basis(nakayama):
    # three idempotents and three arrows, all longer paths killed
    assert nakayama.dim == 6


def test_square_basis(square):
    # 4 idempotents + 4 arrows + 1 shared length-two class
    assert square.dim == 9


def test_free_loop_is_infinite_dimensional():
    q = Quiver(["v"], [Arrow("x", "v", "v")])
    with pytest.raises(NotFiniteDimensional):
        BoundQuiverAlgebra(q, [], Field.prime(2), 8)


def test_a_free_algebra_is_refused_in_memory_linear_in_the_span():
    # two loops and no relations: degree n has 2^n paths, 4,096 at the bound
    # of 12.  The normal forms are read off the rref rows of the 0 x 4,096
    # relation matrix, with no 4,096 x 4,096 projection (128 MiB of int64).
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    tracemalloc.start()
    try:
        with pytest.raises(NotFiniteDimensional, match="4096 path classes survive at length 12"):
            BoundQuiverAlgebra(q, [], Field.prime(2), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_bad_relation_rejected(a2):
    with pytest.raises(AlgebraError):
        # paths 1->2 and a nonparallel vertex loop cannot be combined
        BoundQuiverAlgebra(
            a2.quiver,
            [Relation([(1, ("a", "a"))])],
            a2.field,
            4,
        )


def test_duplicate_arrow_names_rejected():
    with pytest.raises(AlgebraError):
        Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("a", "2", "1")])


# -- canonical modules -------------------------------------------------------


def test_a2_projectives(a2):
    p1 = indec_projective(a2, "1")
    p2 = indec_projective(a2, "2")
    assert p1.dim_vector() == (1, 1)
    assert p2.dim_vector() == (0, 1)
    assert p1.arrow_maps["a"] == Matrix.identity(a2.field, 1)


def test_a2_injectives(a2):
    i1 = indec_injective(a2, "1")
    i2 = indec_injective(a2, "2")
    assert i1.dim_vector() == (1, 0)
    assert i2.dim_vector() == (1, 1)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_each_dual_is_built_once_and_the_injectives_are_duals_of_projectives(name, side):
    alg = BUILDERS[name]()
    for m in random_catalog(alg, side, 3, 3, random.Random(5))[0]:
        d = dual_module(m)
        assert dual_module(m) is d and dual_module(d) is m
        assert d.side != m.side and d.dims == m.dims
        for a, mat in m.arrow_maps.items():
            assert d.arrow_maps[a] == mat.transpose()
    for v in alg.quiver.vertices:
        p = indec_projective(alg, v, side)
        i = indec_injective(alg, v, RIGHT if side == LEFT else LEFT)
        assert i is dual_module(p) and dual_module(i) is p


def test_simples_kill_arrows(square):
    for v in square.quiver.vertices:
        s = simple(square, v)
        assert s.total_dim == 1
        for a in square.quiver.arrows:
            assert s.arrow_maps[a.name].is_zero()


def test_regular_module_dims(a2, loop2):
    assert regular_module(a2, LEFT).dim_vector() == (1, 2)
    assert regular_module(a2, RIGHT).dim_vector() == (2, 1)
    assert regular_module(loop2, LEFT).total_dim == 2


def test_regular_total_dim_matches_algebra(all_algebras):
    for alg in all_algebras.values():
        for side in (LEFT, RIGHT):
            assert regular_module(alg, side).total_dim == alg.dim


def test_nakayama_projectives_uniserial(nakayama):
    # rad^2 = 0, so each projective is length two
    for v in nakayama.quiver.vertices:
        p = indec_projective(nakayama, v)
        assert p.total_dim == 2
        parts = radical_top_socle(p)
        assert parts.radical.dim == 1
        assert parts.socle.dim == 1


def test_relation_respected_by_representations(square):
    # a representation breaking ab = cd must be rejected
    field = square.field
    dims = {"1": 1, "2": 1, "3": 1, "4": 1}
    good = {
        n: Matrix.identity(field, 1) for n in ("a", "b", "c", "d")
    }
    Representation(square, LEFT, dims, good)
    bad = dict(good)
    bad["d"] = Matrix.from_rows(field, [[2]])
    with pytest.raises(AlgebraError):
        Representation(square, LEFT, dims, bad)


def test_loop_relation_respected(loop2):
    field = loop2.field
    with pytest.raises(AlgebraError):
        Representation(
            loop2, LEFT, {"v": 1}, {"x": Matrix.identity(field, 1)}
        )
    nilp = Matrix.from_rows(field, [[0, 1], [0, 0]])
    m = Representation(loop2, LEFT, {"v": 2}, {"x": nilp})
    assert m.total_dim == 2


@pytest.mark.parametrize(
    "dims, arrow_names, match",
    [
        ({"1": 2.7}, (), "vertex '1' is not an integer"),
        ({"1": 2.0}, (), "vertex '1' is not an integer"),
        ({"1": True}, (), "vertex '1' is not an integer"),
        ({"1": "2"}, (), "vertex '1' is not an integer"),
        ({"1": 2, "x": 3}, (), r"unknown vertices \['x'\]"),
        ({"1": 1, "2": 1}, ("a", "b"), r"unknown arrows \['b'\]"),
    ],
)
def test_representation_rejects_bad_dims_and_names(a2, dims, arrow_names, match):
    # each of these used to build a module quietly: 2.7 read as 2, an
    # unknown vertex or arrow ignored
    arrows = {name: Matrix.identity(a2.field, 1) for name in arrow_names}
    with pytest.raises(AlgebraError, match=match):
        Representation(a2, LEFT, dims, arrows)


def test_representation_accepts_numpy_integer_dims(a2):
    m = Representation(a2, LEFT, {"1": np.int64(2)}, {})
    assert m.dims["1"] == 2 and type(m.dims["1"]) is int


def test_a_module_past_the_entry_cap_is_refused_before_any_matrix(a2, kronecker, monkeypatch):
    monkeypatch.setattr(algebra_mod, "MAX_MODULE_ENTRIES", 24)
    Representation(a2, LEFT, {"1": 4, "2": 6}, {})  # one 6 x 4 arrow matrix
    Representation(kronecker, RIGHT, {"1": 4, "2": 3}, {})  # two 4 x 3
    monkeypatch.setattr(algebra_mod.Matrix, "zeros", None)  # nothing is made
    with pytest.raises(AlgebraTooLarge, match=r"dimension vector \(5, 5\) hold 25 entries, more than 24"):
        Representation(a2, LEFT, {"1": 5, "2": 5}, {})
    with pytest.raises(AlgebraTooLarge, match="hold 26 entries"):
        Representation(kronecker, LEFT, {"1": 13, "2": 1}, {})


# -- opposite algebra and duality -------------------------------------------


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(4294967311)], ids=repr)
def test_object_module_keys_are_bytes_equal_for_equal_modules(field):
    # object entries are keyed by their text, one bytes string per arrow
    alg = BUILDERS["kronecker"](field)

    def module(a, b):
        return Representation(alg, LEFT, {"1": 2, "2": 1}, {"a": a, "b": b})

    from_rows = module(Matrix.from_rows(field, [[2, -1]]), Matrix.from_rows(field, [[0, 3]]))
    from_array = module(
        Matrix(field, np.array([[2.0, -1.0]])), Matrix(field, np.array([[0, 3]], dtype=np.int64))
    )
    twice_dual = dual_module(dual_module(from_rows))
    assert from_rows.key == from_array.key == twice_dual.key
    assert hash(from_rows.key) == hash(from_array.key)
    assert all(type(part) is bytes for part in from_rows.key[2])
    changed = module(Matrix.from_rows(field, [[2, -1]]), Matrix.from_rows(field, [[0, 4]]))
    assert changed.key != from_rows.key
    assert changed != from_rows


def test_opposite_reverses_arrows(a2):
    op = a2.opposite()
    (arrow,) = op.quiver.arrows
    assert (arrow.source, arrow.target) == ("2", "1")
    assert op.dim == a2.dim


def test_opposite_involution(square):
    opop = square.opposite().opposite()
    assert opop.dim == square.dim
    assert {(a.name, a.source, a.target) for a in opop.quiver.arrows} == {
        (a.name, a.source, a.target) for a in square.quiver.arrows
    }


def _homological_dims(m, others):
    cov = projective_cover(m)
    env = injective_envelope(m)
    return (
        [hom_basis(m, n).dim for n in others],
        [hom_basis(n, m).dim for n in others],
        cov.middle.dim_vector(),
        cov.left.dim_vector(),
        env.middle.dim_vector(),
        env.right.dim_vector(),
        star_dual(m).module.dim_vector(),
    )


def test_right_projective_is_left_projective_over_opposite(a2):
    e2_right = indec_projective(a2, "2", RIGHT)
    assert e2_right.dim_vector() == (1, 1)
    # Right modules are computed directly, not as left modules over the
    # opposite algebra; going through the opposite is the independent check.
    # One test loops over every fixture so that its id stays unchanged.
    for name in sorted(BUILDERS):
        alg = BUILDERS[name]()
        op = alg.opposite()
        mods = []
        for v in alg.quiver.vertices:
            p, i = indec_projective(alg, v, RIGHT), indec_injective(alg, v, RIGHT)
            assert to_opposite(p).dim_vector() == indec_projective(op, v, LEFT).dim_vector()
            assert to_opposite(i).dim_vector() == indec_injective(op, v, LEFT).dim_vector()
            mods += [p, i]
        mods += random_catalog(alg, RIGHT, 3, 2, random.Random(11))[0]
        flipped = [to_opposite(m) for m in mods]
        for m, fm in zip(mods, flipped):
            assert fm.algebra is op and fm.side == LEFT
            assert _homological_dims(m, mods) == _homological_dims(fm, flipped), name


def test_dual_swaps_projectives_and_injectives(a3):
    for v in a3.quiver.vertices:
        d = dual_module(indec_projective(a3, v, LEFT))
        assert d.side == RIGHT
        assert d.dim_vector() == indec_injective(a3, v, RIGHT).dim_vector()


def test_dual_is_involutive_on_dims(kronecker):
    m = indec_projective(kronecker, "1")
    dd = dual_module(dual_module(m))
    assert dd.side == m.side
    assert dd.dim_vector() == m.dim_vector()
    assert dd.arrow_maps["a"] == m.arrow_maps["a"]


# -- direct sums --------------------------------------------------------------


def test_direct_sum_biproduct_laws(a2):
    p1 = indec_projective(a2, "1")
    s2 = simple(a2, "2")
    ds = direct_sum([p1, s2])
    assert ds.module.dim_vector() == (1, 2)
    from stabhom.algebra import ModuleMap

    for i in range(2):
        for j in range(2):
            comp = ds.projections[i] @ ds.injections[j]
            if i == j:
                assert comp == ModuleMap.identity(ds.injections[j].domain)
            else:
                assert comp.is_zero()
    total = None
    for inj, proj in zip(ds.injections, ds.projections):
        term = inj @ proj
        total = term if total is None else total + term
    assert total == ModuleMap.identity(ds.module)


def test_direct_sum_builds_its_maps_when_first_read(a2):
    parts = [indec_projective(a2, "1"), simple(a2, "2")]
    ds = direct_sum(parts)
    assert "injections" not in vars(ds) and "projections" not in vars(ds)
    proj = ds.projections  # transposes the injections, so builds them too
    assert "injections" in vars(ds) and ds.projections is proj
    assert [f.domain for f in ds.injections] == [f.codomain for f in proj] == parts
    assert all(f.codomain is ds.module is g.domain for f, g in zip(ds.injections, proj))


def test_direct_sum_rejects_mixed_sides(a2):
    with pytest.raises(AlgebraError):
        direct_sum([simple(a2, "1", LEFT), simple(a2, "1", RIGHT)])


# -- radical, top, socle -------------------------------------------------------


def test_radical_top_socle_of_a2_projective(a2):
    p1 = indec_projective(a2, "1")
    parts = radical_top_socle(p1)
    assert parts.radical.dim_vector() == (0, 1)
    assert parts.top.dim_vector() == (1, 0)
    assert parts.socle.dim_vector() == (0, 1)
    assert parts.top_projection.is_surjective()


def test_radical_top_socle_of_loop_regular(loop2):
    reg = regular_module(loop2, LEFT)
    parts = radical_top_socle(reg)
    assert parts.radical.dim == 1
    assert parts.socle.dim == 1
    assert parts.radical == parts.socle
    assert parts.top.total_dim == 1


def test_socle_of_semisimple_is_everything(a2):
    s = simple(a2, "1")
    parts = radical_top_socle(s)
    assert parts.radical.is_zero()
    assert parts.socle.is_full()


def test_zero_module_behaviour(a2):
    z = zero_module(a2, LEFT)
    assert z.is_zero()
    assert z.total_dim == 0
    parts = radical_top_socle(z)
    assert parts.radical.is_zero() and parts.socle.is_zero()


# -- path action ---------------------------------------------------------------


def test_path_map_composition_order(a3):
    p1 = indec_projective(a3, "1")
    via_path = p1.path_map(("1", ("a", "b")))
    composed = p1.arrow_maps["b"] @ p1.arrow_maps["a"]
    assert via_path == composed


def test_right_module_path_action(a3):
    p3 = indec_projective(a3, "3", RIGHT)
    via_path = p3.path_map(("1", ("a", "b")))
    composed = p3.arrow_maps["a"] @ p3.arrow_maps["b"]
    assert via_path == composed


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 10 ** 6))
def test_projectives_satisfy_defining_relations(name, seed):
    # constructing the projective runs the relation checks; also confirm
    # the arrow maps respect the stated block shapes
    alg = BUILDERS[name]()
    for v in alg.quiver.vertices:
        for side in (LEFT, RIGHT):
            p = indec_projective(alg, v, side)
            for a in alg.quiver.arrows:
                mat = p.arrow_maps[a.name]
                if side == LEFT:
                    assert mat.shape == (p.dims[a.target], p.dims[a.source])
                else:
                    assert mat.shape == (p.dims[a.source], p.dims[a.target])
