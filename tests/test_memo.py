"""The per-algebra memo of projective covers, injective envelopes, star
duals and Hom spaces.

A memo hit must give what a fresh build gives, bit for bit, and is the
stored result itself, also for an equal copy of the module it was built
for; equal modules share one build, algebras share nothing, each memo stays
within its capacity, and the Hom memo within its budget of stack entries,
evicting the least recently used; a Hom space over the whole budget is
returned but not stored.  The law-run tests count builds on a full law run,
and run every law twice over equal but distinct catalogs, so the second
run's hits carry the first run's modules; a dense pair's Hom space is built
once for both stable Homs, and a tensor space, read off a Hom space, once
for equal modules, so a lost hit path fails here instead of only slowing
the benchmark.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from algebras import BUILDERS, a2_algebra, square_algebra
from stabhom import homology
from stabhom.algebra import (
    LEFT,
    RIGHT,
    ModuleMap,
    Representation,
    indec_projective,
    simple,
    standard_probes,
)
from stabhom.cli.laws import LAWS, build_context, run_laws
from stabhom.cli.randmod import random_catalog
from stabhom.exactla import Matrix
from stabhom.fpfun import present_overline_cov, present_underline_contra
from stabhom.homology import (
    HOM_MEMO_BUDGET,
    MEMO_CAPACITY,
    cover_map,
    envelope_map,
    hom_basis,
    injective_envelope,
    projective_cover,
    star_dual,
    tensor,
)
from stabhom.stable import MODULO_INJECTIVES, MODULO_PROJECTIVES, stable_hom

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"

KINDS = ("cover", "envelope", "star", "hom")


def _copy(m: Representation) -> Representation:
    """An equal module that is a different object."""
    return Representation(m.algebra, m.side, m.dims, m.arrow_maps)


def _same_map(f: ModuleMap, g: ModuleMap) -> bool:
    return (
        _same_module(f.domain, g.domain)
        and _same_module(f.codomain, g.codomain)
        and all(_same_matrix(f.vertex_maps[v], g.vertex_maps[v]) for v in f.vertex_maps)
    )


def _same_matrix(x: Matrix, y: Matrix) -> bool:
    return _same_array(x.data, y.data)


def _same_array(x, y) -> bool:
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == object:
        return x.tolist() == y.tolist()
    return x.tobytes() == y.tobytes()


def _same_module(a: Representation, b: Representation) -> bool:
    return (
        a.algebra is b.algebra
        and a.side == b.side
        and a.dim_vector() == b.dim_vector()
        and all(_same_matrix(a.arrow_maps[n], b.arrow_maps[n]) for n in a.arrow_maps)
    )


def _same_sequence(s, t) -> bool:
    return (
        all(_same_module(x, y) for x, y in zip(
            (s.left, s.middle, s.right), (t.left, t.middle, t.right)))
        and _same_map(s.inclusion, t.inclusion)
        and _same_map(s.surjection, t.surjection)
    )


def _same_cover_map(c, d) -> bool:
    return (
        _same_map(c.map, d.map)
        and c.summands == d.summands
        and len(c.parts) == len(d.parts)
        and all(
            v == u and x is y and maps.keys() == others.keys()
            and all(_same_array(maps[w], others[w]) for w in maps)
            for (v, x, maps), (u, y, others) in zip(c.parts, d.parts)
        )
    )


def _fresh_projective_cover(m):
    return homology._build_projective_cover(homology._build_cover_map(m))


def _fresh_injective_envelope(m):
    return homology._build_injective_envelope(homology._build_envelope_map(m))


def _same_star_dual(s, t) -> bool:
    return _same_module(s.module, t.module) and all(
        _same_matrix(s.hom[v].stack, t.hom[v].stack) for v in s.hom
    )


def _modules(alg, side):
    return standard_probes(alg, side) + random_catalog(alg, side, 4, 2, random.Random(3))[0]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_memo_hits_equal_the_direct_build_bit_for_bit(name):
    alg = BUILDERS[name]()  # a fresh algebra, so the memo starts empty
    for side in (LEFT, RIGHT):
        for m in _modules(alg, side):
            for get, build, same in (
                (cover_map, homology._build_cover_map, _same_cover_map),
                (envelope_map, homology._build_envelope_map, _same_cover_map),
                (projective_cover, _fresh_projective_cover, _same_sequence),
                (injective_envelope, _fresh_injective_envelope, _same_sequence),
                (star_dual, homology._build_star_dual, _same_star_dual),
            ):
                direct = build(m)  # built here, not read from the memo
                assert same(get(m), direct)  # a miss, or a hit from an equal probe
                assert same(get(_copy(m)), direct)  # a hit for an equal copy


def _count_builds(monkeypatch, attr):
    counter = {"builds": 0}
    orig = getattr(homology, attr)

    def counted(m):
        counter["builds"] += 1
        return orig(m)

    monkeypatch.setattr(homology, attr, counted)
    return counter


@pytest.mark.parametrize(
    "get, attr",
    [
        (projective_cover, "_build_projective_cover"),
        (injective_envelope, "_build_injective_envelope"),
        (star_dual, "_build_star_dual"),
    ],
)
def test_equal_modules_share_one_build(monkeypatch, get, attr):
    alg = square_algebra()
    m = random_catalog(alg, LEFT, 1, 2, random.Random(5))[0][0]
    twin = _copy(m)
    assert twin is not m and twin == m
    counter = _count_builds(monkeypatch, attr)
    first = get(m)
    get(twin)
    assert counter["builds"] == 1
    assert get(m) is first  # the stored result itself when the caller is its module


def test_a_hit_for_an_equal_copy_is_the_stored_result():
    alg = square_algebra()
    m = random_catalog(alg, RIGHT, 1, 2, random.Random(6))[0][0]
    stored_cov, stored_env = projective_cover(m), injective_envelope(m)
    twin = _copy(m)
    assert twin is not m and twin == m
    assert projective_cover(twin) is stored_cov
    assert injective_envelope(twin) is stored_env
    assert stored_cov.right is m and stored_env.left is m  # the module seen first
    assert present_underline_contra(twin).presentation is cover_map(m).map
    assert present_overline_cov(twin).presentation is envelope_map(m).map


def test_two_algebras_never_share_entries(monkeypatch):
    one, two = a2_algebra(), a2_algebra()
    counter = _count_builds(monkeypatch, "_build_projective_cover")
    c1 = projective_cover(simple(one, "1"))
    c2 = projective_cover(simple(two, "1"))
    assert counter["builds"] == 2
    assert c1.middle.algebra is one and c2.middle.algebra is two
    assert ("memo", "cover") in one._cache and ("memo", "cover") in two._cache
    assert one._cache[("memo", "cover")] is not two._cache[("memo", "cover")]


def test_memo_drops_the_least_recently_used_past_its_capacity(monkeypatch):
    alg = a2_algebra()
    mods = [
        Representation(alg, LEFT, {"1": 1, "2": 1}, {"a": Matrix.from_rows(alg.field, [[c]])})
        for c in range(5)
    ] + [Representation(alg, LEFT, {"1": n, "2": 0}, {}) for n in range(MEMO_CAPACITY)]
    counter = _count_builds(monkeypatch, "_build_projective_cover")
    for m in mods:
        projective_cover(m)
    assert counter["builds"] == len(mods) == MEMO_CAPACITY + 5
    assert len(alg._cache[("memo", "cover")]) == MEMO_CAPACITY
    projective_cover(_copy(mods[-1]))  # still held
    assert counter["builds"] == len(mods)
    projective_cover(_copy(mods[0]))  # dropped first, so built again
    assert counter["builds"] == len(mods) + 1


def test_modules_are_read_only(square):
    m = indec_projective(square, "1", LEFT)
    with pytest.raises(TypeError):
        m.dims["1"] = 5
    with pytest.raises(TypeError):
        m.arrow_maps["a"] = Matrix.identity(square.field, 1)
    with pytest.raises(TypeError):
        del m.dims["1"]
    with pytest.raises(ValueError):
        m.arrow_maps["a"].data[...] = 0


def _perfbench_module(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _perfbench_module(TRACER)


def _workloads():
    return _perfbench_module(WORKLOADS)


def test_a_full_law_run_builds_each_cover_once(monkeypatch):
    alg = square_algebra()  # a fresh algebra: no entries from other tests
    ctx = build_context(alg, 1, 2, 2)
    counter = _count_builds(monkeypatch, "_build_projective_cover")
    with _tracer_module().Tracer() as tracer:
        results = run_laws(ctx)
    assert len(results) == len(LAWS) == 21
    assert all(r.failures == 0 for r in results)
    memos = {key[1]: memo for key, memo in alg._cache.items() if key[0] == "memo"}
    assert set(memos) == set(KINDS)
    assert all(len(memo) <= MEMO_CAPACITY for memo in memos.values())
    received = tracer.stats["homology.projective_cover"]
    assert received.calls > len(received.keys)  # the run repeats values
    assert counter["builds"] == len(received.keys)


@pytest.mark.parametrize("name", ["nakayama", "square"])
def test_every_law_holds_when_hits_carry_the_first_runs_modules(name):
    alg = BUILDERS[name]()  # one algebra for both runs
    first_ctx = build_context(alg, 1, 2, 2)
    first = run_laws(first_ctx)
    ctx = build_context(alg, 1, 2, 2)  # the same seed: equal modules, new objects
    pairs = list(zip(first_ctx.catalog(), ctx.catalog()))
    assert all(m is not n and m == n for (_, _, m), (_, _, n) in pairs)
    second = run_laws(ctx)
    assert len(second) == len(LAWS) == 21
    assert all(r.failures == 0 for r in first + second)
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
    # the stored covers of the second catalog still end at the first's modules
    assert any(cover_map(n).map.codomain is m for (_, _, m), (_, _, n) in pairs)


# -- Hom spaces ---------------------------------------------------------------


def _same_hom(h, g) -> bool:
    return (
        _same_matrix(h.stack, g.stack)
        and h.free == g.free
        and h.offsets == g.offsets
        and _same_module(h.domain, g.domain)
        and _same_module(h.codomain, g.codomain)
    )


def _count_hom_builds(monkeypatch):
    built = []
    orig = homology._build_hom

    def counted(a, b):
        built.append((a.key, b.key))
        return orig(a, b)

    monkeypatch.setattr(homology, "_build_hom", counted)
    return built


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_hom_hits_equal_the_direct_build_bit_for_bit(name):
    alg = BUILDERS[name]()  # a fresh algebra, so the memo starts empty
    for side in (LEFT, RIGHT):
        mods = _modules(alg, side)
        for a in mods:
            for b in mods:
                direct = homology._build_hom(a, b)
                assert _same_hom(hom_basis(a, b), direct)  # a miss, or a hit
                hit = hom_basis(_copy(a), _copy(b))
                assert _same_hom(hit, direct)
                assert hit.basis_maps() == direct.basis_maps()


def test_a_hom_hit_for_equal_copies_is_the_stored_space(monkeypatch):
    alg = square_algebra()
    a, b = random_catalog(alg, LEFT, 2, 2, random.Random(7))[0]
    built = _count_hom_builds(monkeypatch)
    stored = hom_basis(a, b)
    assert hom_basis(a, b) is stored
    assert hom_basis(_copy(a), _copy(b)) is stored
    assert len(built) == 1
    assert stored.domain is a and stored.codomain is b  # the modules seen first


def _entries(hom) -> int:
    return hom.stack.rows * hom.stack.cols


def _points(alg, n):
    """n copies of S(1) over a2: Hom between n and m copies is all n x m
    matrices, a stack of (nm)^2 entries."""
    return Representation(alg, LEFT, {"1": n, "2": 0}, {})


def test_a_hom_stack_over_the_whole_budget_is_returned_but_not_stored(monkeypatch):
    alg = a2_algebra()
    big, small = _points(alg, 17), simple(alg, "1")
    built = _count_hom_builds(monkeypatch)
    hom_basis(small, small)
    hom = hom_basis(big, big)
    assert _entries(hom) == 289 ** 2 > HOM_MEMO_BUDGET
    assert hom.dim == 289
    assert hom_basis(_copy(big), big).stack == hom.stack
    assert len(built) == 3  # built again: nothing was stored
    memo = alg._cache[("memo", "hom")]
    assert list(memo) == [(small.key, small.key)]  # and nothing was evicted for it
    assert memo.held == 1
    hom_basis(_copy(small), small)
    assert len(built) == 3


def test_the_hom_memo_evicts_the_least_recently_used_past_its_budget(monkeypatch):
    alg = a2_algebra()
    one, two, three = (_points(alg, n) for n in (1, 2, 3))
    x, y, z = (three, three), (one, three), (two, two)  # 81, 9 and 16 entries
    monkeypatch.setattr(homology, "HOM_MEMO_BUDGET", 100)
    built = _count_hom_builds(monkeypatch)
    kx, ky, kz = ((p.key, q.key) for p, q in (x, y, z))
    hom_basis(*x)
    hom_basis(*y)
    memo = alg._cache[("memo", "hom")]
    assert memo.held == 90
    hom_basis(_copy(x[0]), x[1])  # a hit: x is now the most recently used
    assert len(built) == 2
    hom_basis(*z)  # 106 entries: y goes first, though x was stored before it
    assert list(memo) == [kx, kz]
    assert memo.held == 97
    hom_basis(*x)  # still held
    hom_basis(*y)  # built again; z is now the least recently used
    assert built == [kx, ky, kz, ky]
    assert list(memo) == [kx, ky]
    assert memo.held == 90 == sum(_entries(h) for h in memo.values())


def test_both_stable_homs_of_a_dense_pair_solve_hom_once(monkeypatch):
    conjugated_sum = _workloads().conjugated_sum
    alg = square_algebra()  # a fresh algebra, so the memo starts empty
    rng = random.Random(1)
    library = random_catalog(alg, LEFT, 8, 2, random.Random(22))[0]
    a, _ = conjugated_sum(alg, LEFT, (5, 5, 5, 5), library, rng)
    b, _ = conjugated_sum(alg, LEFT, (5, 5, 5, 5), library, rng)
    built = _count_hom_builds(monkeypatch)
    hom = hom_basis(a, b)
    assert _entries(hom) > 1024  # dense, like big_fp's pairs
    for flavor in (MODULO_PROJECTIVES, MODULO_INJECTIVES):
        assert stable_hom(a, b, flavor).hom.stack is hom.stack
    assert built.count((a.key, b.key)) == 1


def test_a_tensor_space_built_twice_for_equal_modules_solves_one_system(monkeypatch):
    alg = square_algebra()  # a fresh algebra, so the memo starts empty
    a = random_catalog(alg, RIGHT, 1, 2, random.Random(11))[0][0]
    b = random_catalog(alg, LEFT, 1, 2, random.Random(12))[0][0]
    solved = []
    real = homology.kron_kernel

    def kernel(*args):
        solved.append(args)
        return real(*args)

    monkeypatch.setattr(homology, "kron_kernel", kernel)
    first = tensor(a, b)
    second = tensor(_copy(a), _copy(b))
    assert len(solved) == 1
    assert first.dim and second.quotient.projection is first.quotient.projection


def test_two_algebras_never_share_hom_entries(monkeypatch):
    one, two = a2_algebra(), a2_algebra()
    built = _count_hom_builds(monkeypatch)
    h1 = hom_basis(simple(one, "1"), indec_projective(one, "1", LEFT))
    h2 = hom_basis(simple(two, "1"), indec_projective(two, "1", LEFT))
    assert len(built) == 2
    assert h1.domain.algebra is one and h2.domain.algebra is two
    assert one._cache[("memo", "hom")] is not two._cache[("memo", "hom")]


def test_a_full_law_run_builds_each_hom_space_once_while_it_is_held(monkeypatch):
    alg = square_algebra()  # a fresh algebra: no entries from other tests
    ctx = build_context(alg, 1, 2, 2)
    built = []
    orig = homology._build_hom

    def counted(a, b):
        key = (a.key, b.key)
        assert key not in alg._cache.get(("memo", "hom"), {})  # a held value is a hit
        built.append(key)
        return orig(a, b)

    monkeypatch.setattr(homology, "_build_hom", counted)
    with _tracer_module().Tracer() as tracer:
        results = run_laws(ctx)
    assert all(r.failures == 0 for r in results)
    memo = alg._cache[("memo", "hom")]
    assert 0 < len(memo) <= MEMO_CAPACITY
    assert memo.held == sum(_entries(h) for h in memo.values()) <= HOM_MEMO_BUDGET
    received = tracer.stats["homology.hom_basis"]
    assert received.calls > len(built)  # the run's repeats were answered from the memo
