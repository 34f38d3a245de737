"""The per-algebra memo of projective covers, injective envelopes and star
duals.

A memo hit must give what a fresh build gives, bit for bit, rebound to the
caller's module; equal modules share one build, algebras share nothing, and
each memo stays within its capacity.  The last test counts builds on a full
law run, so a lost hit path fails here instead of only slowing the
benchmark.
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
from stabhom.homology import (
    MEMO_CAPACITY,
    injective_envelope,
    projective_cover,
    star_dual,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

KINDS = ("cover", "envelope", "star")


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
    if x.data.dtype != y.data.dtype or x.shape != y.shape:
        return False
    if x.data.dtype == object:
        return x.data.tolist() == y.data.tolist()
    return x.data.tobytes() == y.data.tobytes()


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
                (projective_cover, homology._build_projective_cover, _same_sequence),
                (injective_envelope, homology._build_injective_envelope, _same_sequence),
                (star_dual, homology._build_star_dual, _same_star_dual),
            ):
                direct = build(m)
                assert same(get(m), direct)  # a miss, or a hit from an equal probe
                assert same(get(_copy(m)), direct)  # a hit, rebound


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


def test_results_are_rebound_to_the_callers_module():
    alg = square_algebra()
    m = random_catalog(alg, RIGHT, 1, 2, random.Random(6))[0][0]
    stored_cov, stored_env = projective_cover(m), injective_envelope(m)
    twin = _copy(m)
    cov = projective_cover(twin)
    assert cov.right is twin and cov.surjection.codomain is twin
    assert cov.middle is stored_cov.middle
    env = injective_envelope(twin)
    assert env.left is twin and env.inclusion.domain is twin
    assert env.middle is stored_env.middle
    for v in m.vertices:  # the same matrices, not copies
        assert cov.surjection.vertex_maps[v] is stored_cov.surjection.vertex_maps[v]
        assert env.inclusion.vertex_maps[v] is stored_env.inclusion.vertex_maps[v]


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


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
