"""The tracer: hand counts on A2, span nesting, and loud failure when a
traced name disappears."""
import pytest

import stabhom
import tracer as tracing
from stabhom import algebra, exactla, homology, stable
from stabhom.algebra import LEFT, Representation, indec_projective, simple
from stabhom.cli import laws
from stabhom.cli.serialize import load_algebra
from workloads import input_path


@pytest.fixture
def a2():
    return load_algebra(input_path("a2_q.json"))


def stat(tr, name):
    return tr.stats.get(name) or tracing.Stat()


def test_every_target_is_bound_and_restored():
    originals = {name: getattr(homology, name) for name in ("hom_basis", "projective_cover")}
    tr = tracing.Tracer()
    with tr:
        assert all(count >= 1 for count in tr.bindings.values())
        assert {home for home, _ in tr.bindings} >= {
            "stabhom.exactla", "stabhom.algebra", "stabhom.homology", "stabhom.stable",
            "stabhom.fpfun", "stabhom.cli.randmod", "stabhom.cli.serialize", "stabhom.cli.laws",
        }
        assert len([k for k in tr.bindings if k[1].startswith("LAWS[")]) == len(laws.LAWS)
        # the importers' copies are the same wrapper as the home binding
        assert stable.hom_basis is homology.hom_basis is stabhom.hom_basis
        assert homology.hom_basis is not originals["hom_basis"]
        assert homology.hom_basis.__wrapped_by_tracer__
    for name, fn in originals.items():
        assert getattr(homology, name) is fn
        assert getattr(stable, name) is fn
    assert not hasattr(laws.LAWS["tensor-unit"], "__wrapped_by_tracer__")


def test_missing_target_fails_loudly_and_unpatches(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("homology.gone", "stabhom.homology", "renamed_away"),),
    )
    original = homology.hom_basis
    with pytest.raises(tracing.TargetMissing):
        tracing.Tracer().install()
    assert homology.hom_basis is original
    assert stable.hom_basis is original


def test_cover_distinct_ratio_on_a2(a2):
    s2 = simple(a2, "2")
    s2_copy = Representation(a2, LEFT, {"2": 1}, {})  # equal value, new object
    tr = tracing.Tracer()
    with tr:
        for m in (s2, s2, s2_copy):
            homology.projective_cover(m)
    m = tracing.layer_metrics(tr, sorted(laws.LAWS))
    assert m["homology.projective_cover.calls"][0] == 3
    assert m["homology.projective_cover.distinct_ratio"][0] == pytest.approx(1 / 3)
    assert m["homology.injective_envelope.calls"][0] == 0
    assert m["homology.injective_envelope.distinct_ratio"][0] == 0


def test_hand_counts_on_a2(a2):
    s1 = simple(a2, "1")
    p1 = indec_projective(a2, "1")
    field = a2.field
    tr = tracing.Tracer()
    with tr:
        # Hom(S1, P1): dims (1,0) and (1,1) give a 1x1 system for the one
        # arrow, so one kernel_basis and one rref of 1 entry.
        homology.hom_basis(s1, p1)
        # one rref of the 2x3 spanning rows
        exactla.Subspace(field, 3, exactla.Matrix.from_rows(field, [[1, 2, 0], [2, 4, 0]]))
        # one rref of the 2x3 augmented matrix [I | b]
        exactla.solve_matrix(
            exactla.Matrix.identity(field, 2), exactla.Matrix.from_rows(field, [[1], [0]])
        )
        algebra.direct_sum([s1, s1])  # builds one (trusted) Representation
    m = tracing.layer_metrics(tr, sorted(laws.LAWS))
    assert m["homology.hom_basis.calls"][0] == 1
    assert m["homology.hom_basis.max_cols"][0] == 1
    assert m["exactla.kernel_basis.calls"][0] == 1
    assert m["exactla.subspace.calls"][0] == 1
    assert m["exactla.solve_matrix.calls"][0] == 1
    assert m["exactla.rref.calls"][0] == 3
    assert m["exactla.rref.entries"][0] == 1 * 1 + 2 * 3 + 2 * 3
    assert m["exactla.rref.max_cols"][0] == 3
    assert m["algebra.direct_sum.calls"][0] == 1
    assert m["algebra.representation.calls"][0] == 1
    # hom_basis's self time excludes its kernel_basis child
    hb, kb = stat(tr, "homology.hom_basis"), stat(tr, "exactla.kernel_basis")
    assert 0 <= hb.self_s <= hb.incl - kb.incl + 1e-9


def test_spans_nest_and_share_query_ids(a2):
    ctx = laws.build_context(a2, 3, 1, 2)
    tr = tracing.Tracer()
    with tr:
        for qid, law in enumerate(("projective-representable", "tensor-ext", "presentation-vs-direct")):
            tr.query_id = qid
            tr.span(tracing.QUERY_SPAN, laws.run_laws, ctx, [law])
    spans = tr.spans()
    assert len(spans) > 50
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == [tracing.QUERY_SPAN] * 3
    for i, (name, start, end, parent, qid) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            pname, pstart, pend, _, pq = spans[parent]
            assert parent < i
            assert pstart <= start and end <= pend
            assert pq == qid
    law_spans = [s for s in spans if s[0].startswith(tracing.LAW_PREFIX)]
    assert [s[0] for s in law_spans] == [
        "cli.laws.projective-representable", "cli.laws.tensor-ext", "cli.laws.presentation-vs-direct",
    ]
    assert all(spans[s[3]][0] == tracing.QUERY_SPAN for s in law_spans)


def test_result_line_carries_exactly_the_listed_per_layer_metrics():
    import json
    import os

    import workloads

    with open(os.path.join(os.path.dirname(workloads.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    names = list(tracing.layer_metrics(tracing.Tracer(), sorted(laws.LAWS))) + ["trace.overhead"]
    assert [n for n in names if not tracing.printed_only(n)] == listed
