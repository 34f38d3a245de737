"""The answer checks: right answers pass, wrong ones are counted as failed,
and a hang becomes a counted failure."""
import os
import random
import time

import pytest

import run
import workloads
from stabhom.algebra import LEFT, RIGHT, simple
from stabhom.cli import laws
from stabhom.cli.serialize import load_algebra
from stabhom.homology import star_dual


@pytest.fixture(scope="module")
def a2():
    return load_algebra(workloads.input_path("a2_q.json"))


def plan_of(queries):
    return workloads.Plan(len(queries), lambda r, j: queries[j])


def test_wrong_expected_answer_makes_failed_fraction_nonzero(a2):
    rng = random.Random(5)
    oracle = workloads.AdditiveOracle()
    lib = workloads.random_library(a2, LEFT, 2, rng)
    (a, parts_a), (b, parts_b) = (
        workloads.conjugated_sum(a2, LEFT, (2, 2), lib, rng) for _ in range(2)
    )
    want = oracle.expected("stable_i", parts_a, parts_b)
    right = workloads.Query("right", lambda: workloads.big_answer("stable_i", a, b), lambda got: got == want)
    wrong = workloads.Query("wrong", lambda: workloads.big_answer("stable_i", a, b), lambda got: got == want + 1)
    records = run.timed_phase(plan_of([right, wrong]), count=4)
    assert run.check_all(records) == 2
    assert run.check_all(records[::2]) == 0


def test_big_answers_match_the_additive_oracle(a2):
    rng = random.Random(7)
    oracle = workloads.AdditiveOracle()
    lib = {side: workloads.random_library(a2, side, 2, rng) for side in (LEFT, RIGHT)}
    lefts = [workloads.conjugated_sum(a2, LEFT, (3, 2), lib[LEFT], rng) for _ in range(2)]
    (r, parts_r) = workloads.conjugated_sum(a2, RIGHT, (2, 3), lib[RIGHT], rng)
    for kind in workloads.BIG_KINDS:
        (a, parts_a) = (r, parts_r) if kind == "substab" else lefts[0]
        (b, parts_b) = lefts[1]
        assert a.dim_vector() == ((2, 3) if kind == "substab" else (3, 2))
        assert workloads.big_answer(kind, a, b) == oracle.expected(kind, parts_a, parts_b)


def test_law_checks_reject_failures_and_wrong_skips(a2):
    ctx = laws.build_context(a2, 1, 2, 2)
    info = {"hereditary": True, "self_injective": False}
    res = laws.run_laws(ctx, ["projective-representable"])[0]
    assert workloads.law_result_ok(res, False, ctx)
    res.failures = 1
    assert not workloads.law_result_ok(res, False, ctx)
    skipped = laws.run_laws(ctx, ["quasi-frobenius"])[0]
    assert workloads.expected_skip("quasi-frobenius", info)
    assert workloads.law_result_ok(skipped, True, ctx)
    assert not workloads.law_result_ok(skipped, False, ctx)
    # zero checks pass only where the law's precondition excludes every module
    empty = laws.LawResult("tensor-unit", "")
    assert not workloads.law_result_ok(empty, False, ctx)
    vacuous = laws.LawResult("torsion-kills-injectives", "")
    zero_star = simple(a2, "2", RIGHT)
    assert star_dual(zero_star).module.total_dim == 0
    ctx.right_modules = [zero_star]  # the law has a module to check here
    assert not workloads.law_result_ok(vacuous, False, ctx)
    ctx.right_modules = [simple(a2, "1", RIGHT)]  # projective: nonzero star dual
    assert workloads.law_result_ok(vacuous, False, ctx)


def test_cli_checks():
    info = {"dimension": 4, "hereditary": False, "self_injective": True}
    ok_info = {"command": "info", "dimension": 4, "hereditary": False, "self_injective": True}
    assert workloads.check_cli("info", 0, ok_info, info)
    assert not workloads.check_cli("info", 0, dict(ok_info, dimension=5), info)
    assert not workloads.check_cli("info", 2, ok_info, info)
    hom = {
        "command": "stablehom",
        "hom": 3,
        "modulo_projectives": {"factoring": 1, "stable": 2},
        "modulo_injectives": {"factoring": 3, "stable": 0},
    }
    assert workloads.check_cli("stablehom", 0, hom, info)
    assert not workloads.check_cli("stablehom", 0, dict(hom, hom=4), info)
    tensor = {"command": "tensor", "tensor": 2, "substab": 1, "ext_of_transpose": 1}
    assert workloads.check_cli("tensor", 0, tensor, info)
    assert not workloads.check_cli("tensor", 0, dict(tensor, substab=0), info)
    cert = {"exact": True, "valid": True}
    inv = {"command": "invariants", "certificates": {"a": cert, "b": cert}}
    assert workloads.check_cli("invariants", 0, inv, info)
    inv["certificates"]["b"] = dict(cert, valid=False)
    assert not workloads.check_cli("invariants", 0, inv, info)


def test_cli_docs_queries_run_and_check():
    plan = workloads.setup_cli_docs(3)
    small = [k for k, (alg, _) in enumerate(workloads.CLI_ROUND) if alg == "nakayama3_f2"]
    records = run.timed_phase(workloads.Plan(len(small), lambda r, j: plan.query(small[j])), count=len(small))
    assert {q.label.split("@")[0] for q, *_ in records} == {"info", "invariants", "stablehom", "tensor"}
    assert run.check_all(records) == 0


def test_a_hang_is_a_counted_failure(monkeypatch):
    monkeypatch.setattr(run, "QUERY_CEILING_S", 0.2)
    hang = workloads.Query("hang", lambda: time.sleep(5), lambda ans: True)
    t0 = time.perf_counter()
    records = run.timed_phase(plan_of([hang]), count=1)
    assert time.perf_counter() - t0 < 2
    assert "ceiling" in records[0][3]
    assert run.check_all(records) == 1


def test_tail_percentile_keeps_ten_samples_above():
    durations = [float(i) for i in range(1, 101)]
    assert run.tail(durations) == (90.0, 90, 10)
    value, pct, above = run.tail(durations[:37])
    assert above >= 10 and value == sorted(durations[:37])[37 - above - 1]


def test_refuses_to_run_without_the_source_tree(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(workloads.HERE, "no-such-src"))
    assert run.main(["--workload", "big_q", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
