import json
import random
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from algebras import (
    a2_algebra,
    loop2_algebra,
    square_algebra,
)
from stabhom.algebra import (
    LEFT,
    RIGHT,
    AlgebraTooLarge,
    ModuleMap,
    SubRep,
    indec_projective,
    radical_subspaces,
    simple,
    socle_subspaces,
)
from stabhom import homology
from stabhom import stable as stable_mod
from stabhom.cli import laws as laws_mod
from stabhom.cli import main as main_mod
from stabhom.cli.laws import LawResult, UnknownLaw, build_context, run_laws
from stabhom.cli.main import main
from stabhom.cli.randmod import random_catalog, random_module
from stabhom.cli.serialize import (
    ParseError,
    algebra_from_dict,
    algebra_to_dict,
    functor_from_dict,
    functor_to_dict,
    load_algebra,
    load_module,
    map_from_dict,
    map_to_dict,
    module_from_dict,
    module_to_dict,
)
from stabhom.exactla import Field, Matrix, Subspace
from stabhom.fpfun import COVARIANT, present_tensor
from stabhom.homology import projective_cover


A2_DOC = {
    "field": {"kind": "prime", "p": 5},
    "quiver": {
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    },
    "relations": [],
    "nilpotency_bound": 4,
}

LOOP2_DOC = {
    "field": {"kind": "prime", "p": 2},
    "quiver": {
        "vertices": ["v"],
        "arrows": [{"name": "x", "from": "v", "to": "v"}],
    },
    "relations": [{"terms": [{"coeff": "1", "path": ["x", "x"]}]}],
    "nilpotency_bound": 6,
}


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_DOC))
    return str(path)


@pytest.fixture()
def loop2_file(tmp_path):
    path = tmp_path / "loop2.json"
    path.write_text(json.dumps(LOOP2_DOC))
    return str(path)


def _module_file(tmp_path, algebra_file, rep, name):
    doc = module_to_dict(rep, algebra_ref=algebra_file)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv + ["--format", "json"])
    return code, (json.loads(out) if out.strip() else None)


# -- serialization round-trips -----------------------------------------------------


def test_algebra_round_trip():
    alg = square_algebra()
    doc = algebra_to_dict(alg)
    back = algebra_from_dict(doc)
    assert back.dim == alg.dim
    assert back.field == alg.field
    assert [a.name for a in back.quiver.arrows] == [
        a.name for a in alg.quiver.arrows
    ]
    assert len(back.relations) == len(alg.relations)


def test_module_round_trip_prime_field():
    alg = square_algebra()
    rng = random.Random(3)
    m = random_module(alg, LEFT, 3, rng)[0]
    doc = module_to_dict(m)
    back = module_from_dict(doc, algebra=alg)
    assert back == m


def test_module_round_trip_rational_field():
    alg = loop2_algebra(Field.rational())
    rng = random.Random(5)
    m = random_module(alg, RIGHT, 3, rng)[0]
    doc = module_to_dict(m)
    text = json.dumps(doc)  # fractions must serialize as strings
    back = module_from_dict(json.loads(text), algebra=alg)
    assert back == m


def test_module_file_resolves_algebra_by_path(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    s1 = simple(alg, "1")
    mod_file = _module_file(tmp_path, "a2.json", s1, "s1.json")
    code, report = _run_json(capsys, ["invariants", a2_file, mod_file])
    assert code == 0
    assert report["torsion"] == [1, 0]


def test_module_with_unknown_vertex_rejected():
    alg = a2_algebra()
    doc = {
        "algebra": "a2.json",
        "side": "left",
        "dims": {"1": 1, "7": 1},
        "arrows": {},
    }
    with pytest.raises(ParseError, match="dims: unknown key '7'"):
        module_from_dict(doc, algebra=alg)


def test_module_with_unknown_arrow_rejected():
    alg = a2_algebra()
    doc = {
        "algebra": "a2.json",
        "side": "left",
        "dims": {"1": 1, "2": 1},
        "arrows": {"zz": ["1"]},
    }
    with pytest.raises(ParseError, match="arrows: unknown key 'zz'"):
        module_from_dict(doc, algebra=alg)


@pytest.mark.parametrize("field", ["dims", "arrows"])
def test_module_fields_must_be_objects(field):
    # a list is a parse error, not an empty mapping or a crash
    doc = module_to_dict(indec_projective(a2_algebra(), "1"))
    doc[field] = list(doc[field].values())
    with pytest.raises(ParseError, match=f"{field}: expected an object"):
        module_from_dict(doc, algebra=a2_algebra())


def test_map_round_trip():
    alg = a2_algebra()
    cov = projective_cover(simple(alg, "1"))
    doc = map_to_dict(cov.surjection)
    back = map_from_dict(doc, algebra=alg)
    assert back == cov.surjection


def test_map_missing_vertex_means_zero():
    alg = a2_algebra()
    s1 = simple(alg, "1")
    z = ModuleMap.zero(s1, s1)
    doc = map_to_dict(z)
    doc["maps"] = {}
    back = map_from_dict(doc, algebra=alg)
    assert back == z


def test_functor_round_trip():
    alg = a2_algebra()
    func = present_tensor(simple(alg, "2", RIGHT))
    doc = functor_to_dict(func)
    back = functor_from_dict(doc, algebra=alg)
    assert back.variance == func.variance
    assert back.presentation == func.presentation


def test_parse_error_on_malformed_document():
    with pytest.raises(ParseError):
        algebra_from_dict({"field": {"kind": "prime", "p": 5}})


def _functor_doc():
    alg = a2_algebra()
    return functor_to_dict(present_tensor(simple(alg, "2", RIGHT)))


@pytest.mark.parametrize(
    "load, make_doc, bad_key",
    [
        (algebra_from_dict, lambda: dict(A2_DOC), "nilpotency_bnd"),
        (
            lambda doc: module_from_dict(doc, algebra=a2_algebra()),
            lambda: module_to_dict(simple(a2_algebra(), "1")),
            "arrow_maps",
        ),
        (
            lambda doc: map_from_dict(doc, algebra=a2_algebra()),
            lambda: _functor_doc()["presentation"],
            "map",
        ),
        (lambda doc: functor_from_dict(doc, algebra=a2_algebra()), _functor_doc, "variant"),
    ],
    ids=["algebra", "module", "map", "functor"],
)
def test_unknown_top_level_key_rejected(load, make_doc, bad_key):
    doc = make_doc()
    load(doc)  # the document as written loads
    doc[bad_key] = doc.get(bad_key, {})
    with pytest.raises(ParseError, match=f"unknown key '{bad_key}'"):
        load(doc)


def test_map_with_unknown_vertex_rejected():
    alg = a2_algebra()
    s1 = simple(alg, "1")
    doc = map_to_dict(ModuleMap.identity(s1))
    doc["maps"]["7"] = []
    with pytest.raises(ParseError, match="unknown key '7'"):
        map_from_dict(doc, algebra=alg)


def test_readme_module_document_exits_0_and_misspelled_key_exits_2(
    tmp_path, a2_file, capsys
):
    doc = {"algebra": "a2.json", "side": "left", "dims": {"1": 1, "2": 1}}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(doc, arrows={"a": ["1"]})))
    code, report = _run_json(capsys, ["invariants", a2_file, str(good)])
    assert code == 0
    # a = 1 gives the projective P(1), which has no torsion; dropping the
    # map would give S(1) + S(2), whose torsion is S(1)
    assert report["torsion"] == [0, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, arrow_maps={"a": ["1"]})))
    code, _ = _run(capsys, ["invariants", a2_file, str(bad)])
    assert code == 2


def test_a_module_document_loads_its_algebra_by_a_path_relative_to_itself(tmp_path, a2_file):
    # README's module document: "algebra": "a2.json", loaded with no algebra given
    doc = {"algebra": "a2.json", "side": "left", "dims": {"1": 1, "2": 1}, "arrows": {"a": ["1"]}}
    (tmp_path / "p1.json").write_text(json.dumps(doc))
    (tmp_path / "mods").mkdir()
    (tmp_path / "mods" / "p1.json").write_text(json.dumps(dict(doc, algebra="../a2.json")))
    want = algebra_to_dict(load_algebra(a2_file))
    for path in (tmp_path / "p1.json", tmp_path / "mods" / "p1.json"):
        m = load_module(str(path))
        assert algebra_to_dict(m.algebra) == want
        assert m.side == LEFT and m.dim_vector() == (1, 1)
        assert m == indec_projective(m.algebra, "1", LEFT)
    for ref in ("missing.json", 7):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, algebra=ref)))
        with pytest.raises(ParseError):
            load_module(str(bad))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_tour_gives_the_values_its_comments_state():
    tour = README.read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(code, ns)
    # the comment of each expression line (no assignment), by its expression
    said = {}
    for line in code.splitlines():
        expr, _, comment = (part.strip() for part in line.partition("#"))
        if expr and comment and "=" not in expr:
            said[expr] = comment
    torsion = 'bass_torsion(s1).dim_vector()'
    assert said[torsion].startswith("(1, 0)")
    assert eval(torsion, ns) == (1, 0)
    cert = eval('fp_certificate(s1, "covariant_underline")', ns)
    assert cert.sequence.validate() and not any(cert.ext_witness.values())
    substab = 'tensor_substab(sr2, simple(alg, "2")).dim'
    assert said[substab].startswith("1, equals Ext^1(S(1), S(2))")
    assert eval(substab, ns) == 1 == eval('ext1(simple(alg, "1"), simple(alg, "2")).dim', ns)


# -- info / invariants / stablehom / tensor / functor --------------------------------


def test_info_reports_structure(a2_file, capsys):
    code, report = _run_json(capsys, ["info", a2_file])
    assert code == 0
    assert report["dimension"] == 3
    assert report["hereditary"] is True
    assert report["self_injective"] is False
    assert report["projectives"]["1"] == [1, 1]
    assert report["injectives"]["1"] == [1, 0]


def test_info_on_self_injective(loop2_file, capsys):
    code, report = _run_json(capsys, ["info", loop2_file])
    assert code == 0
    assert report["dimension"] == 2
    assert report["self_injective"] is True


def test_invariants_of_torsion_simple(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    mod_file = _module_file(tmp_path, "a2.json", simple(alg, "1"), "s1.json")
    code, report = _run_json(capsys, ["invariants", a2_file, mod_file])
    assert code == 0
    assert report["torsion"] == [1, 0]
    assert report["torsionless_quotient"] == [0, 0]
    assert report["star_dual"] == [0, 0]
    cert = report["certificates"]["covariant_underline"]
    assert cert["valid"] and cert["exact"]
    assert cert["sequence"] == [[1, 0], [1, 0], [0, 0], [0, 0]]


def test_invariants_checks_each_certificate_for_exactness_once(tmp_path, a2_file, capsys, monkeypatch):
    alg = a2_algebra()
    mod_file = _module_file(tmp_path, "a2.json", indec_projective(alg, "1"), "p1.json")
    real, calls = stable_mod.FourTermSequence.validate, []

    def counted(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(stable_mod.FourTermSequence, "validate", counted)
    code, report = _run_json(capsys, ["invariants", a2_file, mod_file])
    assert code == 0
    assert len(calls) == len(report["certificates"]) == 2
    assert all(c["exact"] and c["valid"] for c in report["certificates"].values())


def test_invariants_of_a_projective_certify_it_as_its_own_approximation(tmp_path, a2_file, capsys):
    # Q = P(1)^{dim Hom(P(1), P(1))} + P(2)^{dim Hom(P(1), P(2))} = P(1), so
    # M = 0; into A^2 the sequence read [[0, 0], [1, 1], [1, 2], [0, 1]]
    alg = a2_algebra()
    mod_file = _module_file(tmp_path, "a2.json", indec_projective(alg, "1"), "p1.json")
    code, report = _run_json(capsys, ["invariants", a2_file, mod_file])
    assert code == 0
    cert = report["certificates"]["covariant_underline"]
    assert cert["valid"] and cert["exact"]
    assert cert["sequence"] == [[0, 0], [1, 1], [1, 1], [0, 0]]


def test_invariants_of_right_module(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    s2r = simple(alg, "2", RIGHT)
    mod_file = _module_file(tmp_path, "a2.json", s2r, "s2r.json")
    code, report = _run_json(capsys, ["invariants", a2_file, mod_file])
    assert code == 0
    assert report["side"] == "right"
    assert report["transpose"] == [1, 0]
    assert report["torsion_radical"] == 1


def test_stablehom_of_simple_pair(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    mod_file = _module_file(tmp_path, "a2.json", simple(alg, "1"), "s1.json")
    code, report = _run_json(
        capsys, ["stablehom", a2_file, mod_file, mod_file]
    )
    assert code == 0
    assert report["hom"] == 1
    assert report["modulo_projectives"]["stable"] == 1
    assert report["modulo_injectives"]["factoring"] == 1
    assert report["modulo_injectives"]["stable"] == 0


def test_tensor_worked_example(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    a = _module_file(tmp_path, "a2.json", simple(alg, "2", RIGHT), "a.json")
    b = _module_file(tmp_path, "a2.json", simple(alg, "2", LEFT), "b.json")
    code, report = _run_json(capsys, ["tensor", a2_file, a, b])
    assert code == 0
    assert report["tensor"] == 1
    assert report["substab"] == 1
    assert report["ext_of_transpose"] == 1


def test_tensor_rejects_wrong_sides(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    a = _module_file(tmp_path, "a2.json", simple(alg, "1", LEFT), "a.json")
    b = _module_file(tmp_path, "a2.json", simple(alg, "1", LEFT), "b.json")
    code, _ = _run(capsys, ["tensor", a2_file, a, b])
    assert code == 2


def test_functor_command(tmp_path, a2_file, capsys):
    alg = a2_algebra()
    func = present_tensor(simple(alg, "2", RIGHT))
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(functor_to_dict(func, algebra_ref="a2.json")))
    code, report = _run_json(capsys, ["functor", a2_file, str(path)])
    assert code == 0
    assert report["variance"] == "covariant"
    by_probe = {e["probe"]: e["dim"] for e in report["evaluations"]}
    assert by_probe["S(2)"] == 1
    assert by_probe["S(1)"] == 0


def test_text_format_is_default(a2_file, capsys):
    code, out = _run(capsys, ["info", a2_file])
    assert code == 0
    assert "dimension: 3" in out


def test_out_flag_writes_file(tmp_path, a2_file, capsys):
    target = tmp_path / "report.json"
    code = main(["info", a2_file, "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["dimension"] == 3


@pytest.mark.parametrize(
    "argv",
    [["info"], ["verify", "--laws", "projective-representable", "--count", "1"]],
    ids=["info", "verify"],
)
def test_an_unwritable_out_path_exits_2(tmp_path, a2_file, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    code = main([argv[0], a2_file, *argv[1:], "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {target}: " in err and "Traceback" not in err
    assert not target.exists()


def test_an_unwritable_out_path_prints_no_traceback(tmp_path, a2_file):
    import os
    import subprocess
    import sys

    import stabhom

    src = os.path.dirname(os.path.dirname(os.path.abspath(stabhom.__file__)))
    target = tmp_path / "missing" / "report.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "stabhom.cli.main", "info", a2_file, "--out", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# -- verify -----------------------------------------------------------------------


def test_verify_passes_on_loop(loop2_file, capsys):
    code, report = _run_json(
        capsys,
        ["verify", loop2_file, "--seed", "2", "--count", "6"],
    )
    assert code == 0
    assert report["failures"] == 0
    assert report["checks_run"] > 0
    statuses = {law["name"]: law["status"] for law in report["laws"]}
    assert statuses["torsion-agreement"] == "pass"
    assert statuses["hereditary-split"] == "skip"
    assert statuses["quasi-frobenius"] == "pass"


def test_verify_runs_all_registered_laws(a2_file, capsys):
    code, report = _run_json(
        capsys, ["verify", a2_file, "--seed", "1", "--count", "4"]
    )
    assert code == 0
    names = [law["name"] for law in report["laws"]]
    assert names == sorted(laws_mod.LAWS)
    statuses = {law["name"]: law["status"] for law in report["laws"]}
    assert statuses["hereditary-split"] == "pass"
    assert statuses["quasi-frobenius"] == "skip"


def test_verify_reports_are_deterministic(loop2_file, capsys):
    argv = [
        "verify",
        loop2_file,
        "--seed",
        "3",
        "--count",
        "5",
        "--format",
        "json",
    ]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2


def test_verify_passes_over_a_31_bit_prime(tmp_path, capsys):
    # a product of two entries fits int64, a sum of three such products does not
    path = tmp_path / "square_p31.json"
    path.write_text(json.dumps(algebra_to_dict(square_algebra(Field.prime(2147483647)))))
    code, report = _run_json(capsys, ["verify", str(path), "--seed", "1", "--count", "3"])
    assert code == 0
    assert report["failures"] == 0 and report["checks_run"] > 0


def test_a_failed_law_reports_a_witness_that_loads_back(tmp_path, capsys, monkeypatch):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(algebra_to_dict(square_algebra())))
    real = laws_mod.hom_basis
    # one dimension too many: every check of the law fails
    monkeypatch.setattr(laws_mod, "hom_basis", lambda a, b: SimpleNamespace(dim=real(a, b).dim + 1))
    argv = ["verify", str(path), "--laws", "projective-representable", "--seed", "2", "--count", "3"]
    code, report = _run_json(capsys, argv)
    assert code == 1
    (law,) = report["laws"]
    assert law["status"] == "fail" and law["failures"] == law["checks"] > 0
    witness = law["witness"]
    ctx = build_context(load_algebra(str(path)), 2, 3, report["max_dim"])
    want = ctx.modules(witness["detail"]["side"])[witness["module_index"]]
    loaded = module_from_dict(witness["module"], algebra=ctx.algebra)
    assert loaded == want
    assert witness["detail"]["hom_dim"] == want.dims[witness["detail"]["vertex"]] + 1
    # the witness carries its algebra inline, so it also loads on its own
    alone = module_from_dict(witness["module"])
    assert algebra_to_dict(alone.algebra) == algebra_to_dict(ctx.algebra)
    assert alone.key == want.key


def test_verify_law_filter(a2_file, capsys):
    code, report = _run_json(
        capsys,
        [
            "verify",
            a2_file,
            "--count",
            "4",
            "--laws",
            "torsion-agreement,radical-law",
        ],
    )
    assert code == 0
    assert [law["name"] for law in report["laws"]] == [
        "radical-law",
        "torsion-agreement",
    ]


def test_verify_unknown_law_exits_2(a2_file, capsys):
    code, _ = _run(capsys, ["verify", a2_file, "--laws", "no-such-law"])
    assert code == 2


@pytest.mark.parametrize("value", ["", ","])
def test_verify_laws_naming_no_law_exits_2(a2_file, capsys, value):
    code = main(["verify", a2_file, "--laws", value])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "names no law" in err


def test_verify_reports_failures_with_exit_1(loop2_file, capsys, monkeypatch):
    def always_fails(ctx):
        res = LawResult("always-fails", "injected failing law")
        res.record(False, lambda: {"reason": "injected"})
        return res

    monkeypatch.setitem(laws_mod.LAWS, "always-fails", always_fails)
    monkeypatch.setitem(laws_mod.DESCRIPTIONS, "always-fails", "injected")
    code, report = _run_json(
        capsys, ["verify", loop2_file, "--count", "3"]
    )
    assert code == 1
    assert report["failures"] == 1
    failing = [l for l in report["laws"] if l["name"] == "always-fails"]
    assert failing[0]["status"] == "fail"
    assert failing[0]["witness"] == {"reason": "injected"}


def test_verify_survives_crashing_law(loop2_file, capsys, monkeypatch):
    def crashes(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(laws_mod.LAWS, "crashy", crashes)
    monkeypatch.setitem(laws_mod.DESCRIPTIONS, "crashy", "injected crash")
    code, report = _run_json(capsys, ["verify", loop2_file, "--count", "3"])
    assert code == 1
    crashy = [l for l in report["laws"] if l["name"] == "crashy"][0]
    assert crashy["status"] == "fail"
    assert "RuntimeError" in crashy["witness"]["error"]


def test_run_laws_rejects_unknown_names(loop2_file):
    alg = loop2_algebra()
    ctx = build_context(alg, seed=1, count=2, max_dim=2)
    with pytest.raises(UnknownLaw):
        run_laws(ctx, ["nope"])


# -- catalog ----------------------------------------------------------------------


def test_catalog_reports_empty_hunt(a2_file, loop2_file, capsys):
    code, report = _run_json(
        capsys,
        [
            "catalog",
            "--search",
            "t-nonidempotent",
            a2_file,
            loop2_file,
            "--count",
            "10",
        ],
    )
    assert code == 0
    assert report["total_findings"] == 0
    assert report["note"] == "none found within budget"
    assert len(report["algebras"]) == 2


def _parsed_subspaces(rows_by_vertex, m):
    field = m.algebra.field
    return {
        v: Subspace(
            field,
            m.dims[v],
            Matrix.from_rows(field, [[field.parse_scalar(x) for x in r] for r in rows])
            if rows
            else None,
        )
        for v, rows in rows_by_vertex.items()
    }


@pytest.mark.parametrize("search", ["t-nonidempotent", "q-noncotorsion"])
def test_catalog_findings_report_rows_that_parse_back(search, a2_file, capsys, monkeypatch):
    # no fixture has a real finding, so each search is fed a submodule that
    # makes one: the radical (rad rad M < rad M) as the torsion, the socle
    # (soc(M / soc M) != 0) as the trace of the injectives
    def radical(m, mode):
        return SubRep(m, radical_subspaces(m))

    def socle(m):
        return SubRep(m, socle_subspaces(m))

    monkeypatch.setattr(main_mod, "bass_torsion", radical)
    monkeypatch.setattr(main_mod, "cotorsion_trace", socle)
    code, report = _run_json(capsys, ["catalog", "--search", search, a2_file, "--count", "6"])
    assert code == 0 and report["total_findings"] > 0
    alg = load_algebra(a2_file)
    for found in report["algebras"][0]["findings"]:
        m = module_from_dict(found["module"], algebra=alg)
        if search == "t-nonidempotent":
            t = radical(m, "reject")
            reported = {"torsion_rows": t, "inner_torsion_rows": radical(t.rep, "reject")}
        else:
            reported = {"trace_rows": socle(m)}
            quotient, _ = main_mod.cotorsion_quotient(m, trace=reported["trace_rows"])
            reported["inner_trace_rows"] = socle(quotient)
        for name, sub in reported.items():
            assert _parsed_subspaces(found[name], sub.parent) == sub.subspaces


def test_catalog_is_deterministic(a2_file, capsys):
    argv = [
        "catalog",
        "--search",
        "q-noncotorsion",
        a2_file,
        "--count",
        "8",
        "--format",
        "json",
    ]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


# -- error handling ----------------------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _ = _run(capsys, ["info", str(bad)])
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _ = _run(capsys, ["info", "/no/such/file.json"])
    assert code == 2


def test_infinite_dimensional_algebra_exits_3(tmp_path, capsys):
    doc = dict(LOOP2_DOC)
    doc["relations"] = []
    path = tmp_path / "free_loop.json"
    path.write_text(json.dumps(doc))
    code, _ = _run(capsys, ["info", str(path)])
    assert code == 3


def test_two_loop_algebra_at_the_default_bound_exits_0_within_a_second(tmp_path, capsys):
    # k<x,y>/(x^2, y^2, xy, yx) has dimension 3 (1, x, y); listing every path
    # up to the loader's default bound of 16 used to keep this call from
    # returning
    doc = {
        "field": {"kind": "prime", "p": 2},
        "quiver": {
            "vertices": ["v"],
            "arrows": [{"name": x, "from": "v", "to": "v"} for x in "xy"],
        },
        "relations": [
            {"terms": [{"coeff": "1", "path": list(w)}]} for w in ("xx", "yy", "xy", "yx")
        ],
    }
    path = tmp_path / "two_loop.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, report = _run_json(capsys, ["info", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["dimension"] == 3


def test_relation_violating_module_exits_2(tmp_path, loop2_file, capsys):
    doc = {
        "algebra": "loop2.json",
        "side": "left",
        "dims": {"v": 1},
        "arrows": {"x": ["1"]},  # x^2 = 1 != 0
    }
    path = tmp_path / "badmod.json"
    path.write_text(json.dumps(doc))
    code, _ = _run(capsys, ["invariants", loop2_file, str(path)])
    assert code == 2


def _a2_doc_with(path, value):
    """A copy of A2_DOC with the entry at the key sequence `path` replaced;
    an empty `path` updates the top level with the dict `value`."""
    doc = json.loads(json.dumps(A2_DOC))
    if not path:
        doc.update(value)
        return doc
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("relations",), 5, "relations: expected a list"),
        (("relations",), [{"terms": 5}], r"relations\[0\].terms: expected a list"),
        (
            ("relations",),
            [{"terms": [{"coeff": "1", "path": [["a"], "a"]}]}],
            "path must be a nonempty list of arrow names",
        ),
        (("quiver", "arrows"), 7, "arrows: expected a list"),
        (("quiver", "arrows", 0, "name"), 1, "must be strings"),
        (("quiver", "arrows", 0, "from"), ["1"], "must be strings"),
        (("quiver", "arrows", 0, "to"), None, "must be strings"),
        (("nilpotency_bound",), True, "expected a positive integer"),
        (("field", "p"), True, "p must be an integer"),
        (("field", "p"), 10 ** 25, "too large"),
        (
            (),
            {
                "quiver": {
                    "vertices": ["1", "2"],
                    "arrows": [
                        {"name": "a", "from": "1", "to": "2"},
                        {"name": "x", "from": "2", "to": "2"},
                    ],
                },
                "relations": [
                    {
                        "terms": [
                            {"coeff": "1", "path": ["a", "x"]},
                            {"coeff": "1", "path": ["a", "x", "x"]},
                        ]
                    }
                ],
            },
            "relation terms have different lengths",
        ),
        (
            (),
            {
                "field": {"kind": "prime", "p": 2},
                "quiver": {
                    "vertices": ["1"],
                    "arrows": [{"name": "x", "from": "1", "to": "1"}],
                },
                # x.x + x.x is zero over F_2 once the two terms are combined
                "relations": [
                    {
                        "terms": [
                            {"coeff": "1", "path": ["x", "x"]},
                            {"coeff": "1", "path": ["x", "x"]},
                        ]
                    }
                ],
            },
            "relation is identically zero",
        ),
    ],
    ids=[
        "relations", "terms", "path", "arrows", "name", "from", "to", "bound-bool", "p-bool",
        "p-huge", "mixed-length", "zero-after-combining",
    ],
)
def test_malformed_algebra_document_exits_2(tmp_path, capsys, path, value, message):
    doc = _a2_doc_with(path, value)
    with pytest.raises(ParseError, match=message):
        algebra_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _ = _run(capsys, ["info", str(bad)])
    assert code == 2


def test_boolean_dimension_exits_2(tmp_path, a2_file, capsys):
    doc = {"algebra": "a2.json", "side": "left", "dims": {"1": True}}
    with pytest.raises(ParseError, match="expected a nonnegative integer"):
        module_from_dict(doc, algebra=a2_algebra())
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps(doc))
    code, _ = _run(capsys, ["invariants", a2_file, str(path)])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag, expected",
    [
        (["verify", "A2", "--max-dim", "-1"], "--max-dim", "nonnegative"),
        (["catalog", "--search", "t-nonidempotent", "A2", "--max-dim", "-2"], "--max-dim", "nonnegative"),
        (["verify", "A2", "--count", "-3"], "--count", "positive"),
        (["catalog", "--search", "t-nonidempotent", "A2", "--count", "-1"], "--count", "nonnegative"),
        # no catalog: most laws would pass on 0 checks
        (["verify", "A2", "--count", "0"], "--count", "positive"),
    ],
    ids=["verify-max-dim", "catalog-max-dim", "verify-count", "catalog-count", "verify-count-zero"],
)
def test_negative_generation_flag_exits_2(a2_file, capsys, argv, flag, expected):
    argv = [a2_file if arg == "A2" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a {expected} integer" in err


def test_main_builds_its_parser_once_and_a_usage_error_leaves_it_working(a2_file, capsys, monkeypatch):
    main_mod._parser.cache_clear()
    built = []
    build = main_mod.build_parser
    monkeypatch.setattr(main_mod, "build_parser", lambda: built.append(1) or build())
    code, report = _run_json(capsys, ["info", a2_file])
    assert code == 0 and report["command"] == "info"
    with pytest.raises(SystemExit) as exc:
        main(["verify", a2_file, "--count", "-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, report = _run_json(capsys, ["info", a2_file])
    assert code == 0 and report["command"] == "info"
    assert len(built) == 1


def test_catalog_accepts_a_zero_count(a2_file, capsys):
    code, report = _run_json(capsys, ["catalog", "--search", "t-nonidempotent", a2_file, "--count", "0"])
    assert code == 0
    assert report["budget"] == 0
    assert [a["modules_tested"] for a in report["algebras"]] == [0]


def test_python_dash_m_entry_point_writes_nothing_to_stderr(a2_file):
    import os
    import subprocess
    import sys

    import stabhom

    src = os.path.dirname(os.path.dirname(os.path.abspath(stabhom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "stabhom.cli.main", "info", a2_file],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "dimension" in proc.stdout


def _run_capped(argv):
    """stabhom argv in a subprocess whose address space is capped at
    1500 MiB, as under `ulimit -v 1500000`."""
    import os
    import resource
    import subprocess
    import sys

    import stabhom

    limit = 1500 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(os.path.abspath(stabhom.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "stabhom.cli.main", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap,
        timeout=120,  # a hang guard only
    )


def test_an_oversized_free_algebra_exits_with_usage_not_a_traceback(tmp_path):
    # two free loops: degree n is spanned by 2^n paths, so the build would
    # list 2^17 of them at degree 17 before the bound of 40 is reached
    doc = dict(LOOP2_DOC, nilpotency_bound=40, relations=[])
    doc["quiver"] = {
        "vertices": ["v"],
        "arrows": [{"name": n, "from": "v", "to": "v"} for n in ("x", "y")],
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    proc = _run_capped(["info", str(path)])
    assert proc.returncode == main_mod.EXIT_USAGE
    assert "degree 17 is spanned by 131072 paths, more than 65536" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_oversized_module_exits_with_usage_not_a_traceback(a2_file, tmp_path):
    # the omitted arrow would be a 60000 x 60000 zero matrix, 26.8 GiB as
    # int64: the entries are counted before any matrix is made
    doc = {"algebra": a2_file, "side": "left", "dims": {"1": 60000, "2": 60000}, "arrows": {}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = _run_capped(["stablehom", a2_file, str(path), str(path)])
    assert proc.returncode == main_mod.EXIT_USAGE
    assert "hold 3600000000 entries, more than 16777216" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_refuses_an_oversized_random_module_before_drawing_it(a2_file):
    # at --max-dim 10^6 the first dimension vector drawn holds about 10^11
    # entries; they used to be drawn one by one, or allocated at once
    proc = _run_capped(["verify", a2_file, "--max-dim", "1000000"])
    assert proc.returncode == main_mod.EXIT_USAGE
    assert re.search(r"hold \d+ entries, more than 16777216", proc.stderr)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, field, sides",
    [
        ("stablehom", {"kind": "rational"}, ("left", "left")),
        ("tensor", {"kind": "prime", "p": 5}, ("right", "left")),
        ("tensor", {"kind": "rational"}, ("right", "left")),
    ],
    ids=["stablehom-q", "tensor-f5", "tensor-q"],
)
def test_an_oversized_hom_system_exits_with_usage_not_a_traceback(tmp_path, command, field, sides):
    # semisimple modules of dimension vector (300, 300) over A2: each holds
    # 90000 entries, but Hom between two of them (and the tensor, read off
    # Hom(b, D a)) is a 90000 x 180000 system, refused before any of it is
    # written; it used to end in a MemoryError.  tensor checks it before it
    # builds the transpose, so each command exits in well under a second
    algebra = tmp_path / "a2.json"
    algebra.write_text(json.dumps(dict(A2_DOC, field=field)))
    paths = []
    for i, side in enumerate(sides):
        path = tmp_path / f"m{i}.json"
        doc = {"algebra": str(algebra), "side": side, "dims": {"1": 300, "2": 300}, "arrows": {}}
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    start = time.perf_counter()
    proc = _run_capped([command, str(algebra), *paths])
    assert time.perf_counter() - start < 5
    assert proc.returncode == main_mod.EXIT_USAGE, proc.stderr
    assert "has 90000 x 180000 = 16200000000 entries, more than 4194304" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "extra, dims",
    [
        (["--max-dim", "80", "--count", "2", "--laws", "fp-kernel-cokernel"], (17, 72)),
        (["--max-dim", "2000"], (275, 1165)),
    ],
    ids=["max-dim-80", "max-dim-2000"],
)
def test_verify_refuses_a_drawn_module_whose_hom_system_passes_the_cap(a2_file, extra, dims):
    # the first module drawn holds few enough arrow entries for the module
    # cap, but its Hom system with itself passes the Hom cap, so verify
    # refuses it as soon as it is drawn, before any law runs: a refused input
    # (exit 2), not a failed law (exit 1).  At --max-dim 2000 a module used
    # to be computed on until a law's system met the cap, after 20 s.  The
    # test below reaches a law's own refusal in process
    start = time.perf_counter()
    proc = _run_capped(["verify", a2_file, *extra])
    assert time.perf_counter() - start < 5
    assert proc.returncode == main_mod.EXIT_USAGE, proc.stderr
    vector = re.escape(str(dims))
    assert re.search(rf"^error: the Hom system between dimension vectors {vector} and {vector} "
                     r"has .* more than 4194304$", proc.stderr, re.M)
    assert "Traceback" not in proc.stderr


def _a2_hom_entries(a, b):
    """Entries of the Hom(a, b) system over A2 (1 -a-> 2), on either side:
    one row per entry of phi_2 A, one column per entry of phi."""
    rows = b.dims["2"] * a.dims["1"] if a.side == LEFT else b.dims["1"] * a.dims["2"]
    return rows * sum(b.dims[v] * a.dims[v] for v in ("1", "2"))


def test_verify_refuses_a_catalog_pair_past_the_cap_before_any_law_runs(
    a2_file, monkeypatch, capsys
):
    # with the cap at the largest Hom(m, m) system, every module drawn is
    # admitted, but a catalog module and a probe have a larger system
    # between them: verify refuses the catalog once it is drawn (exit 2),
    # and no law body runs.  At seed 4 the largest own system, that of the
    # right catalog module (3, 2), has 78 entries; Hom from the right probe
    # (1, 3) into it has 81
    ctx = build_context(load_algebra(a2_file), 4, 2, 3)
    own = max(_a2_hom_entries(m, m) for ms in (ctx.left_modules, ctx.right_modules,
                                                ctx.probes_left, ctx.probes_right) for m in ms)
    pair = max(
        _a2_hom_entries(a, b)
        for ms, probes in ((ctx.left_modules, ctx.probes_left), (ctx.right_modules, ctx.probes_right))
        for m in ms
        for p in probes
        for a, b in ((m, p), (p, m))
    )
    assert pair > own
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", own)
    ran = []
    for name in list(laws_mod.LAWS):
        monkeypatch.setitem(laws_mod.LAWS, name, lambda ctx, name=name: ran.append(name))
    code = main(["verify", a2_file, "--seed", "4", "--count", "2", "--max-dim", "3"])
    assert code == main_mod.EXIT_USAGE
    assert ran == []
    assert re.search(rf"^error: the Hom system .* more than {own}$", capsys.readouterr().err, re.M)


def test_run_laws_passes_a_refused_hom_system_through(monkeypatch):
    # a fresh A2, so no Hom space is remembered; with the cap at 0 the
    # law's first Hom(P(v), m) with a row is refused, and run_laws raises
    # it rather than record a failed law
    ctx = build_context(a2_algebra(), 1, 3, 2)
    assert any(m.dims["2"] for m in ctx.left_modules)
    monkeypatch.setattr(homology, "MAX_HOM_SYSTEM_ENTRIES", 0)
    with pytest.raises(AlgebraTooLarge, match="more than 0$"):
        run_laws(ctx, ["projective-representable"])


def test_catalog_computes_on_modules_whose_own_hom_system_passes_the_cap(a2_file):
    # the torsion search builds Hom(m, A) and Hom(m', A) for submodules, never
    # Hom(m, m): the first module drawn, (17, 72), whose own Hom system
    # verify refuses, has a Hom(m, A) system of 34 x 161 entries, so
    # catalog computes on it
    proc = _run_capped(["catalog", "--search", "t-nonidempotent", a2_file,
                        "--max-dim", "80", "--count", "2"])
    assert proc.returncode == main_mod.EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr


# -- generation machinery -----------------------------------------------------------


def test_random_catalog_is_deterministic():
    alg = square_algebra()
    mods1, stats1 = random_catalog(alg, LEFT, 8, 3, random.Random(9))
    mods2, stats2 = random_catalog(alg, LEFT, 8, 3, random.Random(9))
    assert stats1 == stats2
    assert len(mods1) == len(mods2) == 8
    for m1, m2 in zip(mods1, mods2):
        assert m1 == m2


def test_random_catalog_strategies_recorded():
    alg = loop2_algebra()
    mods, stats = random_catalog(alg, LEFT, 6, 3, random.Random(2))
    assert len(mods) == 6
    assert sum(
        stats[k]
        for k in ("direct", "linear_solve", "rejection", "projective_quotient")
    ) == 6
