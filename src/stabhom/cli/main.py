"""Command line tools.

stabhom info        ALGEBRA                  algebra summary
stabhom invariants  ALGEBRA MODULE           torsion/cotorsion invariants
stabhom stablehom   ALGEBRA A B              stable Hom dimensions
stabhom tensor      ALGEBRA A B              tensor and sub-stabilized tensor
stabhom functor     ALGEBRA FUNCTOR          evaluate a presented functor
stabhom verify      ALGEBRA [flags]          randomized law verification
stabhom catalog     --search NAME ALGEBRA..  hunt for non-idempotence witnesses

Exit codes: 0 success, 1 at least one law failed, 2 usage or parse
error, 3 the algebra file describes an infinite-dimensional algebra.
"""

import argparse
import json
import random
import sys
import time
from functools import lru_cache
from typing import List, Optional, Tuple

from ..algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    NotFiniteDimensional,
    Representation,
    indec_injective,
    indec_projective,
    simple,
    standard_probes,
)
from ..fpfun import fp_defect, fp_eval
from ..homology import ext1, is_self_injective, star_dual, tensor, transpose
from ..stable import (
    MODULO_INJECTIVES,
    MODULO_PROJECTIVES,
    bass_torsion,
    cotorsion_quotient,
    cotorsion_trace,
    fp_certificate,
    stable_hom,
    tensor_substab,
    torsion_radical,
    torsionless_quotient,
)
from .laws import UnknownLaw, build_context, run_laws
from .randmod import random_catalog
from .serialize import (
    ParseError,
    algebra_to_dict,
    load_algebra,
    load_functor,
    load_module,
    module_to_dict,
    subspace_rows,
)

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFINITE = 3


def _labelled_probes(alg, side) -> List[Tuple[str, Representation]]:
    """standard_probes, each labelled S(v), P(v) or I(v) in its order."""
    labels = [f"{kind}({v})" for kind in "SPI" for v in alg.quiver.vertices]
    return list(zip(labels, standard_probes(alg, side)))


def _inline(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    return str(value)


def _scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _text_lines(value, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(item)}")
    else:
        lines.append(f"{pad}{_inline(value)}")
    return lines


class ReportNotWritten(Exception):
    """The report could not be written to the --out path."""


def _emit(args, report: dict):
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_text_lines(report)) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ReportNotWritten(f"{args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_info(args) -> int:
    alg = load_algebra(args.algebra)
    vertices = list(alg.quiver.vertices)
    blocks = {}
    for v in vertices:
        for w in vertices:
            n = len(alg.block_basis(v, w))
            if n:
                blocks[f"{v}->{w}"] = n
    report = {
        "command": "info",
        "algebra_file": args.algebra,
        "vertices": vertices,
        "dimension": alg.dim,
        "radical_dimension": alg.dim - len(vertices),
        "path_blocks": blocks,
        "projectives": {
            v: list(indec_projective(alg, v, LEFT).dim_vector())
            for v in vertices
        },
        "injectives": {
            v: list(indec_injective(alg, v, LEFT).dim_vector())
            for v in vertices
        },
        "simples": {
            v: list(simple(alg, v, LEFT).dim_vector()) for v in vertices
        },
        "hereditary": alg.is_hereditary(),
        "self_injective": is_self_injective(alg),
    }
    _emit(args, report)
    return EXIT_OK


def _certificate_dict(a, kind: str) -> dict:
    cert = fp_certificate(a, kind)
    exact = cert.sequence.validate()  # checked once: valid is exact and approximates
    return {
        "kind": kind,
        "sequence": [list(m.dim_vector()) for m in cert.sequence.modules],
        "exact": exact,
        "valid": exact and cert.approximates(),
        "ext_witness": dict(sorted(cert.ext_witness.items())),
    }


def cmd_invariants(args) -> int:
    alg = load_algebra(args.algebra)
    a = load_module(args.module, algebra=alg)
    torsion = bass_torsion(a, "evaluation")
    trace = cotorsion_trace(a)
    report = {
        "command": "invariants",
        "side": a.side,
        "dims": list(a.dim_vector()),
        "torsion": list(torsion.dim_vector()),
        "torsionless_quotient": list(
            torsionless_quotient(a, torsion=torsion)[0].dim_vector()
        ),
        "cotorsion_trace": list(trace.dim_vector()),
        "cotorsion": list(cotorsion_quotient(a, trace=trace)[0].dim_vector()),
        "star_dual": list(star_dual(a).module.dim_vector()),
        "transpose": list(transpose(a).module.dim_vector()),
        "certificates": {
            "covariant_underline": _certificate_dict(a, "covariant_underline"),
            "contravariant_overline": _certificate_dict(a, "contravariant_overline"),
        },
    }
    if a.side == RIGHT:
        report["torsion_radical"] = torsion_radical(a).dim
    rows = []
    for label, b in _labelled_probes(alg, a.side):
        rows.append(
            {
                "probe": label,
                "underline_to": stable_hom(a, b, MODULO_PROJECTIVES).dim,
                "overline_to": stable_hom(a, b, MODULO_INJECTIVES).dim,
                "underline_from": stable_hom(b, a, MODULO_PROJECTIVES).dim,
                "overline_from": stable_hom(b, a, MODULO_INJECTIVES).dim,
            }
        )
    report["stable_hom"] = rows
    _emit(args, report)
    return EXIT_OK


def cmd_stablehom(args) -> int:
    alg = load_algebra(args.algebra)
    a = load_module(args.a, algebra=alg)
    b = load_module(args.b, algebra=alg)
    if a.side != b.side:
        raise ParseError(
            f"modules live on different sides: {a.side} vs {b.side}"
        )
    under = stable_hom(a, b, MODULO_PROJECTIVES)
    over = stable_hom(a, b, MODULO_INJECTIVES)
    report = {
        "command": "stablehom",
        "hom": under.hom.dim,
        "modulo_projectives": {
            "factoring": under.factor.dim,
            "stable": under.dim,
        },
        "modulo_injectives": {
            "factoring": over.factor.dim,
            "stable": over.dim,
        },
    }
    _emit(args, report)
    return EXIT_OK


def cmd_tensor(args) -> int:
    alg = load_algebra(args.algebra)
    a = load_module(args.a, algebra=alg)
    b = load_module(args.b, algebra=alg)
    if a.side != RIGHT or b.side != LEFT:
        raise ParseError(
            "tensor expects a right module then a left module, got "
            f"{a.side} (x) {b.side}"
        )
    # the tensor first: its Hom system is size-checked before the transpose is built
    report = {
        "command": "tensor",
        "tensor": tensor(a, b).dim,
        "substab": tensor_substab(a, b).dim,
        "ext_of_transpose": ext1(transpose(a).module, b).dim,
    }
    _emit(args, report)
    return EXIT_OK


def cmd_functor(args) -> int:
    alg = load_algebra(args.algebra)
    func = load_functor(args.functor, algebra=alg)
    defect = fp_defect(func)
    evaluations = []
    for label, b in _labelled_probes(alg, func.side):
        evaluations.append({"probe": label, "dim": fp_eval(func, b).dim})
    report = {
        "command": "functor",
        "variance": func.variance,
        "entry": list(func.entry.dim_vector()),
        "relations": list(func.relations.dim_vector()),
        "defect": list(defect.dim_vector()),
        "evaluations": evaluations,
    }
    _emit(args, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None
    if args.laws is not None:
        names = [n.strip() for n in args.laws.split(",") if n.strip()]
        if not names:
            raise UnknownLaw(f"--laws {args.laws!r} names no law")
    alg = load_algebra(args.algebra)
    started = time.time()
    ctx = build_context(alg, args.seed, args.count, args.max_dim)
    results = run_laws(ctx, names)
    failures = sum(r.failures for r in results)
    report = {
        "command": "verify",
        "algebra": algebra_to_dict(alg),
        "seed": args.seed,
        "count": args.count,
        "max_dim": args.max_dim,
        "modules_tested": {
            "left": len(ctx.left_modules),
            "right": len(ctx.right_modules),
        },
        "generation": ctx.generation,
        "laws": [r.to_dict() for r in results],
        "checks_run": sum(r.checks for r in results),
        "failures": failures,
        "wall_time_s": round(time.time() - started, 3),
    }
    _emit(args, report)
    return EXIT_LAW_FAILURE if failures else EXIT_OK


def _search_torsion_nonidempotent(a: Representation, index: int) -> Optional[dict]:
    field = a.algebra.field
    t = bass_torsion(a, "reject")
    if t.dim == 0:
        return None
    inner = bass_torsion(t.rep, "reject")
    if inner.dim == t.rep.total_dim:
        return None
    recheck = bass_torsion(t.rep, "evaluation")
    return {
        "module_index": index,
        "module": module_to_dict(a),
        "torsion_dims": list(t.dim_vector()),
        "torsion_rows": {
            v: subspace_rows(field, s) for v, s in t.subspaces.items()
        },
        "inner_torsion_dims": list(inner.dim_vector()),
        "inner_torsion_rows": {
            v: subspace_rows(field, s) for v, s in inner.subspaces.items()
        },
        "recomputed_inner_dims": list(recheck.dim_vector()),
    }


def _search_cotorsion_noncoradical(a: Representation, index: int) -> Optional[dict]:
    field = a.algebra.field
    trace = cotorsion_trace(a)
    quotient, _ = cotorsion_quotient(a, trace=trace)
    inner_trace = cotorsion_trace(quotient)
    if inner_trace.dim == 0:
        return None
    second, _ = cotorsion_quotient(quotient, trace=inner_trace)
    return {
        "module_index": index,
        "module": module_to_dict(a),
        "trace_rows": {
            v: subspace_rows(field, s) for v, s in trace.subspaces.items()
        },
        "cotorsion_dims": list(quotient.dim_vector()),
        "inner_trace_rows": {
            v: subspace_rows(field, s)
            for v, s in inner_trace.subspaces.items()
        },
        "second_cotorsion_dims": list(second.dim_vector()),
    }


SEARCHES = {
    "t-nonidempotent": _search_torsion_nonidempotent,
    "q-noncotorsion": _search_cotorsion_noncoradical,
}


def cmd_catalog(args) -> int:
    search = SEARCHES[args.search]
    per_algebra = []
    total = 0
    for path in args.algebras:
        alg = load_algebra(path)
        rng = random.Random(args.seed)
        findings = []
        tested = 0
        for side in (LEFT, RIGHT):
            modules, _ = random_catalog(
                alg, side, args.count, args.max_dim, rng
            )
            for i, a in enumerate(modules):
                tested += 1
                found = search(a, i)
                if found is not None:
                    found["side"] = side
                    findings.append(found)
        total += len(findings)
        per_algebra.append(
            {
                "file": path,
                "modules_tested": tested,
                "findings": findings,
            }
        )
    report = {
        "command": "catalog",
        "search": args.search,
        "seed": args.seed,
        "budget": args.count,
        "max_dim": args.max_dim,
        "algebras": per_algebra,
        "total_findings": total,
    }
    if total == 0:
        report["note"] = "none found within budget"
    _emit(args, report)
    return EXIT_OK


def _add_output_flags(sub):
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="report format (default text)",
    )


def _nonnegative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_generation_flags(sub, default_count: int, count_type=_nonnegative):
    sub.add_argument("--seed", type=int, default=1, help="RNG seed")
    sub.add_argument(
        "--count",
        type=count_type,
        default=default_count,
        help="modules generated per side",
    )
    sub.add_argument(
        "--max-dim",
        type=_nonnegative,
        default=3,
        dest="max_dim",
        help="maximum vertex dimension",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabhom",
        description="stable module invariants over bound quiver algebras",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("info", help="summarize an algebra file")
    p.add_argument("algebra")
    _add_output_flags(p)
    p.set_defaults(func=cmd_info)

    p = subs.add_parser(
        "invariants", help="torsion and cotorsion invariants of a module"
    )
    p.add_argument("algebra")
    p.add_argument("module")
    _add_output_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = subs.add_parser("stablehom", help="stable Hom dimensions of a pair")
    p.add_argument("algebra")
    p.add_argument("a")
    p.add_argument("b")
    _add_output_flags(p)
    p.set_defaults(func=cmd_stablehom)

    p = subs.add_parser(
        "tensor", help="tensor a right module with a left module"
    )
    p.add_argument("algebra")
    p.add_argument("a")
    p.add_argument("b")
    _add_output_flags(p)
    p.set_defaults(func=cmd_tensor)

    p = subs.add_parser(
        "functor", help="evaluate a serialized finitely presented functor"
    )
    p.add_argument("algebra")
    p.add_argument("functor")
    _add_output_flags(p)
    p.set_defaults(func=cmd_functor)

    p = subs.add_parser("verify", help="run randomized law verification")
    p.add_argument("algebra")
    # with no catalog most laws would pass on 0 checks
    _add_generation_flags(p, default_count=12, count_type=_positive)
    p.add_argument(
        "--laws",
        help="comma-separated law names to run (default all)",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser(
        "catalog", help="search random modules for non-idempotence witnesses"
    )
    p.add_argument(
        "--search",
        required=True,
        choices=sorted(SEARCHES),
        help="which witness to hunt for",
    )
    p.add_argument("algebras", nargs="+")
    _add_generation_flags(p, default_count=50)
    _add_output_flags(p)
    p.set_defaults(func=cmd_catalog)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and reused: parsing leaves
    the parser as it was, and in-process callers run main many times."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownLaw, ReportNotWritten) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotFiniteDimensional as exc:
        print(f"error: not finite dimensional: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
