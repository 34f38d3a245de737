"""Law registry for the randomized verification harness.

Each law checks one published identity of the homology, stable, or
functor layer over a generated module catalog and reports the number of
checks, the number of failures, and the first falsifying witness.  Laws
that only make sense on a restricted algebra class (hereditary,
self-injective) report themselves as skipped elsewhere instead of
passing vacuously.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..algebra import (
    LEFT,
    RIGHT,
    AlgebraTooLarge,
    BoundQuiverAlgebra,
    Representation,
    indec_injective,
    indec_projective,
    regular_module,
    standard_probes,
)
from ..exactla import kernel_basis, rank
from ..fpfun import (
    CONTRAVARIANT,
    COVARIANT,
    fp_cokernel,
    fp_defect,
    fp_eval,
    fp_eval_morphism,
    fp_kernel,
    fp_representable,
    fp_rho,
    fp_substab,
    present_overline_contra,
    present_overline_cov,
    present_tensor,
    present_tensor_substab,
    present_torsion_radical,
    present_underline_contra,
    present_underline_cov,
)
from ..homology import (
    check_hom_system,
    cover_map,
    envelope_map,
    ext1,
    hom_basis,
    image_map,
    is_self_injective,
    kernel_map,
    star_dual,
    tensor,
    tensor_map,
    transpose,
)
from ..stable import (
    MODULO_INJECTIVES,
    MODULO_PROJECTIVES,
    bass_torsion,
    cotorsion_quotient,
    cotorsion_trace,
    extends_to_projectives,
    fp_certificate,
    hereditary_split,
    left_proj_approximation,
    lifts_from_injectives,
    stable_hom,
    tensor_substab,
    torsion_radical,
    torsionless_quotient,
)
from .randmod import random_catalog, random_fp_morphism, random_hom_element
from .serialize import module_to_dict

RANDOM_PROBES = 8


class UnknownLaw(ValueError):
    """A law filter named a law that is not registered."""


@dataclass
class LawResult:
    name: str
    description: str
    checks: int = 0
    failures: int = 0
    witness: Optional[dict] = None
    skipped: Optional[str] = None

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "skip"
        return "fail" if self.failures else "pass"

    def record(self, ok: bool, witness: Optional[Callable[[], dict]] = None):
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.witness is None and witness is not None:
                self.witness = witness()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "description": self.description,
            "status": self.status,
            "checks": self.checks,
            "failures": self.failures,
        }
        if self.skipped is not None:
            out["skipped"] = self.skipped
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class LawContext:
    algebra: BoundQuiverAlgebra
    seed: int
    count: int
    max_dim: int
    left_modules: List[Representation] = field(default_factory=list)
    right_modules: List[Representation] = field(default_factory=list)
    probes_left: List[Representation] = field(default_factory=list)
    probes_right: List[Representation] = field(default_factory=list)
    rng: Optional[random.Random] = None
    generation: Dict[str, dict] = field(default_factory=dict)

    def modules(self, side: str) -> List[Representation]:
        return self.left_modules if side == LEFT else self.right_modules

    def catalog(self) -> Iterator[Tuple[str, int, Representation]]:
        """(side, index within that side, module) over both catalogs."""
        for side in (LEFT, RIGHT):
            for i, m in enumerate(self.modules(side)):
                yield side, i, m


def _own_hom_fits(m: Representation) -> None:
    """The laws compute Hom(m, m) and larger systems on the modules drawn,
    so a module whose Hom system with itself passes the cap is refused
    with AlgebraTooLarge as soon as it is drawn, before any law runs."""
    check_hom_system(m.algebra.quiver, m.side, m.dims, m.dims)


def build_context(
    alg: BoundQuiverAlgebra, seed: int, count: int, max_dim: int
) -> LawContext:
    rng = random.Random(seed)
    ctx = LawContext(alg, seed, count, max_dim, rng=rng)

    def draw(side, n):
        return random_catalog(alg, side, n, max_dim, rng, admit=_own_hom_fits)

    ctx.left_modules, gen_l = draw(LEFT, count)
    ctx.right_modules, gen_r = draw(RIGHT, count)
    extra_l, gen_pl = draw(LEFT, RANDOM_PROBES)
    extra_r, gen_pr = draw(RIGHT, RANDOM_PROBES)
    ctx.probes_left = standard_probes(alg, LEFT) + extra_l
    ctx.probes_right = standard_probes(alg, RIGHT) + extra_r
    ctx.generation = {
        "left": gen_l,
        "right": gen_r,
        "probes_left": gen_pl,
        "probes_right": gen_pr,
    }
    _catalog_homs_fit(ctx)
    return ctx


def _catalog_homs_fit(ctx: LawContext) -> None:
    """Refuse, with AlgebraTooLarge before any law runs, a catalog in which
    the Hom system between two modules on one side, catalog modules and
    probes alike, or a tensor's Hom(b, D a) (D a has a's dimensions on the
    other side) would pass the cap.  None of these systems is larger than
    the one between two modules of the componentwise maximum D of every
    dimension vector, so while that one fits, no pair is checked; only when
    it does not are the pairs checked exactly, and the first one over the
    cap is refused.  Laws also build Hom systems between modules derived
    from these (transposes, syzygies, sums, pushouts of their own random
    morphisms), which this check does not see: those meet the cap where
    they are built."""
    quiver = ctx.algebra.quiver
    sides = {
        LEFT: ctx.left_modules + ctx.probes_left,
        RIGHT: ctx.right_modules + ctx.probes_right,
    }
    top = {v: max(m.dims[v] for ms in sides.values() for m in ms) for v in quiver.vertices}
    try:
        # (D, D) counts the same entries on either side
        check_hom_system(quiver, LEFT, top, top)
        return
    except AlgebraTooLarge:
        pass
    for side, ms in sides.items():
        for a in ms:
            for b in ms:
                check_hom_system(quiver, side, a.dims, b.dims)
    for side, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
        for a in sides[side]:
            for b in sides[other]:
                check_hom_system(quiver, other, b.dims, a.dims)


def _witness(index, module, **detail):
    def build():
        return {
            "module_index": index,
            "module": module_to_dict(module),
            "detail": detail,
        }

    return build


LAWS: Dict[str, Callable[[LawContext], LawResult]] = {}
DESCRIPTIONS: Dict[str, str] = {}


def law(name: str, description: str):
    """Register a law body body(ctx, res) under its name; the registry
    holds a callable ctx -> LawResult that makes res and runs the body."""

    def register(body: Callable[[LawContext, LawResult], None]):
        def run(ctx: LawContext) -> LawResult:
            res = LawResult(name, description)
            body(ctx, res)
            return res

        LAWS[name] = run
        DESCRIPTIONS[name] = description
        return run

    return register


@law(
    "projective-representable",
    "dim Hom(P(v), M) equals dim M_v for every catalog module and vertex",
)
def _law_projective_representable(ctx: LawContext, res: LawResult) -> None:
    for side, i, m in ctx.catalog():
        for v in ctx.algebra.quiver.vertices:
            got = hom_basis(indec_projective(ctx.algebra, v, side), m).dim
            res.record(
                got == m.dims[v],
                _witness(i, m, side=side, vertex=v, hom_dim=got),
            )


@law(
    "injective-corepresentable",
    "dim Hom(M, I(v)) equals dim M_v for every catalog module and vertex",
)
def _law_injective_corepresentable(ctx: LawContext, res: LawResult) -> None:
    for side, i, m in ctx.catalog():
        for v in ctx.algebra.quiver.vertices:
            got = hom_basis(m, indec_injective(ctx.algebra, v, side)).dim
            res.record(
                got == m.dims[v],
                _witness(i, m, side=side, vertex=v, hom_dim=got),
            )


@law(
    "tensor-unit",
    "the regular module is a tensor unit, naturally in maps",
)
def _law_tensor_unit(ctx: LawContext, res: LawResult) -> None:
    reg_l = regular_module(ctx.algebra, LEFT)
    reg_r = regular_module(ctx.algebra, RIGHT)
    for i, b in enumerate(ctx.left_modules):
        res.record(
            tensor(reg_r, b).dim == b.total_dim,
            _witness(i, b, side=LEFT, tensor_dim=tensor(reg_r, b).dim),
        )
    for i, a in enumerate(ctx.right_modules):
        res.record(
            tensor(a, reg_l).dim == a.total_dim,
            _witness(i, a, side=RIGHT, tensor_dim=tensor(a, reg_l).dim),
        )
    # Naturality: under the unit isomorphism, 1 (x) f has the rank of f.
    pool = [m for m in ctx.left_modules if m.total_dim]
    for i in range(min(4, len(pool) - 1)):
        b1, b2 = pool[i], pool[i + 1]
        f = random_hom_element(b1, b2, ctx.rng)
        induced = tensor_map(tensor(reg_r, b1), tensor(reg_r, b2), g=f)
        rank_f = sum(rank(f.vertex_maps[v]) for v in b1.vertices)
        res.record(
            rank(induced) == rank_f,
            _witness(i, b1, induced_rank=rank(induced), map_rank=rank_f),
        )


@law(
    "double-transpose",
    "transpose is an involution in dimension on modules without projective summands",
)
def _law_double_transpose(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        # Tr of a minimal presentation never has projective summands,
        # so applying Tr twice more must return it unchanged.
        b = transpose(a).module
        bb = transpose(transpose(b).module).module
        res.record(
            bb.dim_vector() == b.dim_vector(),
            _witness(
                i,
                a,
                side=side,
                transpose_dims=list(b.dim_vector()),
                double_dims=list(bb.dim_vector()),
            ),
        )


@law(
    "torsion-agreement",
    "evaluation, reject, and approximation torsion computations agree as subspaces",
)
def _law_torsion_agreement(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        t_eval = bass_torsion(a, "evaluation")
        t_rej = bass_torsion(a, "reject")
        t_app = bass_torsion(a, "approximation")
        res.record(
            t_eval == t_rej and t_rej == t_app,
            _witness(
                i,
                a,
                side=side,
                evaluation=list(t_eval.dim_vector()),
                reject=list(t_rej.dim_vector()),
                approximation=list(t_app.dim_vector()),
            ),
        )


@law("radical-law", "the torsion of the torsionless quotient vanishes")
def _law_radical(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        quotient, _ = torsionless_quotient(a)
        t = bass_torsion(quotient, "reject")
        res.record(
            t.dim == 0,
            _witness(i, a, side=side, residual=list(t.dim_vector())),
        )


@law("trace-idempotence", "the trace of injectives is idempotent")
def _law_trace_idempotence(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        trace = cotorsion_trace(a)
        inner = cotorsion_trace(trace.rep)
        res.record(
            inner.dim == trace.rep.total_dim,
            _witness(
                i, a, side=side,
                trace=trace.dim, inner=inner.dim,
            ),
        )


@law(
    "stable-dim-formula",
    "stable Hom dimensions complement the factoring subspaces; "
    "stable maps out of projectives and into injectives vanish",
)
def _law_stable_dim(ctx: LawContext, res: LawResult) -> None:
    reg = regular_module(ctx.algebra, LEFT)
    for i, a in enumerate(ctx.left_modules):
        for b in ctx.probes_left:
            under = stable_hom(a, b, MODULO_PROJECTIVES)
            over = stable_hom(a, b, MODULO_INJECTIVES)
            ok = (
                under.dim == under.hom.dim - under.factor.dim
                and over.dim == over.hom.dim - over.factor.dim
            )
            res.record(ok, _witness(i, a, probe=list(b.dim_vector())))
        res.record(
            stable_hom(reg, a, MODULO_PROJECTIVES).dim == 0,
            _witness(i, a, detail_kind="regular source"),
        )
        for v in ctx.algebra.quiver.vertices:
            inj = indec_injective(ctx.algebra, v, LEFT)
            res.record(
                stable_hom(a, inj, MODULO_INJECTIVES).dim == 0,
                _witness(i, a, vertex=v, detail_kind="injective target"),
            )


@law(
    "torsionless-embedding",
    "torsion-free modules embed into a projective along the approximation",
)
def _law_torsionless_embedding(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        if bass_torsion(a, "reject").dim != 0:
            continue
        gamma = left_proj_approximation(a)
        res.record(
            gamma.is_injective(),
            _witness(i, a, side=side),
        )


@law(
    "torsion-kills-injectives",
    "a right module with zero star dual tensors every injective to zero",
)
def _law_torsion_kills(ctx: LawContext, res: LawResult) -> None:
    for i, a in enumerate(ctx.right_modules):
        if star_dual(a).module.total_dim != 0:
            continue
        for v in ctx.algebra.quiver.vertices:
            t = tensor(a, indec_injective(ctx.algebra, v, LEFT))
            res.record(
                t.dim == 0,
                _witness(i, a, vertex=v, tensor_dim=t.dim),
            )


@law(
    "tensor-ext",
    "the sub-stabilized tensor dimension equals Ext^1 out of the transpose",
)
def _law_tensor_ext(ctx: LawContext, res: LawResult) -> None:
    for i, a in enumerate(ctx.right_modules):
        tr = transpose(a).module
        for b in ctx.probes_left:
            lhs = tensor_substab(a, b).dim
            rhs = ext1(tr, b).dim
            res.record(
                lhs == rhs,
                _witness(
                    i, a,
                    probe=list(b.dim_vector()), substab=lhs, ext=rhs,
                ),
            )


@law(
    "certificates",
    "both finite-presentation certificates build exact sequences whose end "
    "terms recompute the torsion and cotorsion subspaces",
)
def _law_certificates(ctx: LawContext, res: LawResult) -> None:
    for side, i, a in ctx.catalog():
        cert = fp_certificate(a, "covariant_underline")
        torsion_part = image_map(cert.sequence.maps[0])
        ok = (
            cert.validate()
            and torsion_part == bass_torsion(a, "reject")
        )
        res.record(ok, _witness(i, a, side=side, kind="covariant"))
        cert = fp_certificate(a, "contravariant_overline")
        trace_part = kernel_map(cert.sequence.maps[2])
        ok = (
            cert.validate()
            and trace_part == cotorsion_trace(a)
            and cert.sequence.modules[3].dim_vector()
            == cotorsion_quotient(a)[0].dim_vector()
        )
        res.record(ok, _witness(i, a, side=side, kind="contravariant"))


@law(
    "quasi-frobenius",
    "over a self-injective algebra the injective envelope is a projective "
    "approximation and the projective cover an injective approximation",
)
def _law_quasi_frobenius(ctx: LawContext, res: LawResult) -> None:
    if not is_self_injective(ctx.algebra):
        res.skipped = "algebra is not self-injective"
        return
    for side, i, a in ctx.catalog():
        into, onto = envelope_map(a).map, cover_map(a).map
        ok = extends_to_projectives(into) and lifts_from_injectives(onto)
        res.record(ok, _witness(i, a, side=side))


@law(
    "hereditary-split",
    "over a hereditary algebra modules split into torsion plus a projective "
    "torsionless part, and stable Homs reduce to the split parts",
)
def _law_hereditary_split(ctx: LawContext, res: LawResult) -> None:
    if not ctx.algebra.is_hereditary():
        res.skipped = "algebra is not hereditary"
        return
    for i, a in enumerate(ctx.left_modules):
        # hereditary_split raises SplitFailure unless both splittings are
        # isomorphisms, and run_laws records a raise as a failure
        split = hereditary_split(a, probes=ctx.probes_left)
        ok = split.underline_law_ok and split.overline_law_ok
        res.record(ok, _witness(i, a))


def _covariant_functors(a_left, a_right):
    yield fp_representable(a_left, COVARIANT)
    yield present_underline_cov(a_left)
    yield present_overline_cov(a_left)
    yield present_tensor(a_right)


def _contravariant_functors(a_left):
    yield fp_representable(a_left, CONTRAVARIANT)
    yield present_underline_contra(a_left)
    yield present_overline_contra(a_left)


@law(
    "defect-zero",
    "a covariant defect vanishes exactly when the functor kills injectives; "
    "a contravariant defect vanishes exactly when it kills the regular module",
)
def _law_defect_zero(ctx: LawContext, res: LawResult) -> None:
    injectives = [
        indec_injective(ctx.algebra, v, LEFT)
        for v in ctx.algebra.quiver.vertices
    ]
    reg = regular_module(ctx.algebra, LEFT)
    pairs = list(zip(ctx.left_modules, ctx.right_modules))
    for i, (al, ar) in enumerate(pairs):
        for func in _covariant_functors(al, ar):
            w_zero = fp_defect(func).total_dim == 0
            kills = all(fp_eval(func, inj).dim == 0 for inj in injectives)
            res.record(
                w_zero == kills,
                _witness(i, al, defect_zero=w_zero, kills_injectives=kills),
            )
        for func in _contravariant_functors(al):
            v_zero = fp_defect(func).total_dim == 0
            kills = fp_eval(func, reg).dim == 0
            res.record(
                v_zero == kills,
                _witness(i, al, defect_zero=v_zero, kills_regular=kills),
            )


@law(
    "presentation-vs-direct",
    "finitely presented stable Hom functors evaluate to the direct "
    "stable quotient dimensions at every probe",
)
def _law_presentation_vs_direct(ctx: LawContext, res: LawResult) -> None:
    for i, a in enumerate(ctx.left_modules):
        f_under = present_underline_cov(a)
        f_over = present_overline_cov(a)
        g_under = present_underline_contra(a)
        g_over = present_overline_contra(a)
        for b in ctx.probes_left:
            checks = (
                fp_eval(f_under, b).dim
                == stable_hom(a, b, MODULO_PROJECTIVES).dim,
                fp_eval(f_over, b).dim
                == stable_hom(a, b, MODULO_INJECTIVES).dim,
                fp_eval(g_under, b).dim
                == stable_hom(b, a, MODULO_PROJECTIVES).dim,
                fp_eval(g_over, b).dim
                == stable_hom(b, a, MODULO_INJECTIVES).dim,
            )
            res.record(
                all(checks),
                _witness(i, a, probe=list(b.dim_vector()), checks=list(checks)),
            )


@law(
    "tensor-euler",
    "the tensor presentation evaluates to the coequalizer tensor dimension",
)
def _law_tensor_euler(ctx: LawContext, res: LawResult) -> None:
    for i, a in enumerate(ctx.right_modules):
        func = present_tensor(a)
        for b in ctx.probes_left:
            got = fp_eval(func, b).dim
            want = tensor(a, b).dim
            res.record(
                got == want,
                _witness(
                    i, a,
                    probe=list(b.dim_vector()), presented=got, direct=want,
                ),
            )


@law(
    "substab-agreement",
    "sub-stabilized tensor presentations, the generic sub-stabilization, "
    "and the direct kernel computation agree at every probe",
)
def _law_substab_agreement(ctx: LawContext, res: LawResult) -> None:
    for i, a in enumerate(ctx.right_modules):
        direct_pres = present_tensor_substab(a)
        generic = fp_substab(present_tensor(a))
        for b in ctx.probes_left:
            want = tensor_substab(a, b).dim
            got_pres = fp_eval(direct_pres, b).dim
            got_gen = fp_eval(generic, b).dim
            res.record(
                got_pres == want and got_gen == want,
                _witness(
                    i, a,
                    probe=list(b.dim_vector()),
                    direct=want, presented=got_pres, generic=got_gen,
                ),
            )


@law(
    "rho-iso-at-injectives",
    "the canonical map to the representable on the defect is an isomorphism "
    "at injectives, so the sub-stabilization kills injectives",
)
def _law_rho_iso(ctx: LawContext, res: LawResult) -> None:
    injectives = [
        indec_injective(ctx.algebra, v, LEFT)
        for v in ctx.algebra.quiver.vertices
    ]
    pairs = list(zip(ctx.left_modules, ctx.right_modules))
    for i, (al, ar) in enumerate(pairs):
        for func in _covariant_functors(al, ar):
            rho = fp_rho(func)
            sub = fp_substab(func)
            for inj in injectives:
                sv = fp_eval(rho.source, inj)
                tv = fp_eval(rho.target, inj)
                mat = fp_eval_morphism(rho, inj, sv, tv)
                iso = sv.dim == tv.dim and rank(mat) == sv.dim
                res.record(
                    iso and fp_eval(sub, inj).dim == 0,
                    _witness(
                        i, al,
                        source_dim=sv.dim, target_dim=tv.dim, rank=rank(mat),
                    ),
                )


@law(
    "fp-kernel-cokernel",
    "kernels and cokernels of random natural transformations evaluate "
    "componentwise",
)
def _law_fp_kernel_cokernel(ctx: LawContext, res: LawResult) -> None:
    per_variance = max(2, ctx.count // 4)
    for variance in (COVARIANT, CONTRAVARIANT):
        for i in range(per_variance):
            alpha = random_fp_morphism(
                ctx.algebra, LEFT, variance, ctx.max_dim, ctx.rng
            )
            ker, incl = fp_kernel(alpha)
            coker = fp_cokernel(alpha)
            for b in ctx.probes_left:
                sv = fp_eval(alpha.source, b)
                tv = fp_eval(alpha.target, b)
                mat = fp_eval_morphism(alpha, b, sv, tv)
                want_ker = kernel_basis(mat).rows
                want_coker = tv.dim - rank(mat)
                kv, cv = fp_eval(ker, b), fp_eval(coker, b)
                incl_mat = fp_eval_morphism(incl, b, kv, sv)
                embeds = (mat @ incl_mat).is_zero() and rank(incl_mat) == want_ker
                res.record(
                    kv.dim == want_ker and cv.dim == want_coker and embeds,
                    _witness(
                        i, b,
                        variance=variance,
                        kernel=kv.dim,
                        expected_kernel=want_ker,
                        cokernel=cv.dim,
                        expected_cokernel=want_coker,
                    ),
                )


@law(
    "torsion-radical",
    "the torsion radical vanishes on projectives and matches its "
    "finitely presented form on every catalog module",
)
def _law_torsion_radical(ctx: LawContext, res: LawResult) -> None:
    func = present_torsion_radical(ctx.algebra)
    for v in ctx.algebra.quiver.vertices:
        p = indec_projective(ctx.algebra, v, RIGHT)
        res.record(
            torsion_radical(p).dim == 0,
            _witness(0, p, vertex=v),
        )
    for i, a in enumerate(ctx.right_modules):
        direct = torsion_radical(a).dim
        presented = fp_eval(func, a).dim
        res.record(
            direct == presented,
            _witness(i, a, direct=direct, presented=presented),
        )


def run_laws(
    ctx: LawContext, names: Optional[List[str]] = None
) -> List[LawResult]:
    selected = sorted(LAWS) if names is None else list(names)
    unknown = [n for n in selected if n not in LAWS]
    if unknown:
        raise UnknownLaw(
            f"unknown laws: {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(LAWS))}"
        )
    results = []
    for name in sorted(selected):
        try:
            results.append(LAWS[name](ctx))
        except AlgebraTooLarge:  # a refused input, not a failed law
            raise
        except Exception as exc:  # honest failure: a law must never crash
            failed = LawResult(name, DESCRIPTIONS[name])
            failed.checks += 1
            failed.failures += 1
            failed.witness = {"error": f"{type(exc).__name__}: {exc}"}
            results.append(failed)
    return results
