"""Span tracer that wraps stabhom's public functions from outside.

``from .homology import hom_basis`` copies the function object into every
importing module, so patching one module attribute would miss most calls.
The tracer therefore finds each target function in its home module and
replaces it *by identity* in every loaded ``stabhom`` namespace that binds
it.  Methods and constructors are wrapped once, on their class; the law
functions are wrapped inside the ``LAWS`` registry that ``run_laws`` reads.

A target that cannot be found raises ``TargetMissing``: a rename in the
library must break the traced run rather than silently report zero.

Spans (name, start, end, parent, query id) are kept in compact arrays and
written as JSON lines by ``write_jsonl``.  Aggregates per metric name
(calls, inclusive seconds, self seconds, plus a few counters) are kept as
the spans close, so reading the per-layer metrics costs nothing extra.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (metric name, home module, attribute path).  Several attributes may share
# one metric name; their calls and times are summed.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exactla.rref", "stabhom.exactla", "rref"),
    ("exactla.kernel_basis", "stabhom.exactla", "kernel_basis"),
    ("exactla.solve_matrix", "stabhom.exactla", "solve_matrix"),
    ("exactla.subspace", "stabhom.exactla", "Subspace.__init__"),
    ("algebra.build", "stabhom.algebra", "BoundQuiverAlgebra._build_basis"),
    ("algebra.representation", "stabhom.algebra", "Representation.__init__"),
    ("algebra.direct_sum", "stabhom.algebra", "direct_sum"),
    ("algebra.indec_projective", "stabhom.algebra", "indec_projective"),
    ("algebra.indec_injective", "stabhom.algebra", "indec_injective"),
    ("homology.projective_cover", "stabhom.homology", "projective_cover"),
    ("homology.injective_envelope", "stabhom.homology", "injective_envelope"),
    ("homology.star_dual", "stabhom.homology", "star_dual"),
    ("homology.hom_basis", "stabhom.homology", "hom_basis"),
    ("homology.push_coords", "stabhom.homology", "push_coords"),
    ("homology.tensor", "stabhom.homology", "tensor"),
    ("homology.ext1", "stabhom.homology", "ext1"),
    ("stable.stable_hom", "stabhom.stable", "stable_hom"),
    ("stable.tensor_substab", "stabhom.stable", "tensor_substab"),
    ("stable.bass_torsion", "stabhom.stable", "bass_torsion"),
    ("stable.fp_certificate", "stabhom.stable", "fp_certificate"),
    ("fpfun.fp_eval", "stabhom.fpfun", "fp_eval"),
    ("fpfun.present", "stabhom.fpfun", "present_overline_cov"),
    ("fpfun.present", "stabhom.fpfun", "present_underline_contra"),
    ("fpfun.present", "stabhom.fpfun", "present_underline_cov"),
    ("fpfun.present", "stabhom.fpfun", "present_overline_contra"),
    ("fpfun.present", "stabhom.fpfun", "present_tensor"),
    ("fpfun.present", "stabhom.fpfun", "present_tensor_substab"),
    ("fpfun.present", "stabhom.fpfun", "present_torsion_radical"),
    ("cli.randmod.random_module", "stabhom.cli.randmod", "random_module"),
    ("cli.serialize.load", "stabhom.cli.serialize", "load_algebra"),
    ("cli.serialize.load", "stabhom.cli.serialize", "load_module"),
    ("cli.serialize.load", "stabhom.cli.serialize", "load_functor"),
)

# Metrics whose distinct-input ratio is tracked: the first argument is a
# module and the ratio is distinct modules / calls.
DISTINCT_INPUT = frozenset(
    {"homology.projective_cover", "homology.injective_envelope", "homology.star_dual"}
)

LAW_PREFIX = "cli.laws."
QUERY_SPAN = "query"

# Times of layers that some workloads never call.  They read 0 on every run
# of those workloads, so they are printed but left out of the result line.
PRINTED_ONLY = frozenset(
    {"stable.bass_torsion.incl_s", "stable.fp_certificate.incl_s", "fpfun.fp_eval.incl_s"}
)


def printed_only(metric: str) -> bool:
    return metric in PRINTED_ONLY or metric.startswith(LAW_PREFIX)


class TargetMissing(RuntimeError):
    """A traced function, method or registry entry no longer exists."""


def module_key(m) -> tuple:
    """Value identity of a Representation: algebra object, side, dims and
    the exact arrow matrices."""
    parts = []
    for name in sorted(m.arrow_maps):
        data = m.arrow_maps[name].data
        parts.append(data.tobytes() if data.dtype != object else tuple(data.flat))
    return (id(m.algebra), m.side, m.dim_vector(), tuple(parts))


class Stat:
    __slots__ = ("calls", "incl", "self_s", "entries", "max_cols", "keys", "extra", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.entries = 0
        self.max_cols = 0
        self.keys: Optional[set] = None
        self.extra = 0
        self.depth = 0


class Tracer:
    """Records nested spans around the wrapped library calls."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.query_col = array("i")
        self.stats: Dict[str, Stat] = {}
        self.bindings: Dict[Tuple[str, str], int] = {}
        self.query_id = -1
        self._stack: List[list] = []  # [span index, child seconds]
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping ---------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            if name in DISTINCT_INPUT:
                st.keys = set()
        return st

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        idx = len(self.start_col)
        self.name_col.append(self._name_id(name))
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.query_col.append(self.query_id)
        self.end_col.append(0.0)
        self._stack.append([idx, 0.0])
        self.start_col.append(time.perf_counter())

    def exit(self, st: Stat) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.end_col[idx] = end
        dur = end - self.start_col[idx]
        st.calls += 1
        st.self_s += dur - child
        if st.depth == 0:
            st.incl += dur  # outermost occurrence only, so nesting never double counts
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        st = self._stat(name)
        self.enter(name)
        st.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            st.depth -= 1
            self.exit(st)

    def wrap(self, name: str, fn: Callable) -> Callable:
        st = self._stat(name)
        tracer = self

        if name == "exactla.rref":

            def observe(args, out):
                rows, cols = args[0].shape
                st.entries += rows * cols
                st.max_cols = max(st.max_cols, cols)

        elif name == "homology.hom_basis":

            def observe(args, out):
                a, b = args[0], args[1]
                st.max_cols = max(st.max_cols, sum(a.dims[v] * b.dims[v] for v in a.dims))

        elif name == "cli.randmod.random_module":

            def observe(args, out):
                st.extra += out[2]  # attempts spent on this module

        elif st.keys is not None:

            def observe(args, out):
                st.keys.add(module_key(args[0]))

        else:
            observe = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise TargetMissing, with nothing left
        patched, if one is absent."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        import stabhom.cli.laws as laws_mod
        import stabhom.cli.main  # noqa: F401  (loads every namespace to patch)

        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "stabhom" or key.startswith("stabhom."))
        ]
        for name, home, path in TARGETS:
            owner = sys.modules.get(home)
            if owner is None:
                raise TargetMissing(f"{home} is not loaded")
            parts = path.split(".")
            for part in parts[:-1]:
                if not hasattr(owner, part):
                    raise TargetMissing(f"{home}.{path} not found")
                owner = getattr(owner, part)
            attr = parts[-1]
            if attr not in vars(owner):
                raise TargetMissing(f"{home}.{path} not found")
            orig = vars(owner)[attr]
            wrapped = self.wrap(name, orig)
            if len(parts) > 1:  # method on a class: one binding
                self._patch(owner, attr, orig, wrapped)
                count = 1
            else:
                count = 0
                for mod in namespaces:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)
                            count += 1
            self.bindings[(home, path)] = count
        registry = laws_mod.LAWS
        if not registry:
            raise TargetMissing("stabhom.cli.laws.LAWS is empty")
        for law_name, fn in list(registry.items()):
            registry[law_name] = self.wrap(LAW_PREFIX + law_name, fn)
            self._undo.append(functools.partial(registry.__setitem__, law_name, fn))
            self.bindings[("stabhom.cli.laws", f"LAWS[{law_name}]")] = 1

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append(functools.partial(setattr, owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------

    def spans(self) -> List[tuple]:
        """All spans as (name, start, end, parent index, query id)."""
        names = self.names
        return [
            (names[n], s, e, p, q)
            for n, s, e, p, q in zip(
                self.name_col, self.start_col, self.end_col, self.parent_col, self.query_col
            )
        ]

    def write_jsonl(self, path: str) -> None:
        names = self.names
        t0 = self.start_col[0] if len(self.start_col) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (n, s, e, p, q) in enumerate(
                zip(self.name_col, self.start_col, self.end_col, self.parent_col, self.query_col)
            ):
                fh.write(
                    f'{{"id": {i}, "name": "{names[n]}", "start": {s - t0:.7f}, '
                    f'"end": {e - t0:.7f}, "parent": {p}, "query": {q}}}\n'
                )


def layer_metrics(tracer: Tracer, law_names: List[str]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    def st(name: str) -> Stat:
        return tracer.stats.get(name) or Stat()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    r = st("exactla.rref")
    out["exactla.rref.calls"] = (r.calls, "count")
    out["exactla.rref.self_s"] = (r.self_s, "s")
    out["exactla.rref.entries"] = (r.entries, "count")
    out["exactla.rref.max_cols"] = (r.max_cols, "count")
    out["exactla.rref.us_per_call"] = (ratio(r.incl * 1e6, r.calls), "us")
    for short in ("kernel_basis", "solve_matrix", "subspace"):
        out[f"exactla.{short}.calls"] = (st(f"exactla.{short}").calls, "count")
    b = st("algebra.build")
    out["algebra.build.calls"] = (b.calls, "count")
    out["algebra.build.self_s"] = (b.self_s, "s")
    out["algebra.build.incl_s"] = (b.incl, "s")
    rep = st("algebra.representation")
    out["algebra.representation.calls"] = (rep.calls, "count")
    out["algebra.representation.self_s"] = (rep.self_s, "s")
    for short in ("direct_sum", "indec_projective", "indec_injective"):
        out[f"algebra.{short}.calls"] = (st(f"algebra.{short}").calls, "count")
    for name in sorted(DISTINCT_INPUT):
        s = st(name)
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.distinct_ratio"] = (ratio(len(s.keys or ()), s.calls), "ratio")
    h = st("homology.hom_basis")
    out["homology.hom_basis.calls"] = (h.calls, "count")
    out["homology.hom_basis.self_s"] = (h.self_s, "s")
    out["homology.hom_basis.max_cols"] = (h.max_cols, "count")
    for short in ("push_coords", "tensor"):
        s = st(f"homology.{short}")
        out[f"homology.{short}.calls"] = (s.calls, "count")
        out[f"homology.{short}.self_s"] = (s.self_s, "s")
    out["homology.ext1.calls"] = (st("homology.ext1").calls, "count")
    for short in ("stable_hom", "tensor_substab", "bass_torsion", "fp_certificate"):
        s = st(f"stable.{short}")
        out[f"stable.{short}.calls"] = (s.calls, "count")
        out[f"stable.{short}.incl_s"] = (s.incl, "s")
    f = st("fpfun.fp_eval")
    out["fpfun.fp_eval.calls"] = (f.calls, "count")
    out["fpfun.fp_eval.incl_s"] = (f.incl, "s")
    out["fpfun.present.calls"] = (st("fpfun.present").calls, "count")
    rm = st("cli.randmod.random_module")
    out["cli.randmod.modules"] = (rm.calls, "count")
    out["cli.randmod.attempts"] = (rm.extra, "count")
    out["cli.randmod.yield"] = (ratio(rm.calls, rm.extra), "ratio")
    out["cli.serialize.load_s"] = (st("cli.serialize.load").incl, "s")
    for law_name in law_names:
        out[f"{LAW_PREFIX}{law_name}.s"] = (st(LAW_PREFIX + law_name).incl, "s")
    return out
