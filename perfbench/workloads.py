"""The benchmark's workloads: seeded query plans over stabhom's public API.

Each workload's ``setup(seed)`` loads its algebra documents through
stabhom.cli.serialize and builds its modules or catalogs.
It returns a Plan whose ``query(k)`` gives the k-th query of an endless,
fixed sequence.  Queries come in rounds that visit every query kind once
in a fixed order, and a run measures whole rounds, so every run covers the
same mix.  The catalogs of laws_sweep and the summand libraries of the
big workloads are fixed, drawn from fixed seeds like the committed
documents of cli_docs.  laws_sweep does not use the seed at all; in the
other workloads it drives the big modules built from the libraries and
which documents each CLI call reads.

A query's ``run`` is the timed call.  ``finish`` turns its raw return value
into the answer outside the timed span, and ``check`` judges the answer
after the timed phase.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Library calls go through module attributes so that the tracer, which
# patches those attributes, sees the benchmark's own calls too.
from stabhom import algebra, exactla, homology, stable
from stabhom.algebra import LEFT, RIGHT, Representation
from stabhom.cli import laws as laws_mod
from stabhom.cli import randmod, serialize

cli = importlib.import_module("stabhom.cli.main")  # the package rebinds .main to the function

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
OUT_DIR = os.path.join(HERE, "out")


def subseed(*parts) -> int:
    """A 64-bit seed derived from the parts; stable across processes."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def manifest() -> dict:
    with open(os.path.join(INPUTS, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def input_path(name: str) -> str:
    return os.path.join(INPUTS, name)


class Query:
    __slots__ = ("label", "run", "finish", "check")

    def __init__(
        self,
        label: str,
        run: Callable[[], object],
        check: Callable[[object], bool],
        finish: Optional[Callable[[object], object]] = None,
    ):
        self.label = label
        self.run = run
        self.check = check
        self.finish = finish


class Plan:
    """A fixed round of queries, repeated; ``make(r, j)`` builds query j of round r.

    ``round_s`` is the time one round takes at reference speed at this
    version of stabhom, so ``rounds(seconds)`` is a constant per workload:
    every run measures the same queries, however fast the machine runs."""

    def __init__(self, round_size: int, make: Callable[[int, int], Query], round_s: float = 1.0):
        self.round_size = round_size
        self.round_s = round_s
        self._make = make

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def query(self, k: int) -> Query:
        r, j = divmod(k, self.round_size)
        return self._make(r, j)


# -- laws_sweep ----------------------------------------------------------------

# One algebra with relations, a self-injective one, and one over Q.
LAW_ALGEBRAS = ("square_f5", "nakayama3_f2", "loop2_q")
# Many small catalogs rather than a few large ones: a run's cost then
# averages over many independent catalogs.  The pool, which catalog a law
# meets in which round, and the laws' own random draws are the same for
# every seed: the slowest queries (fp-kernel-cokernel,
# presentation-vs-direct) cost what their catalogs and random morphisms
# make them, and with any of these drawn per seed query_tail_s spread by
# up to 0.27 of its median over 10 seeds.
LAW_POOL = 24  # catalogs per algebra; laws rotate through them across rounds
LAW_COUNT = 1  # modules per side in each catalog (plus the 8 random probes)
# At vertex dimension 3, fp-kernel-cokernel's random morphisms over Q make
# its cost heavy-tailed (CV 0.8 per query), and the tail percentile of a
# run lands between the three algebras' costs of that law.  At 2 all three
# cost about the same (0.4-0.6 s) and vary little.
LAW_MAX_DIM = 2
LAW_ROUND_S = 3.3


def expected_skip(law: str, info: dict) -> bool:
    """Whether the law must report skip on an algebra with these flags."""
    if law == "hereditary-split":
        return not info["hereditary"]
    if law == "quasi-frobenius":
        return not info["self_injective"]
    return False


# Laws that check only the catalog modules meeting a precondition.  On a
# catalog where no module meets it they run zero checks; the answer check
# then confirms the precondition fails for every module.  (On a
# self-injective algebra only the zero module has a zero star dual.)
VACUOUS_WHEN = {
    "torsion-kills-injectives": lambda ctx: all(
        homology.star_dual(a).module.total_dim for a in ctx.right_modules
    ),
    "torsionless-embedding": lambda ctx: all(
        stable.bass_torsion(a, "reject").dim
        for side in (LEFT, RIGHT)
        for a in ctx.modules(side)
    ),
}


def law_result_ok(result, skip: bool, ctx) -> bool:
    if skip:
        return result.skipped is not None
    if result.skipped is not None or result.failures:
        return False
    if result.checks == 0:
        vacuous = VACUOUS_WHEN.get(result.name)
        return vacuous is not None and vacuous(ctx)
    return True


def setup_laws_sweep(seed: int) -> Plan:
    """The seed is not used: the catalogs, their order and the laws' random
    draws are the same on every run (see LAW_POOL)."""
    info = manifest()["algebras"]
    law_names = sorted(laws_mod.LAWS)
    pools = {}
    for name in LAW_ALGEBRAS:
        alg = serialize.load_algebra(input_path(info[name]["file"]))
        pools[name] = [
            laws_mod.build_context(alg, subseed("catalog", name, i), LAW_COUNT, LAW_MAX_DIM)
            for i in range(LAW_POOL)
        ]

    def make(r: int, j: int) -> Query:
        li, ai = divmod(j, len(LAW_ALGEBRAS))
        law, name = law_names[li], LAW_ALGEBRAS[ai]
        ctx = pools[name][(li + r) % LAW_POOL]
        skip = expected_skip(law, info[name])

        def run():
            # laws draw from ctx.rng; reseed so query k is the same on every run
            ctx.rng = random.Random(subseed(r, law, name))
            return laws_mod.run_laws(ctx, [law])[0]

        return Query(f"{law}@{name}", run, lambda res: law_result_ok(res, skip, ctx))

    return Plan(len(law_names) * len(LAW_ALGEBRAS), make, LAW_ROUND_S)


# -- big_fp and big_q ------------------------------------------------------------

# (algebra, dimension vector of every big module, max vertex dim of a summand).
# The dimension vectors are fixed so the size of every elimination is the
# same on every seed; the seed chooses the summands and the conjugation.
BIG_ALGEBRAS = {
    "big_fp": (("kronecker_f5", (8, 8), 3), ("square_f5", (6, 6, 6, 6), 3)),
    "big_q": (("kronecker_q", (3, 3), 2), ("a2_q", (3, 3), 2)),
}
BIG_LIBRARY = 16  # random summands per algebra and side
BIG_ROUNDS = 24  # rounds of fresh big modules; a longer run cycles through them
BIG_KINDS = ("hom", "stable_p", "stable_i", "substab")
# A round per algebra: (kind, pair), pair "ab" = Hom(a, b)-like, "ba" the
# reverse, "rb" = (right r, left b).  Hom is asked both ways, so that the
# median query falls inside the spread of the stable Homs' costs and not in
# the gap between the two algebras' costs.
BIG_ROUND = (("hom", "ab"), ("hom", "ba"), ("stable_p", "ab"), ("stable_i", "ab"), ("substab", "rb"))
BIG_ROUND_S = {"big_fp": 0.95, "big_q": 0.85}


def _invertible(field, n: int, rng) -> Tuple[exactla.Matrix, exactla.Matrix]:
    ident = exactla.Matrix.identity(field, n)
    while True:
        g = randmod.random_matrix(field, n, n, rng)
        inv = exactla.solve_matrix(g, ident)
        if inv is not None and g @ inv == ident:
            return g, inv


def conjugated_sum(alg, side: str, dims: Sequence[int], library: Sequence, rng):
    """A module with dimension vector `dims`: a direct sum of summands from
    `library`, taken in random order while they fit, padded with simples,
    then conjugated at each vertex by a random invertible matrix.
    Returns (big module, summands)."""
    target = dict(zip(alg.quiver.vertices, dims))
    have = {v: 0 for v in target}
    parts: List[Representation] = []
    for m in rng.sample(list(library), len(library)):
        if all(have[v] + m.dims[v] <= target[v] for v in target):
            parts.append(m)
            for v in target:
                have[v] += m.dims[v]
    for v in target:
        parts.extend(algebra.simple(alg, v, side) for _ in range(target[v] - have[v]))
    total = algebra.direct_sum(parts).module
    g = {v: _invertible(alg.field, total.dims[v], rng) for v in total.vertices}
    maps = {}
    for a in alg.quiver.arrows:
        x, y = (a.source, a.target) if side == LEFT else (a.target, a.source)
        maps[a.name] = g[y][0] @ total.arrow_maps[a.name] @ g[x][1]
    return Representation(alg, side, total.dims, maps), parts


def random_library(alg, side: str, max_dim: int, rng) -> List[Representation]:
    out: List[Representation] = []
    while len(out) < BIG_LIBRARY:
        m = randmod.random_module(alg, side, max_dim, rng)[0]
        if m.total_dim:
            out.append(m)
    return out


def big_answer(kind: str, a: Representation, b: Representation) -> int:
    if kind == "hom":
        return homology.hom_basis(a, b).dim
    if kind == "stable_p":
        return stable.stable_hom(a, b, stable.MODULO_PROJECTIVES).dim
    if kind == "stable_i":
        return stable.stable_hom(a, b, stable.MODULO_INJECTIVES).dim
    return stable.tensor_substab(a, b).dim


class AdditiveOracle:
    """Expected big answers as sums over pairs of small summands.  All four
    functors are additive in each argument and blind to the conjugation."""

    def __init__(self):
        self._cache: Dict[tuple, int] = {}

    def small(self, kind: str, s: Representation, t: Representation) -> int:
        key = (kind, id(s), id(t))
        if key not in self._cache:
            self._cache[key] = big_answer(kind, s, t)
        return self._cache[key]

    def expected(self, kind: str, parts_a: Sequence, parts_b: Sequence) -> int:
        return sum(self.small(kind, s, t) for s in parts_a for t in parts_b)


def setup_big(workload: str, seed: int) -> Plan:
    info = manifest()["algebras"]
    oracle = AdditiveOracle()
    cases = []
    for name, dims, max_dim in BIG_ALGEBRAS[workload]:
        alg = serialize.load_algebra(input_path(info[name]["file"]))
        # The library is the same for every seed: with a library per seed,
        # queries_per_s and the tail moved by a seventh between seeds.
        lib_rng = random.Random(subseed("library", workload, name))
        lib = {side: random_library(alg, side, max_dim, lib_rng) for side in (LEFT, RIGHT)}
        rng = random.Random(subseed(seed, workload, name))
        # Each round gets fresh modules: (left a, left b, right r)
        rounds = [
            tuple(conjugated_sum(alg, side, dims, lib[side], rng) for side in (LEFT, LEFT, RIGHT))
            for _ in range(BIG_ROUNDS)
        ]
        cases.append((name, rounds))

    def make(r: int, j: int) -> Query:
        ci, ki = divmod(j, len(BIG_ROUND))
        name, rounds = cases[ci]
        kind, pair = BIG_ROUND[ki]
        left_a, left_b, right = rounds[r % BIG_ROUNDS]
        first, second = {"ab": (left_a, left_b), "ba": (left_b, left_a), "rb": (right, left_b)}[pair]
        (a, parts_a), (b, parts_b) = first, second
        return Query(
            f"{kind}:{pair}@{name}",
            lambda: big_answer(kind, a, b),
            lambda got: got == oracle.expected(kind, parts_a, parts_b),
        )

    return Plan(len(cases) * len(BIG_ROUND), make, BIG_ROUND_S[workload])


# -- cli_docs --------------------------------------------------------------------

# One round.  Every call re-parses and rebuilds its algebra, so the bound-7
# algebras dominate.  They come often enough (4 of 34 per round) that the
# tail percentile falls among them, spread through the round.
_CLI_SMALL = tuple(
    (alg, cmd)
    for alg in ("nakayama3_f2", "twoloop_f2_b5", "qext_f5_b5", "twoloop_f2_b6", "qext_f5_b6")
    for cmd in ("info", "invariants:left", "invariants:right", "stablehom:left",
                "stablehom:right", "tensor")
)
_CLI_BOUND7 = (
    ("qext_f5_b7", "info"),
    ("twoloop_f2_b7", "info"),
    ("qext_f5_b7", "stablehom:left"),
    ("qext_f5_b7", "tensor"),
)
CLI_ROUND: Tuple[Tuple[str, str], ...] = tuple(
    q
    for i, big in enumerate(_CLI_BOUND7)
    for q in _CLI_SMALL[i * 8 : i * 8 + 8] + (big,)
) + _CLI_SMALL[8 * len(_CLI_BOUND7) :]
CLI_ROUND_S = 4.4


def check_cli(cmd: str, rc: int, report: Optional[dict], info: dict) -> bool:
    if rc != 0 or report is None or report.get("command") != cmd:
        return False
    if cmd == "info":
        return (
            report["dimension"] == info["dimension"]
            and report["hereditary"] == info["hereditary"]
            and report["self_injective"] == info["self_injective"]
        )
    if cmd == "invariants":
        certs = report["certificates"].values()
        return len(certs) == 2 and all(c["exact"] and c["valid"] for c in certs)
    if cmd == "stablehom":
        return all(
            report["hom"] == report[flavor]["factoring"] + report[flavor]["stable"]
            for flavor in ("modulo_projectives", "modulo_injectives")
        )
    return report["substab"] == report["ext_of_transpose"]


def setup_cli_docs(seed: int) -> Plan:
    man = manifest()
    info = man["algebras"]
    names = sorted({alg for alg, _ in CLI_ROUND})
    # Parse and build every document once: validates the inputs and is the
    # set-up cost a caller of the library would pay.
    for name in names:
        alg = serialize.load_algebra(input_path(info[name]["file"]))
        for side in (LEFT, RIGHT):
            for fname in man["modules"][name][side]:
                serialize.load_module(input_path(fname), algebra=alg)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "cli_report.json")

    def make(r: int, j: int) -> Query:
        name, spec = CLI_ROUND[j]
        cmd, _, side = spec.partition(":")
        pick = random.Random(subseed(seed, r, j))
        pools = man["modules"][name]
        if cmd == "tensor":
            mods = [pick.choice(pools[RIGHT]), pick.choice(pools[LEFT])]
        elif cmd == "stablehom":
            mods = [pick.choice(pools[side]), pick.choice(pools[side])]
        elif cmd == "invariants":
            mods = [pick.choice(pools[side])]
        else:
            mods = []
        argv = [cmd, input_path(info[name]["file"])] + [input_path(m) for m in mods]
        argv += ["--format", "json", "--out", out_path]

        def finish(rc):
            if rc != 0:
                return rc, None
            with open(out_path, encoding="utf-8") as fh:
                return rc, json.load(fh)

        return Query(
            f"{cmd}@{name}",
            lambda: cli.main(argv),
            lambda ans: check_cli(cmd, ans[0], ans[1], info[name]),
            finish,
        )

    return Plan(len(CLI_ROUND), make, CLI_ROUND_S)


SETUPS: Dict[str, Callable[[int], Plan]] = {
    "laws_sweep": setup_laws_sweep,
    "big_fp": lambda seed: setup_big("big_fp", seed),
    "big_q": lambda seed: setup_big("big_q", seed),
    "cli_docs": setup_cli_docs,
}
