"""Bit-for-bit pin of the canonical modules and the random catalogs.

The ROADMAP requires that refactors and new backends leave every result
bit-for-bit identical, not merely isomorphic.  This test hashes the exact
JSON of the indecomposable projectives and injectives on both sides of
every fixture algebra, of their star duals, transposes, syzygies and
cosyzygies, and of a seeded random catalog.  Any change to a basis
order, a matrix entry or the order in which randmod draws its scalars
changes the digest.

A second digest pins the reports of ``stabhom verify --format json`` on
every fixture (seed 1, three modules per side, dimension at most 2), with
the wall-clock time removed: a refactor that changes any law's verdict,
check count or witness changes it.

A third digest pins the projective covers and injective envelopes of a
seeded random catalog on every fixture and both sides: the exact JSON of
each cover's surjection and each envelope's inclusion.  Covers are only
unique up to isomorphism, so a change to how their generators are chosen
moves this digest and no other.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

from algebras import BUILDERS
from stabhom.algebra import LEFT, RIGHT, indec_injective, indec_projective
from stabhom.cli.main import main
from stabhom.cli.randmod import random_catalog
from stabhom.cli.serialize import algebra_to_dict, map_to_dict, module_to_dict
from stabhom.homology import (
    cosyzygy,
    injective_envelope,
    projective_cover,
    star_dual,
    syzygy,
    transpose,
)

PINNED_DIGEST = "8858265e40484caac606464190947c70331ddae4a74a538e3326348208d83e78"
VERIFY_DIGEST = "7eef5f3bfcc6e3398cc1a3511060a34e733d50225d97007b7128e0624231e8fd"
COVER_DIGEST = "7d2618e32f80103bd7c3a397af9387cea8aafc91790441dba17961a6a661d70f"
VERIFY_ARGS = ["--seed", "1", "--count", "3", "--max-dim", "2", "--format", "json"]


def _modules(alg, side):
    for v in alg.quiver.vertices:
        for m in (indec_projective(alg, v, side), indec_injective(alg, v, side)):
            yield m
            yield star_dual(m).module
            yield transpose(m).module
            yield syzygy(m)
            yield cosyzygy(m)
    yield from random_catalog(alg, side, 4, 2, random.Random(7))[0]


def exact_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(BUILDERS):
        alg = BUILDERS[name]()
        for side in (LEFT, RIGHT):
            for m in _modules(alg, side):
                doc = module_to_dict(m, algebra_ref=name)
                h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
                h.update(b"\n")
    return h.hexdigest()


def test_canonical_and_random_modules_are_bit_for_bit_pinned():
    assert exact_digest() == PINNED_DIGEST


def verify_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for name in sorted(BUILDERS):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(algebra_to_dict(BUILDERS[name]())))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", str(path)] + VERIFY_ARGS)
        report = json.loads(out.getvalue())
        report.pop("wall_time_s")
        h.update(json.dumps([code, report], sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def test_verify_reports_are_bit_for_bit_pinned(tmp_path):
    assert verify_digest(tmp_path) == VERIFY_DIGEST


def cover_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(BUILDERS):
        alg = BUILDERS[name]()
        for side in (LEFT, RIGHT):
            for m in random_catalog(alg, side, 10, 3, random.Random(17))[0]:
                for f in (projective_cover(m).surjection, injective_envelope(m).inclusion):
                    doc = map_to_dict(f, algebra_ref=name)
                    h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
                    h.update(b"\n")
    return h.hexdigest()


def test_covers_and_envelopes_are_bit_for_bit_pinned():
    assert cover_digest() == COVER_DIGEST
