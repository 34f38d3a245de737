"""Bit-for-bit pin of the canonical modules and the random catalogs.

The ROADMAP requires that refactors and new backends leave every result
bit-for-bit identical, not merely isomorphic.  This test hashes the exact
JSON of the indecomposable projectives and injectives on both sides of
every fixture algebra, of their star duals, transposes, syzygies and
cosyzygies, and of a seeded random catalog.  Any change to a basis
order, a matrix entry or the order in which randmod draws its scalars
changes the digest.
"""

import hashlib
import json
import random

from algebras import BUILDERS
from stabhom.algebra import LEFT, RIGHT, indec_injective, indec_projective
from stabhom.cli.randmod import random_catalog
from stabhom.cli.serialize import module_to_dict
from stabhom.homology import cosyzygy, star_dual, syzygy, transpose

PINNED_DIGEST = "8858265e40484caac606464190947c70331ddae4a74a538e3326348208d83e78"


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
