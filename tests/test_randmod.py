"""What random_module makes and draws.

A dimension vector past the module size cap is refused before any arrow
entry is drawn: the generator is called once per vertex, for the
dimensions, and never again.  It used to draw every entry of each
candidate first, and the retry loops caught the cap error as an
AlgebraError, so an algebra with relations fell through to a projective
quotient of another dimension vector.

A rejected candidate makes no module and no Fraction matrix: over Q its
relations are decided on the integers drawn, and only the accepted draw
becomes Fractions and one Representation.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import stabhom.algebra as algebra_mod
from algebras import BUILDERS
from stabhom.algebra import LEFT, RIGHT, AlgebraError, AlgebraTooLarge, Representation
from stabhom.cli.randmod import STRATEGY_REJECTION, random_catalog, random_module
from stabhom.exactla import Matrix


class _Counter(random.Random):
    """A seeded generator that counts its randrange calls, through which
    every draw of random_module passes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_an_over_cap_dimension_vector_is_refused_before_any_draw(name, monkeypatch):
    alg = BUILDERS[name]()
    monkeypatch.setattr(algebra_mod, "MAX_MODULE_ENTRIES", 3)
    refused = 0
    for seed in range(20):
        rng, ahead = _Counter(seed), random.Random(seed)
        dims = {v: ahead.randrange(4) for v in alg.quiver.vertices}
        entries = sum(dims[a.source] * dims[a.target] for a in alg.quiver.arrows)
        if entries <= 3:
            random_module(alg, LEFT, 3, rng)
            continue
        with pytest.raises(AlgebraTooLarge, match=f"hold {entries} entries, more than 3"):
            random_module(alg, LEFT, 3, rng)
        assert rng.calls == len(alg.quiver.vertices)
        refused += 1
    assert refused >= 5


@pytest.mark.parametrize("name", ["square", "nakayama"])
def test_a_catalog_past_the_cap_raises_and_returns_no_quotient(name, monkeypatch):
    # these used to draw hundreds of candidates each, then return a
    # projective quotient with another dimension vector
    monkeypatch.setattr(algebra_mod, "MAX_MODULE_ENTRIES", 3)
    with pytest.raises(AlgebraTooLarge):
        random_catalog(BUILDERS[name](), LEFT, 12, 3, _Counter(1))


def test_a_rejected_candidate_makes_no_module_and_no_fraction_matrix(monkeypatch):
    alg = BUILDERS["loop2_rational"]()  # k[x]/(x^2) over Q: rejection only
    made = {"modules": 0, "fraction_matrices": 0}
    rep_init, matrix_init = Representation.__init__, Matrix.__init__

    def count_module(self, *args, **kwargs):
        made["modules"] += 1
        rep_init(self, *args, **kwargs)

    def count_matrix(self, field, data, _trusted=False):
        matrix_init(self, field, data, _trusted)
        made["fraction_matrices"] += self.data.dtype == object

    monkeypatch.setattr(Representation, "__init__", count_module)
    monkeypatch.setattr(Matrix, "__init__", count_matrix)
    rejected = 0
    for seed in range(40):
        for side in (LEFT, RIGHT):
            made.update(modules=0, fraction_matrices=0)
            _, strategy, attempts = random_module(alg, side, 2, random.Random(seed))
            if strategy != STRATEGY_REJECTION:
                continue
            rejected += attempts - 1
            # the accepted draw alone: one module and its one arrow matrix
            assert made == {"modules": 1, "fraction_matrices": 1}
    assert rejected >= 40


def test_every_rejection_drawn_loop2_q_module_squares_to_zero():
    """A module a rejection draw accepts is built unchecked, its relation
    decided on the drawn integers.  Each one's x, as Fractions, squares to
    zero by numpy's own product of the object array."""
    alg = BUILDERS["loop2_rational"]()
    (loop,) = alg.quiver.arrows
    drawn = nonzero = 0
    for seed in range(60):
        for side in (LEFT, RIGHT):
            rep, strategy, _ = random_module(alg, side, 3, random.Random(seed))
            if strategy != STRATEGY_REJECTION:
                continue
            x = rep.arrow_maps[loop.name].data
            assert all(type(e) is Fraction for e in x.ravel())
            assert not np.dot(x, x).any()
            drawn += 1
            nonzero += bool(x.any())
    assert drawn >= 80 and nonzero >= 20


def test_a_wrong_linear_solve_is_caught_by_the_module_check(monkeypatch):
    """The linear-solve branch keeps the Representation's relation check:
    a solution moved off the solution set is refused."""
    from stabhom.cli import randmod

    real = randmod.solve_with_kernel

    def moved(system, rhs):
        solved = real(system, rhs)
        if solved is None:
            return None
        x, kernel = solved
        if not x.data.size:
            return solved
        data = x.data.copy()
        data[0, 0] = x.field.add(data[0, 0], x.field.one())
        return Matrix(x.field, data, _trusted=True), Matrix.zeros(x.field, 0, kernel.cols)

    monkeypatch.setattr(randmod, "solve_with_kernel", moved)
    alg = BUILDERS["square"]()
    refused = 0
    for seed in range(20):
        try:
            random_module(alg, LEFT, 2, random.Random(seed))
        except AlgebraError as exc:
            assert "violates relation" in str(exc)
            refused += 1
    assert refused >= 5
