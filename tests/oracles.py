"""Independent oracles used to cross-check the library's computations.

The extension-group oracle here classifies extensions directly from
upper-triangular arrow matrices, never touching the projective-cover
route the library uses, so agreement between the two is meaningful.

The rest are references the library no longer carries, since only tests
compare against them:

- the opposite algebra (opposite_quiver, opposite, to_opposite): right
  modules are computed directly, and reading one as a left module over
  the opposite algebra is the independent check of that orientation;
- fp_identity, fp_zero_morphism and fp_morphism_equal, the identity,
  the zero and homotopy equality of morphisms of finitely presented
  functors;
- section(q), the right inverse of a quotient's projection as a matrix,
  the product that QuotientSpace.after_section selects instead;
- basis_maps(hom), a Hom space's basis as maps, in the order of its
  stack.
"""

import itertools

import numpy as np

from stabhom.algebra import (
    LEFT,
    AlgebraError,
    Arrow,
    BoundQuiverAlgebra,
    ModuleMap,
    Quiver,
    Relation,
    Representation,
    map_from_flat,
    other_side,
)
from stabhom.exactla import Matrix, rank
from stabhom.fpfun import FpFunctor, FpMorphism
from stabhom.homology import _acting, _ordered, factor_through


def _block_arrows(m, n, cvals):
    """Arrow matrices of the candidate extension with off-diagonal blocks c.

    Vertex spaces are ordered (n-part, m-part); cvals maps arrow name to
    a numpy block of shape (rows of n-side, cols of m-side).
    """
    alg = m.algebra
    field = alg.field
    maps = {}
    for a in alg.quiver.arrows:
        nm = n.arrow_maps[a.name].data
        mm = m.arrow_maps[a.name].data
        c = cvals[a.name]
        top = np.concatenate([nm, c], axis=1)
        zeros = np.zeros((mm.shape[0], nm.shape[1]), dtype=field.dtype)
        bottom = np.concatenate([zeros, mm], axis=1)
        data = np.concatenate([top, bottom], axis=0)
        maps[a.name] = Matrix(field, field.normalize(data), _trusted=True)
    return maps


def _relation_offdiag(m, n, cvals):
    """Off-diagonal blocks of every relation evaluated on the extension."""
    alg = m.algebra
    field = alg.field
    maps = _block_arrows(m, n, cvals)
    out = []
    for rel in alg.relations:
        acc = None
        for coeff, arrows in rel.terms:
            if m.side == LEFT:
                order = arrows
            else:
                order = tuple(reversed(arrows))
            first = alg.quiver.arrow_by_name[order[0]]
            if m.side == LEFT:
                start = first.source
            else:
                start = first.target
            size = n.dims[start] + m.dims[start]
            prod = Matrix.identity(field, size)
            for name in order:
                prod = maps[name] @ prod
            term = prod.scale(coeff)
            acc = term if acc is None else acc + term
        if acc is None:
            continue
        # Extract the n-rows by m-columns corner.
        if m.side == LEFT:
            last = alg.quiver.arrow_by_name[rel.terms[0][1][-1]]
            end = last.target
            first = alg.quiver.arrow_by_name[rel.terms[0][1][0]]
            start = first.source
        else:
            first = alg.quiver.arrow_by_name[rel.terms[0][1][0]]
            end = first.source
            last = alg.quiver.arrow_by_name[rel.terms[0][1][-1]]
            start = last.target
        block = acc.data[: n.dims[end], n.dims[start] :]
        out.append(np.asarray(block).reshape(-1))
    if not out:
        return np.zeros(0, dtype=field.dtype)
    return np.concatenate(out)


def _unknowns(m, n):
    """Entry coordinates of the off-diagonal blocks, arrow by arrow."""
    alg = m.algebra
    slots = []
    for a in alg.quiver.arrows:
        if m.side == LEFT:
            rows, cols = n.dims[a.target], m.dims[a.source]
        else:
            rows, cols = n.dims[a.source], m.dims[a.target]
        for i in range(rows):
            for j in range(cols):
                slots.append((a.name, i, j))
    return slots


def _zero_cvals(m, n):
    alg = m.algebra
    field = alg.field
    cvals = {}
    for a in alg.quiver.arrows:
        if m.side == LEFT:
            rows, cols = n.dims[a.target], m.dims[a.source]
        else:
            rows, cols = n.dims[a.source], m.dims[a.target]
        cvals[a.name] = np.zeros((rows, cols), dtype=field.dtype)
    return cvals


def ext1_cocycle_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) via relation-constrained cocycles mod coboundaries.

    Extensions of m by n are upper-triangular arrow matrices; the
    off-diagonal blocks form the cocycles (cut out by the linearized
    relations) and conjugating by block-unipotent isomorphisms sweeps
    out the coboundaries.
    """
    alg = m.algebra
    field = alg.field
    slots = _unknowns(m, n)
    columns = []
    for name, i, j in slots:
        cvals = _zero_cvals(m, n)
        cvals[name][i, j] = field.one()
        columns.append(_relation_offdiag(m, n, cvals))
    if slots:
        system = Matrix(
            field,
            field.normalize(np.stack(columns, axis=1))
            if columns[0].size
            else np.zeros((0, len(slots)), dtype=field.dtype),
            _trusted=True,
        )
        z_dim = len(slots) - rank(system)
    else:
        z_dim = 0
    # Coboundaries: c_a = N_a h_src - h_tgt M_a from vertexwise h: m -> n.
    h_slots = []
    for v in alg.quiver.vertices:
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                h_slots.append((v, i, j))
    rows = []
    for v, i, j in h_slots:
        cvec = []
        for a in alg.quiver.arrows:
            if m.side == LEFT:
                src, tgt = a.source, a.target
            else:
                src, tgt = a.target, a.source
            block = np.zeros(
                (n.dims[tgt], m.dims[src]), dtype=field.dtype
            )
            if v == src:
                # N_a applied to the h column at the source.
                block += np.outer(
                    n.arrow_maps[a.name].data[:, i],
                    _unit(m.dims[src], j, field),
                )
            if v == tgt:
                block -= np.outer(
                    _unit(n.dims[tgt], i, field),
                    m.arrow_maps[a.name].data[j, :],
                )
            cvec.append(field.normalize(block).reshape(-1))
        rows.append(np.concatenate(cvec) if cvec else np.zeros(0, dtype=field.dtype))
    if rows and len(slots):
        bmat = Matrix(
            field, field.normalize(np.stack(rows, axis=0)), _trusted=True
        )
        b_dim = rank(bmat)
    else:
        b_dim = 0
    return z_dim - b_dim


def _unit(size, idx, field):
    v = np.zeros(size, dtype=field.dtype)
    v[idx] = field.one()
    return v


def ext1_brute_force_f2(m: Representation, n: Representation) -> int:
    """dim Ext^1 over F2 by literal enumeration of all extensions.

    Only usable on very small inputs; enumerates every off-diagonal
    block assignment, keeps the ones that define a representation, and
    counts cosets of the coboundary subgroup.
    """
    field = m.algebra.field
    assert field.kind == "prime" and field.p == 2
    slots = _unknowns(m, n)
    assert len(slots) <= 14, "brute force oracle only runs on tiny inputs"
    valid = []
    for bits in itertools.product((0, 1), repeat=len(slots)):
        cvals = _zero_cvals(m, n)
        for (name, i, j), bit in zip(slots, bits):
            cvals[name][i, j] = bit
        maps = _block_arrows(m, n, cvals)
        dims = {
            v: n.dims[v] + m.dims[v] for v in m.algebra.quiver.vertices
        }
        try:
            Representation(m.algebra, m.side, dims, maps)
        except AlgebraError:
            continue
        valid.append(bits)
    # Coboundaries: same sweep as the cocycle oracle, enumerated.
    h_dims = {
        v: (n.dims[v], m.dims[v]) for v in m.algebra.quiver.vertices
    }
    h_sizes = [r * c for r, c in h_dims.values()]
    coboundaries = set()
    for hbits in itertools.product((0, 1), repeat=sum(h_sizes)):
        hmats = {}
        pos = 0
        for v, (r, c) in h_dims.items():
            hmats[v] = np.array(
                hbits[pos : pos + r * c], dtype=field.dtype
            ).reshape(r, c)
            pos += r * c
        cvec = []
        for a in m.algebra.quiver.arrows:
            if m.side == LEFT:
                src, tgt = a.source, a.target
            else:
                src, tgt = a.target, a.source
            block = (
                n.arrow_maps[a.name].data @ hmats[src]
                - hmats[tgt] @ m.arrow_maps[a.name].data
            ) % 2
            cvec.extend(int(x) for x in block.reshape(-1))
        coboundaries.add(tuple(cvec))
    n_classes, rem = divmod(len(valid), len(coboundaries))
    assert rem == 0
    dim = 0
    while (1 << dim) < n_classes:
        dim += 1
    assert (1 << dim) == n_classes
    return dim


# -- the opposite algebra ---------------------------------------------------


def opposite_quiver(q: Quiver) -> Quiver:
    return Quiver(q.vertices, [Arrow(a.name, a.target, a.source) for a in q.arrows])


def opposite(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Opposite algebra; an involution up to object identity, kept in the
    algebra's own cache."""
    return alg._cached("opposite", _build_opposite, alg)


def _build_opposite(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    rels = [Relation([(c, tuple(reversed(p))) for c, p in r.terms]) for r in alg.relations]
    opp = BoundQuiverAlgebra(opposite_quiver(alg.quiver), rels, alg.field, alg.nilpotency_bound)
    opp._cached("opposite", lambda: alg)
    return opp


def to_opposite(m: Representation) -> Representation:
    """Reinterpret a right module as a left module over the opposite algebra
    (and vice versa).  The matrices are reused unchanged."""
    return Representation(opposite(m.algebra), other_side(m.side), m.dims,
                          m.arrow_maps, _trusted=True)


# -- morphisms of finitely presented functors ------------------------------


def fp_identity(func: FpFunctor) -> FpMorphism:
    return FpMorphism(
        func,
        func,
        ModuleMap.identity(func.entry),
        ModuleMap.identity(func.relations),
    )


def fp_zero_morphism(source: FpFunctor, target: FpFunctor) -> FpMorphism:
    var = source.variance
    u = ModuleMap.zero(*_ordered(var, target.entry, source.entry))
    v = ModuleMap.zero(*_ordered(var, target.relations, source.relations))
    return FpMorphism(source, target, u, v)


def fp_morphism_equal(a: FpMorphism, b: FpMorphism) -> bool:
    """Homotopy equality: the u-difference factors through the target
    presentation, hence the two squares act identically on every value."""
    if a.source.presentation != b.source.presentation:
        return False
    if a.target.presentation != b.target.presentation:
        return False
    delta = a.u - b.u
    if delta.is_zero():
        return True
    g = a.target.presentation
    return factor_through(delta, **_acting(a.source.variance, g)) is not None


# -- products the library selects instead of computing ---------------------


def section(q) -> Matrix:
    """The (n, q) unit vectors at a quotient's free columns: projection @
    section is the identity, and m @ section is q.after_section(m)."""
    field = q.projection.field
    sect = field.zeros(q.ambient_dim, q.dim)
    sect[q.free, range(q.dim)] = field.one()
    return Matrix(field, sect, _trusted=True)


def basis_maps(hom):
    """A Hom space's basis as maps, in the order of its stack."""
    return [map_from_flat(hom.domain, hom.codomain, row) for row in hom.stack.data]
