"""Homological machinery over a bound quiver algebra.

Hom(a, b) is the kernel of the intertwiner equations phi_y A - B phi_x = 0,
one block of rows per arrow x -> y (I (x) A^T at phi_y, -B (x) I at phi_x,
adding up on a loop): the kernel of one Kronecker system
(exactla.kron_kernel), with terms (x, B, y, A^T), refused with
AlgebraTooLarge past MAX_HOM_SYSTEM_ENTRIES before it is written
(check_hom_system, which counts from the dimension vectors alone, so that
verify refuses a drawn module before any law runs); the tensor, read off a
Hom space, takes the same cap.
The tensor product a (x) b is read off its dual: (a (x) b)* = Hom(b, D a)
(the tensor-Hom adjunction, Auslander-Reiten-Smalo, Representation Theory
of Artin Algebras, 1995), so TensorSpace's projection is the stack of
hom_basis(b, D a), memo included, and tensor_map is the dual pushforward
psi -> D f psi g.  No tensor system or block is written.
A pushforward (push_coords) is the matrix of g -> g pre or g -> post g
between Hom spaces, made by one exact product per vertex for the whole
basis; its composition body (_composites) takes a stack of k maps per
vertex, so that stable composes a basis with all copies of a summand at
once.  Beside it sits the variance rule that fpfun and stable write
their covariant/contravariant mirrors through once: a functor reads a
pair (x, y) as is when covariant and as (y, x) when contravariant
(_ordered), and a map acts on its values by push_coords's pre= when
covariant and post= when contravariant (_acting).  Through both,
_presented_value is the one body of a presented functor's value at b,
Hom(entry, b) with the presentation acting on it, read by fpfun's fp_eval
and by stable's extension and lifting checks; it builds no
Hom(relations, b) when Hom(entry, b) = 0.  Kernels, images and cokernels
are taken vertexwise.  A minimal projective cover map P -> m takes its
generators at v from the top's own section, the unit vectors at the free
columns of the radical's echelon basis, and is checked onto by rank; an
injective envelope map m -> I is the dual of the cover map of the dual
module.  Both record their middle term's groups of g_v copies of P(v) or
I(v) (CoverMap.groups) and read the map's blocks at them as read-only
views (CoverMap.parts): the cover map is written through them, and
stable_hom reads them alone, one summand at a time, never solving over
the whole sum.  The syzygy (a kernel) or the cosyzygy (a cokernel) is
built only when projective_cover or injective_envelope asks.  The star dual
Hom(-, algebra) is a module on the other side, with component Hom(m, P(v))
at vertex v.  Ext^1(m, n) is counted, not solved: Hom(-, n) on the cover
0 -> syzygy -> P -> m -> 0 is exact up to Ext^1(m, n), and Hom(P, n) has
dimension sum g_v dim n_v by Yoneda, so ext1 builds no Hom system over P.
ShortExactSequence.validate checks exactness through _is_exact, the check
of any chain of maps that stable's four-term sequences share.

Modules are immutable values, so cover_map, envelope_map, star_dual and
hom_basis build each result once per value: _memoized keeps one bounded
least-recently-used memo per kind in the algebra (through
BoundQuiverAlgebra._cached, as for projectives and simples), with
MEMO_CAPACITY entries, keyed by Representation.key (by the pair of keys of
domain and codomain for Hom spaces).  The cover and envelope memos hold
CoverMaps, the maps with their summands; projective_cover and
injective_envelope build the whole sequence on their first call for a
value and keep it on that CoverMap, so it shares the map's slot and goes
with it.  A memo hit is the stored result itself, so its modules (a
cover's right, an envelope's left, a Hom space's domain and codomain) may
be equal copies of the caller's, seen first; every module comparison reads
values (==, with `is` only as a shortcut before it).  The Hom memo is
bounded by what it holds as well: its stacks
have at most HOM_MEMO_BUDGET entries in all, so Hom(a, b) is solved once
for hom_basis and both stable Homs of a pair, dense or not, and a stack
over the whole budget is not stored.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .exactla import (
    Matrix,
    QuotientSpace,
    Subspace,
    _dot,
    coordinates,
    kernel_basis,
    kron_kernel,
    solve_matrix,
)
from .algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    AlgebraTooLarge,
    BoundQuiverAlgebra,
    ModuleMap,
    Quiver,
    Representation,
    SubRep,
    _projective_with_labels,
    arrow_ends,
    direct_sum,
    dual_map,
    dual_module,
    extension_matrix,
    indec_projective,
    map_from_flat,
    other_side,
    quotient_rep,
    radical_subspaces,
    zero_module,
)


class HomSpace:
    """Basis of Hom(domain, codomain) in flattened coordinates.

    stack is a (dim x D) matrix whose rows are the flattened basis maps,
    D being the total number of matrix entries of a vertexwise map.  It is
    the kernel basis of the intertwiner equations, so it is the identity on
    their free columns `free`, and a map's coordinates are its entries there.
    """

    __slots__ = ("domain", "codomain", "stack", "free", "offsets")

    def __init__(
        self,
        domain: Representation,
        codomain: Representation,
        stack: Matrix,
        free: Tuple[int, ...],
    ):
        self.domain = domain
        self.codomain = codomain
        self.stack = stack
        self.free = free
        self.offsets = _block_offsets(domain.vertices, codomain.dims, domain.dims)[0]

    @property
    def dim(self) -> int:
        return self.stack.rows

    def blocks(self, v: str) -> np.ndarray:
        """The vertex-v matrices of all basis maps at once, as an array of
        shape (dim, codomain.dims[v], domain.dims[v])."""
        r, c = self.codomain.dims[v], self.domain.dims[v]
        off = self.offsets[v]
        return self.stack.data[:, off : off + r * c].reshape(self.dim, r, c)

    def basis_maps(self) -> List[ModuleMap]:
        """The basis as maps, built on each call: a memoized space holds its
        stack alone, which is what the memo's budget counts."""
        return [
            map_from_flat(self.domain, self.codomain, self.stack.data[i])
            for i in range(self.dim)
        ]

    def element(self, coeffs: np.ndarray) -> ModuleMap:
        field = self.domain.algebra.field
        flat = (Matrix(field, np.asarray(coeffs).reshape(1, -1)) @ self.stack).data[0]
        return map_from_flat(self.domain, self.codomain, flat)

    def coords_of(self, f: ModuleMap) -> np.ndarray:
        flat = Matrix(self.stack.field, f.flat().reshape(1, -1))
        return self.coords_of_flats(flat).data[0].copy()

    def coords_of_flats(self, flats: Matrix) -> Matrix:
        c = coordinates(self.stack, self.free, flats)
        if c is None:
            raise AlgebraError("maps are not in the computed hom space")
        return c


def hom_basis(a: Representation, b: Representation) -> HomSpace:
    """Basis of the space of module maps a -> b.  Memoized per pair of
    module values, within HOM_MEMO_BUDGET stack entries per algebra: the
    domain and codomain may be modules equal to a and b, seen first."""
    if a.algebra is not b.algebra or a.side != b.side:
        raise AlgebraError("hom needs matching algebra and side")
    return _memoized("hom", a.algebra, (a.key, b.key), _build_hom, a, b, size=_stack_entries)


def _stack_entries(hom: HomSpace) -> int:
    return hom.stack.rows * hom.stack.cols


# Entries (rows x columns) of the largest intertwiner system _build_hom
# writes: 32 MiB as int64.  The systems of the fixtures, the benchmark and
# the tests hold at most 32,768 (a 256 x 128 system over F5), 128 times
# fewer, but for the tests that run into the cap on purpose.
MAX_HOM_SYSTEM_ENTRIES = 2 ** 22


def check_hom_system(
    quiver: Quiver, side: str, dims_a: Dict[str, int], dims_b: Dict[str, int]
) -> None:
    """Raise AlgebraTooLarge when the intertwiner system of Hom(a, b) for
    modules of these dimensions would hold more than MAX_HOM_SYSTEM_ENTRIES
    entries: one row per entry of phi_y A for each arrow x -> y, one column
    per entry of phi.  Nothing is allocated to tell."""
    rows = sum(dims_b[y] * dims_a[x] for x, y in (arrow_ends(ar, side) for ar in quiver.arrows))
    total = sum(dims_b[v] * dims_a[v] for v in quiver.vertices)
    if rows * total > MAX_HOM_SYSTEM_ENTRIES:
        vectors = [tuple(dims[v] for v in quiver.vertices) for dims in (dims_a, dims_b)]
        raise AlgebraTooLarge(
            f"the Hom system between dimension vectors {vectors[0]} and {vectors[1]} "
            f"has {rows} x {total} = {rows * total} entries, more than {MAX_HOM_SYSTEM_ENTRIES}"
        )


def _build_hom(a: Representation, b: Representation) -> HomSpace:
    """The kernel of the intertwiner system, checked by check_hom_system
    before any of it is written."""
    check_hom_system(a.algebra.quiver, a.side, a.dims, b.dims)
    offs, total = _block_offsets(a.vertices, b.dims, a.dims)
    terms = []
    for ar in a.algebra.quiver.arrows:
        # phi_y A - B phi_x = 0, one row for each entry (i, j) of phi_y A
        x, y = arrow_ends(ar, a.side)
        terms.append((x, b.arrow_maps[ar.name].data, y, a.arrow_maps[ar.name].data.T))
    return HomSpace(a, b, *kron_kernel(a.algebra.field, offs, total, terms))


def _label_actions(m: Representation, paths: List, shape: Tuple[int, int]) -> np.ndarray:
    """The actions on m of paths, path labels of one projective at one
    vertex, each of this shape, stacked along a first axis."""
    acts = np.empty((len(paths),) + shape, dtype=m.algebra.field.dtype)
    for j, path in enumerate(paths):
        acts[j] = m.path_map(path).data
    return acts


def _block_offsets(
    verts: Sequence[str], rows: Dict[str, int], cols: Dict[str, int]
) -> Tuple[Dict[str, int], int]:
    """Offsets of the row-major rows[v] x cols[v] blocks, vertex after
    vertex, and their total size."""
    offs: Dict[str, int] = {}
    total = 0
    for v in verts:
        offs[v] = total
        total += rows[v] * cols[v]
    return offs, total


# -- kernels, images, cokernels -------------------------------------------


def kernel_map(f: ModuleMap) -> SubRep:
    field = f.domain.algebra.field
    subs = {
        v: Subspace(field, f.domain.dims[v], kernel_basis(f.vertex_maps[v]))
        for v in f.domain.vertices
    }
    return SubRep(f.domain, subs)


def image_map(f: ModuleMap) -> SubRep:
    field = f.domain.algebra.field
    subs = {
        v: Subspace(field, f.codomain.dims[v], f.vertex_maps[v].transpose())
        for v in f.domain.vertices
    }
    return SubRep(f.codomain, subs)


def cokernel_map(f: ModuleMap) -> Tuple[Representation, ModuleMap]:
    return quotient_rep(f.codomain, image_map(f).subspaces)


@dataclass
class ShortExactSequence:
    """0 -> left -> middle -> right -> 0 with its two maps.  A projective
    cover's (an injective envelope's) summands are on its CoverMap."""

    left: Representation
    middle: Representation
    right: Representation
    inclusion: ModuleMap
    surjection: ModuleMap

    def validate(self) -> bool:
        return _is_exact((self.inclusion, self.surjection))


def _is_exact(maps: Sequence[ModuleMap]) -> bool:
    """Whether 0 -> ... -> 0 through the chain maps is exact: the first map
    injective, the last surjective, then kernel = image at each joint in
    turn, each check made only when those before it hold."""
    if not maps[0].is_injective() or not maps[-1].is_surjective():
        return False
    return all(
        kernel_map(outgoing).subspaces == image_map(incoming).subspaces
        for incoming, outgoing in zip(maps, maps[1:])
    )


# -- projective covers and injective envelopes ------------------------------


# Entries each memo keeps per algebra, per kind.  A cover or envelope holds
# a few modules and maps of about the size of its argument; 64 entries raise
# the laws_sweep benchmark's peak memory by about 5%, and 512 did by twice
# that in a prototype.
MEMO_CAPACITY = 64

# Stack entries (rows x cols, summed) the "hom" memo holds per algebra:
# 512 KiB of int64 over F_p.  Over five laws_sweep benchmark rounds the
# median stack has 2 entries and the largest 3,200; big_fp's dense stacks
# have 7,632 to 11,264 (four rounds at seed 1), so the memo holds the few a
# pair asks for again (Hom(a, b) for both stable Homs) and drops the least
# recently used as the next pairs come.  A budget of 2^17 was no faster on
# big_fp (4 pairs) and raised its peak memory by about 1 MB more.
HOM_MEMO_BUDGET = 2 ** 16


class _Memo(OrderedDict):
    """A least-recently-used memo and the total size of what it holds."""

    held = 0


def _memoized(kind: str, alg: BoundQuiverAlgebra, key, build, *args, size=None):
    """build(*args), computed once per key: looked up in the LRU memo of
    that kind in alg and built on a miss.  The memo holds at most
    MEMO_CAPACITY entries; given size, also at most HOM_MEMO_BUDGET of
    their summed size(result), and a result over the whole budget is
    returned without being stored.  The least recently used entries go
    first."""
    memo = alg._cached(("memo", kind), _Memo)
    try:
        memo.move_to_end(key)
        return memo[key]
    except KeyError:
        pass
    out = build(*args)
    n = 0 if size is None else size(out)
    if n <= HOM_MEMO_BUDGET:
        memo[key] = out
        memo.held += n
        while len(memo) > MEMO_CAPACITY or memo.held > HOM_MEMO_BUDGET:
            _, old = memo.popitem(last=False)
            memo.held -= 0 if size is None else size(old)
    return out


class CoverMap:
    """A minimal projective cover P -> m or injective envelope m -> I as its
    memo holds it: the map; groups, (v, X, g) per g copies of X = P(v) or
    I(v) in the middle term (the codomain if envelope), in direct_sum
    order; and sequence, the short exact sequence through the map, None
    until projective_cover or injective_envelope asks for it."""

    __slots__ = ("map", "groups", "envelope", "sequence")

    def __init__(self, f: ModuleMap, groups: Sequence, envelope: bool):
        self.map, self.groups, self.envelope = f, tuple(groups), envelope
        self.sequence: Optional[ShortExactSequence] = None

    @property
    def summands(self) -> Tuple[Tuple[str, int], ...]:
        """The middle term's indecomposable summands P(v) (I(v)) as (vertex,
        multiplicity) pairs in direct_sum order, each vertex once, none with
        multiplicity 0."""
        return tuple((v, g) for v, _, g in self.groups)

    @property
    def parts(self) -> Tuple:
        """One (v, X, maps) per group, maps[w] the map's g column blocks X -> m
        or row blocks m -> X at vertex w as one read-only view of shape (g,
        rows, cols).  Made on each read, so the memo holds no views."""
        mats = {w: f.data for w, f in self.map.vertex_maps.items()}
        return _group_blocks(mats, self.groups, self.envelope)


def _group_blocks(mats: Dict[str, np.ndarray], groups: Sequence, rows: bool) -> Tuple:
    """CoverMap.parts of a map with vertex matrices mats and middle term the
    sum of g copies of X per group (v, X, g): views of their row blocks
    (rows) or column blocks, read-only where mats are."""
    offs, parts = dict.fromkeys(mats, 0), []
    for v, x, g in groups:
        maps = {}
        for w, o in offs.items():
            a, d = mats[w], x.dims[w]
            if rows:
                maps[w] = a[o : o + g * d].reshape(g, d, a.shape[1])
            else:
                maps[w] = a[:, o : o + g * d].reshape(a.shape[0], g, d).transpose(1, 0, 2)
            offs[w] = o + g * d
        parts.append((v, x, maps))
    return tuple(parts)


def cover_map(m: Representation) -> CoverMap:
    """The minimal projective cover map P -> m with its summands, and no
    syzygy.  Memoized per module value: the map's codomain may be a module
    equal to m, seen first."""
    return _memoized("cover", m.algebra, m.key, _build_cover_map, m)


def _build_cover_map(m: Representation) -> CoverMap:
    """One summand P(v) per generator at v, a column of m_v that is not a
    pivot of the radical's echelon basis (the unit vectors there lift a
    basis of the top).  A path label of P(v) sends v's generators to the
    columns of its action at those columns, laid out generator-major, as
    direct_sum orders the summands, through the parts.  The map is checked
    to be onto by its rank at every vertex."""
    alg, field = m.algebra, m.algebra.field
    gens = {
        v: [c for c in range(m.dims[v]) if c not in rad.pivots]
        for v, rad in radical_subspaces(m).items()
    }
    groups = [(v, *_projective_with_labels(alg, v, m.side)) for v in m.vertices if gens[v]]
    copies = [rep for v, rep, _ in groups for _ in gens[v]]
    p = direct_sum(copies).module if copies else zero_module(alg, m.side)
    data = {w: field.zeros(m.dims[w], p.dims[w]) for w in m.vertices}
    blocks = [(v, rep, len(gens[v])) for v, rep, _ in groups]
    for (v, _, labels), (_, _, maps) in zip(groups, _group_blocks(data, blocks, rows=False)):
        for w, block in maps.items():
            acts = _label_actions(m, labels[w], (m.dims[w], m.dims[v]))
            block[...] = acts[:, :, gens[v]].transpose(2, 1, 0)
    cover = ModuleMap(p, m, {w: Matrix(field, data[w], _trusted=True) for w in m.vertices})
    if not cover.is_surjective():
        raise AlgebraError("projective cover failed to surject")
    return CoverMap(cover, blocks, envelope=False)


def projective_cover(m: Representation) -> ShortExactSequence:
    """Minimal projective cover, returned as 0 -> syzygy -> P -> m -> 0.
    The sequence is built on the first call per module value and kept with
    its memoized cover map, so right may be a module equal to m, seen
    first."""
    cov = cover_map(m)
    if cov.sequence is None:
        cov.sequence = _build_projective_cover(cov)
    return cov.sequence


def _build_projective_cover(cov: CoverMap) -> ShortExactSequence:
    """The cover map with its kernel, the syzygy."""
    f, omega = cov.map, kernel_map(cov.map)
    return ShortExactSequence(omega.rep, f.domain, f.codomain, omega.inclusion, f)


def envelope_map(m: Representation) -> CoverMap:
    """The minimal injective envelope map m -> I with its summands, and no
    cosyzygy.  Memoized per module value: the map's domain may be a module
    equal to m, seen first."""
    return _memoized("envelope", m.algebra, m.key, _build_envelope_map, m)


def _build_envelope_map(m: Representation) -> CoverMap:
    """The dual of the cover map of the dual module: the dual of its P(v) on
    the other side is I(v) = indec_injective(alg, v, side), so the groups
    are the cover's.  D is exact, so the dual of that onto map is one to
    one: the cover's rank check is the envelope's.  The map is built
    trusted, with its shapes checked: its intertwiner equations are the
    transposes of the cover's, which _build_cover_map checked on the same
    matrices."""
    cov = cover_map(dual_module(m))
    denv = dual_map(cov.map)
    groups = [(v, dual_module(x), g) for v, x, g in cov.groups]
    env = ModuleMap(m, denv.codomain, denv.vertex_maps, _trusted=True)
    return CoverMap(env, groups, envelope=True)


def injective_envelope(m: Representation) -> ShortExactSequence:
    """Minimal injective envelope, returned as 0 -> m -> I -> cosyzygy -> 0.
    The sequence is built on the first call per module value and kept with
    its memoized envelope map, so left may be a module equal to m, seen
    first."""
    env = envelope_map(m)
    if env.sequence is None:
        env.sequence = _build_injective_envelope(env)
    return env.sequence


def _build_injective_envelope(env: CoverMap) -> ShortExactSequence:
    """The envelope map with its cokernel, the cosyzygy."""
    coker, proj = cokernel_map(env.map)
    return ShortExactSequence(env.map.domain, env.map.codomain, coker, env.map, proj)


def syzygy(m: Representation) -> Representation:
    return projective_cover(m).left


def cosyzygy(m: Representation) -> Representation:
    return injective_envelope(m).right


def is_projective(m: Representation) -> bool:
    """Whether the cover P -> m, which is onto, is one to one: P and m have
    equal dimensions.  No syzygy is built."""
    return cover_map(m).map.domain.total_dim == m.total_dim


def is_injective_module(m: Representation) -> bool:
    """Whether the envelope m -> I, which is one to one, is onto: m and I
    have equal dimensions.  No cosyzygy is built."""
    return envelope_map(m).map.codomain.total_dim == m.total_dim


def is_self_injective(alg: BoundQuiverAlgebra) -> bool:
    return alg._cached(
        ("self_injective",),
        lambda: all(
            is_injective_module(indec_projective(alg, v, LEFT)) for v in alg.quiver.vertices
        ),
    )


# -- map assembly, pushouts, pullbacks ---------------------------------------


def hstack_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """[f | g]: domain(f) + domain(g) -> shared codomain, built trusted:
    f and g are checked maps and the direct sum's arrows are block-diagonal."""
    if f.codomain != g.codomain:
        raise AlgebraError("hstack_maps needs a shared codomain")
    ds = direct_sum([f.domain, g.domain])
    field = f.domain.algebra.field
    maps = {}
    for v in f.domain.vertices:
        block = field.zeros(f.codomain.dims[v], ds.module.dims[v])
        block[:, : f.domain.dims[v]] = f.vertex_maps[v].data
        block[:, f.domain.dims[v] :] = g.vertex_maps[v].data
        maps[v] = Matrix(field, block, _trusted=True)
    return ModuleMap(ds.module, f.codomain, maps, _trusted=True)


def vstack_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """[f ; g]: shared domain -> codomain(f) + codomain(g), trusted as in
    hstack_maps."""
    if f.domain != g.domain:
        raise AlgebraError("vstack_maps needs a shared domain")
    ds = direct_sum([f.codomain, g.codomain])
    field = f.domain.algebra.field
    maps = {}
    for v in f.domain.vertices:
        block = field.zeros(ds.module.dims[v], f.domain.dims[v])
        block[: f.codomain.dims[v], :] = f.vertex_maps[v].data
        block[f.codomain.dims[v] :, :] = g.vertex_maps[v].data
        maps[v] = Matrix(field, block, _trusted=True)
    return ModuleMap(f.domain, ds.module, maps, _trusted=True)


def pushout(
    p: ModuleMap, q: ModuleMap
) -> Tuple[Representation, ModuleMap, ModuleMap]:
    """Pushout of the span cod(p) <-p- A -q-> cod(q).

    Returns (module, leg from cod(p), leg from cod(q)).
    """
    if p.domain != q.domain:
        raise AlgebraError("pushout needs a shared span domain")
    ds = direct_sum([p.codomain, q.codomain])
    h = vstack_maps(p, -q)
    out, proj = cokernel_map(h)
    return out, proj @ ds.injections[0], proj @ ds.injections[1]


def pullback(
    p: ModuleMap, q: ModuleMap
) -> Tuple[Representation, ModuleMap, ModuleMap]:
    """Pullback of the cospan dom(p) -p-> A <-q- dom(q).

    Returns (module, leg to dom(p), leg to dom(q)).
    """
    if p.codomain != q.codomain:
        raise AlgebraError("pullback needs a shared cospan codomain")
    ds = direct_sum([p.domain, q.domain])
    h = hstack_maps(p, -q)
    ker = kernel_map(h)
    return ker.rep, ds.projections[0] @ ker.inclusion, ds.projections[1] @ ker.inclusion


# -- hom-space pushforwards and the variance rule ----------------------------

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

T = TypeVar("T")


def _ordered(variance: str, x: T, y: T) -> Tuple[T, T]:
    """The pair (x, y) as a functor of this variance reads it."""
    return (x, y) if variance == COVARIANT else (y, x)


def _acting(variance: str, m: ModuleMap) -> Dict[str, ModuleMap]:
    """The push_coords keyword by which m acts on a functor's values."""
    return {"pre": m} if variance == COVARIANT else {"post": m}


def _composites(source: HomSpace, stacks: Dict[str, np.ndarray], post: bool) -> np.ndarray:
    """The flattened composites of source's basis with k maps s_1, ..., s_k,
    g -> s_i g (post) or g -> g s_i (pre), given per vertex v as one array
    of shape (k, rows, cols); row i * dim + j is basis map j composed with
    s_i.  At each vertex one exact product makes all k * dim composites."""
    field = source.stack.field
    n = source.dim
    parts = []
    for v in source.domain.vertices:
        g, s = source.blocks(v), stacks[v]
        k, r, c = s.shape[0], g.shape[1], g.shape[2]
        rc = s.shape[1] if post else s.shape[2]
        if not n * k * r * c * rc:
            # empty sums: zeros cost less than _dot's empty product and reshapes,
            # and about 3,000 of 4,800 vertices in a warm laws_sweep round are empty
            parts.append(field.zeros(k * n, rc * c if post else r * rc))
        elif post:
            # [s_1; ...; s_k] times [g_1 | ... | g_n]
            sg = _dot(field, s.reshape(k * rc, r), g.transpose(1, 0, 2).reshape(r, n * c))
            parts.append(sg.reshape(k, rc, n, c).transpose(0, 2, 1, 3).reshape(k * n, rc * c))
        else:
            # [g_1; ...; g_n] times [s_1 | ... | s_k]
            gs = _dot(field, g.reshape(n * r, c), s.transpose(1, 0, 2).reshape(c, k * rc))
            parts.append(gs.reshape(n, r, k, rc).transpose(2, 0, 1, 3).reshape(k * n, r * rc))
    return np.concatenate(parts, axis=1)


def push_coords(
    source: HomSpace,
    target: HomSpace,
    *,
    pre: Optional[ModuleMap] = None,
    post: Optional[ModuleMap] = None,
) -> Matrix:
    """Matrix (rows: source basis) of g -> g pre, or of g -> post g, in the
    coordinates of target.  The composites are _composites's, one exact
    product per vertex for the whole basis; reading them in target's
    coordinates checks that they lie in it."""
    if (pre is None) == (post is None):
        raise TypeError("push_coords takes exactly one of pre= and post=")
    dom, cod = source.domain, source.codomain
    inner, outer = (pre.codomain, dom) if post is None else (cod, post.domain)
    if inner is not outer and inner != outer:
        raise AlgebraError("composition domain mismatch")
    if not source.dim:
        # no basis map to compose: about a quarter of the calls in laws_sweep
        return Matrix.zeros(source.stack.field, 0, target.dim)
    m = pre if post is None else post
    stacks = {v: m.vertex_maps[v].data[None] for v in dom.vertices}
    flats = _composites(source, stacks, post is not None)
    return target.coords_of_flats(Matrix(source.stack.field, flats, _trusted=True))


def _presented_value(variance: str, f: ModuleMap, b: Representation) -> Tuple[HomSpace, Matrix]:
    """The value at b of the functor f presents: Hom(entry, b) and f acting
    on it, 0 x 0 and with no Hom(relations, b) built when Hom(entry, b) = 0."""
    entry, relations = _ordered(variance, f.domain, f.codomain)
    hom = hom_basis(*_ordered(variance, entry, b))
    if hom.dim == 0:
        return hom, Matrix.zeros(b.algebra.field, 0, 0)
    relations_hom = hom_basis(*_ordered(variance, relations, b))
    return hom, push_coords(relations_hom, hom, **_acting(variance, f))


def factor_through(
    h: ModuleMap,
    *,
    pre: Optional[ModuleMap] = None,
    post: Optional[ModuleMap] = None,
) -> Optional[ModuleMap]:
    """Solve beta with beta pre = h, or with post beta = h, in hom
    coordinates; None when h does not factor that way.

    The keywords and their contract are push_coords's: exactly one of them,
    TypeError otherwise.  beta runs from cod(pre) to cod(h), or from dom(h)
    to dom(post).
    """
    if (pre is None) == (post is None):
        raise TypeError("factor_through takes exactly one of pre= and post=")
    if post is None:
        hom_beta = hom_basis(pre.codomain, h.codomain)
    else:
        hom_beta = hom_basis(h.domain, post.domain)
    hom_h = hom_basis(h.domain, h.codomain)
    t = push_coords(hom_beta, hom_h, pre=pre, post=post)
    coords = hom_h.coords_of_flats(Matrix(t.field, h.flat()[None], _trusted=True))
    x = solve_matrix(t.transpose(), coords.transpose())
    return None if x is None else hom_beta.element(x.data[:, 0])


# -- Ext^1 -------------------------------------------------------------------


@dataclass
class Ext1Result:
    """dim Ext^1(m, n) plus the projective cover of m it came from."""

    dim: int
    cover: ShortExactSequence


def ext1(m: Representation, n: Representation) -> Ext1Result:
    """Counted from 0 -> Hom(m, n) -> Hom(P, n) -> Hom(syzygy, n) ->
    Ext^1(m, n) -> 0, exact for the cover P of m, with dim Hom(P, n) the sum
    of g_v dim n_v over its summands P(v)^g_v, by Yoneda."""
    cover = projective_cover(m)
    dim_hom_p = sum(g * n.dims[v] for v, g in cover_map(m).summands)
    dim = hom_basis(cover.left, n).dim - dim_hom_p + hom_basis(m, n).dim
    return Ext1Result(dim, cover)


# -- tensor products ---------------------------------------------------------


class TensorSpace:
    """a (x)_Lambda b, read off its dual Hom(b, D a).

    The carrier is the quotient of sum_v a_v (x) b_v by the arrow balancing
    relations (x (x) alpha.y - x.alpha (x) y).  A functional on a_v (x) b_v
    is a dim a_v x dim b_v matrix, a map b_v -> (D a)_v, and those that kill
    the relations are the module maps b -> D a: (a (x) b)* = Hom(b, D a), the
    tensor-Hom adjunction.  So projection and free columns are hom's stack
    and free columns, what Subspace(relations).quotient() would give, and
    pure-tensor coordinates at vertex v sit at offset[v] + i * dim b_v + j.
    The basis of hom and the quotient's basis tensors are dual bases.
    """

    __slots__ = ("left_arg", "right_arg", "hom", "quotient")

    def __init__(self, a: Representation, b: Representation):
        if a.algebra is not b.algebra:
            raise AlgebraError("tensor needs a common algebra")
        if a.side != RIGHT or b.side != LEFT:
            raise AlgebraError("tensor takes a right module and a left module")
        self.left_arg = a
        self.right_arg = b
        self.hom = hom_basis(b, dual_module(a))
        self.quotient = QuotientSpace(self.hom.stack, self.hom.free)

    @property
    def offsets(self) -> Dict[str, int]:
        return self.hom.offsets

    @property
    def ambient_dim(self) -> int:
        return self.hom.stack.cols

    @property
    def dim(self) -> int:
        return self.quotient.dim


def tensor(a: Representation, b: Representation) -> TensorSpace:
    return TensorSpace(a, b)


def tensor_map(
    src: TensorSpace,
    dst: TensorSpace,
    f: Optional[ModuleMap] = None,
    g: Optional[ModuleMap] = None,
) -> Matrix:
    """Matrix of f (x) g from src to dst in quotient coordinates, a missing
    factor being the identity.  Its row i is basis map i of dst.hom composed
    as psi -> D f psi g, in src.hom's coordinates: one push_coords per given
    factor, through Hom(b, D a') when both are."""
    hom, steps = dst.hom, []
    if g is not None:
        mid = src.hom if f is None else hom_basis(src.right_arg, hom.codomain)
        steps.append(push_coords(hom, mid, pre=g))
        hom = mid
    if f is not None:
        steps.append(push_coords(hom, src.hom, post=dual_map(f)))
    if not steps:
        return src.hom.coords_of_flats(hom.stack)
    return steps[0] if len(steps) == 1 else steps[0] @ steps[1]


# -- star duality -------------------------------------------------------------


def _right_mult_map(alg: BoundQuiverAlgebra, arrow_name: str, side: str) -> ModuleMap:
    """For left projectives: right multiplication P(target) -> P(source).
    For right projectives: left multiplication P(source) -> P(target)."""
    return alg._cached(("mult", arrow_name, side), _build_mult_map, alg, arrow_name, side)


def _build_mult_map(alg: BoundQuiverAlgebra, arrow_name: str, side: str) -> ModuleMap:
    # multiplying by the arrow from the other side extends path classes as
    # the other side's action does, between the projectives at its ends
    ar = alg.quiver.arrow_by_name[arrow_name]
    star_side = other_side(side)
    x, y = arrow_ends(ar, star_side)
    dom_rep, dom_labels = _projective_with_labels(alg, x, side)
    cod_rep, cod_labels = _projective_with_labels(alg, y, side)
    maps = {
        w: extension_matrix(alg, ar, star_side, dom_labels[w], cod_labels[w])
        for w in alg.quiver.vertices
    }
    return ModuleMap(dom_rep, cod_rep, maps)


@dataclass
class StarDual:
    """Hom(m, algebra) organized as a module on the other side.

    The component at vertex v is Hom(m, P(v)); hom[v] holds the basis
    used as coordinates there.
    """

    module: Representation
    hom: Dict[str, HomSpace]


def star_dual(m: Representation) -> StarDual:
    """Memoized per module value: the result is the stored one, so
    hom[v].domain may be a module equal to m, seen first."""
    return _memoized("star", m.algebra, m.key, _build_star_dual, m)


def _build_star_dual(m: Representation) -> StarDual:
    alg = m.algebra
    homs = {
        v: hom_basis(m, indec_projective(alg, v, m.side)) for v in m.vertices
    }
    dims = {v: homs[v].dim for v in m.vertices}
    maps: Dict[str, Matrix] = {}
    star_side = other_side(m.side)
    for ar in alg.quiver.arrows:
        mult = _right_mult_map(alg, ar.name, m.side)
        x, y = arrow_ends(ar, star_side)
        maps[ar.name] = push_coords(homs[x], homs[y], post=mult).transpose()
    rep = Representation(alg, star_side, dims, maps)
    return StarDual(rep, homs)


def star_dual_map(f: ModuleMap, sd_dom: StarDual, sd_cod: StarDual) -> ModuleMap:
    """Precomposition Hom(codomain, algebra) -> Hom(domain, algebra)."""
    maps = {
        v: push_coords(sd_cod.hom[v], sd_dom.hom[v], pre=f).transpose()
        for v in f.domain.vertices
    }
    return ModuleMap(sd_cod.module, sd_dom.module, maps)


def eval_double_dual(m: Representation) -> Tuple[ModuleMap, StarDual, StarDual]:
    """The evaluation map m -> m** together with both star duals."""
    field = m.algebra.field
    sd = star_dual(m)
    sdd = star_dual(sd.module)
    vmaps: Dict[str, Matrix] = {}
    for v in m.vertices:
        # ev(x): m* -> P_other(v); its component at w sends the basis hom f to
        # the vector f_v(x), written in the path-class labels shared by
        # P_mside(w) at v and P_otherside(v) at w.  Row i is ev(e_i).
        parts = []
        for w in m.vertices:
            fv = sd.hom[w].blocks(v)  # (dim, P(w)_v, m_v)
            parts.append(fv.transpose(2, 1, 0).reshape(m.dims[v], fv.shape[0] * fv.shape[1]))
        flats = Matrix(field, np.concatenate(parts, axis=1), _trusted=True)
        vmaps[v] = sdd.hom[v].coords_of_flats(flats).transpose()
    ev = ModuleMap(m, sdd.module, vmaps)
    return ev, sd, sdd


# -- transpose ----------------------------------------------------------------


@dataclass
class TransposeData:
    """Transpose with its four-term witness 0 -> m* -> P0* -> P1* -> tr -> 0,
    where P0* and P1* are sd0.module and sd1.module."""

    module: Representation
    f_star: ModuleMap  # P0* -> P1*
    projection: ModuleMap  # P1* -> tr
    star_sub: SubRep  # kernel of f_star inside P0*, isomorphic to m*
    presentation: ModuleMap  # the minimal presentation map P1 -> P0
    cover: ShortExactSequence  # P0 onto m
    sd0: StarDual
    sd1: StarDual


def transpose(m: Representation) -> TransposeData:
    cov0 = projective_cover(m)
    cov1 = projective_cover(cov0.left)
    pres = cov0.inclusion @ cov1.surjection
    sd1 = star_dual(cov1.middle)
    sd0 = star_dual(cov0.middle)
    f_star = star_dual_map(pres, sd_dom=sd1, sd_cod=sd0)
    tr, proj = cokernel_map(f_star)
    star_sub = kernel_map(f_star)
    return TransposeData(tr, f_star, proj, star_sub, pres, cov0, sd0, sd1)
