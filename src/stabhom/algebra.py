"""Bound quiver algebras and their finite-dimensional representations.

Composition convention: the product q*p means "first p, then q", so an
arrow a: u -> v satisfies a = e_v * a * e_u.  Paths are stored in
traversal order: the tuple (a1, ..., ak) is the algebra element
ak * ... * a1, with source src(a1) and target tgt(ak).

One orientation rule decides every left/right difference: the action
matrix of an arrow a: u -> v maps the space at u to the space at v on a
left module, and the space at v to the space at u on a right module
(right action by a sends M e_v into M e_u).  arrow_ends states the rule
for one arrow.  For a path it means that a right module applies the
arrows in reverse order; in_application_order and compose_path are the
only code that knows this.  Every side-dependent construction below
derives its choices from these helpers instead of branching on the side.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactla import (
    Field,
    Matrix,
    Subspace,
    block_diag,
    coordinates,
    kernel_basis,
    path_sum_is_zero,
    rank,
    rref,
    vstack,
)

LEFT = "left"
RIGHT = "right"

# A path is (source_vertex, tuple_of_arrow_names_in_traversal_order).
Path = Tuple[str, Tuple[str, ...]]


class AlgebraError(ValueError):
    """Malformed quiver, relation, or representation data."""


class NotFiniteDimensional(AlgebraError):
    """Nonzero path classes survive at the nilpotency bound."""


class AlgebraTooLarge(AlgebraError):
    """An input past a documented size cap: a degree of the path basis
    spanned by more than MAX_DEGREE_SPAN paths, a module whose arrow
    matrices would hold more than MAX_MODULE_ENTRIES entries, or a Hom
    system of more than homology.MAX_HOM_SYSTEM_ENTRIES entries."""


# Spanning paths one degree of the basis build may list: two free loops
# reach 2^16 at degree 16, the default nilpotency bound.
MAX_DEGREE_SPAN = 2 ** 16

# Entries all arrow matrices of one given module may hold together, checked
# before any is made: 128 MiB as int64.  The modules of the fixtures, the
# benchmark and the acceptance tests hold at most a few thousand.
MAX_MODULE_ENTRIES = 2 ** 24


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """Finite quiver with named vertices and arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        self.vertices: Tuple[str, ...] = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex names")
        self.arrows: Tuple[Arrow, ...] = tuple(arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise AlgebraError(f"arrow {a.name} touches unknown vertex")
        self.arrow_by_name: Dict[str, Arrow] = {a.name: a for a in self.arrows}
        self._from: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._from[a.source].append(a)

    def arrows_from(self, v: str) -> List[Arrow]:
        return self._from[v]

    def is_acyclic(self) -> bool:
        color: Dict[str, int] = {v: 0 for v in self.vertices}

        def visit(v: str) -> bool:
            color[v] = 1
            for a in self._from[v]:
                if color[a.target] == 1:
                    return False
                if color[a.target] == 0 and not visit(a.target):
                    return False
            color[v] = 2
            return True

        return all(color[v] != 0 or visit(v) for v in self.vertices)

    def opposite(self) -> "Quiver":
        return Quiver(
            self.vertices,
            [Arrow(a.name, a.target, a.source) for a in self.arrows],
        )


class Relation:
    """Linear combination of parallel paths, all of one length >= 2."""

    def __init__(self, terms: Sequence[Tuple[object, Sequence[str]]]):
        self.terms: Tuple[Tuple[object, Tuple[str, ...]], ...] = tuple(
            (c, tuple(p)) for c, p in terms
        )
        if not self.terms:
            raise AlgebraError("empty relation")

    def __repr__(self) -> str:
        return "Relation(" + " + ".join(f"{c}*{list(p)}" for c, p in self.terms) + ")"


def other_side(side: str) -> str:
    return RIGHT if side == LEFT else LEFT


def arrow_ends(arrow: Arrow, side: str) -> Tuple[str, str]:
    """Vertices (x, y) such that the action matrix of arrow on a module of
    the given side maps the space at x to the space at y."""
    if side == LEFT:
        return arrow.source, arrow.target
    return arrow.target, arrow.source


def arrow_shape(dims: Dict[str, int], arrow: Arrow, side: str) -> Tuple[int, int]:
    """Shape of the action matrix of arrow for these vertex dimensions."""
    x, y = arrow_ends(arrow, side)
    return dims[y], dims[x]


def in_application_order(pieces: Sequence, side: str) -> Tuple:
    """Consecutive pieces of a path (arrows or subpaths, in traversal
    order) in the order their action matrices are applied."""
    return tuple(pieces) if side == LEFT else tuple(reversed(pieces))


def compose_path(maps: Dict[str, Matrix], arrows: Sequence[str], side: str) -> Matrix:
    """Action matrix of a nonempty path from the matrices of its arrows."""
    first, *rest = in_application_order(arrows, side)
    acc = maps[first]
    for name in rest:
        acc = maps[name] @ acc
    return acc


def _term_arrays(arrays: Dict[str, np.ndarray], terms: Sequence, side: str) -> list:
    """The terms (coeff, path) as exactla's path sums take them: (coeff,
    the arrays of the path's arrows in application order), from the arrays
    of the arrows by name."""
    return [
        (c, tuple(arrays[name] for name in in_application_order(arrows, side)))
        for c, arrows in terms
    ]


def check_module_entries(quiver: Quiver, dims: Dict[str, int]) -> None:
    """Raise AlgebraTooLarge when the arrow matrices of a module with these
    dimensions at every vertex would hold more than MAX_MODULE_ENTRIES
    entries together; nothing is allocated to tell."""
    entries = sum(dims[a.source] * dims[a.target] for a in quiver.arrows)
    if entries > MAX_MODULE_ENTRIES:
        vector = tuple(dims[v] for v in quiver.vertices)
        raise AlgebraTooLarge(
            f"the arrow matrices of dimension vector {vector} hold "
            f"{entries} entries, more than {MAX_MODULE_ENTRIES}"
        )


def _path_target(quiver: Quiver, path: Path) -> str:
    src, arrows = path
    return quiver.arrow_by_name[arrows[-1]].target if arrows else src


class BoundQuiverAlgebra:
    """Quotient of a path algebra by an admissible ideal of relations whose
    terms each have one length.

    Built degree by degree: degree n is spanned by the degree n-1 basis times
    the arrows and divided by b*r, for each relation r of length l and basis
    path b of degree n-l, multiplied out through lower degrees.  The free
    columns of the rref of those products are the degree-n basis, ordered
    by source vertex and arrow indices, and the normal forms of the spanning
    paths are read off its rows: a free column is its own basis element, a
    pivot column minus its row at the free columns.  The build stops at the
    first empty degree.  The spanning paths of a degree are counted before
    they are listed: more than MAX_DEGREE_SPAN raise AlgebraTooLarge.

    nilpotency_bound is a cap: a path class of that length surviving raises
    NotFiniteDimensional.  Relations whose terms differ in length, such as
    x^2 - x^3, are refused with AlgebraError: their ideal is not graded.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Relation],
        field: Field,
        nilpotency_bound: int,
    ):
        if nilpotency_bound < 1:
            raise AlgebraError("nilpotency bound must be at least 1")
        self.quiver = quiver
        self.field = field
        self.nilpotency_bound = int(nilpotency_bound)
        self.relations = tuple(self._validate_relation(r) for r in relations)
        self._build_basis()
        self._cache: Dict[object, object] = {}
        self._opposite: Optional[BoundQuiverAlgebra] = None

    def _cached(self, key, build, *args):
        """build(*args), built once per key and kept; any stored value is a hit."""
        if key not in self._cache:
            self._cache[key] = build(*args)
        return self._cache[key]

    # -- construction ---------------------------------------------------

    def _validate_relation(self, rel: Relation) -> Relation:
        # terms on one path are combined before the zero check: x.x + x.x is 0 over F_2
        combined: Dict[Tuple[str, ...], object] = {}
        st = None
        for coeff, arrows in rel.terms:
            if len(arrows) < 2:
                raise AlgebraError("relation paths must have length >= 2")
            if len(arrows) > self.nilpotency_bound:
                raise AlgebraError(
                    "relation path longer than the nilpotency bound"
                )
            for name in arrows:
                if name not in self.quiver.arrow_by_name:
                    raise AlgebraError(f"relation uses unknown arrow {name!r}")
            for x, y in zip(arrows, arrows[1:]):
                if self.quiver.arrow_by_name[x].target != self.quiver.arrow_by_name[y].source:
                    raise AlgebraError(f"non-composable relation path {list(arrows)}")
            s = self.quiver.arrow_by_name[arrows[0]].source
            t = self.quiver.arrow_by_name[arrows[-1]].target
            if st is None:
                st = (s, t)
            elif st != (s, t):
                raise AlgebraError("relation terms are not parallel")
            if len(arrows) != len(rel.terms[0][1]):
                raise AlgebraError("relation terms have different lengths")
            c = self.field.coerce(coeff)
            path = tuple(arrows)
            combined[path] = self.field.coerce(combined[path] + c) if path in combined else c
        terms = [(c, path) for path, c in combined.items() if c != self.field.zero()]
        if not terms:
            raise AlgebraError("relation is identically zero")
        return Relation(terms)

    def _build_basis(self):
        q, field = self.quiver, self.field
        basis: List[Path] = [(v, ()) for v in q.vertices]
        # starts[n] is the index of the first basis path of degree n
        starts = [0, len(basis)]
        # (basis index, arrow name) -> normal form of their product
        self._product: Dict[Tuple[int, str], List[Tuple[object, int]]] = {}
        while starts[-2] < starts[-1]:
            n = len(starts) - 1
            outs = [(i, q.arrows_from(_path_target(q, basis[i])))
                    for i in range(starts[n - 1], starts[n])]
            size = sum(len(arrows) for _, arrows in outs)
            if size > MAX_DEGREE_SPAN:
                raise AlgebraTooLarge(
                    f"degree {n} is spanned by {size} paths, more than {MAX_DEGREE_SPAN}"
                )
            span = [(i, a.name) for i, arrows in outs for a in arrows]
            column = {pair: j for j, pair in enumerate(span)}
            # b * r for each relation r of length ell and basis path b of
            # degree n - ell, written in the spanning paths: b times all but
            # the last arrow of a term is a normal form of lower degree
            products = []
            for rel in self.relations:
                ell = len(rel.terms[0][1])
                if ell > n:
                    continue
                source = q.arrow_by_name[rel.terms[0][1][0]].source
                for b in range(starts[n - ell], starts[n - ell + 1]):
                    if _path_target(q, basis[b]) != source:
                        continue
                    entries: Dict[int, object] = {}
                    for c, arrows in rel.terms:
                        element = [(c, b)]
                        for name in arrows[:-1]:
                            element = self._times(element, name)
                        for d, i in element:
                            j = column[i, arrows[-1]]
                            entries[j] = field.add(entries.get(j, field.zero()), d)
                    products.append(entries)
            mat = field.zeros(len(products), len(span))
            for row, entries in enumerate(products):
                mat[row, list(entries)] = list(entries.values())
            r, _, pivots = rref(Matrix(field, mat, _trusted=True))
            row_of = {c: i for i, c in enumerate(pivots)}
            free = [j for j in range(len(span)) if j not in row_of]
            top = len(basis)
            basis += [(basis[i][0], basis[i][1] + (a,)) for i, a in (span[j] for j in free)]
            # normal forms read off the rref: the spanning path at free column k
            # is basis element top + k, the one at row i's pivot minus row i at
            # the free columns
            for k, j in enumerate(free):
                self._product[span[j]] = [(field.one(), top + k)]
            for j, i in row_of.items():
                row = r.data[i].tolist()
                nf = [(field.neg(row[f]), top + k) for k, f in enumerate(free) if row[f]]
                self._product[span[j]] = nf
            if len(basis) > top and n >= self.nilpotency_bound:
                raise NotFiniteDimensional(
                    f"{len(basis) - top} path classes survive at length "
                    f"{n}; raise the nilpotency bound or fix the relations"
                )
            starts.append(len(basis))

        self.basis: Tuple[Path, ...] = tuple(basis)
        self.basis_by_block: Dict[Tuple[str, str], List[int]] = {}
        for i, p in enumerate(basis):
            self.basis_by_block.setdefault((p[0], _path_target(q, p)), []).append(i)

    def _times(self, element: List[Tuple[object, int]], name: str) -> List[Tuple[object, int]]:
        """A combination of basis paths, as (coefficient, basis index) pairs,
        times the arrow name: its normal form, in basis order."""
        field = self.field
        out: Dict[int, object] = {}
        for c, b in element:
            for d, i in self._product[b, name]:
                out[i] = field.add(out.get(i, field.zero()), field.mul(c, d))
        return [(out[i], i) for i in sorted(out) if out[i] != 0]

    # -- structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def block_basis(self, source: str, target: str) -> List[Path]:
        return [self.basis[i] for i in self.basis_by_block.get((source, target), [])]

    def normal_form(self, path: Path) -> List[Tuple[object, Path]]:
        """Expand a monomial path into basis classes (empty list = zero)."""
        src, names = path
        at = src if src in self.quiver.vertices else None
        for name in names:
            arrow = self.quiver.arrow_by_name.get(name)
            at = arrow.target if arrow is not None and arrow.source == at else None
        if at is None:
            raise AlgebraError(f"path {path} is not composable in this quiver")
        element = [(self.field.one(), self.quiver.vertices.index(src))]
        for name in names:
            element = self._times(element, name)
        return [(c, self.basis[i]) for c, i in element]

    def opposite(self) -> "BoundQuiverAlgebra":
        """Opposite algebra; an involution up to object identity."""
        if self._opposite is None:
            rels = [
                Relation([(c, tuple(reversed(p))) for c, p in r.terms])
                for r in self.relations
            ]
            opp = BoundQuiverAlgebra(
                self.quiver.opposite(), rels, self.field, self.nilpotency_bound
            )
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def is_hereditary(self) -> bool:
        return self.quiver.is_acyclic() and not self.relations

    def __repr__(self) -> str:
        return (
            f"BoundQuiverAlgebra({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, dim {self.dim} over {self.field})"
        )


# -- representations ------------------------------------------------------


class Representation:
    """Finite-dimensional left or right module, given vertexwise.

    dims maps each vertex to its dimension; arrow_maps[a] is the matrix
    of the action of arrow a, oriented as arrow_ends says.  The constructor
    refuses vertex or arrow names the quiver lacks, dimensions that are not
    nonnegative integers, dimensions whose arrow matrices would hold more
    than MAX_MODULE_ENTRIES entries (AlgebraTooLarge, before any matrix
    is made), misshapen matrices and broken relations.

    A module is an immutable value: dims and arrow_maps are read-only
    mappings and the matrices are read-only, so the value key (side,
    dimension vector, exact arrow matrices) is computed once, on first
    use, and kept.  Two modules over one algebra object are equal when
    their keys are.
    """

    __slots__ = ("algebra", "side", "dims", "arrow_maps", "_key", "_dual")

    def __init__(
        self,
        algebra: BoundQuiverAlgebra,
        side: str,
        dims: Dict[str, int],
        arrow_maps: Dict[str, Matrix],
        _trusted: bool = False,
    ):
        if side not in (LEFT, RIGHT):
            raise AlgebraError(f"side must be left or right, got {side!r}")
        q = algebra.quiver
        if not _trusted:
            unknown = set(dims).difference(q.vertices)
            if unknown:
                names = sorted(map(str, unknown))
                raise AlgebraError(f"dimensions given at unknown vertices {names}")
            unknown = set(arrow_maps).difference(q.arrow_by_name)
            if unknown:
                names = sorted(map(str, unknown))
                raise AlgebraError(f"matrices given for unknown arrows {names}")
            for v, d in dims.items():
                # a plain int skips the slower bool and abstract-base-class tests
                if type(d) is not int and (
                    isinstance(d, bool) or not isinstance(d, numbers.Integral)
                ):
                    raise AlgebraError(f"dimension at vertex {v!r} is not an integer: {d!r}")
                if d < 0:
                    raise AlgebraError("negative dimension")
        self.algebra = algebra
        self.side = side
        self.dims = MappingProxyType({v: int(dims.get(v, 0)) for v in q.vertices})
        if not _trusted:
            check_module_entries(q, self.dims)
        maps = {}
        for a in q.arrows:
            rshape = arrow_shape(self.dims, a, side)
            m = arrow_maps.get(a.name)
            if m is None:
                m = Matrix.zeros(algebra.field, *rshape)
            if m.shape != rshape:
                raise AlgebraError(
                    f"arrow {a.name}: expected shape {rshape}, got {m.shape}"
                )
            if m.field != algebra.field:
                raise AlgebraError(f"arrow {a.name}: field mismatch")
            maps[a.name] = m
        self.arrow_maps = MappingProxyType(maps)
        self._key = self._dual = None
        if not _trusted:
            self._check_relations()

    @property
    def key(self) -> tuple:
        """The module's value within its algebra: side, dimension vector
        and the exact arrow matrices, by arrow name, each one bytes string
        (raw bytes for int64 entries, the ASCII of the entries joined by
        commas for object ones, whose canonical form is their text), which
        caches its hash as a tuple of Fractions would not."""
        if self._key is None:
            parts = []
            for name in sorted(self.arrow_maps):
                data = self.arrow_maps[name].data
                if data.dtype == object:
                    parts.append(",".join(map(str, data.flat)).encode())
                else:
                    parts.append(data.tobytes())
            self._key = (self.side, self.dim_vector(), tuple(parts))
        return self._key

    def _check_relations(self):
        field = self.algebra.field
        arrays = {name: m.data for name, m in self.arrow_maps.items()}
        for rel in self.algebra.relations:
            if not path_sum_is_zero(field, _term_arrays(arrays, rel.terms, self.side)):
                raise AlgebraError(f"representation violates relation {rel}")

    def path_map(self, path: Path) -> Matrix:
        """Action of a monomial path.

        Left side: maps the source vertex space to the target one.
        Right side: maps the target vertex space to the source one.
        """
        src, arrows = path
        if not arrows:
            return Matrix.identity(self.algebra.field, self.dims[src])
        return compose_path(self.arrow_maps, arrows, self.side)

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self.algebra.quiver.vertices

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[v] for v in self.vertices)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.key == other.key
        )

    def __repr__(self) -> str:
        return f"Representation({self.side}, dims {self.dim_vector()})"


def zero_module(algebra: BoundQuiverAlgebra, side: str) -> Representation:
    return Representation(algebra, side, {}, {}, _trusted=True)


class ModuleMap:
    """Vertexwise linear map between two same-side representations.

    The intertwiner equations against every arrow are checked at
    construction.
    """

    __slots__ = ("domain", "codomain", "vertex_maps")

    def __init__(
        self,
        domain: Representation,
        codomain: Representation,
        vertex_maps: Dict[str, Matrix],
        _trusted: bool = False,
    ):
        if domain.algebra is not codomain.algebra or domain.side != codomain.side:
            raise AlgebraError("module map needs matching algebra and side")
        self.domain = domain
        self.codomain = codomain
        maps = {}
        for v in domain.vertices:
            m = vertex_maps.get(v)
            shape = (codomain.dims[v], domain.dims[v])
            if m is None:
                m = Matrix.zeros(domain.algebra.field, *shape)
            if m.shape != shape:
                raise AlgebraError(f"vertex {v}: expected shape {shape}, got {m.shape}")
            maps[v] = m
        self.vertex_maps = maps
        if not _trusted:
            self._check_intertwiner()

    def _check_intertwiner(self):
        for a in self.domain.algebra.quiver.arrows:
            x, y = arrow_ends(a, self.domain.side)
            lhs = self.vertex_maps[y] @ self.domain.arrow_maps[a.name]
            rhs = self.codomain.arrow_maps[a.name] @ self.vertex_maps[x]
            if lhs != rhs:
                raise AlgebraError(f"map fails the intertwiner equation at arrow {a.name}")

    @classmethod
    def identity(cls, m: Representation) -> "ModuleMap":
        return cls(
            m,
            m,
            {v: Matrix.identity(m.algebra.field, m.dims[v]) for v in m.vertices},
            _trusted=True,
        )

    @classmethod
    def zero(cls, domain: Representation, codomain: Representation) -> "ModuleMap":
        return cls(domain, codomain, {}, _trusted=True)

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition self after other (matches matrix convention)."""
        if other.codomain is not self.domain and other.codomain != self.domain:
            raise AlgebraError("composition domain mismatch")
        return ModuleMap(
            other.domain,
            self.codomain,
            {v: self.vertex_maps[v] @ other.vertex_maps[v] for v in self.domain.vertices},
            _trusted=True,
        )

    def _vertexwise(self, op, *others: "ModuleMap") -> "ModuleMap":
        """The map self -> codomain whose matrix at each vertex v is op of
        the vertex-v matrices of self and others."""
        return ModuleMap(
            self.domain,
            self.codomain,
            {
                v: op(self.vertex_maps[v], *(o.vertex_maps[v] for o in others))
                for v in self.domain.vertices
            },
            _trusted=True,
        )

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return self._vertexwise(operator.add, other)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self._vertexwise(operator.sub, other)

    def __neg__(self) -> "ModuleMap":
        return self._vertexwise(operator.neg)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.vertex_maps.values())

    def is_injective(self) -> bool:
        return all(
            rank(self.vertex_maps[v]) == self.domain.dims[v] for v in self.domain.vertices
        )

    def is_surjective(self) -> bool:
        return all(
            rank(self.vertex_maps[v]) == self.codomain.dims[v] for v in self.domain.vertices
        )

    def is_isomorphism(self) -> bool:
        return (
            self.domain.dim_vector() == self.codomain.dim_vector()
            and self.is_injective()
        )

    def flat(self) -> np.ndarray:
        """Row-major concatenation of all vertex matrices (hom coordinates)."""
        field = self.domain.algebra.field
        parts = [self.vertex_maps[v].data.reshape(-1) for v in self.domain.vertices]
        if not parts:
            return np.empty(0, dtype=field.dtype)
        return np.concatenate(parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and all(self.vertex_maps[v] == other.vertex_maps[v] for v in self.vertex_maps)
        )

    def __repr__(self) -> str:
        return f"ModuleMap({self.domain.dim_vector()} -> {self.codomain.dim_vector()})"


def map_from_flat(domain: Representation, codomain: Representation, vec: np.ndarray) -> ModuleMap:
    field = domain.algebra.field
    maps = {}
    off = 0
    for v in domain.vertices:
        r, c = codomain.dims[v], domain.dims[v]
        block = np.array(vec[off : off + r * c]).reshape(r, c)
        maps[v] = Matrix(field, field.normalize(block), _trusted=True)
        off += r * c
    return ModuleMap(domain, codomain, maps, _trusted=True)


# -- submodules and quotients ---------------------------------------------


class SubRep:
    """Vertexwise subspaces of a parent representation, arrow-invariant."""

    __slots__ = ("parent", "subspaces", "_rep", "_inclusion")

    def __init__(self, parent: Representation, subspaces: Dict[str, Subspace]):
        self.parent = parent
        field = parent.algebra.field
        self.subspaces = {
            v: subspaces[v] if v in subspaces else Subspace.zero(field, parent.dims[v])
            for v in parent.vertices
        }
        for v, s in self.subspaces.items():
            if s.ambient_dim != parent.dims[v]:
                raise AlgebraError(f"subspace at {v} has wrong ambient dimension")
        self._rep = None
        self._inclusion = None

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.subspaces.values())

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.subspaces[v].dim for v in self.parent.vertices)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.parent.total_dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubRep)
            and self.parent == other.parent
            and all(self.subspaces[v] == other.subspaces[v] for v in self.subspaces)
        )

    def materialize(self) -> Tuple[Representation, ModuleMap]:
        if self._rep is None:
            self._rep, self._inclusion = sub_to_rep(self.parent, self.subspaces)
        return self._rep, self._inclusion

    @property
    def rep(self) -> Representation:
        return self.materialize()[0]

    @property
    def inclusion(self) -> ModuleMap:
        return self.materialize()[1]

    def __repr__(self) -> str:
        return f"SubRep(dims {self.dim_vector()} of {self.parent.dim_vector()})"


def sub_to_rep(
    m: Representation, subspaces: Dict[str, Subspace]
) -> Tuple[Representation, ModuleMap]:
    """Realize arrow-invariant vertexwise subspaces as a representation.

    Raises if the subspaces are not invariant under the arrow action.
    """
    dims = {v: subspaces[v].dim for v in m.vertices}
    maps = {}
    for a in m.algebra.quiver.arrows:
        x, y = arrow_ends(a, m.side)
        image = m.arrow_maps[a.name] @ subspaces[x].basis.transpose()
        sol = coordinates(subspaces[y].basis, subspaces[y].pivots, image.transpose())
        if sol is None:
            raise AlgebraError(f"subspaces not invariant under arrow {a.name}")
        maps[a.name] = sol.transpose()
    rep = Representation(m.algebra, m.side, dims, maps, _trusted=True)
    incl = ModuleMap(
        rep, m, {v: subspaces[v].basis.transpose() for v in m.vertices}, _trusted=True
    )
    return rep, incl


def quotient_rep(
    m: Representation, subspaces: Dict[str, Subspace]
) -> Tuple[Representation, ModuleMap]:
    """Quotient by arrow-invariant vertexwise subspaces, with the projection."""
    quots = {v: subspaces[v].quotient() for v in m.vertices}
    dims = {v: quots[v].dim for v in m.vertices}
    maps = {}
    for a in m.algebra.quiver.arrows:
        x, y = arrow_ends(a, m.side)
        moved = quots[y].projection @ m.arrow_maps[a.name]
        induced = quots[x].after_section(moved)
        if induced @ quots[x].projection != moved:
            raise AlgebraError(f"subspaces not invariant under arrow {a.name}")
        maps[a.name] = induced
    rep = Representation(m.algebra, m.side, dims, maps, _trusted=True)
    proj = ModuleMap(m, rep, {v: quots[v].projection for v in m.vertices}, _trusted=True)
    return rep, proj


# -- canonical submodules ---------------------------------------------------


def radical_subspaces(m: Representation) -> Dict[str, Subspace]:
    """Image of the arrow action: the Jacobson radical of the module."""
    field = m.algebra.field
    rows: Dict[str, List[Matrix]] = {v: [] for v in m.vertices}
    for a in m.algebra.quiver.arrows:
        rows[arrow_ends(a, m.side)[1]].append(m.arrow_maps[a.name].transpose())
    return {
        v: Subspace(field, m.dims[v], vstack(field, rows[v], cols=m.dims[v]))
        for v in m.vertices
    }


def socle_subspaces(m: Representation) -> Dict[str, Subspace]:
    """Joint kernel of the arrow action: the socle."""
    field = m.algebra.field
    out: Dict[str, Subspace] = {}
    for v in m.vertices:
        mats = [
            m.arrow_maps[a.name]
            for a in m.algebra.quiver.arrows
            if arrow_ends(a, m.side)[0] == v
        ]
        stacked = vstack(field, mats, cols=m.dims[v])
        out[v] = Subspace(field, m.dims[v], kernel_basis(stacked))
    return out


@dataclass
class RadicalTopSocle:
    radical: SubRep
    top: Representation
    top_projection: ModuleMap
    socle: SubRep


def radical_top_socle(m: Representation) -> RadicalTopSocle:
    rad = SubRep(m, radical_subspaces(m))
    top, proj = quotient_rep(m, rad.subspaces)
    soc = SubRep(m, socle_subspaces(m))
    return RadicalTopSocle(rad, top, proj, soc)


# -- duals and side changes -------------------------------------------------


def dual_module(m: Representation) -> Representation:
    """Vector-space dual, a module on the other side with transposed maps.
    It is built on the first call and kept on m, and m on it, so D D m is m."""
    if m._dual is None:
        maps = {a: mat.transpose() for a, mat in m.arrow_maps.items()}
        m._dual = Representation(m.algebra, other_side(m.side), m.dims, maps, _trusted=True)
        m._dual._dual = m
    return m._dual


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of a map: reverses direction, transposes vertex matrices."""
    return ModuleMap(
        dual_module(f.codomain),
        dual_module(f.domain),
        {v: mat.transpose() for v, mat in f.vertex_maps.items()},
        _trusted=True,
    )


def to_opposite(m: Representation) -> Representation:
    """Reinterpret a right module as a left module over the opposite algebra
    (and vice versa).  The matrices are reused unchanged."""
    return Representation(m.algebra.opposite(), other_side(m.side), m.dims,
                          m.arrow_maps, _trusted=True)


# -- direct sums ------------------------------------------------------------


class DirectSum:
    """The sum of summands, with its injections and projections built when
    first read: most callers read the module alone."""

    def __init__(self, module: Representation, summands: Sequence[Representation]):
        self.module = module
        self.summands = tuple(summands)

    @cached_property
    def injections(self) -> List[ModuleMap]:
        field = self.module.algebra.field
        out = []
        offsets = dict.fromkeys(self.module.vertices, 0)
        for m in self.summands:
            inj = {}
            for v, off in offsets.items():
                block = field.zeros(self.module.dims[v], m.dims[v])
                block[range(off, off + m.dims[v]), range(m.dims[v])] = field.one()
                inj[v] = Matrix(field, block, _trusted=True)
                offsets[v] = off + m.dims[v]
            out.append(ModuleMap(m, self.module, inj, _trusted=True))
        return out

    @cached_property
    def projections(self) -> List[ModuleMap]:
        out = []
        for f in self.injections:
            proj = {v: x.transpose() for v, x in f.vertex_maps.items()}
            out.append(ModuleMap(self.module, f.domain, proj, _trusted=True))
        return out


def direct_sum(mods: Sequence[Representation]) -> DirectSum:
    if not mods:
        raise AlgebraError("direct sum of nothing needs an algebra; use zero_module")
    alg = mods[0].algebra
    side = mods[0].side
    field = alg.field
    for m in mods:
        if m.algebra is not alg or m.side != side:
            raise AlgebraError("direct sum needs matching algebra and side")
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.quiver.vertices}
    maps = {}
    for a in alg.quiver.arrows:
        maps[a.name] = block_diag(field, [m.arrow_maps[a.name] for m in mods])
    return DirectSum(Representation(alg, side, dims, maps, _trusted=True), mods)


# -- canonical modules -------------------------------------------------------


def simple(algebra: BoundQuiverAlgebra, v: str, side: str = LEFT) -> Representation:
    return algebra._cached(
        ("simple", v, side), lambda: Representation(algebra, side, {v: 1}, {}, _trusted=True)
    )


def extension_matrix(
    algebra: BoundQuiverAlgebra,
    a: Arrow,
    side: str,
    dom_labels: Sequence[Path],
    cod_labels: Sequence[Path],
) -> Matrix:
    """Matrix sending each path class of dom_labels to its extension by the
    arrow a, written in the classes cod_labels.  The extension is the action
    of a on a side module: left modules append a to a path, right modules
    prepend it."""
    field = algebra.field
    index = {p: i for i, p in enumerate(cod_labels)}
    mat = field.zeros(len(cod_labels), len(dom_labels))
    for j, (src, arrows) in enumerate(dom_labels):
        if side == LEFT:
            path = (src, arrows + (a.name,))
        else:
            path = (a.source, (a.name,) + arrows)
        for c, bp in algebra.normal_form(path):
            mat[index[bp], j] = field.add(mat[index[bp], j], c)
    return Matrix(field, mat, _trusted=True)


def _projective_with_labels(
    algebra: BoundQuiverAlgebra, v: str, side: str
) -> Tuple[Representation, Dict[str, List[Path]]]:
    """Indecomposable projective at v plus, per vertex, the path classes
    labelling its basis vectors."""
    return algebra._cached(("proj", v, side), _build_projective_with_labels, algebra, v, side)


def _build_projective_with_labels(algebra: BoundQuiverAlgebra, v: str, side: str):
    q = algebra.quiver
    # left P(v) at w: paths v -> w; right P(v) at w: paths w -> v
    labels = {
        w: algebra.block_basis(v, w) if side == LEFT else algebra.block_basis(w, v)
        for w in q.vertices
    }
    dims = {w: len(labels[w]) for w in q.vertices}
    maps = {}
    for a in q.arrows:
        x, y = arrow_ends(a, side)
        maps[a.name] = extension_matrix(algebra, a, side, labels[x], labels[y])
    return Representation(algebra, side, dims, maps), labels


def indec_projective(algebra: BoundQuiverAlgebra, v: str, side: str = LEFT) -> Representation:
    return _projective_with_labels(algebra, v, side)[0]


def indec_injective(algebra: BoundQuiverAlgebra, v: str, side: str = LEFT) -> Representation:
    """I(v) = D P(v), P(v) on the other side: the dual kept on the projective."""
    return dual_module(indec_projective(algebra, v, other_side(side)))


def regular_module(algebra: BoundQuiverAlgebra, side: str = LEFT) -> Representation:
    return algebra._cached(
        ("regular", side),
        lambda: direct_sum(
            [indec_projective(algebra, v, side) for v in algebra.quiver.vertices]
        ).module,
    )


def standard_probes(algebra: BoundQuiverAlgebra, side: str) -> List[Representation]:
    """Simples, then indecomposable projectives, then indecomposable
    injectives on one side, each in vertex order."""
    vertices = algebra.quiver.vertices
    return (
        [simple(algebra, v, side) for v in vertices]
        + [indec_projective(algebra, v, side) for v in vertices]
        + [indec_injective(algebra, v, side) for v in vertices]
    )
