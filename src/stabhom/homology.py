"""Homological machinery over a bound quiver algebra.

Hom spaces are computed as joint kernels of the intertwiner equations;
kernels, images, and cokernels of module maps are taken vertexwise with
induced arrow actions; projective covers and injective envelopes are
minimal (built on top and socle).  The star dual Hom(-, algebra) is
organized as a module on the other side, with the component at vertex v
being Hom(m, P(v)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .exactla import (
    Matrix,
    Subspace,
    coordinates,
    free_columns,
    hstack,
    kernel_basis,
    kron,
    rank,
    solve_matrix,
    solve_right,
    vstack,
)
from .algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    BoundQuiverAlgebra,
    ModuleMap,
    Path,
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
    radical_top_socle,
    zero_module,
)


class HomSpace:
    """Basis of Hom(domain, codomain) in flattened coordinates.

    stack is a (dim x D) matrix whose rows are the flattened basis maps,
    D being the total number of matrix entries of a vertexwise map.  It is
    the kernel basis of the intertwiner equations, so it is the identity on
    their free columns `free`, and a map's coordinates are its entries there.
    """

    __slots__ = ("domain", "codomain", "stack", "free", "_maps")

    def __init__(self, domain: Representation, codomain: Representation, stack: Matrix):
        self.domain = domain
        self.codomain = codomain
        self.stack = stack
        self.free = free_columns(stack)
        self._maps: Optional[List[ModuleMap]] = None

    @property
    def dim(self) -> int:
        return self.stack.rows

    def basis_maps(self) -> List[ModuleMap]:
        if self._maps is None:
            self._maps = [
                map_from_flat(self.domain, self.codomain, self.stack.data[i])
                for i in range(self.dim)
            ]
        return self._maps

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
    """Basis of the space of module maps a -> b."""
    if a.algebra is not b.algebra or a.side != b.side:
        raise AlgebraError("hom needs matching algebra and side")
    alg = a.algebra
    field = alg.field
    verts = a.vertices
    offs: Dict[str, int] = {}
    total = 0
    for v in verts:
        offs[v] = total
        total += b.dims[v] * a.dims[v]
    rows: List[Matrix] = []
    for ar in alg.quiver.arrows:
        x, y = arrow_ends(ar, a.side)
        da_x, db_y = a.dims[x], b.dims[y]
        nrows = db_y * da_x
        if nrows == 0:
            continue
        block = Matrix.zeros(field, nrows, total).data.copy()
        # phi_y . A - B . phi_x = 0 ; row-major vec identities
        amat = a.arrow_maps[ar.name]
        bmat = b.arrow_maps[ar.name]
        ky = kron(Matrix.identity(field, db_y), amat.transpose())
        kx = kron(bmat, Matrix.identity(field, da_x))
        if ky.cols:
            block[:, offs[y] : offs[y] + ky.cols] += ky.data
        if kx.cols:
            block[:, offs[x] : offs[x] + kx.cols] -= kx.data
        rows.append(Matrix(field, field.normalize(block), _trusted=True))
    system = vstack(field, rows, cols=total)
    return HomSpace(a, b, kernel_basis(system))


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
    """0 -> left -> middle -> right -> 0 with its two maps."""

    left: Representation
    middle: Representation
    right: Representation
    inclusion: ModuleMap
    surjection: ModuleMap

    def validate(self) -> bool:
        if not self.inclusion.is_injective():
            return False
        if not self.surjection.is_surjective():
            return False
        ker = kernel_map(self.surjection)
        im = image_map(self.inclusion)
        return all(ker.subspaces[v] == im.subspaces[v] for v in self.middle.vertices)


# -- projective covers and injective envelopes ------------------------------


def projective_cover(m: Representation) -> ShortExactSequence:
    """Minimal projective cover, returned as 0 -> syzygy -> P -> m -> 0."""
    alg = m.algebra
    field = alg.field
    rts = radical_top_socle(m)
    mults = {v: rts.top.dims[v] for v in m.vertices}
    summands: List[Tuple[str, Representation, Dict[str, List[Path]]]] = []
    for v in m.vertices:
        if mults[v]:
            rep, labels = _projective_with_labels(alg, v, m.side)
            summands.extend((v, rep, labels) for _ in range(mults[v]))
    if not summands:
        p = zero_module(alg, m.side)
        cover = ModuleMap.zero(p, m)
        omega = kernel_map(cover)
        return ShortExactSequence(omega.rep, p, m, omega.inclusion, cover)
    ds = direct_sum([rep for _, rep, _ in summands])
    # generator preimages: a section of the projection onto the top
    sections: Dict[str, Matrix] = {}
    for v in m.vertices:
        q = rts.top_projection.vertex_maps[v]
        s = solve_matrix(q, Matrix.identity(field, q.rows))
        if s is None:
            raise AlgebraError("top projection has no section")
        sections[v] = s
    used: Dict[str, int] = {v: 0 for v in m.vertices}
    cover_cols: Dict[str, List[Matrix]] = {w: [] for w in m.vertices}
    for v, rep, labels in summands:
        gen = sections[v].data[:, used[v]].copy()
        used[v] += 1
        for w in m.vertices:
            block = Matrix.zeros(field, m.dims[w], rep.dims[w]).data.copy()
            for j, path in enumerate(labels[w]):
                block[:, j] = m.path_map(path).apply(gen)
            cover_cols[w].append(Matrix(field, field.normalize(block), _trusted=True))
    cover = ModuleMap(
        ds.module,
        m,
        {w: hstack(field, cover_cols[w], rows=m.dims[w]) for w in m.vertices},
    )
    if not cover.is_surjective():
        raise AlgebraError("projective cover failed to surject")
    omega = kernel_map(cover)
    return ShortExactSequence(omega.rep, ds.module, m, omega.inclusion, cover)


def injective_envelope(m: Representation) -> ShortExactSequence:
    """Minimal injective envelope, returned as 0 -> m -> I -> cosyzygy -> 0."""
    md = dual_module(m)
    cov = projective_cover(md)
    denv = dual_map(cov.surjection)
    env = ModuleMap(m, denv.codomain, denv.vertex_maps)
    coker, proj = cokernel_map(env)
    return ShortExactSequence(m, env.codomain, coker, env, proj)


def syzygy(m: Representation) -> Representation:
    return projective_cover(m).left


def cosyzygy(m: Representation) -> Representation:
    return injective_envelope(m).right


def is_projective(m: Representation) -> bool:
    return projective_cover(m).left.is_zero()


def is_injective_module(m: Representation) -> bool:
    return injective_envelope(m).right.is_zero()


def is_self_injective(alg: BoundQuiverAlgebra) -> bool:
    key = ("self_injective",)
    if key not in alg._cache:
        alg._cache[key] = all(
            is_injective_module(indec_projective(alg, v, LEFT))
            for v in alg.quiver.vertices
        )
    return alg._cache[key]


# -- map assembly, pushouts, pullbacks ---------------------------------------


def hstack_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """[f | g]: domain(f) + domain(g) -> shared codomain."""
    if f.codomain != g.codomain:
        raise AlgebraError("hstack_maps needs a shared codomain")
    ds = direct_sum([f.domain, g.domain])
    field = f.domain.algebra.field
    maps = {}
    for v in f.domain.vertices:
        block = Matrix.zeros(field, f.codomain.dims[v], ds.module.dims[v]).data.copy()
        block[:, : f.domain.dims[v]] = f.vertex_maps[v].data
        block[:, f.domain.dims[v] :] = g.vertex_maps[v].data
        maps[v] = Matrix(field, block, _trusted=True)
    return ModuleMap(ds.module, f.codomain, maps)


def vstack_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """[f ; g]: shared domain -> codomain(f) + codomain(g)."""
    if f.domain != g.domain:
        raise AlgebraError("vstack_maps needs a shared domain")
    ds = direct_sum([f.codomain, g.codomain])
    field = f.domain.algebra.field
    maps = {}
    for v in f.domain.vertices:
        block = Matrix.zeros(field, ds.module.dims[v], f.domain.dims[v]).data.copy()
        block[: f.codomain.dims[v], :] = f.vertex_maps[v].data
        block[f.codomain.dims[v] :, :] = g.vertex_maps[v].data
        maps[v] = Matrix(field, block, _trusted=True)
    return ModuleMap(f.domain, ds.module, maps)


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


# -- hom-space pushforwards -------------------------------------------------


def push_coords(
    source: HomSpace, target: HomSpace, transform: Callable[[ModuleMap], ModuleMap]
) -> Matrix:
    """Matrix (rows: source basis) of a map Hom_src -> Hom_tgt in coordinates."""
    field = source.stack.field
    flats = [transform(f).flat() for f in source.basis_maps()]
    fm = np.array(flats, dtype=field.dtype).reshape(len(flats), target.stack.cols)
    return target.coords_of_flats(Matrix(field, fm))


def extend_over(h: ModuleMap, gamma: ModuleMap) -> Optional[ModuleMap]:
    """Solve beta with beta(gamma(x)) = h(x), for h: A -> C and gamma: A -> B."""
    hom_bc = hom_basis(gamma.codomain, h.codomain)
    hom_ac = hom_basis(h.domain, h.codomain)
    t = push_coords(hom_bc, hom_ac, lambda g: g @ gamma)
    x = solve_right(t.transpose(), hom_ac.coords_of(h))
    return None if x is None else hom_bc.element(x)


def lift_along(h: ModuleMap, s: ModuleMap) -> Optional[ModuleMap]:
    """Solve beta with s(beta(x)) = h(x), for h: A -> C and s: B -> C."""
    hom_ab = hom_basis(h.domain, s.domain)
    hom_ac = hom_basis(h.domain, h.codomain)
    t = push_coords(hom_ab, hom_ac, lambda g: s @ g)
    x = solve_right(t.transpose(), hom_ac.coords_of(h))
    return None if x is None else hom_ab.element(x)


# -- Ext^1 -------------------------------------------------------------------


@dataclass
class Ext1Result:
    """dim Ext^1(m, n) plus the cokernel presentation it came from."""

    dim: int
    cover: ShortExactSequence
    hom_p: HomSpace
    hom_omega: HomSpace
    restriction: Matrix  # rows: image of Hom(P, n) inside Hom(syzygy, n)


def ext1(m: Representation, n: Representation, cover: Optional[ShortExactSequence] = None) -> Ext1Result:
    if cover is None:
        cover = projective_cover(m)
    hom_p = hom_basis(cover.middle, n)
    hom_omega = hom_basis(cover.left, n)
    restriction = push_coords(hom_p, hom_omega, lambda h: h @ cover.inclusion)
    dim = hom_omega.dim - rank(restriction)
    return Ext1Result(dim, cover, hom_p, hom_omega, restriction)


# -- tensor products ---------------------------------------------------------


class TensorSpace:
    """a (x)_Lambda b as a quotient of the vertexwise tensor sum.

    The carrier is the quotient of D = sum_v a_v (x) b_v by the arrow
    balancing relations (x.alpha (x) y - x (x) alpha.y).  projection and
    section realize the quotient; pure-tensor coordinates at vertex v sit
    at offset[v] + i * dim b_v + j.
    """

    __slots__ = ("left_arg", "right_arg", "offsets", "quotient", "ambient_dim")

    def __init__(self, a: Representation, b: Representation):
        if a.algebra is not b.algebra:
            raise AlgebraError("tensor needs a common algebra")
        if a.side != RIGHT or b.side != LEFT:
            raise AlgebraError("tensor takes a right module and a left module")
        alg = a.algebra
        field = alg.field
        offs: Dict[str, int] = {}
        total = 0
        for v in a.vertices:
            offs[v] = total
            total += a.dims[v] * b.dims[v]
        rows: List[Matrix] = []
        for ar in alg.quiver.arrows:
            u, w = ar.source, ar.target
            amat = a.arrow_maps[ar.name]  # a_w -> a_u
            bmat = b.arrow_maps[ar.name]  # b_u -> b_w
            nrows = a.dims[w] * b.dims[u]
            if nrows == 0:
                continue
            block = Matrix.zeros(field, nrows, total).data.copy()
            left_part = kron(amat.transpose(), Matrix.identity(field, b.dims[u]))
            right_part = kron(Matrix.identity(field, a.dims[w]), bmat.transpose())
            if left_part.cols:
                block[:, offs[u] : offs[u] + left_part.cols] += left_part.data
            if right_part.cols:
                block[:, offs[w] : offs[w] + right_part.cols] -= right_part.data
            rows.append(Matrix(field, field.normalize(block), _trusted=True))
        relations = Subspace(field, total, vstack(field, rows, cols=total))
        self.left_arg = a
        self.right_arg = b
        self.offsets = offs
        self.ambient_dim = total
        self.quotient = relations.quotient()

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def pure_index(self, v: str, i: int, j: int) -> int:
        return self.offsets[v] + i * self.right_arg.dims[v] + j

    def pure_tensor_coords(self, v: str, xi: np.ndarray, yj: np.ndarray) -> np.ndarray:
        field = self.left_arg.algebra.field
        vec = Matrix.zeros(field, self.ambient_dim, 1).data[:, 0].copy()
        base = np.outer(xi, yj).reshape(-1)
        vec[self.offsets[v] : self.offsets[v] + base.shape[0]] = base
        return self.quotient.projection.apply(field.normalize(vec))


def tensor(a: Representation, b: Representation) -> TensorSpace:
    return TensorSpace(a, b)


def tensor_map(
    src: TensorSpace,
    dst: TensorSpace,
    f: Optional[ModuleMap] = None,
    g: Optional[ModuleMap] = None,
) -> Matrix:
    """Matrix of f (x) g from src to dst in quotient coordinates."""
    field = src.left_arg.algebra.field
    big = Matrix.zeros(field, dst.ambient_dim, src.ambient_dim).data.copy()
    for v in src.left_arg.vertices:
        fv = f.vertex_maps[v] if f else Matrix.identity(field, src.left_arg.dims[v])
        gv = g.vertex_maps[v] if g else Matrix.identity(field, src.right_arg.dims[v])
        blk = kron(fv, gv)
        if blk.rows and blk.cols:
            big[
                dst.offsets[v] : dst.offsets[v] + blk.rows,
                src.offsets[v] : src.offsets[v] + blk.cols,
            ] = blk.data
    bigm = Matrix(field, field.normalize(big), _trusted=True)
    return dst.quotient.projection @ bigm @ src.quotient.section


# -- star duality -------------------------------------------------------------


def _right_mult_map(alg: BoundQuiverAlgebra, arrow_name: str, side: str) -> ModuleMap:
    """For left projectives: right multiplication P(target) -> P(source).
    For right projectives: left multiplication P(source) -> P(target)."""
    key = ("mult", arrow_name, side)
    if key in alg._cache:
        return alg._cache[key]
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
    out = ModuleMap(dom_rep, cod_rep, maps)
    alg._cache[key] = out
    return out


@dataclass
class StarDual:
    """Hom(m, algebra) organized as a module on the other side.

    The component at vertex v is Hom(m, P(v)); hom[v] holds the basis
    used as coordinates there.
    """

    module: Representation
    hom: Dict[str, HomSpace]


def star_dual(m: Representation) -> StarDual:
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
        maps[ar.name] = push_coords(homs[x], homs[y], lambda f: mult @ f).transpose()
    rep = Representation(alg, star_side, dims, maps)
    return StarDual(rep, homs)


def star_dual_map(f: ModuleMap, sd_dom: StarDual, sd_cod: StarDual) -> ModuleMap:
    """Precomposition Hom(codomain, algebra) -> Hom(domain, algebra)."""
    maps = {
        v: push_coords(sd_cod.hom[v], sd_dom.hom[v], lambda g: g @ f).transpose()
        for v in f.domain.vertices
    }
    return ModuleMap(sd_cod.module, sd_dom.module, maps)


def eval_double_dual(m: Representation) -> Tuple[ModuleMap, StarDual, StarDual]:
    """The evaluation map m -> m** together with both star duals."""
    alg = m.algebra
    field = alg.field
    sd = star_dual(m)
    sdd = star_dual(sd.module)
    vmaps: Dict[str, Matrix] = {}
    for v in m.vertices:
        dv = m.dims[v]
        width = sdd.hom[v].stack.cols
        flats = Matrix.zeros(field, dv, width).data.copy()
        # ev(x): m* -> P_other(v); its component at w sends the basis hom f to
        # the vector f_v(x), written in the path-class labels shared by
        # P_mside(w) at v and P_otherside(v) at w.
        for i in range(dv):
            cursor = 0
            for w in m.vertices:
                hw = sd.hom[w]
                pv_dim_at_w = indec_projective(alg, w, m.side).dims[v]
                block = np.zeros((pv_dim_at_w, hw.dim), dtype=field.dtype)
                for k, f in enumerate(hw.basis_maps()):
                    block[:, k] = f.vertex_maps[v].data[:, i]
                flats[i, cursor : cursor + pv_dim_at_w * hw.dim] = block.reshape(-1)
                cursor += pv_dim_at_w * hw.dim
        coords = sdd.hom[v].coords_of_flats(
            Matrix(field, field.normalize(flats), _trusted=True)
        )
        vmaps[v] = coords.transpose()
    ev = ModuleMap(m, sdd.module, vmaps)
    return ev, sd, sdd


# -- transpose ----------------------------------------------------------------


@dataclass
class TransposeData:
    """Transpose with its four-term witness 0 -> m* -> P0* -> P1* -> tr -> 0."""

    module: Representation
    p0_star: Representation
    p1_star: Representation
    f_star: ModuleMap  # P0* -> P1*
    projection: ModuleMap  # P1* -> tr
    star_sub: SubRep  # kernel of f_star inside P0*, isomorphic to m*
    presentation: ModuleMap  # the minimal presentation map P1 -> P0
    cover: ShortExactSequence  # P0 onto m
    syzygy_cover: ShortExactSequence  # P1 onto the syzygy of m
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
    return TransposeData(
        tr, sd0.module, sd1.module, f_star, proj, star_sub, pres, cov0, cov1, sd0, sd1
    )
