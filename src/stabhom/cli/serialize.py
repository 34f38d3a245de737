"""JSON interchange for algebras, modules, maps, and functor presentations.

JSON is the single interchange format.  Scalars travel as strings
(decimal integers over prime fields, "num/den" over the rationals) and
matrices as flat row-major lists of those strings, so everything stays
exact.  Loaders validate shape and schema and raise ParseError with the
offending location; relation checking itself happens inside the
Representation constructor.
"""

import json
import os
from typing import Dict, List, Optional, Union

from ..algebra import (
    LEFT,
    RIGHT,
    Arrow,
    BoundQuiverAlgebra,
    ModuleMap,
    NotFiniteDimensional,
    Quiver,
    Relation,
    Representation,
    arrow_shape,
)
from ..exactla import PRIME, RATIONAL, Field, Matrix
from ..fpfun import CONTRAVARIANT, COVARIANT, FpFunctor


class ParseError(ValueError):
    """An input document does not match the interchange schema."""


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    return doc[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _is_int(value) -> bool:
    """JSON true/false load as bool, which Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown_keys(doc, known, where: str):
    """Misspelled keys would otherwise be ignored and their defaults used."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    for key in doc:
        if key not in known:
            raise ParseError(f"{where}: unknown key {key!r}")


def _scalars(field: Field, values, where: str) -> List:
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list of scalar strings")
    out = []
    for i, s in enumerate(values):
        if not isinstance(s, str):
            raise ParseError(f"{where}[{i}]: scalars must be strings")
        try:
            out.append(field.parse_scalar(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}[{i}]: bad scalar {s!r}: {exc}")
    return out


def matrix_to_list(m: Matrix) -> List[str]:
    """Flat row-major list of formatted entries."""
    return [m.field.format_scalar(x) for x in m.entries()]


def matrix_from_list(
    field: Field, rows: int, cols: int, values, where: str
) -> Matrix:
    flat = _scalars(field, values, where)
    if len(flat) != rows * cols:
        raise ParseError(
            f"{where}: expected {rows * cols} entries for a "
            f"{rows}x{cols} matrix, got {len(flat)}"
        )
    data = [flat[r * cols : (r + 1) * cols] for r in range(rows)]
    return Matrix.from_rows(field, data) if rows and cols else Matrix.zeros(
        field, rows, cols
    )


def field_to_dict(field: Field) -> dict:
    if field.kind == PRIME:
        return {"kind": PRIME, "p": field.p}
    return {"kind": RATIONAL}


def field_from_dict(doc, where: str = "field") -> Field:
    kind = _require(doc, "kind", where)
    if kind == PRIME:
        p = _require(doc, "p", where)
        if not _is_int(p):
            raise ParseError(f"{where}: p must be an integer")
        try:
            return Field.prime(p)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}")
    if kind == RATIONAL:
        return Field.rational()
    raise ParseError(f"{where}: unknown field kind {kind!r}")


def algebra_to_dict(alg: BoundQuiverAlgebra) -> dict:
    relations = []
    for rel in alg.relations:
        terms = [
            {"coeff": alg.field.format_scalar(c), "path": list(arrows)}
            for c, arrows in rel.terms
        ]
        relations.append({"terms": terms})
    return {
        "field": field_to_dict(alg.field),
        "quiver": {
            "vertices": list(alg.quiver.vertices),
            "arrows": [
                {"name": a.name, "from": a.source, "to": a.target}
                for a in alg.quiver.arrows
            ],
        },
        "relations": relations,
        "nilpotency_bound": alg.nilpotency_bound,
    }


def algebra_from_dict(doc, where: str = "algebra") -> BoundQuiverAlgebra:
    _reject_unknown_keys(doc, ("field", "quiver", "relations", "nilpotency_bound"), where)
    field = field_from_dict(_require(doc, "field", where), f"{where}.field")
    qdoc = _require(doc, "quiver", where)
    vertices = _require(qdoc, "vertices", f"{where}.quiver")
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise ParseError(f"{where}.quiver.vertices: expected a list of strings")
    arrows = []
    arrow_docs = _list(_require(qdoc, "arrows", f"{where}.quiver"), f"{where}.quiver.arrows")
    for i, adoc in enumerate(arrow_docs):
        loc = f"{where}.quiver.arrows[{i}]"
        ends = [_require(adoc, key, loc) for key in ("name", "from", "to")]
        if not all(isinstance(x, str) for x in ends):
            raise ParseError(f"{loc}: name, from and to must be strings")
        arrows.append(Arrow(*ends))
    try:
        quiver = Quiver(vertices, arrows)
    except ValueError as exc:
        raise ParseError(f"{where}.quiver: {exc}")
    relations = []
    for i, rdoc in enumerate(_list(doc.get("relations", []), f"{where}.relations")):
        loc = f"{where}.relations[{i}]"
        terms = []
        for j, tdoc in enumerate(_list(_require(rdoc, "terms", loc), f"{loc}.terms")):
            coeff = _require(tdoc, "coeff", f"{loc}.terms[{j}]")
            path = _require(tdoc, "path", f"{loc}.terms[{j}]")
            if not isinstance(coeff, str):
                raise ParseError(f"{loc}.terms[{j}]: coeff must be a string")
            if not isinstance(path, list) or not path or not all(
                isinstance(x, str) for x in path
            ):
                raise ParseError(
                    f"{loc}.terms[{j}]: path must be a nonempty list of arrow names"
                )
            try:
                terms.append((field.parse_scalar(coeff), tuple(path)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{loc}.terms[{j}]: bad coeff: {exc}")
        relations.append(Relation(terms))
    bound = doc.get("nilpotency_bound", 16)
    if not _is_int(bound) or bound < 1:
        raise ParseError(f"{where}.nilpotency_bound: expected a positive integer")
    try:
        return BoundQuiverAlgebra(quiver, relations, field, bound)
    except ValueError as exc:
        # NotFiniteDimensional passes through for its own exit code.
        if isinstance(exc, NotFiniteDimensional):
            raise
        raise ParseError(f"{where}: {exc}")


def module_to_dict(
    m: Representation, algebra_ref: Optional[str] = None
) -> dict:
    algebra: Union[str, dict]
    algebra = algebra_ref if algebra_ref is not None else algebra_to_dict(
        m.algebra
    )
    return {
        "algebra": algebra,
        "side": m.side,
        "dims": dict(m.dims),
        "arrows": {
            name: matrix_to_list(mat) for name, mat in m.arrow_maps.items()
        },
    }


def _resolve_algebra(
    ref, algebra: Optional[BoundQuiverAlgebra], base_dir: str, where: str
) -> BoundQuiverAlgebra:
    if algebra is not None:
        return algebra
    if isinstance(ref, dict):
        return algebra_from_dict(ref, f"{where}.algebra")
    if isinstance(ref, str):
        return load_algebra(os.path.join(base_dir, ref))
    raise ParseError(f"{where}.algebra: expected a path or an inline object")


def module_from_dict(
    doc,
    algebra: Optional[BoundQuiverAlgebra] = None,
    base_dir: str = ".",
    where: str = "module",
) -> Representation:
    _reject_unknown_keys(doc, ("algebra", "side", "dims", "arrows"), where)
    alg = _resolve_algebra(_require(doc, "algebra", where), algebra, base_dir, where)
    side = _require(doc, "side", where)
    if side not in (LEFT, RIGHT):
        raise ParseError(f"{where}.side: expected 'left' or 'right'")
    dims_doc = _require(doc, "dims", where)
    _reject_unknown_keys(dims_doc, alg.quiver.vertices, f"{where}.dims")
    dims = {}
    for v in alg.quiver.vertices:
        d = dims_doc.get(v, 0)
        if not _is_int(d) or d < 0:
            raise ParseError(f"{where}.dims[{v!r}]: expected a nonnegative integer")
        dims[v] = d
    arrows_doc = doc.get("arrows", {})
    _reject_unknown_keys(arrows_doc, alg.quiver.arrow_by_name, f"{where}.arrows")
    arrow_maps: Dict[str, Matrix] = {}
    for a in alg.quiver.arrows:
        if a.name not in arrows_doc:
            continue
        rows, cols = arrow_shape(dims, a, side)
        arrow_maps[a.name] = matrix_from_list(
            alg.field, rows, cols, arrows_doc[a.name], f"{where}.arrows[{a.name!r}]"
        )
    return Representation(alg, side, dims, arrow_maps)


def map_to_dict(f: ModuleMap, algebra_ref: Optional[str] = None) -> dict:
    return {
        "domain": module_to_dict(f.domain, algebra_ref),
        "codomain": module_to_dict(f.codomain, algebra_ref),
        "maps": {v: matrix_to_list(m) for v, m in f.vertex_maps.items()},
    }


def map_from_dict(
    doc,
    algebra: Optional[BoundQuiverAlgebra] = None,
    base_dir: str = ".",
    where: str = "map",
) -> ModuleMap:
    _reject_unknown_keys(doc, ("domain", "codomain", "maps"), where)
    dom = module_from_dict(
        _require(doc, "domain", where), algebra, base_dir, f"{where}.domain"
    )
    cod = module_from_dict(
        _require(doc, "codomain", where), dom.algebra, base_dir, f"{where}.codomain"
    )
    maps_doc = _require(doc, "maps", where)
    _reject_unknown_keys(maps_doc, dom.vertices, f"{where}.maps")
    field = dom.algebra.field
    vertex_maps = {}
    for v in dom.vertices:
        rows, cols = cod.dims[v], dom.dims[v]
        values = maps_doc.get(v, ["0"] * (rows * cols))
        vertex_maps[v] = matrix_from_list(
            field, rows, cols, values, f"{where}.maps[{v!r}]"
        )
    return ModuleMap(dom, cod, vertex_maps)


def functor_to_dict(func: FpFunctor, algebra_ref: Optional[str] = None) -> dict:
    return {
        "variance": func.variance,
        "presentation": map_to_dict(func.presentation, algebra_ref),
    }


def functor_from_dict(
    doc,
    algebra: Optional[BoundQuiverAlgebra] = None,
    base_dir: str = ".",
    where: str = "functor",
) -> FpFunctor:
    _reject_unknown_keys(doc, ("variance", "presentation"), where)
    variance = _require(doc, "variance", where)
    if variance not in (COVARIANT, CONTRAVARIANT):
        raise ParseError(
            f"{where}.variance: expected 'covariant' or 'contravariant'"
        )
    pres = map_from_dict(
        _require(doc, "presentation", where),
        algebra,
        base_dir,
        f"{where}.presentation",
    )
    return FpFunctor(variance, pres)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}")


def load_algebra(path: str) -> BoundQuiverAlgebra:
    return algebra_from_dict(_load_json(path), where=path)


def load_module(
    path: str, algebra: Optional[BoundQuiverAlgebra] = None
) -> Representation:
    return module_from_dict(
        _load_json(path), algebra, os.path.dirname(path) or ".", where=path
    )


def load_functor(
    path: str, algebra: Optional[BoundQuiverAlgebra] = None
) -> FpFunctor:
    return functor_from_dict(
        _load_json(path), algebra, os.path.dirname(path) or ".", where=path
    )


def subspace_rows(field: Field, sub) -> List[List[str]]:
    """Echelon basis rows of a Subspace as lists of scalar strings."""
    basis = sub.basis
    return [
        [field.format_scalar(x) for x in basis.data[i]]
        for i in range(basis.rows)
    ]
