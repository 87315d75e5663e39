"""Mesh JSON files and CSV convergence reports.

The mesh format is a single JSON document listing patches (degrees, knot
vectors, control points, weights) and interfaces, optionally carrying the
compiled weakly continuous element operators.  All floating-point numbers
are printed with 17 significant digits so that write -> read -> write is
byte-identical and regression diffs are exact.
"""

from __future__ import annotations

import gc
import io
import json
import math
import struct
from itertools import chain, islice

import numpy as np

from .coupling import MAX_DUAL_REFINE, InterfaceGeometryError, InterfaceSpec
from .model import MultiPatchModel
from .splines import SIDES, KnotVector, MeshFormatError, Patch2D

__all__ = [
    "MeshFormatError",
    "mesh_document",
    "dump_mesh",
    "load_mesh",
    "validate_mesh_document",
    "model_from_document",
    "convergence_csv",
    "CSV_COLUMNS",
]

FORMAT_NAME = "bezmortar-mesh"
FORMAT_VERSION = 1

CSV_COLUMNS = ("case", "method", "p", "ratio", "matched", "n", "level", "h", "dofs",
               "l2_error", "rate")


class _Memo(dict):
    """One call's memo: ``__missing__`` converts each distinct key once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _float_text(bits: int) -> str:
    v = struct.unpack("d", struct.pack("Q", bits))[0]
    if not math.isfinite(v):
        raise MeshFormatError("non-finite", f"cannot write {v} as JSON")
    return "%.17g" % v


def _bit_patterns(values) -> tuple:
    n = len(values)
    return struct.unpack(f"{n}Q", struct.pack(f"{n}d", *values))


def _emit(obj, out: io.StringIO, indent: int, text: _Memo):
    pad = "  " * indent
    if isinstance(obj, dict):
        out.write("{\n")
        keys = list(obj.keys())
        for i, k in enumerate(keys):
            out.write(f'{pad}  "{k}": ')
            _emit(obj[k], out, indent + 1, text)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # fast paths: lists whose items are all exactly float or exactly int,
        # and lists of rows of exact floats; bool, numpy scalars and mixed
        # lists take the generic paths below
        types = set(map(type, obj))
        if types == {float}:
            out.write("[" + ", ".join(map(text.__getitem__, _bit_patterns(obj))) + "]")
        elif types == {int}:
            out.write("[" + ", ".join(map(str, obj)) + "]")
        elif all(not isinstance(v, (dict, list, tuple)) for v in obj):
            out.write("[" + ", ".join(_scalar(v) for v in obj) + "]")
        elif (types <= {list, tuple}
              and set(map(type, flat := list(chain.from_iterable(obj)))) == {float}):
            words = map(text.__getitem__, _bit_patterns(flat))
            _write_rows([", ".join(islice(words, len(row))) for row in obj], out, pad)
        else:
            out.write("[\n")
            for i, v in enumerate(obj):
                out.write(pad + "  ")
                _emit(v, out, indent + 1, text)
                out.write(",\n" if i + 1 < len(obj) else "\n")
            out.write(pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        # a weak cell's matrix, in the layout of a list of float rows; an empty
        # one is written as its list
        if obj.size:
            bits = obj.view(np.uint64).ravel().tolist()  # same item size: any strides
            words, n = list(map(text.__getitem__, bits)), obj.shape[1]
            _write_rows([", ".join(words[i:i + n]) for i in range(0, len(words), n)], out, pad)
        else:
            _emit(obj.tolist(), out, indent, text)
    else:
        out.write(_scalar(obj))


def _write_rows(rows: list, out: io.StringIO, pad: str):
    """A list of rows of formatted numbers, one row a line."""
    row_pad = pad + "  ["
    out.write("[\n" + row_pad + ("],\n" + row_pad).join(rows) + "]\n" + pad + "]")


def _scalar(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _float_text(*_bit_patterns([float(v)]))
    raise TypeError(f"unsupported scalar {type(v)}")


def mesh_document(model: MultiPatchModel, weak: bool = False,
                  meta: dict | None = None) -> dict:
    """Document of a model for :func:`dump_mesh`, optionally with compiled weak cells.

    Each weak cell's ``matrix`` is a read-only float64 array, a view of the
    operator stack of the model's weak mesh.
    """
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "patches": [
            {
                "degrees": list(p.degrees),
                "knots": [kv.values.tolist() for kv in p.kvs],
                "control_points": p.points.reshape(-1, 2).tolist(),
                "weights": p.weights.reshape(-1).tolist(),
            }
            for p in model.patches
        ],
        "interfaces": [
            {
                "master": [s.master[0], s.master[1]],
                "slave": [s.slave[0], s.slave[1]],
                "reversed": bool(s.reversed),
            }
            for s in model.interfaces
        ],
        "dual_refine": model.dual_refine,
    }
    if meta:
        doc["meta"] = meta
    if weak:
        mesh = model.weak_mesh()
        cells = [None] * len(mesh)
        for g in mesh.groups:
            for k, patch, rect, rows, matrix in zip(
                    *(getattr(g, f).tolist() for f in ("index", "patch", "rect", "rows")),
                    g.ophom):
                cells[k] = {"patch": patch, "rect": rect, "rows": rows, "matrix": matrix}
        doc["weak_cells"] = cells
        doc["weak_dofs"] = mesh.ndof
    return doc


def dump_mesh(doc: dict) -> str:
    """Serialize a mesh document with 17-significant-digit floats.

    Each distinct float in a float list or float64 matrix is formatted once
    per call.
    """
    out = io.StringIO()
    # keyed by bit pattern, not by value: 0.0 == -0.0 would share one text
    _emit(doc, out, 0, _Memo(_float_text))
    out.write("\n")
    return out.getvalue()


def _json_int(token: str):
    # dump_mesh writes -0.0 as "-0"; read it back as a float, keeping its sign
    return -0.0 if token == "-0" else int(token)


def _json_constant(token: str):
    raise MeshFormatError("non-finite", f"{token} in the document")


def load_mesh(text: str) -> dict:
    """Parse and validate a mesh document; each distinct number token is read once."""
    # the parser's many lists and dicts hold no cycles: the cyclic collector
    # is paused while it runs, and the caller's setting restored
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text, parse_float=_Memo(float).__getitem__,
                         parse_int=_Memo(_json_int).__getitem__,
                         parse_constant=_json_constant)
    except MeshFormatError:
        raise
    except ValueError as exc:
        raise MeshFormatError("bad-json", str(exc)) from exc
    finally:
        if enabled:
            gc.enable()
    validate_mesh_document(doc)
    return doc


def validate_mesh_document(doc) -> None:
    """Schema check; raises MeshFormatError with a specific code."""
    _validate_model_fields(doc)
    if "weak_cells" in doc or "weak_dofs" in doc:
        _validate_weak_cells(doc.get("weak_cells"), doc.get("weak_dofs"), len(doc["patches"]))


def _validate_model_fields(doc) -> tuple:
    """Schema check of the fields a model is built from: patches, interfaces
    and ``dual_refine``.  Returns the patches, the interface specs and the
    level; the spline constructors check the patches' own rules."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise MeshFormatError("bad-format", "not a mesh document")
    patches = doc.get("patches")
    if not isinstance(patches, list) or not patches:
        raise MeshFormatError("bad-format", "missing patches")
    built = []
    for k, p in enumerate(patches):
        try:
            degrees = p["degrees"]
            knots = [_numbers(kv) for kv in p["knots"]]
            cps = _numbers(p["control_points"])
            wts = _numbers(p["weights"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshFormatError("bad-format", f"patch {k}: {exc}") from exc
        if not (isinstance(degrees, list) and len(degrees) == 2 and all(map(_is_int, degrees))):
            raise MeshFormatError("bad-degree", f"patch {k}: degrees {degrees!r} are not "
                                  "two integers")
        if len(knots) != 2 or any(kv.ndim != 1 for kv in knots):
            raise MeshFormatError("bad-format", f"patch {k}: expected two knot vectors")
        if wts.ndim != 1 or (cps.size and (cps.ndim != 2 or cps.shape[1] != 2)):
            raise MeshFormatError("bad-format", f"patch {k}: control net is not a list of 2D points")
        try:
            kv1, kv2 = (KnotVector(kv, deg) for kv, deg in zip(knots, degrees))
            if not len(cps) == len(wts) == kv1.n * kv2.n:
                raise MeshFormatError(
                    "control-net-mismatch", f"expected {kv1.n * kv2.n} control points and "
                    f"weights, got {len(cps)} and {len(wts)}")
            built.append(Patch2D((kv1, kv2), cps.reshape(kv1.n, kv2.n, 2),
                                 wts.reshape(kv1.n, kv2.n)))
        except MeshFormatError as exc:
            raise MeshFormatError(exc.code, f"patch {k}: "
                                  + str(exc).removeprefix(f"{exc.code}: ")) from exc
    interfaces = doc.get("interfaces", [])
    if not isinstance(interfaces, list):
        raise MeshFormatError("bad-interface", f"interfaces {interfaces!r} is not a list")
    specs, slaves = [], set()
    for s in interfaces:
        try:
            mp, mside = s["master"]
            spatch, sside = s["slave"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshFormatError("bad-interface", str(exc)) from exc
        if not all(side in tuple(SIDES) for side in (mside, sside)):
            raise MeshFormatError("bad-side", f"{mside}/{sside}")
        for index in (mp, spatch):
            if not _is_int(index):
                raise MeshFormatError("bad-interface", f"patch index {index!r} is not an integer")
        if not (0 <= mp < len(patches) and 0 <= spatch < len(patches)):
            raise MeshFormatError("bad-interface", "patch index out of range")
        rev = s.get("reversed", False)
        if not isinstance(rev, bool):
            raise MeshFormatError("bad-interface", f"reversed {rev!r} is not a bool")
        if (mp, mside) == (spatch, sside):
            raise MeshFormatError("bad-interface", f"side {mside} of patch {mp} is its own slave")
        if (spatch, sside) in slaves:
            raise MeshFormatError("bad-interface",
                                  f"side {sside} of patch {spatch} is slave on two interfaces")
        slaves.add((spatch, sside))
        specs.append(InterfaceSpec((int(mp), mside), (int(spatch), sside), rev))
    level = doc.get("dual_refine", 0)
    if not (_is_int(level) and 0 <= level <= MAX_DUAL_REFINE):
        raise MeshFormatError("bad-dual-refine", f"dual_refine {level!r} is not a count "
                              f"in 0..{MAX_DUAL_REFINE}")
    return built, specs, int(level)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _validate_weak_cells(cells, ndof, npatches: int) -> None:
    """Structure of the compiled weak cells; the matrix entries are not read."""
    if not (_is_int(ndof) and ndof >= 0):
        raise MeshFormatError("bad-weak-cell", f"weak_dofs {ndof!r} is not a count")
    if not isinstance(cells, list):
        raise MeshFormatError("bad-weak-cell", "weak_cells is not a list")
    # all cells are checked at once; only a failure is looked up cell by cell
    if _weak_cell_problem(cells, ndof, npatches):
        for k, c in enumerate(cells):
            problem = _weak_cell_problem([c], ndof, npatches)
            if problem:
                raise MeshFormatError("bad-weak-cell", f"weak cell {k}: {problem}")


def _weak_cell_problem(cells: list, ndof: int, npatches: int) -> str:
    """What is wrong with some of ``cells``, or '' if nothing is."""
    if not cells:
        return ""
    if not all(isinstance(c, dict) for c in cells):
        return "not an object"
    patch, rect, rows, matrix = ([c.get(k) for c in cells]
                                 for k in ("patch", "rect", "rows", "matrix"))
    if not (all(map(_is_int, patch)) and min(patch) >= 0 and max(patch) < npatches):
        return f"patch index not in [0, {npatches})"
    if not (set(map(type, rect)) == {list} and set(map(len, rect)) == {2}
            and set(map(type, pairs := list(chain.from_iterable(rect)))) == {list}
            and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        return "rect is not 2x2 numbers"
    if not (set(map(type, rows)) == {list}
            and set(map(type, ids := list(chain.from_iterable(rows)))) <= {int}
            and (not ids or (min(ids) >= 0 and max(ids) < ndof))):
        return f"rows not in [0, {ndof})"
    if not _matrices_fit(matrix, rows):
        return "matrix is not one row of one length per row id"
    return ""


def _matrices_fit(matrix: list, rows: list) -> bool:
    """Whether each matrix has one row of one length per row id: a list of
    lists as a file holds it, or a 2-D float64 array as :func:`mesh_document`
    gives it."""
    if not any(isinstance(m, np.ndarray) for m in matrix):
        return (set(map(type, matrix)) == {list}
                and list(map(len, matrix)) == list(map(len, rows))
                and set(map(type, chain.from_iterable(matrix))) <= {list}
                and all(len(set(map(len, m))) <= 1 for m in matrix))
    return all(m.ndim == 2 and m.dtype == np.float64 and len(m) == len(r)
               if isinstance(m, np.ndarray) else _matrices_fit([m], [r])
               for m, r in zip(matrix, rows))


def _numbers(values) -> np.ndarray:
    """A rectangular nest of numbers as a float array; ValueError for anything else."""
    arr = np.array(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"expected numbers, got {arr.dtype} data")
    return arr.astype(float)


def model_from_document(doc: dict) -> MultiPatchModel:
    """The model a document describes; only the fields it reads are checked."""
    patches, specs, level = _validate_model_fields(doc)
    try:
        return MultiPatchModel(patches, specs, level)
    except (ValueError, InterfaceGeometryError) as exc:
        # the dof layout refuses the interface structure, or the sides it
        # pairs do not meet
        raise MeshFormatError("bad-interface", str(exc)) from exc


def convergence_csv(report) -> str:
    """CSV text of a convergence report (status column only on failures)."""
    case = report.case
    cols = list(CSV_COLUMNS)
    if report.failed:
        cols.append("status")
    lines = [",".join(cols)]
    for row in report.rows:
        vals = [
            case.case,
            report.method,
            str(case.p),
            f"{case.ratio[0]}:{case.ratio[1]}",
            "true" if case.matched else "false",
            str(case.dual_refine),
            str(row["level"]),
            format(row["h"], ".17g"),
            str(row["dofs"]),
            format(row["l2_error"], ".17g"),
            "" if row["rate"] == "" else format(row["rate"], ".17g"),
        ]
        if report.failed:
            vals.append(row["status"])
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
