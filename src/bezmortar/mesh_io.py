"""Mesh JSON files and CSV convergence reports.

The mesh format is a single JSON document listing patches (degrees, knot
vectors, control points, weights) and interfaces, optionally carrying the
compiled weakly continuous element operators.  All floating-point numbers
are printed with 17 significant digits so that write -> read -> write is
byte-identical and regression diffs are exact.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from .coupling import InterfaceSpec
from .model import MultiPatchModel
from .splines import SIDES, KnotVector, Patch2D

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

CSV_COLUMNS = ("case", "p", "ratio", "matched", "n", "level", "h", "dofs",
               "l2_error", "rate")


class MeshFormatError(ValueError):
    """Schema violation with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        return format(x, ".17g")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, bool):
        return "true" if x else "false"
    raise TypeError(type(x))


def _emit(obj, out: io.StringIO, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        out.write("{\n")
        keys = list(obj.keys())
        for i, k in enumerate(keys):
            out.write(f'{pad}  "{k}": ')
            _emit(obj[k], out, indent + 1)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            out.write("[" + ", ".join(_scalar(v) for v in obj) + "]")
        else:
            out.write("[\n")
            for i, v in enumerate(obj):
                out.write(pad + "  ")
                _emit(v, out, indent + 1)
                out.write(",\n" if i + 1 < len(obj) else "\n")
            out.write(pad + "]")
    else:
        out.write(_scalar(obj))


def _scalar(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    raise TypeError(f"unsupported scalar {type(v)}")


def mesh_document(model: MultiPatchModel, weak: bool = False,
                  meta: dict | None = None) -> dict:
    """JSON-ready document of a model, optionally with compiled weak cells."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "patches": [
            {
                "degrees": list(p.degrees),
                "knots": [list(map(float, kv.values)) for kv in p.kvs],
                "control_points": [
                    [float(x), float(y)] for x, y in p.points.reshape(-1, 2)
                ],
                "weights": list(map(float, p.weights.reshape(-1))),
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
        doc["weak_cells"] = [
            {
                "patch": c.patch,
                "rect": [list(map(float, c.rect[0])), list(map(float, c.rect[1]))],
                "rows": [int(r) for r in c.rows],
                "matrix": [[float(v) for v in row] for row in c.ophom],
            }
            for c in mesh.cells
        ]
        doc["weak_dofs"] = mesh.ndof
    return doc


def dump_mesh(doc: dict) -> str:
    """Serialize a mesh document with 17-significant-digit floats."""
    out = io.StringIO()
    _emit(doc, out, 0)
    out.write("\n")
    return out.getvalue()


def load_mesh(text: str) -> dict:
    doc = json.loads(text)
    validate_mesh_document(doc)
    return doc


def validate_mesh_document(doc) -> None:
    """Schema check; raises MeshFormatError with a specific code."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise MeshFormatError("bad-format", "not a mesh document")
    patches = doc.get("patches")
    if not isinstance(patches, list) or not patches:
        raise MeshFormatError("bad-format", "missing patches")
    for k, p in enumerate(patches):
        try:
            p1, p2 = (int(d) for d in p["degrees"])
            knots = p["knots"]
            cps = p["control_points"]
            wts = p["weights"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshFormatError("bad-format", f"patch {k}: {exc}") from exc
        ns = []
        for deg, kv in zip((p1, p2), knots):
            arr = np.asarray(kv, dtype=float)
            if np.any(np.diff(arr) < 0):
                raise MeshFormatError(
                    "knots-not-nondecreasing", f"patch {k}"
                )
            if not (
                np.allclose(arr[: deg + 1], arr[0])
                and np.allclose(arr[-deg - 1 :], arr[-1])
                and len(arr) >= 2 * (deg + 1)
            ):
                raise MeshFormatError("knots-not-open", f"patch {k}")
            ns.append(len(arr) - deg - 1)
        if len(cps) != ns[0] * ns[1]:
            raise MeshFormatError(
                "control-net-mismatch",
                f"patch {k}: expected {ns[0] * ns[1]} control points, got {len(cps)}",
            )
        if len(wts) != ns[0] * ns[1]:
            raise MeshFormatError(
                "control-net-mismatch", f"patch {k}: weight count mismatch"
            )
        if any(w <= 0 for w in wts):
            raise MeshFormatError("weights-nonpositive", f"patch {k}")
    for s in doc.get("interfaces", []):
        try:
            mp, mside = s["master"]
            spatch, sside = s["slave"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshFormatError("bad-interface", str(exc)) from exc
        if not all(side in tuple(SIDES) for side in (mside, sside)):
            raise MeshFormatError("bad-side", f"{mside}/{sside}")
        if not (0 <= int(mp) < len(patches) and 0 <= int(spatch) < len(patches)):
            raise MeshFormatError("bad-interface", "patch index out of range")


def model_from_document(doc: dict) -> MultiPatchModel:
    validate_mesh_document(doc)
    patches = []
    for p in doc["patches"]:
        p1, p2 = (int(d) for d in p["degrees"])
        kv1 = KnotVector(np.asarray(p["knots"][0], dtype=float), p1)
        kv2 = KnotVector(np.asarray(p["knots"][1], dtype=float), p2)
        pts = np.asarray(p["control_points"], dtype=float).reshape(kv1.n, kv2.n, 2)
        wts = np.asarray(p["weights"], dtype=float).reshape(kv1.n, kv2.n)
        patches.append(Patch2D((kv1, kv2), pts, wts))
    specs = [
        InterfaceSpec(
            (int(s["master"][0]), s["master"][1]),
            (int(s["slave"][0]), s["slave"][1]),
            bool(s.get("reversed", False)),
        )
        for s in doc.get("interfaces", [])
    ]
    return MultiPatchModel(patches, specs, int(doc.get("dual_refine", 0)))


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
