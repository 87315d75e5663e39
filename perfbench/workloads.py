"""The three benchmark workloads: inputs from a seed, the call chain, checks.

Each workload is one closed-loop client making sequential calls into the
public ``bezmortar`` API.  The workload seed reaches the library only as
``BenchmarkCase.seed`` (the tangential interface perturbation);
``largedef-newton`` has no random input, so its seed is recorded only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from bezmortar import benchmarks, mesh_io

# Reference values hold at this seed; structural checks hold at every seed.
REFERENCE_SEED = 1234

# Each call chain is sized to take about 2 s, so that one run holds ten or
# more repetitions: on a small shared host single repetitions vary by 15% or
# more, and only a median over many of them repeats from run to run.


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    run: Callable[[dict, str], dict]
    check: Callable[[dict, dict, int], list]
    dofs: Callable[[dict], int]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- poisson

def _poisson_inputs(seed: int) -> dict:
    case = benchmarks.BenchmarkCase("square-mixed", p=2, ratio=(2, 3), matched=False,
                                    dual_refine=1, seed=seed)
    return {"case": case, "levels": 4}


def _poisson_run(inputs: dict, workdir: str) -> dict:
    report = benchmarks.run_convergence(inputs["case"], levels=inputs["levels"],
                                        method="mortar")
    return {"report": report, "csv": mesh_io.convergence_csv(report)}


def _poisson_check(inputs: dict, out: dict, seed: int) -> list:
    report, errors = out["report"], []
    rows = report.rows
    if report.failed or len(rows) != inputs["levels"] or any(r["status"] != "ok" for r in rows):
        return [f"failed level: {[r['status'] for r in rows]}"]
    lines = out["csv"].splitlines()
    if len(lines) != len(rows) + 1 or lines[0] != ",".join(mesh_io.CSV_COLUMNS):
        errors.append("convergence CSV does not list every level")
    rate = rows[-1]["rate"]
    if not 2.7 <= rate <= 3.3:
        errors.append(f"last rate {rate} outside 3 +- 0.3")
    if rows[-1]["dofs"] != 974:
        errors.append(f"final dofs {rows[-1]['dofs']} != 974")
    if seed == REFERENCE_SEED and _rel(rows[3]["l2_error"], 5.12377620839001e-05) > 1e-9:
        errors.append(f"level-3 L2 error {rows[3]['l2_error']!r} off the reference")
    return errors


def _poisson_dofs(out: dict) -> int:
    return sum(r["dofs"] for r in out["report"].rows)


# ---------------------------------------------------------------- weak mesh

_WEAK_KEYS = ("weak_cells", "weak_dofs")
# weak_abs_sum of the exported document at the reference seed
WEAK_ABS_SUM = 12700.001231984299


def _weak_inputs(seed: int) -> dict:
    case = benchmarks.BenchmarkCase("square-mixed", p=4, ratio=(6, 9), matched=False,
                                    dual_refine=2, seed=seed)
    return {"case": case, "level": 1}


def _weak_run(inputs: dict, workdir: str) -> dict:
    model = benchmarks.build_case(inputs["case"], inputs["level"])
    doc = mesh_io.mesh_document(model, weak=True)
    text = mesh_io.dump_mesh(doc)
    path = os.path.join(workdir, "weak-mesh.json")
    with open(path, "w") as fh:
        fh.write(text)
    with open(path) as fh:
        loaded = mesh_io.load_mesh(fh.read())
    os.remove(path)
    return {"doc": doc, "text": text, "loaded": loaded,
            "model": mesh_io.model_from_document(loaded)}


def weak_abs_sum(doc: dict) -> float:
    """Exactly rounded sum of |entries| of every weak-cell matrix."""
    return math.fsum(abs(v) for c in doc["weak_cells"] for row in c["matrix"] for v in row)


def _weak_check(inputs: dict, out: dict, seed: int) -> list:
    doc, loaded, errors = out["doc"], out["loaded"], []
    plain = {k: v for k, v in doc.items() if k not in _WEAK_KEYS}
    if mesh_io.dump_mesh(mesh_io.mesh_document(out["model"])) != mesh_io.dump_mesh(plain):
        errors.append("re-dumped reloaded model differs from the original")
    if len(loaded["weak_cells"]) != len(doc["weak_cells"]):
        errors.append("weak cells lost in the round trip")
    if doc["weak_dofs"] != 718:
        errors.append(f"weak dofs {doc['weak_dofs']} != 718")
    if seed == REFERENCE_SEED:
        if len(doc["weak_cells"]) != 508:
            errors.append(f"weak cells {len(doc['weak_cells'])} != 508")
        total = weak_abs_sum(loaded)
        if _rel(total, WEAK_ABS_SUM) > 1e-12:
            errors.append(f"weak-matrix |sum| {total!r} off the reference")
    return errors


def _weak_dofs(out: dict) -> int:
    return out["doc"]["weak_dofs"]


# ---------------------------------------------------------------- largedef

_LARGEDEF_ERRORS = ((90, 1.0512767987393376e-03),)


def _largedef_inputs(seed: int) -> dict:
    return {"case_id": "largedef-case1", "levels": 1, "increments": 5,
            "tol_factor": 1e8, "pressure": 12e9}


def _largedef_run(inputs: dict, workdir: str) -> dict:
    return {"report": benchmarks.weak_vs_conforming_relative_error(**inputs)}


def _largedef_check(inputs: dict, out: dict, seed: int) -> list:
    report, errors = out["report"], []
    rows = report.rows
    if report.failed or any(r["status"] != "ok" for r in rows):
        return [f"failed level: {[r['status'] for r in rows]}"]
    got = [(r["dofs"], r["l2_error"]) for r in rows]
    if [d for d, _ in got] != [d for d, _ in _LARGEDEF_ERRORS]:
        errors.append(f"dofs {[d for d, _ in got]} differ from the reference")
    else:
        for (_, e), (_, ref) in zip(got, _LARGEDEF_ERRORS):
            if _rel(e, ref) > 1e-6:
                errors.append(f"relative error {e!r} off the reference {ref!r}")
    return errors


def _largedef_dofs(out: dict) -> int:
    return sum(r["dofs"] for r in out["report"].rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson-converge", _poisson_inputs, _poisson_run, _poisson_check,
                 _poisson_dofs),
        Workload("weak-mesh-export", _weak_inputs, _weak_run, _weak_check, _weak_dofs),
        Workload("largedef-newton", _largedef_inputs, _largedef_run, _largedef_check,
                 _largedef_dofs),
    )
}
