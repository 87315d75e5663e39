"""The library's layers as seen by the traced run, and the per-layer metrics.

Every public function below is wrapped from outside (see ``spans.py``);
nothing in the library knows it is traced.  Per-layer metric names are
``<module>.<function>.<calls|self_s|total_s>`` plus counts taken at the same
boundaries.  A metric whose function no longer exists is reported absent.
"""

from __future__ import annotations

import hashlib
import math

from spans import Recorder, Target

PACKAGE = "bezmortar"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_cells(rec, span, args, kwargs, result, exc):
    if exc is None:
        rec.attach(span, "cells", len(result.cells))


def _count_system(rec, span, args, kwargs, result, exc):
    system = _arg(args, kwargs, 0, "system")
    rec.attach(span, "dofs", int(system.K.shape[0]))
    rec.attach(span, "nnz", int(system.K.nnz))


def _count_bytes(rec, span, args, kwargs, result, exc):
    if exc is None:
        rec.attach(span, "bytes", len(result.encode("utf-8")))


def _fingerprint_state(rec, span, args, kwargs, result, exc):
    state = _arg(args, kwargs, 2, "state")
    digest = hashlib.blake2b(state.tobytes(), digest_size=16).digest()
    rec.attach(span, "state", digest)
    rec.attach(span, "raised", exc is not None)


def _m(name: str) -> str:
    return f"{PACKAGE}.{name}"


# Only functions that a per-layer metric names are wrapped: the time of the
# orchestrators around them (run_convergence, build_case, ...) and of the
# harness stays outside every span and shows as trace.unattributed_s.
TARGETS = [
    Target("splines.refinement_operator", _m("splines"), "refinement_operator"),
    Target("splines.bezier_extraction", _m("splines"), "bezier_extraction"),
    Target("splines.max_element_diameter", _m("splines"), "Patch2D.max_element_diameter"),
    Target("dualbasis.dual_extraction", _m("dualbasis"), "dual_extraction"),
    Target("coupling.build_interface_coupling", _m("coupling"), "build_interface_coupling"),
    Target("coupling.phi", _m("coupling"), "CompositionalMap.__call__"),
    Target("coupling.phi_inverse", _m("coupling"), "CompositionalMap.inverse"),
    Target("coupling.assemble_coupling", _m("coupling"), "assemble_coupling"),
    Target("coupling.condense", _m("coupling"), "condense"),
    Target("model.MultiPatchModel", _m("model"), "MultiPatchModel.__init__"),
    Target("model.mortar_mesh", _m("model"), "MultiPatchModel.mortar_mesh", _count_cells),
    Target("model.weak_mesh", _m("model"), "MultiPatchModel.weak_mesh", _count_cells),
    Target("fem.evaluate_cell", _m("fem"), "evaluate_cell"),
    Target("fem.assemble_poisson", _m("fem"), "assemble_poisson"),
    Target("fem.assemble_neumann", _m("fem"), "assemble_neumann"),
    Target("fem.dirichlet_rows", _m("fem"), "dirichlet_rows"),
    Target("fem.assemble_neo_hookean", _m("fem"), "assemble_neo_hookean", _fingerprint_state),
    Target("fem.newton_load_stepping", _m("fem"), "newton_load_stepping"),
    Target("fem.l2_error", _m("fem"), "l2_error"),
    Target("linsys.linear_solve", _m("linsys"), "linear_solve", _count_system),
    Target("benchmarks.solve_case", _m("benchmarks"), "solve_case"),
    Target("benchmarks.field_difference_l2", _m("benchmarks"), "field_difference_l2"),
    Target("mesh_io.mesh_document", _m("mesh_io"), "mesh_document"),
    Target("mesh_io.dump_mesh", _m("mesh_io"), "dump_mesh", _count_bytes),
    Target("mesh_io.load_mesh", _m("mesh_io"), "load_mesh"),
    Target("mesh_io.model_from_document", _m("mesh_io"), "model_from_document"),
]

CELL_STREAMS = ("model.mortar_mesh", "model.weak_mesh")

# Counts and ratios: metric name -> (unit, span names it needs).
DERIVED = {
    "model.cells": ("count", CELL_STREAMS),
    "fem.assemble_neo_hookean.useful_ratio": ("ratio", ("fem.assemble_neo_hookean",)),
    "linsys.nnz": ("count", ("linsys.linear_solve",)),
    "linsys.dofs": ("count", ("linsys.linear_solve",)),
    "benchmarks.solve_case.scaling_exponent": ("1", ("benchmarks.solve_case",)),
    "mesh_io.bytes": ("bytes", ("mesh_io.dump_mesh",)),
    "trace.overhead_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
    "trace.wall_s": ("s", ()),
}

_SPAN_STATS = {"calls": "count", "self_s": "s", "total_s": "s"}

# The per-layer metrics every traced run reports, in report order.
PER_LAYER = [
    "splines.refinement_operator.calls",
    "splines.refinement_operator.self_s",
    "splines.bezier_extraction.calls",
    "splines.bezier_extraction.total_s",
    "splines.max_element_diameter.calls",
    "splines.max_element_diameter.self_s",
    "dualbasis.dual_extraction.calls",
    "dualbasis.dual_extraction.total_s",
    "coupling.build_interface_coupling.calls",
    "coupling.build_interface_coupling.total_s",
    "coupling.phi.calls",
    "coupling.phi.self_s",
    "coupling.phi_inverse.calls",
    "coupling.phi_inverse.self_s",
    "coupling.assemble_coupling.self_s",
    "coupling.condense.calls",
    "coupling.condense.self_s",
    "model.MultiPatchModel.total_s",
    "model.mortar_mesh.calls",
    "model.mortar_mesh.self_s",
    "model.mortar_mesh.total_s",
    "model.weak_mesh.self_s",
    "model.weak_mesh.total_s",
    "model.cells",
    "fem.evaluate_cell.calls",
    "fem.evaluate_cell.self_s",
    "fem.assemble_poisson.calls",
    "fem.assemble_poisson.self_s",
    "fem.assemble_neumann.self_s",
    "fem.dirichlet_rows.self_s",
    "fem.assemble_neo_hookean.calls",
    "fem.assemble_neo_hookean.self_s",
    "fem.assemble_neo_hookean.useful_ratio",
    "fem.newton_load_stepping.total_s",
    "fem.l2_error.calls",
    "fem.l2_error.self_s",
    "linsys.linear_solve.calls",
    "linsys.linear_solve.self_s",
    "linsys.nnz",
    "linsys.dofs",
    "benchmarks.solve_case.calls",
    "benchmarks.solve_case.total_s",
    "benchmarks.solve_case.scaling_exponent",
    "benchmarks.field_difference_l2.self_s",
    "mesh_io.mesh_document.self_s",
    "mesh_io.dump_mesh.self_s",
    "mesh_io.bytes",
    "mesh_io.load_mesh.self_s",
    "mesh_io.model_from_document.total_s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "trace.wall_s",
]


def split_span_metric(metric: str) -> tuple[str, str]:
    """(span name, statistic) of a metric that is not in DERIVED."""
    span, stat = metric.rsplit(".", 1)
    return span, stat


def unit(metric: str) -> str:
    if metric in DERIVED:
        return DERIVED[metric][0]
    return _SPAN_STATS[split_span_metric(metric)[1]]


def needed_spans(metric: str) -> tuple[str, ...]:
    if metric in DERIVED:
        return DERIVED[metric][1]
    return (split_span_metric(metric)[0],)


def useful_calls(records) -> int:
    """Assemblies that are not the Newton feasibility guard.

    ``records`` lists (after a solve, state fingerprint, raised) per call in
    call order.  A guard call follows a linear solve, or a guard call that
    raised, and its result is thrown away: it raised (a rejected trial state)
    or the next call assembles the very same state again.
    """
    guards = 0
    prev_raising_guard = False
    for k, (after_solve, state, raised) in enumerate(records):
        repeated = k + 1 < len(records) and records[k + 1][1] == state
        guard = (after_solve or prev_raising_guard) and (raised or repeated)
        guards += guard
        prev_raising_guard = guard and raised
    return len(records) - guards


def solve_levels(rec: Recorder) -> list[tuple[int, float]]:
    """(cells, seconds) of every outermost ``benchmarks.solve_case`` call."""
    stream_ids = {rec.name_id(n) for n in CELL_STREAMS}
    solves = [i for i in rec.spans_named("benchmarks.solve_case") if rec.outermost(i)]
    cells = dict.fromkeys(solves, 0)
    for i, attrs in rec.attrs.items():
        if "cells" not in attrs or not rec.outermost(i, stream_ids):
            continue
        for p in rec.ancestors(i):
            if p in cells:
                cells[p] += attrs["cells"]
                break
    return [(cells[i], rec.duration(i)) for i in solves]


def scaling_exponent(levels) -> float:
    """Log-log slope of seconds against cells over the last two levels."""
    if len(levels) < 2:
        return 0.0
    (c0, t0), (c1, t1) = levels[-2:]
    if c0 <= 0 or c1 <= c0 or t0 <= 0 or t1 <= 0:
        return 0.0
    return math.log(t1 / t0) / math.log(c1 / c0)


def named_spans() -> list[str]:
    """Span names that some per-layer metric reads, in report order."""
    return list(dict.fromkeys(s for m in PER_LAYER for s in needed_spans(m)))


def layer_metrics(rec: Recorder, absent, wall_s: float) -> dict:
    """Every per-layer metric of one traced call chain except the overhead.

    Returns ``{"metrics": {name: value}, "absent": [...], "spans": summary,
    "levels": [(cells, seconds)], "systems": [(dofs, nnz)]}``.  Absent
    metrics read 0 and are listed.
    """
    summary = rec.summary()
    stream_ids = {rec.name_id(n) for n in CELL_STREAMS}
    attrs = rec.attrs
    cells = sum(a["cells"] for i, a in attrs.items()
                if "cells" in a and rec.outermost(i, stream_ids))
    systems = [(attrs[i]["dofs"], attrs[i]["nnz"])
               for i in rec.spans_named("linsys.linear_solve") if "nnz" in attrs.get(i, {})]
    neo, after_solve = [], False
    for i in sorted(rec.spans_named("fem.assemble_neo_hookean")
                    + rec.spans_named("linsys.linear_solve")):
        if "state" in attrs.get(i, {}):
            neo.append((after_solve, attrs[i]["state"], attrs[i]["raised"]))
        after_solve = "state" not in attrs.get(i, {})
    levels = solve_levels(rec)
    derived = {
        "model.cells": cells,
        "fem.assemble_neo_hookean.useful_ratio": useful_calls(neo) / len(neo) if neo else 0.0,
        "linsys.nnz": sum(nnz for _, nnz in systems),
        "linsys.dofs": sum(dofs for dofs, _ in systems),
        "benchmarks.solve_case.scaling_exponent": scaling_exponent(levels),
        "mesh_io.bytes": sum(a.get("bytes", 0) for a in attrs.values()),
        "trace.overhead_s": 0.0,
        "trace.unattributed_s": wall_s - sum(summary[n]["self_s"] for n in named_spans()
                                             if n in summary),
        "trace.wall_s": wall_s,
    }
    absent = set(absent)
    metrics, missing = {}, []
    for metric in PER_LAYER:
        spans = needed_spans(metric)
        if spans and all(s in absent for s in spans):
            metrics[metric] = 0
            missing.append(metric)
        elif metric in derived:
            metrics[metric] = derived[metric]
        else:
            span, stat = split_span_metric(metric)
            metrics[metric] = summary.get(span, {}).get(stat, 0)
    return {
        "metrics": metrics,
        "absent": missing,
        "spans": summary,
        "levels": levels,
        "systems": systems,
        "hook_errors": rec.hook_errors,
    }
