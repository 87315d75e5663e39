"""Benchmark geometry, exact solutions, solvers and convergence studies.

Each case is one row of the case table ``CASES``: the settings its geometry
fixes, its model builder and what it solves.

Cases
-----
``square-dirichlet`` / ``square-mixed``
    Laplace equation on the unit square split at x = 1/2, manufactured
    solution sin(pi y) sinh(pi x); full Dirichlet or Dirichlet/Neumann data.
``annulus``
    Poisson problem on a quarter-ring sector pair with exact rational
    geometry and manufactured solution sin(pi x) sin(pi y).
``plate-hole-2patch`` / ``plate-hole-3patch``
    Quarter plate with a circular hole under far-field tension, loaded with
    the exact boundary tractions of the classical hole-in-plate solution.
``largedef-case1/2/3``
    Plane-strain neo-Hookean square under dead pressure loads, comparing a
    weakly continuous mesh against a conforming mesh.
``square-demo``
    The small hand-checkable two-patch model; it is only meshed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .coupling import MAX_DUAL_REFINE, InterfaceSpec, assemble_saddle, condense
from .fem import (
    MaterialModel,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neumann,
    assemble_poisson,
    cell_blocks,
    dirichlet_rows,
    evaluate_cell,  # unused; perfbench wraps both holders of fem.evaluate_cell
    l2_error,
    newton_load_stepping,
)
from .linsys import NumericalError, linear_solve
from .model import MultiPatchModel
from .splines import (
    OutOfDomainError,
    Patch2D,
    gauss_on_breaks,
    greville_abscissae,
    side_index,
    uniform_open_knots,
)

__all__ = [
    "PLATE_RADIUS",
    "PLATE_SIDE",
    "PLATE_TENSION",
    "PLATE_MATERIAL",
    "LARGEDEF_MATERIAL",
    "LARGEDEF_PRESSURE",
    "CASES",
    "CaseRow",
    "LinearProblem",
    "BenchmarkCase",
    "ConvergenceReport",
    "rect_patch",
    "exact_plate_stress",
    "kirsch_cartesian",
    "manufactured_fields",
    "build_case",
    "solve_case",
    "case_error",
    "mesh_size",
    "run_convergence",
    "interface_jump_norm",
    "run_largedef",
    "weak_vs_conforming_relative_error",
    "field_difference_l2",
]

PLATE_RADIUS = 1.0
PLATE_SIDE = 4.0
PLATE_TENSION = 10.0
PLATE_MATERIAL = MaterialModel(E=1e5, nu=0.3)
LARGEDEF_MATERIAL = MaterialModel(E=30e9, nu=0.48)
LARGEDEF_PRESSURE = 100e9


# --------------------------------------------------------------------------
# geometry builders


def rect_patch(p: int, n1: int, n2: int, xlim=(0.0, 1.0), ylim=(0.0, 1.0)) -> Patch2D:
    """Axis-aligned rectangle with a linear parameterization."""
    kv1 = uniform_open_knots(p, n1)
    kv2 = uniform_open_knots(p, n2)
    g1 = greville_abscissae(kv1)
    g2 = greville_abscissae(kv2)
    pts = np.empty((kv1.n, kv2.n, 2))
    pts[..., 0] = (xlim[0] + (xlim[1] - xlim[0]) * g1)[:, None]
    pts[..., 1] = (ylim[0] + (ylim[1] - ylim[0]) * g2)[None, :]
    return Patch2D((kv1, kv2), pts)


def _arc_controls(theta0: float, theta1: float, radius: float):
    """Quadratic rational control points of a circular arc (< 90 degrees)."""
    half = 0.5 * (theta1 - theta0)
    mid = 0.5 * (theta0 + theta1)
    if not 0 < half < math.pi / 4 + 1e-12:
        raise ValueError("arc construction limited to sweeps below 90 degrees")
    pts = np.array(
        [
            [math.cos(theta0), math.sin(theta0)],
            [math.cos(mid) / math.cos(half), math.sin(mid) / math.cos(half)],
            [math.cos(theta1), math.sin(theta1)],
        ]
    ) * radius
    wts = np.array([1.0, math.cos(half), 1.0])
    return pts, wts


def _refine_counts(patch: Patch2D, n1: int, n2: int) -> Patch2D:
    """Split a one-element patch uniformly into n1 x n2 elements."""
    return patch.refined([k / n1 for k in range(1, n1)], [k / n2 for k in range(1, n2)])


def annulus_sector_patch(theta0: float, theta1: float, r0: float, r1: float,
                         n_rad: int, n_circ: int) -> Patch2D:
    """Exact quadratic NURBS ring sector; radial along the first parametric direction."""
    pts_arc, w_arc = _arc_controls(theta0, theta1, 1.0)
    kv = uniform_open_knots(2, 1)
    g = greville_abscissae(kv)
    radii = r0 + (r1 - r0) * g
    pts = np.einsum("j,ik->jik", radii, pts_arc)
    wts = np.repeat(w_arc[None, :], 3, axis=0)
    base = Patch2D((kv, kv), pts, wts)
    return _refine_counts(base, n_rad, n_circ)


def ruled_sector_patch(theta0: float, theta1: float, radius: float, outer_fn,
                       n_rad: int, n_circ: int) -> Patch2D:
    """Quadratic ruled patch between an exact arc (inner) and a straight outer edge.

    ``outer_fn(theta)`` returns the outer boundary point at a given angle;
    the first parametric direction runs from the arc to the outer edge and
    weights depend only on the circumferential index, so the hole edge stays
    an exact circle.
    """
    pts_arc, w_arc = _arc_controls(theta0, theta1, radius)
    mid = 0.5 * (theta0 + theta1)
    outer = np.array([outer_fn(theta0), outer_fn(mid), outer_fn(theta1)])
    kv = uniform_open_knots(2, 1)
    g = greville_abscissae(kv)
    pts = np.empty((3, 3, 2))
    for j, gj in enumerate(g):
        pts[j, :, :] = (1 - gj) * pts_arc + gj * outer
    wts = np.repeat(w_arc[None, :], 3, axis=0)
    base = Patch2D((kv, kv), pts, wts)
    return _refine_counts(base, n_rad, n_circ)


def _perturb_edge(patch: Patch2D, side: str, magnitude: float,
                  rng: np.random.Generator) -> Patch2D:
    """Move interior interface control points along the interface line.

    The control points stay on the (straight) interface so the geometry is
    unchanged while the boundary parameterization becomes nonlinear.
    """
    pts = patch.points.copy()
    edge = pts[side_index(side)]
    direction = edge[-1] - edge[0]
    direction = direction / np.linalg.norm(direction)
    n = edge.shape[0]
    shifts = rng.uniform(-1.0, 1.0, n)
    for k in range(1, n - 1):
        edge[k] += magnitude * shifts[k] * direction
    return Patch2D(patch.kvs, pts, patch.weights)


def _plate_outer(theta: float) -> np.ndarray:
    """Outer boundary of the quarter plate at a given angle."""
    if theta <= math.pi / 4 + 1e-12:
        return np.array([PLATE_SIDE, PLATE_SIDE * math.tan(theta)])
    return np.array([PLATE_SIDE / math.tan(theta), PLATE_SIDE])


# --------------------------------------------------------------------------
# case models: (case, level) -> MultiPatchModel


def _chain(sector: Callable, bounds: tuple, sides: tuple, perturbed: list, length: float):
    """Model builder of a chain of patches, each master of the interface ``sides`` to the next.

    Patch k is ``sector(case, bounds[k], bounds[k + 1], n)`` with n x n level-0
    elements, n the master and slave counts of ``ratio`` in turn.  A mismatched
    case moves the interior control points of the ``perturbed`` (patch, side)
    edges tangentially by up to 10% of ``length`` / n, drawn in list order.
    Uniform knot refinement to ``level`` follows, so the interface stays exactly
    coincident and phi is the same smooth map on every level.
    """
    def build(case: BenchmarkCase, level: int) -> MultiPatchModel:
        counts = [case.ratio[k % 2] for k in range(len(bounds) - 1)]
        patches = [sector(case, a, b, n) for a, b, n in zip(bounds, bounds[1:], counts)]
        if not case.matched:
            rng = np.random.default_rng(case.seed)
            for k, side in perturbed:
                patches[k] = _perturb_edge(patches[k], side, 0.1 * length / counts[k], rng)
        specs = [InterfaceSpec(master=(k, sides[0]), slave=(k + 1, sides[1]))
                 for k in range(len(patches) - 1)]
        return MultiPatchModel([q.refined_uniform(level) for q in patches], specs, case.dual_refine)

    return build


# the unit square split at x = 1/2 into two maximally smooth patches
_SQUARE = _chain(lambda case, a, b, n: rect_patch(case.p, n, n, (a, b), (0.0, 1.0)),
                 (0.0, 0.5, 1.0), ("east", "west"), [(0, "east"), (1, "west")], 1.0)
# the quarter ring 0.4 <= r <= 4, pi/2 <= angle <= pi, split at 3 pi / 4
_ANNULUS = _chain(lambda case, a, b, n: annulus_sector_patch(a, b, 0.4, 4.0, n, n),
                  (math.pi / 2, 3 * math.pi / 4, math.pi), ("north", "south"), [], 1.0)


def _plate(bounds: tuple, perturbed: list):
    """The quarter plate with a hole as ruled patches between the ``bounds`` angles."""
    return _chain(lambda case, a, b, n: ruled_sector_patch(a, b, PLATE_RADIUS, _plate_outer, n, n),
                  bounds, ("north", "south"), perturbed, PLATE_SIDE - PLATE_RADIUS)


def _demo(case: BenchmarkCase, level: int) -> MultiPatchModel:
    """Small stacked two-patch model (master 2x2 above a 3x2 slave).

    This is the canonical hand-checkable configuration: inserting the master
    knot 1/2 into the slave interface splits its middle element, and all
    interface operators have simple rational entries.
    """
    if level != 0:
        raise ValueError("square-demo has one fixed geometry (level 0)")
    slave = rect_patch(2, 3, 2, (0.0, 1.0), (0.0, 1.0))
    master = rect_patch(2, 2, 2, (0.0, 1.0), (1.0, 2.0))
    spec = InterfaceSpec(master=(1, "south"), slave=(0, "north"))
    return MultiPatchModel([slave, master], [spec], case.dual_refine)


def largedef_model(level: int, weak: bool) -> MultiPatchModel:
    """Two-patch unit square for the pressure cases.

    The weakly continuous variant keeps one extra element across the
    interface in the vertical direction; the conforming variant matches the
    master mesh on both sides (identity coupling, a C0 interface).
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    n = 2 ** (level + 1)
    master = rect_patch(2, n, 2 * n, (0.0, 0.5), (0.0, 1.0))
    ns = 2 * n + 1 if weak else 2 * n
    slave = rect_patch(2, n, ns, (0.5, 1.0), (0.0, 1.0))
    spec = InterfaceSpec(master=(0, "east"), slave=(1, "west"))
    return MultiPatchModel([master, slave], [spec], dual_refine=1 if weak else 0)


# --------------------------------------------------------------------------
# exact solutions


def exact_plate_stress(r, theta):
    """Polar stresses of an infinite plate with a traction-free hole.

    Classical solution for uniaxial far-field tension Tx = ``PLATE_TENSION``;
    the hole boundary r = R = ``PLATE_RADIUS`` is traction free (sigma_rr =
    sigma_rt = 0).  ``r`` and ``theta`` are numbers or arrays of one shape.
    """
    Tx, R = PLATE_TENSION, PLATE_RADIUS
    if np.any(r < R - 1e-12):
        raise OutOfDomainError("stress requested inside the hole")
    q = (R / r) ** 2
    q2 = q * q
    c = np.cos(2 * theta)
    s = np.sin(2 * theta)
    srr = 0.5 * Tx * (1 - q) + 0.5 * Tx * (1 - 4 * q + 3 * q2) * c
    stt = 0.5 * Tx * (1 + q) - 0.5 * Tx * (1 + 3 * q2) * c
    srt = -0.5 * Tx * (1 + 2 * q - 3 * q2) * s
    return srr, stt, srt


def kirsch_cartesian(x, y):
    """Cartesian stresses (sxx, syy, sxy) of the hole-in-plate solution."""
    theta = np.arctan2(y, x)
    srr, stt, srt = exact_plate_stress(np.hypot(x, y), theta)
    c, s = np.cos(theta), np.sin(theta)
    sxx = srr * c * c + stt * s * s - 2 * srt * s * c
    syy = srr * s * s + stt * c * c + 2 * srt * s * c
    sxy = (srr - stt) * s * c + srt * (c * c - s * s)
    return sxx, syy, sxy


def _kirsch_traction(x, n):
    """Traction sigma . n of the hole-in-plate solution at (..., 2) points."""
    sxx, syy, sxy = kirsch_cartesian(x[..., 0], x[..., 1])
    return np.stack([sxx * n[..., 0] + sxy * n[..., 1],
                     sxy * n[..., 0] + syy * n[..., 1]], axis=-1)


# manufactured (u, grad u, f) of the Poisson cases; each takes coordinates of
# one shape, and the gradient returns its two components as a tuple
_HARMONIC = (
    lambda x, y: np.sin(math.pi * y) * np.sinh(math.pi * x),
    lambda x, y: (math.pi * np.cosh(math.pi * x) * np.sin(math.pi * y),
                  math.pi * np.sinh(math.pi * x) * np.cos(math.pi * y)),
    None,  # harmonic: no forcing
)
_SINES = (
    lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
    lambda x, y: (math.pi * np.cos(math.pi * x) * np.sin(math.pi * y),
                  math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)),
    lambda x, y: 2 * math.pi**2 * np.sin(math.pi * x) * np.sin(math.pi * y),
)


# --------------------------------------------------------------------------
# the case table


class LinearProblem(NamedTuple):
    """What a linear case solves: its system, side data and error functional."""

    ncomp: int
    assemble: Callable  # mesh -> AssembledSystem
    dirichlet: list  # (patch, side, component, value) specs
    neumann: list  # (patch, side, span, load) specs
    error: Callable  # solved field -> L2 error of the case-defining quantity
    fields: tuple | None  # manufactured (u, grad, f); None without one


class CaseRow(NamedTuple):
    """One case: the settings its geometry fixes, its model and what it solves."""

    fixes: dict  # setting -> the one value the geometry allows
    build: Callable  # (case, level) -> MultiPatchModel
    linear: LinearProblem | None
    loads: Callable | None  # pressure -> (neumann, dirichlet, corner) specs


_zero = lambda x, y: 0.0


def _poisson(fields: tuple, dirichlet: list, neumann: list) -> LinearProblem:
    """Manufactured Poisson problem: u held on the ``dirichlet`` (patch, side)
    pairs, its normal flux loading the ``neumann`` ones."""
    u, grad, f = fields

    def flux(x, n):
        gx, gy = grad(x[..., 0], x[..., 1])
        return gx * n[..., 0] + gy * n[..., 1]

    return LinearProblem(1, lambda mesh: assemble_poisson(mesh, f),
                         [(k, side, 0, u) for k, side in dirichlet],
                         [(k, side, None, flux) for k, side in neumann],
                         lambda uh: l2_error(uh, u), fields)


def _plate_problem(npatches: int) -> LinearProblem:
    """Plane-strain plate under the exact tractions on its outer (east) sides,
    held on its symmetry planes; the error is that of sigma_xx."""
    lam, mu = PLATE_MATERIAL.lam, PLATE_MATERIAL.mu
    sigma_xx = lambda vals, grad, x: (lam + 2 * mu) * grad[..., 0, 0] + lam * grad[..., 1, 1]
    exact = lambda x, y: kirsch_cartesian(x, y)[0]
    return LinearProblem(2, lambda mesh: assemble_linear_elasticity(mesh, PLATE_MATERIAL),
                         [(0, "south", 1, _zero), (npatches - 1, "north", 0, _zero)],
                         [(k, "east", None, _kirsch_traction) for k in range(npatches)],
                         lambda uh: l2_error(uh, exact, quantity=sigma_xx), None)


# a constant pressure traction as a load function
_down = lambda pressure: lambda x, n: np.array([0.0, -pressure])
_right = lambda pressure: lambda x, n: np.array([pressure, 0.0])
_largedef = lambda case, level: largedef_model(level, weak=True)

# One row per case.  Any value but a fixed one would be ignored, so it is
# refused; no case fixes the seed, since a set seed cannot be told from the
# default one.
_LARGEDEF = dict(p=2, ratio=(2, 3), matched=True, dual_refine=1)
CASES = {
    "square-dirichlet": CaseRow({}, _SQUARE, _poisson(
        _HARMONIC, [(0, "west"), (0, "south"), (0, "north"),
                    (1, "east"), (1, "south"), (1, "north")], []), None),
    "square-mixed": CaseRow({}, _SQUARE, _poisson(
        _HARMONIC, [(0, "west"), (1, "east")],
        [(0, "south"), (0, "north"), (1, "south"), (1, "north")]), None),
    "annulus": CaseRow(dict(p=2, matched=True), _ANNULUS, _poisson(
        _SINES, [(0, "south"), (1, "north")],
        [(0, "west"), (0, "east"), (1, "west"), (1, "east")]), None),
    "plate-hole-2patch": CaseRow(
        dict(p=2), _plate((0.0, math.pi / 4, math.pi / 2), [(0, "north"), (1, "south")]),
        _plate_problem(2), None),
    "plate-hole-3patch": CaseRow(
        dict(p=2), _plate((0.0, math.pi / 4, 3 * math.pi / 8, math.pi / 2),
                          [(1, "south"), (2, "south")]),
        _plate_problem(3), None),
    "largedef-case1": CaseRow(_LARGEDEF, _largedef, None, lambda P: (
        [(0, "north", (0.5, 1.0), _down(P)), (1, "north", (0.0, 0.5), _down(P))],
        [(0, "south", 1, _zero), (1, "south", 1, _zero)],
        [(0, (0, -1), 0), (1, (-1, -1), 0)])),
    "largedef-case2": CaseRow(_LARGEDEF, _largedef, None, lambda P: (
        [(0, "north", None, _down(P))],
        [(0, "south", 1, _zero), (1, "south", 1, _zero), (0, "west", 0, _zero)],
        [(1, (-1, -1), 0)])),
    "largedef-case3": CaseRow(_LARGEDEF, _largedef, None, lambda P: (
        [(0, "west", (0.25, 0.75), _right(P))],
        [(1, "east", 0, _zero)],
        [(0, (0, 0), 1), (0, (0, -1), 1)])),
    "square-demo": CaseRow(dict(p=2, ratio=(2, 3), matched=True), _demo, None, None),
}


@dataclass
class BenchmarkCase:
    """Configuration of one benchmark family: a row of ``CASES`` and its settings."""

    case: str
    p: int = 2
    ratio: tuple[int, int] = (2, 3)
    matched: bool = True
    dual_refine: int = 1
    seed: int = 1234

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        for name, value in CASES[self.case].fixes.items():
            if getattr(self, name) != value:
                raise ValueError(f"{self.case} fixes {name} = {value!r}, "
                                 f"got {getattr(self, name)!r}")
        if self.p < 1:
            raise ValueError(f"the spline degree p must be at least 1, got {self.p}")
        if min(self.ratio) < 1:
            raise ValueError(f"the ratio takes element counts of at least 1, got {self.ratio!r}")
        if self.seed < 0:
            raise ValueError(f"the seed must be non-negative, got {self.seed}")
        if not self.matched and self.p == 1 and self.ratio == (1, 1):
            raise ValueError("a mismatched case moves interior interface control points, "
                             "and at p = 1 with ratio 1:1 there are none")
        if not 0 <= self.dual_refine <= MAX_DUAL_REFINE:
            raise ValueError(f"the dual refinement level must be in 0..{MAX_DUAL_REFINE}")


def manufactured_fields(case: str):
    """Exact solution, gradient and forcing of a manufactured case; each takes
    coordinates of one shape, and the gradient returns its two components."""
    linear = CASES[case].linear if case in CASES else None
    if linear is None or linear.fields is None:
        raise ValueError(f"no manufactured solution for case {case}")
    return linear.fields


def build_case(case: BenchmarkCase, level: int) -> MultiPatchModel:
    """The case's model at a uniform refinement level: the one model builder."""
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    return CASES[case.case].build(case, level)


def solve_case(case: BenchmarkCase, level: int, method: str = "mortar") -> dict:
    """Assemble and solve one benchmark level; returns field and metadata.

    ``saddle`` solves the mortar system with multiplier rows; ``mortar`` and
    ``weak`` condense, solve with the constraints and expand on their own meshes.
    """
    row = CASES[case.case]
    if row.linear is None:
        raise ValueError("use run_largedef for the large-deformation cases" if row.loads
                         else f"{case.case} is a mesh-only case")
    if method not in ("mortar", "weak", "saddle"):
        raise ValueError(f"unknown method {method!r}")
    problem, ncomp = row.linear, row.linear.ncomp
    model = build_case(case, level)
    mesh = model.weak_mesh() if method == "weak" else model.mortar_mesh()
    system = problem.assemble(mesh)
    system.f += assemble_neumann(mesh, ncomp, problem.neumann)
    rows = dirichlet_rows(mesh, ncomp, problem.dirichlet)
    if method == "saddle":
        x = linear_solve(assemble_saddle(system, model), rows)
        values = x[: mesh.ndof * ncomp]
    else:
        values = mesh.expand(linear_solve(condense(system, mesh), rows), ncomp)
    return {
        "field": SolutionField(mesh, values, ncomp),
        "model": model,
        "dofs": model.n_retained * ncomp,
    }


def case_error(case: BenchmarkCase, solved: dict) -> float:
    """L2 error of the case-defining quantity (u, or sigma_xx for the plate)."""
    return CASES[case.case].linear.error(solved["field"])


def mesh_size(patches) -> float:
    """Largest physical element diagonal over the patches."""
    return max(p.max_element_diameter() for p in patches)


@dataclass
class ConvergenceReport:
    """Per-level mesh sizes, errors and observed rates of one study."""

    case: BenchmarkCase
    method: str = "mortar"  # the route each level is solved on
    rows: list = field(default_factory=list)  # dicts: level,h,dofs,l2_error,rate,status

    @property
    def failed(self) -> bool:
        """Whether a level failed, which ends the study."""
        return any(row["status"] != "ok" for row in self.rows)

    def add(self, level, h, dofs, err, status="ok"):
        rate = ""
        if self.rows and status == "ok" and self.rows[-1]["status"] == "ok":
            prev = self.rows[-1]
            rate = math.log(prev["l2_error"] / err) / math.log(prev["h"] / h)
        self.rows.append(
            {"level": level, "h": h, "dofs": dofs, "l2_error": err,
             "rate": rate, "status": status}
        )


def _level_study(report: ConvergenceReport, levels: int,
                 solve_level: Callable) -> ConvergenceReport:
    """``report`` with one row per level from ``solve_level(level) -> (h, dofs,
    error)``; a ``NumericalError`` ends it with a failed row."""
    if levels < 1:
        raise ValueError("need at least one level")
    for lv in range(levels):
        try:
            h, dofs, err = solve_level(lv)
        except NumericalError as exc:
            report.add(lv, float("nan"), 0, float("nan"), status=f"failed: {exc}")
            break
        report.add(lv, h, dofs, err)
    return report


def run_convergence(case: BenchmarkCase, levels: int,
                    method: str = "mortar") -> ConvergenceReport:
    """Uniform refinement study of a linear case; partial report with a flag
    on a numerical failure."""
    if CASES[case.case].linear is None:
        raise ValueError(f"{case.case} has no linear problem, so no convergence study")
    h0 = []

    def solve_level(lv):
        solved = solve_case(case, lv, method)
        err = case_error(case, solved)
        # uniform bisection halves the mesh size exactly; measuring the
        # physical diameter per level would only add parameterization noise
        if not h0:
            h0.append(mesh_size(solved["model"].patches))
        return h0[0] / 2**lv, solved["dofs"], err

    return _level_study(ConvergenceReport(case, method), levels, solve_level)


# --------------------------------------------------------------------------
# interface jump


def interface_jump_norm(model: MultiPatchModel, full_values: np.ndarray) -> float:
    """L2(arc-length) norm of the master-slave trace mismatch.

    Evaluates the solved master trace composed with phi against the slave
    trace (held by the refined interface dofs) over the merged quadrature
    segments.  ``full_values`` holds ncomp values per full dof, component
    fastest; a size that is no such multiple raises ``ValueError``.
    """
    ncomp, rest = divmod(full_values.size, model.ndof_full)
    if rest or not ncomp:
        raise ValueError(f"{full_values.size} values are no positive multiple of the "
                         f"model's {model.ndof_full} full dofs")
    vals = full_values.reshape(-1, ncomp)
    total = 0.0
    for ci, coup in enumerate(model.couplings):
        mp, ms = coup.spec.master
        xs, ws = gauss_on_breaks(coup.segments, coup.trace.kv.degree + 2)
        cs, Rs, (_, dx) = coup.trace.table(xs, 1)
        cm, Rm, _ = coup.phi.master.table(coup.phi(xs), 0)
        us = np.einsum("qj,qjc->qc", Rs, vals[model.trace_ids[ci]][cs])
        um = np.einsum("qj,qjc->qc", Rm, vals[model.grids[mp][side_index(ms)]][cm])
        total += float(np.sum(ws * np.linalg.norm(dx, axis=1) * np.sum((um - us) ** 2, axis=1)))
    return math.sqrt(total)


# --------------------------------------------------------------------------
# large deformation


def run_largedef(case_id: str, level: int, increments: int, tol_factor: float,
                 weak: bool = True, *, pressure: float) -> SolutionField:
    """Load-stepped neo-Hookean solve of a pressure case on the weak or conforming mesh."""
    if not math.isfinite(pressure):
        raise ValueError("pressure must be finite")
    loads = CASES[case_id].loads if case_id in CASES else None
    if loads is None:
        raise ValueError(f"{case_id!r} is no pressure case")
    model = largedef_model(level, weak)
    mesh = model.weak_mesh()
    neum, diri, corners = loads(pressure)
    fext = assemble_neumann(mesh, 2, neum)
    rows = dirichlet_rows(mesh, 2, diri)
    for patch, corner, comp in corners:
        dof = int(mesh.grids[patch][corner])
        rows.append((dof * 2 + comp, 0.0))
    values = newton_load_stepping(
        mesh, LARGEDEF_MATERIAL, fext, rows, increments, tol_factor
    )
    return SolutionField(mesh, values, 2)


def field_difference_l2(field_a: SolutionField, field_b: SolutionField) -> float:
    """L2 norm of the difference of two fields on identically parameterized patches,
    at Gauss rules of order degree + 2.  Fields of different component counts
    raise ``ValueError``."""
    if field_a.ncomp != field_b.ncomp:
        raise ValueError(f"fields of {field_a.ncomp} and {field_b.ncomp} components")
    total = 0.0
    da = field_a.values.reshape(-1, field_a.ncomp)
    patch_of = np.empty(len(field_a.mesh), dtype=int)
    for g in field_a.mesh.groups:
        patch_of[g.index] = g.patch
    for index, rows, ev in cell_blocks(field_a.mesh, 2, grad=False):
        va = (ev["basis"] @ da[rows]).reshape(-1, field_a.ncomp)
        xi = ev["xi"].reshape(-1, 2)
        patches = np.repeat(patch_of[index], ev["xi"].shape[1])
        d = va - field_b.evaluate(patches, xi[:, 0], xi[:, 1])
        total += float(np.sum(ev["wdet"].reshape(-1) * np.sum(d * d, axis=1)))
    return math.sqrt(total)


def weak_vs_conforming_relative_error(case_id: str, levels: int, increments: int,
                                      tol_factor: float, pressure: float) -> ConvergenceReport:
    """Relative displacement error between weak and conforming meshes."""
    def solve_level(lv):
        fw, fc = (run_largedef(case_id, lv, increments, tol_factor, weak=weak,
                               pressure=pressure) for weak in (True, False))
        return mesh_size(fw.mesh.patches), fw.mesh.ndof * 2, field_difference_l2(fw, fc)

    return _level_study(ConvergenceReport(BenchmarkCase(case_id), "weak"), levels, solve_level)
