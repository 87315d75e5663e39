"""Benchmark geometry, exact solutions, solvers and convergence studies.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .coupling import InterfaceSpec, assemble_saddle, condense
from .fem import (
    MaterialModel,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neumann,
    assemble_poisson,
    cell_blocks,
    dirichlet_rows,
    evaluate_cell,
    l2_error,
    newton_load_stepping,
)
from .linsys import AssembledSystem, NumericalError, apply_dirichlet, linear_solve
from .model import MultiPatchModel
from .splines import (
    OutOfDomainError,
    Patch2D,
    gauss_on,
    gauss_on_breaks,
    greville_abscissae,
    rational_table,
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
    "BenchmarkCase",
    "ConvergenceReport",
    "rect_patch",
    "gen_square_two_patch",
    "gen_annulus_two_patch",
    "gen_plate_hole",
    "gen_demo_two_patch",
    "exact_plate_stress",
    "kirsch_cartesian",
    "plate_traction_residual",
    "manufactured_fields",
    "build_case",
    "solve_case",
    "case_error",
    "run_convergence",
    "interface_jump_norm",
    "run_largedef",
    "weak_vs_conforming_relative_error",
    "field_difference_l2",
]

PLATE_RADIUS = 1.0
PLATE_SIDE = 4.0
PLATE_TENSION = 10.0
PLATE_MATERIAL = MaterialModel("linear-elastic", E=1e5, nu=0.3)
LARGEDEF_MATERIAL = MaterialModel("neo-hookean", E=30e9, nu=0.48)
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
    """Insert uniform knots until each direction has n1 x n2 elements."""
    new1 = [k / n1 for k in range(1, n1)]
    new2 = [k / n2 for k in range(1, n2)]
    old1 = patch.kvs[0].breakpoints()
    old2 = patch.kvs[1].breakpoints()
    add1 = [x for x in new1 if np.min(np.abs(old1 - x)) > 1e-12]
    add2 = [x for x in new2 if np.min(np.abs(old2 - x)) > 1e-12]
    return patch.refined(add1, add2)


def annulus_sector_patch(theta0: float, theta1: float, r0: float, r1: float,
                         n_rad: int, n_circ: int, p: int = 2) -> Patch2D:
    """Exact NURBS ring sector; radial along the first parametric direction."""
    if p != 2:
        raise ValueError("exact conic sections are constructed at degree 2")
    pts_arc, w_arc = _arc_controls(theta0, theta1, 1.0)
    kv = uniform_open_knots(2, 1)
    g = greville_abscissae(kv)
    radii = r0 + (r1 - r0) * g
    pts = np.einsum("j,ik->jik", radii, pts_arc)
    wts = np.repeat(w_arc[None, :], 3, axis=0)
    base = Patch2D((kv, kv), pts, wts)
    return _refine_counts(base, n_rad, n_circ)


def ruled_sector_patch(theta0: float, theta1: float, radius: float, outer_fn,
                       n_rad: int, n_circ: int, p: int = 2) -> Patch2D:
    """Ruled patch between an exact arc (inner) and a straight outer edge.

    ``outer_fn(theta)`` returns the outer boundary point at a given angle;
    the first parametric direction runs from the arc to the outer edge and
    weights depend only on the circumferential index, so the hole edge stays
    an exact circle.
    """
    if p != 2:
        raise ValueError("exact conic sections are constructed at degree 2")
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


def gen_square_two_patch(ratio=(2, 3), matched: bool = True, p: int = 2,
                         level: int = 0, seed: int = 1234,
                         dual_refine: int = 1) -> MultiPatchModel:
    """Unit square split at x = 1/2 into two maximally smooth patches.

    ``ratio`` gives the level-0 element counts of master and slave per
    direction; ``level`` applies uniform knot refinement to the level-0
    geometry.  The mismatched variant perturbs the interior interface
    control points of both sides tangentially by 10% of the initial edge
    element size (seeded).  The perturbed geometry is refined by knot
    insertion, so the interface stays exactly coincident and the slave-to-
    master reparameterization is the same smooth map on every level.
    """
    master = rect_patch(p, ratio[0], ratio[0], (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(p, ratio[1], ratio[1], (0.5, 1.0), (0.0, 1.0))
    if not matched:
        rng = np.random.default_rng(seed)
        master = _perturb_edge(master, "east", 0.1 / ratio[0], rng)
        slave = _perturb_edge(slave, "west", 0.1 / ratio[1], rng)
    master = master.refined_uniform(level)
    slave = slave.refined_uniform(level)
    spec = InterfaceSpec(master=(0, "east"), slave=(1, "west"))
    return MultiPatchModel([master, slave], [spec], dual_refine)


def gen_annulus_two_patch(ratio=(2, 3), p: int = 2, level: int = 0,
                          dual_refine: int = 0,
                          r0: float = 0.4, r1: float = 4.0) -> MultiPatchModel:
    """Quarter-ring 0.4 <= r <= 4, pi/2 <= angle <= pi, split at 3 pi / 4."""
    master = annulus_sector_patch(math.pi / 2, 3 * math.pi / 4, r0, r1,
                                  ratio[0], ratio[0], p).refined_uniform(level)
    slave = annulus_sector_patch(3 * math.pi / 4, math.pi, r0, r1,
                                 ratio[1], ratio[1], p).refined_uniform(level)
    spec = InterfaceSpec(master=(0, "north"), slave=(1, "south"))
    return MultiPatchModel([master, slave], [spec], dual_refine)


def _plate_outer(theta: float, L: float) -> np.ndarray:
    """Outer boundary of the quarter plate at a given angle."""
    if theta <= math.pi / 4 + 1e-12:
        return np.array([L, L * math.tan(theta)])
    return np.array([L / math.tan(theta), L])


def gen_plate_hole(npatches: int = 2, matched: bool = True, p: int = 2,
                   level: int = 0, seed: int = 1234, dual_refine: int = 1,
                   ratio=(2, 3), R: float = PLATE_RADIUS,
                   L: float = PLATE_SIDE) -> MultiPatchModel:
    """Quarter plate with a circular hole as 2 or 3 coupled ruled patches.

    The 3-patch variant splits the upper sector once more, making the middle
    patch master on one interface and slave on the other.
    """
    outer = lambda th: _plate_outer(th, L)
    nm, ns = ratio
    if npatches == 2:
        a = ruled_sector_patch(0.0, math.pi / 4, R, outer, nm, nm, p)
        b = ruled_sector_patch(math.pi / 4, math.pi / 2, R, outer, ns, ns, p)
        patches = [a, b]
        specs = [InterfaceSpec(master=(0, "north"), slave=(1, "south"))]
        if not matched:
            rng = np.random.default_rng(seed)
            patches[0] = _perturb_edge(patches[0], "north", 0.1 * (L - R) / nm, rng)
            patches[1] = _perturb_edge(patches[1], "south", 0.1 * (L - R) / ns, rng)
    elif npatches == 3:
        a = ruled_sector_patch(0.0, math.pi / 4, R, outer, nm, nm, p)
        b = ruled_sector_patch(math.pi / 4, 3 * math.pi / 8, R, outer, ns, ns, p)
        c = ruled_sector_patch(3 * math.pi / 8, math.pi / 2, R, outer, nm, nm, p)
        patches = [a, b, c]
        specs = [
            InterfaceSpec(master=(0, "north"), slave=(1, "south")),
            InterfaceSpec(master=(1, "north"), slave=(2, "south")),
        ]
        if not matched:
            rng = np.random.default_rng(seed)
            patches[1] = _perturb_edge(patches[1], "south", 0.1 * (L - R) / ns, rng)
            patches[2] = _perturb_edge(patches[2], "south", 0.1 * (L - R) / nm, rng)
    else:
        raise ValueError("npatches must be 2 or 3")
    patches = [q.refined_uniform(level) for q in patches]
    return MultiPatchModel(patches, specs, dual_refine)


def gen_demo_two_patch(dual_refine: int = 1) -> MultiPatchModel:
    """Small stacked two-patch model (master 2x2 above a 3x2 slave).

    This is the canonical hand-checkable configuration: inserting the master
    knot 1/2 into the slave interface splits its middle element, and all
    interface operators have simple rational entries.
    """
    slave = rect_patch(2, 3, 2, (0.0, 1.0), (0.0, 1.0))
    master = rect_patch(2, 2, 2, (0.0, 1.0), (1.0, 2.0))
    spec = InterfaceSpec(master=(1, "south"), slave=(0, "north"))
    return MultiPatchModel([slave, master], [spec], dual_refine)


# --------------------------------------------------------------------------
# exact solutions


def exact_plate_stress(r, theta, Tx: float = PLATE_TENSION, R: float = PLATE_RADIUS):
    """Polar stresses of an infinite plate with a traction-free hole.

    Classical solution for uniaxial far-field tension Tx; the hole boundary
    r = R is traction free (sigma_rr = sigma_rt = 0).  ``r`` and ``theta``
    are numbers or arrays of one shape.
    """
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


def kirsch_cartesian(x, y, Tx: float = PLATE_TENSION, R: float = PLATE_RADIUS):
    """Cartesian stresses (sxx, syy, sxy) of the hole-in-plate solution."""
    theta = np.arctan2(y, x)
    srr, stt, srt = exact_plate_stress(np.hypot(x, y), theta, Tx, R)
    c, s = np.cos(theta), np.sin(theta)
    sxx = srr * c * c + stt * s * s - 2 * srt * s * c
    syy = srr * s * s + stt * c * c + 2 * srt * s * c
    sxy = (srr - stt) * s * c + srt * (c * c - s * s)
    return sxx, syy, sxy


def _kirsch_traction(x, n, Tx: float = PLATE_TENSION, R: float = PLATE_RADIUS):
    """Traction sigma . n of the hole-in-plate solution at (..., 2) points."""
    sxx, syy, sxy = kirsch_cartesian(x[..., 0], x[..., 1], Tx, R)
    return np.stack([sxx * n[..., 0] + sxy * n[..., 1],
                     sxy * n[..., 0] + syy * n[..., 1]], axis=-1)


def plate_traction_residual(Tx: float = PLATE_TENSION, R: float = PLATE_RADIUS,
                            L: float = PLATE_SIDE, nq: int = 64) -> float:
    """Net force of the exact tractions over the whole quarter-plate boundary.

    Includes the symmetry-plane reactions; equilibrium demands (near) zero.
    """
    total = np.zeros(2)

    def edge(x, n, w):
        return w @ _kirsch_traction(x, np.broadcast_to(n, x.shape), Tx, R)

    # x = L edge (outward +x): y from 0 to L
    ys, wy = gauss_on(0.0, L, nq)
    total += edge(np.column_stack([np.full(nq, L), ys]), (1.0, 0.0), wy)
    # y = L edge (outward +y)
    xs, wx = gauss_on(0.0, L, nq)
    total += edge(np.column_stack([xs, np.full(nq, L)]), (0.0, 1.0), wx)
    # x = 0 symmetry edge (outward -x), y from R to L
    ys, wy = gauss_on(R, L, nq)
    total += edge(np.column_stack([np.zeros(nq), ys]), (-1.0, 0.0), wy)
    # y = 0 symmetry edge (outward -y)
    xs, wx = gauss_on(R, L, nq)
    total += edge(np.column_stack([xs, np.zeros(nq)]), (0.0, -1.0), wx)
    # hole edge (outward toward the center): traction free, contributes zero
    angs, wa = gauss_on(0.0, math.pi / 2, nq)
    rim = np.column_stack([np.cos(angs), np.sin(angs)])
    total += edge(R * rim, -rim, wa * R)
    return float(np.abs(total).max())


def manufactured_fields(case: str):
    """Exact solution, gradient and forcing of the manufactured cases.

    Each takes coordinates (numbers or arrays of one shape); the gradient
    returns its two components as a tuple.
    """
    if case.startswith("square"):
        u = lambda x, y: np.sin(math.pi * y) * np.sinh(math.pi * x)
        grad = lambda x, y: (
            math.pi * np.cosh(math.pi * x) * np.sin(math.pi * y),
            math.pi * np.sinh(math.pi * x) * np.cos(math.pi * y),
        )
        f = None  # harmonic
    elif case == "annulus":
        u = lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y)
        grad = lambda x, y: (
            math.pi * np.cos(math.pi * x) * np.sin(math.pi * y),
            math.pi * np.sin(math.pi * x) * np.cos(math.pi * y),
        )
        f = lambda x, y: 2 * math.pi**2 * np.sin(math.pi * x) * np.sin(math.pi * y)
    else:
        raise ValueError(f"no manufactured solution for case {case}")
    return u, grad, f


# --------------------------------------------------------------------------
# cases


_CASES = (
    "square-dirichlet",
    "square-mixed",
    "annulus",
    "plate-hole-2patch",
    "plate-hole-3patch",
    "largedef-case1",
    "largedef-case2",
    "largedef-case3",
    "square-demo",
)


@dataclass
class BenchmarkCase:
    """Configuration of one benchmark family."""

    case: str
    p: int = 2
    ratio: tuple[int, int] = (2, 3)
    matched: bool = True
    dual_refine: int = 1
    levels: int = 4
    seed: int = 1234

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.case in ("annulus", "plate-hole-2patch", "plate-hole-3patch") and self.p != 2:
            raise ValueError("curved benchmark geometry is constructed at p = 2")
        if self.case == "annulus" and not self.matched:
            raise ValueError("the annulus case uses matched parameterizations only")
        if self.dual_refine < 0 or self.levels < 1:
            raise ValueError("invalid refinement configuration")


def build_case(case: BenchmarkCase, level: int) -> MultiPatchModel:
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    if case.case.startswith("square"):
        if case.case == "square-demo":
            if level != 0:
                raise ValueError("square-demo has one fixed geometry (level 0)")
            return gen_demo_two_patch(case.dual_refine)
        return gen_square_two_patch(case.ratio, case.matched, case.p, level,
                                    case.seed, case.dual_refine)
    if case.case == "annulus":
        return gen_annulus_two_patch(case.ratio, case.p, level, case.dual_refine)
    if case.case.startswith("plate-hole"):
        n = 2 if case.case.endswith("2patch") else 3
        return gen_plate_hole(n, case.matched, case.p, level, case.seed,
                              case.dual_refine, case.ratio)
    if case.case.startswith("largedef"):
        return largedef_model(level, weak=True)
    raise ValueError(case.case)


def _poisson_bcs(case: BenchmarkCase):
    u, grad, f = manufactured_fields(case.case)

    def flux(x, n):
        gx, gy = grad(x[..., 0], x[..., 1])
        return gx * n[..., 0] + gy * n[..., 1]

    if case.case == "square-dirichlet":
        diri = [(0, "west", 0, u), (0, "south", 0, u), (0, "north", 0, u),
                (1, "east", 0, u), (1, "south", 0, u), (1, "north", 0, u)]
        neum = []
    elif case.case == "square-mixed":
        diri = [(0, "west", 0, u), (1, "east", 0, u)]
        neum = [(0, "south", None, flux), (0, "north", None, flux),
                (1, "south", None, flux), (1, "north", None, flux)]
    elif case.case == "annulus":
        diri = [(0, "south", 0, u), (1, "north", 0, u)]
        neum = [(0, "west", None, flux), (0, "east", None, flux),
                (1, "west", None, flux), (1, "east", None, flux)]
    else:
        raise ValueError(case.case)
    return u, f, diri, neum


def _plate_bcs(npatches: int):
    zero = lambda x, y: 0.0
    last = npatches - 1
    diri = [(0, "south", 1, zero), (last, "north", 0, zero)]
    neum = [(pi, "east", None, _kirsch_traction) for pi in range(npatches)]
    return diri, neum


def solve_case(case: BenchmarkCase, level: int, method: str = "mortar") -> dict:
    """Assemble and solve one benchmark level; returns field and metadata."""
    if case.case.startswith("largedef"):
        raise ValueError("use run_largedef for the large-deformation cases")
    if case.case == "square-demo":
        raise ValueError("square-demo is a mesh-only case")
    model = build_case(case, level)
    if method not in ("mortar", "weak", "saddle"):
        raise ValueError(f"unknown method {method!r}")
    mesh = model.weak_mesh() if method == "weak" else model.mortar_mesh()
    if case.case.startswith("plate"):
        diri, neum = _plate_bcs(len(model.patches))
        system = assemble_linear_elasticity(mesh, PLATE_MATERIAL)
        ncomp = 2
        exact_u = None
    else:
        exact_u, f, diri, neum = _poisson_bcs(case)
        system = assemble_poisson(mesh, f)
        ncomp = 1
    assemble_neumann(mesh, system, neum)
    rows = dirichlet_rows(model, mesh, ncomp, diri)
    if method == "weak":
        system = apply_dirichlet(system, rows)
        values = linear_solve(system)
        field = SolutionField(mesh, values, ncomp)
    elif method == "mortar":
        red = condense(system, model)
        red = apply_dirichlet(red, rows)
        x = linear_solve(red)
        full = model.prolongation_vec(ncomp) @ x
        field = SolutionField(mesh, full, ncomp)
    else:
        sad, nl = assemble_saddle(system, model)
        sad = apply_dirichlet(sad, rows)
        x = linear_solve(sad)
        field = SolutionField(mesh, x[: mesh.ndof * ncomp], ncomp)
    return {
        "field": field,
        "model": model,
        "dofs": model.n_retained * ncomp,
        "exact": exact_u,
    }


def _sigma_xx(mat: MaterialModel):
    lam, mu = mat.lam, mat.mu

    def quantity(vals, grad, x):
        return (lam + 2 * mu) * grad[..., 0, 0] + lam * grad[..., 1, 1]

    return quantity


def case_error(case: BenchmarkCase, solved: dict) -> float:
    """L2 error of the case-defining quantity (u, or sigma_xx for the plate)."""
    if case.case.startswith("plate"):
        exact = lambda x, y: kirsch_cartesian(x, y)[0]
        return l2_error(solved["field"], exact, quantity=_sigma_xx(PLATE_MATERIAL))
    return l2_error(solved["field"], solved["exact"])


@dataclass
class ConvergenceReport:
    """Per-level mesh sizes, errors and observed rates of one study."""

    case: BenchmarkCase
    rows: list = field(default_factory=list)  # dicts: level,h,dofs,l2_error,rate,status
    failed: bool = False

    def add(self, level, h, dofs, err, status="ok"):
        rate = ""
        if self.rows and status == "ok" and self.rows[-1]["status"] == "ok":
            prev = self.rows[-1]
            rate = math.log(prev["l2_error"] / err) / math.log(prev["h"] / h)
        self.rows.append(
            {"level": level, "h": h, "dofs": dofs, "l2_error": err,
             "rate": rate, "status": status}
        )

    def observed_rate(self, window: int = 1) -> float:
        """Mean of the last ``window`` rate entries."""
        rates = [r["rate"] for r in self.rows if r["rate"] != ""]
        if len(rates) < window:
            raise ValueError("not enough levels for the requested window")
        return float(np.mean(rates[-window:]))


def run_convergence(case: BenchmarkCase, levels: int | None = None,
                    method: str = "mortar") -> ConvergenceReport:
    """Uniform refinement study; partial report with a flag on failure."""
    levels = levels if levels is not None else case.levels
    if levels < 1:
        raise ValueError("need at least one level")
    report = ConvergenceReport(case)
    h0 = None
    for lv in range(levels):
        try:
            solved = solve_case(case, lv, method)
            err = case_error(case, solved)
        except (NumericalError, ValueError) as exc:
            report.failed = True
            report.add(lv, float("nan"), 0, float("nan"), status=f"failed: {exc}")
            break
        # uniform bisection halves the mesh size exactly; measuring the
        # physical diameter per level would only add parameterization noise
        if h0 is None:
            h0 = max(p.max_element_diameter() for p in solved["model"].patches)
        report.add(lv, h0 / 2**lv, solved["dofs"], err)
    return report


# --------------------------------------------------------------------------
# interface jump


def interface_jump_norm(model: MultiPatchModel, full_values: np.ndarray,
                        ncomp: int = 1) -> float:
    """L2(arc-length) norm of the master-slave trace mismatch.

    Evaluates the solved master trace composed with phi against the slave
    trace (held by the refined interface dofs) over the merged quadrature
    segments.
    """
    vals = full_values.reshape(-1, ncomp)
    total = 0.0
    for ci, coup in enumerate(model.couplings):
        mp, ms = coup.spec.master
        master, rkv = coup.phi.master, coup.refined.refined
        xs, ws = gauss_on_breaks(coup.refined.segments, rkv.degree + 2)
        cs, Rs, _ = rational_table(rkv, coup.refined_edge_weights, xs)
        cm, Rm, _ = rational_table(master.kv, master.weights, coup.phi(xs))
        us = np.einsum("qj,qjc->qc", Rs, vals[model.trace_ids[ci]][cs])
        um = np.einsum("qj,qjc->qc", Rm, vals[model.grids[mp][side_index(ms)]][cm])
        total += float(np.sum(ws * coup.phi.slave.speed(xs) * np.sum((um - us) ** 2, axis=1)))
    return math.sqrt(total)


# --------------------------------------------------------------------------
# large deformation


def largedef_model(level: int, weak: bool = True) -> MultiPatchModel:
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


def _largedef_loads(case_id: str, pressure: float):
    """Pressure side specs and homogeneous constraints of the three cases."""
    down = lambda x, n: np.array([0.0, -pressure])
    right = lambda x, n: np.array([pressure, 0.0])
    zero = lambda x, y: 0.0
    if case_id.endswith("case1"):
        neum = [(0, "north", (0.5, 1.0), down), (1, "north", (0.0, 0.5), down)]
        diri = [(0, "south", 1, zero), (1, "south", 1, zero)]
        corners = [(0, (0, -1), 0), (1, (-1, -1), 0)]
    elif case_id.endswith("case2"):
        neum = [(0, "north", None, down)]
        diri = [(0, "south", 1, zero), (1, "south", 1, zero), (0, "west", 0, zero)]
        corners = [(1, (-1, -1), 0)]
    elif case_id.endswith("case3"):
        neum = [(0, "west", (0.25, 0.75), right)]
        diri = [(1, "east", 0, zero)]
        corners = [(0, (0, 0), 1), (0, (0, -1), 1)]
    else:
        raise ValueError(case_id)
    return neum, diri, corners


def run_largedef(case_id: str, level: int, increments: int = 20,
                 tol_factor: float = 1e8, weak: bool = True,
                 pressure: float = LARGEDEF_PRESSURE,
                 material: MaterialModel = LARGEDEF_MATERIAL) -> SolutionField:
    """Load-stepped neo-Hookean solve on the weak or conforming mesh."""
    if not math.isfinite(pressure):
        raise ValueError("pressure must be finite")
    model = largedef_model(level, weak)
    mesh = model.weak_mesh()
    neum, diri, corners = _largedef_loads(case_id, pressure)
    dummy = AssembledSystem(
        sparse.csr_matrix((mesh.ndof * 2, mesh.ndof * 2)),
        np.zeros(mesh.ndof * 2),
        2,
    )
    assemble_neumann(mesh, dummy, neum)
    fext = dummy.f
    rows = dirichlet_rows(model, mesh, 2, diri)
    for patch, corner, comp in corners:
        grid = model.grids[patch]
        dof = int(grid[corner[0], corner[1]])
        if dof < 0:
            raise ValueError("corner constraint fell on an interface dof")
        rows.append((dof * 2 + comp, 0.0))
    values = newton_load_stepping(
        mesh, material, fext, rows, increments, tol_factor
    )
    return SolutionField(mesh, values, 2)


def field_difference_l2(field_a: SolutionField, field_b: SolutionField,
                        quad_extra: int = 2) -> float:
    """L2 norm of the difference of two fields on identically parameterized patches."""
    total = 0.0
    da = field_a.values.reshape(-1, field_a.ncomp)
    db = field_b.values.reshape(-1, field_b.ncomp)
    patch_of = np.empty(len(field_a.mesh), dtype=int)
    for g in field_a.mesh.groups:
        patch_of[g.index] = g.patch
    cells_b = field_b.mesh.cells
    for index, rows, ev in cell_blocks(field_a.mesh, quad_extra, grad=False):
        va = (ev["basis"] @ da[rows]).reshape(-1, field_a.ncomp)
        xi = ev["xi"].reshape(-1, 2)
        patches = np.repeat(patch_of[index], ev["xi"].shape[1])
        # field_b at the same points, one evaluation per cell of field_b hit
        ks = field_b.mesh.cell_index(patches, xi[:, 0], xi[:, 1])
        vb = np.empty_like(va)
        for k in np.unique(ks).tolist():
            qs = np.flatnonzero(ks == k)
            cell = cells_b[k]
            ev_b = evaluate_cell(cell, xi[qs, 0], xi[qs, 1], grad=False)
            vb[qs] = ev_b["basis"] @ db[cell.rows]
        d = va - vb
        total += float(np.sum(ev["wdet"].reshape(-1) * np.sum(d * d, axis=1)))
    return math.sqrt(total)


def weak_vs_conforming_relative_error(case_id: str, levels: int,
                                      increments: int = 20,
                                      tol_factor: float = 1e8,
                                      pressure: float = LARGEDEF_PRESSURE) -> ConvergenceReport:
    """Relative displacement error between weak and conforming meshes."""
    case = BenchmarkCase(case_id, levels=levels)
    report = ConvergenceReport(case)
    for lv in range(levels):
        try:
            fw = run_largedef(case_id, lv, increments, tol_factor, weak=True,
                              pressure=pressure)
            fc = run_largedef(case_id, lv, increments, tol_factor, weak=False,
                              pressure=pressure)
            err = field_difference_l2(fw, fc)
        except NumericalError as exc:
            report.failed = True
            report.add(lv, float("nan"), 0, float("nan"), status=f"failed: {exc}")
            break
        h = max(p.max_element_diameter() for p in fw.mesh.patches)
        report.add(lv, h, fw.mesh.ndof * 2, err)
    return report
