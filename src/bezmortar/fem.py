"""Extracted-element Galerkin assembly and solves.

Assembly walks an :class:`~bezmortar.model.ExtractedMesh` cell stream and is
oblivious to interface coupling: mortared, weakly continuous and single-patch
meshes all pass through the same kernels.  Supported physics: Poisson
problems, linear plane strain/stress elasticity, and a compressible
neo-Hookean material with dead-load stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .coupling import condense
from .linsys import AssembledSystem, NumericalError, apply_dirichlet, linear_solve
from .model import Cell, ExtractedMesh, SideCell
from .splines import (
    BernsteinInterval,
    bernstein_derivatives,
    bspline_table,
    gauss_on,
    gauss_on_breaks,
    side_index,
)

__all__ = [
    "MaterialModel",
    "SolutionField",
    "cell_quadrature",
    "evaluate_cell",
    "cell_blocks",
    "assemble_poisson",
    "assemble_linear_elasticity",
    "assemble_neumann",
    "boundary_projection",
    "dirichlet_rows",
    "assemble_neo_hookean",
    "deformation_gradients",
    "newton_load_stepping",
    "l2_error",
    "l2_norm",
]


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic material constants with derived Lame parameters."""

    variant: str  # "poisson" | "linear-elastic" | "neo-hookean"
    E: float = 1.0
    nu: float = 0.3
    plane_stress: bool = False

    def __post_init__(self):
        if self.variant in ("linear-elastic", "neo-hookean"):
            if self.mu <= 0:
                raise ValueError("shear modulus must be positive")
            if self.variant == "neo-hookean" and self.nu >= 0.5:
                raise ValueError("neo-hookean model requires nu < 1/2")

    @property
    def lam(self) -> float:
        if self.plane_stress:
            # plane-stress effective first Lame parameter
            return self.E * self.nu / ((1 + self.nu) * (1 - self.nu))
        return self.E * self.nu / ((1 + self.nu) * (1 - 2 * self.nu))

    @property
    def mu(self) -> float:
        return self.E / (2 * (1 + self.nu))


# --------------------------------------------------------------------------
# cell evaluation
#
# A cell's basis is (ophom @ B) / sum(ophom @ B) over the tensor Bernstein
# basis B of its rectangle, and its geometry comes from geo_ophom the same
# way.  Cells of one degree share B at the reference Gauss points, so a stack
# of same-shaped cells is evaluated with a few batched products;
# ``evaluate_cell`` is the one-cell case of the same code at given points.

# Cells evaluated together; bounds the transient arrays of one batch.
_BLOCK = 128


def cell_quadrature(cell: Cell, n1: int, n2: int):
    """Tensor Gauss points and weights on the cell rectangle."""
    (a1, b1), (a2, b2) = cell.rect
    x1, w1 = gauss_on(a1, b1, n1)
    x2, w2 = gauss_on(a2, b2, n2)
    X1 = np.repeat(x1, n2)
    X2 = np.tile(x2, n1)
    W = np.outer(w1, w2).reshape(-1)
    return X1, X2, W


def _tensor_tables(iv1: BernsteinInterval, iv2: BernsteinInterval, x1, x2, grad: bool):
    """Tensor Bernstein values (m, nb) and, with ``grad``, derivatives (2, m, nb)."""
    D1 = bernstein_derivatives(iv1, x1, 1 if grad else 0)
    D2 = bernstein_derivatives(iv2, x2, 1 if grad else 0)
    m = len(x1)
    B = (D1[0][:, :, None] * D2[0][:, None, :]).reshape(m, -1)
    if not grad:
        return B, None
    dB = np.stack([(D1[1][:, :, None] * D2[0][:, None, :]).reshape(m, -1),
                   (D1[0][:, :, None] * D2[1][:, None, :]).reshape(m, -1)])
    return B, dB


@lru_cache(maxsize=None)
def _reference_tables(p1: int, p2: int, n1: int, n2: int):
    """Gauss points (m, 2), weights (m,) and Bernstein tables on the unit square."""
    t1, w1 = gauss_on(0.0, 1.0, n1)
    t2, w2 = gauss_on(0.0, 1.0, n2)
    t = np.column_stack([np.repeat(t1, n2), np.tile(t2, n1)])
    B, dB = _tensor_tables(BernsteinInterval(0.0, 1.0, p1), BernsteinInterval(0.0, 1.0, p2),
                           t[:, 0], t[:, 1], True)
    tables = (t, np.outer(w1, w2).reshape(-1), B, dB)
    for a in tables:
        a.setflags(write=False)
    return tables


def _rational(B, dB, scale, ophom, geo_ophom, geo_pts, grad: bool = True) -> dict:
    """Rational basis and geometry of a stack of cells at shared points.

    ``B`` (m, nb) holds tensor Bernstein values and ``dB`` (2, m, nb) their
    parametric derivatives, rescaled per cell by ``scale`` (nc, 2).  The cells
    are stacked as ``ophom`` (nc, nr, nb), ``geo_ophom`` (nc, ng, nb) and
    ``geo_pts`` (nc, ng, 2).  Returns the :func:`evaluate_cell` keys with a
    leading cell axis.
    """
    op_t = ophom.transpose(0, 2, 1)
    geo_t = geo_ophom.transpose(0, 2, 1)
    vhom = B @ op_t
    ghom = B @ geo_t
    W = vhom.sum(axis=2)
    Wg = ghom.sum(axis=2)
    basis = vhom / W[:, :, None]
    x = (ghom @ geo_pts) / Wg[:, :, None]
    out = {"basis": basis, "x": x}
    if not grad:
        return out
    s = scale[:, None, None, :]
    dv = np.stack([dB[0] @ op_t, dB[1] @ op_t], axis=3) * s
    dg = np.stack([dB[0] @ geo_t, dB[1] @ geo_t], axis=3) * s
    dW = dv.sum(axis=2)
    dWg = dg.sum(axis=2)
    dbasis = (dv - basis[..., None] * dW[:, :, None, :]) / W[:, :, None, None]
    # jac[c, q, k, d] = d x_k / d xi_d
    jac = (
        np.einsum("cqnd,cnk->cqkd", dg, geo_pts)
        - x[..., :, None] * dWg[:, :, None, :]
    ) / Wg[:, :, None, None]
    detJ = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(detJ <= 0):
        raise NumericalError("non-positive geometric Jacobian")
    # d/dx_k = sum_d d/dxi_d * dxi_d/dx_k, with J^{-1} = adj(J) / det J
    inv = np.stack([np.stack([jac[..., 1, 1], -jac[..., 0, 1]], axis=-1),
                    np.stack([-jac[..., 1, 0], jac[..., 0, 0]], axis=-1)], axis=-2)
    inv /= detJ[..., None, None]
    out.update({"grad_phys": dbasis @ inv, "detJ": detJ, "jac": jac})
    return out


def evaluate_cell(cell: Cell, x1: np.ndarray, x2: np.ndarray, grad: bool = True):
    """Basis, geometry and Jacobians of one cell at parametric points.

    Returns a dict with keys ``basis`` (m, nrows), ``x`` (m, 2) and, when
    ``grad`` is set, ``grad_phys`` (m, nrows, 2), ``detJ`` (m,) and ``jac``.
    """
    (a1, b1), (a2, b2) = cell.rect
    p1, p2 = cell.degrees
    B, dB = _tensor_tables(BernsteinInterval(a1, b1, p1), BernsteinInterval(a2, b2, p2),
                           x1, x2, grad)
    ev = _rational(B, dB, np.ones((1, 2)), cell.ophom[None], cell.geo_ophom[None],
                   cell.geo_pts[None], grad)
    return {k: v[0] for k, v in ev.items()}


def cell_blocks(mesh: ExtractedMesh, quad_extra: int = 1):
    """Evaluate every cell at its tensor Gauss rule of order degree + ``quad_extra``.

    Cells are grouped by exact shape (degrees and operator shapes, so nothing
    is padded) and evaluated up to ``_BLOCK`` at a time.  Yields
    ``(index, rows, ev)`` per block: ``index`` the positions in
    ``mesh.cells``, ``rows`` (nc, nr) their dof ids, and ``ev`` the
    :func:`evaluate_cell` keys with a leading cell axis plus ``xi``
    (nc, m, 2), the parametric points, and ``wdet`` (nc, m), the quadrature
    weight times det J.
    """
    groups: dict = {}
    for k, c in enumerate(mesh.cells):
        groups.setdefault((c.degrees, c.ophom.shape, c.geo_ophom.shape), []).append(k)
    for ((p1, p2), _, _), members in groups.items():
        t, w, B, dB = _reference_tables(p1, p2, p1 + quad_extra, p2 + quad_extra)
        for start in range(0, len(members), _BLOCK):
            index = np.array(members[start : start + _BLOCK])
            cells = [mesh.cells[k] for k in index]
            rect = np.array([c.rect for c in cells])
            lo, h = rect[:, :, 0], rect[:, :, 1] - rect[:, :, 0]
            ev = _rational(B, dB, 1.0 / h,
                           np.stack([c.ophom for c in cells]),
                           np.stack([c.geo_ophom for c in cells]),
                           np.stack([c.geo_pts for c in cells]))
            ev["xi"] = lo[:, None, :] + h[:, None, :] * t
            ev["wdet"] = (h[:, 0] * h[:, 1])[:, None] * w * ev["detJ"]
            yield index, np.stack([c.rows for c in cells]), ev


def evaluate_side_cell(side: SideCell, xs: np.ndarray):
    """Basis, geometry, arc-length rate and outward normal on a side cell."""
    a, b = side.interval
    iv = BernsteinInterval(a, b, side.degree)
    D = bernstein_derivatives(iv, xs, 1)
    vhom = D[0] @ side.ophom.T
    W = vhom.sum(axis=1)
    basis = vhom / W[:, None]
    ghom = D[0] @ side.geo_ophom.T
    Wg = ghom.sum(axis=1)
    x = (ghom @ side.geo_pts) / Wg[:, None]
    dg = D[1] @ side.geo_ophom.T
    dWg = dg.sum(axis=1)
    tangent = (dg @ side.geo_pts - x * dWg[:, None]) / Wg[:, None]
    speed = np.linalg.norm(tangent, axis=1)
    if side.ccw_normal:
        normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    else:
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= speed[:, None]
    return {"basis": basis, "x": x, "speed": speed, "normal": normal}


# --------------------------------------------------------------------------
# linear assembly


def _local_dofs(rows: np.ndarray, ncomp: int) -> np.ndarray:
    """(nc, nr*ncomp) global ids of stacked cell rows, component fastest."""
    return (rows[:, :, None] * ncomp + np.arange(ncomp)).reshape(len(rows), -1)


def _sparsity(dofs: list, n: int):
    """CSR pattern of summed local matrices and the CSR slot of every entry.

    ``dofs`` lists (nc, L) local-to-global maps; the entries of the matching
    (nc, L, L) local matrices, flattened in order, go to ``slot``.
    """
    keys = np.concatenate([(d[:, :, None].astype(np.int64) * n + d[:, None, :]).reshape(-1)
                           for d in dofs])
    uniq, slot = np.unique(keys, return_inverse=True)
    indptr = np.searchsorted(uniq, np.arange(n + 1) * n)
    return indptr, uniq % n, slot


def _csr(pattern, local: list, n: int) -> sp.csr_matrix:
    """Sum local matrices into the CSR ``pattern`` from :func:`_sparsity`."""
    indptr, indices, slot = pattern
    data = np.bincount(slot, weights=np.concatenate([a.reshape(-1) for a in local]),
                       minlength=len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _vector(dofs: list, local: list, n: int) -> np.ndarray:
    """Sum local (nc, L) vectors into a length-``n`` vector."""
    return np.bincount(np.concatenate([d.reshape(-1) for d in dofs]),
                       weights=np.concatenate([a.reshape(-1) for a in local]), minlength=n)


def _wgram(A: np.ndarray, B: np.ndarray, wdet: np.ndarray) -> np.ndarray:
    """Per cell, sum over points q and axis k of wdet[q] A[q, k, i] B[q, k, j].

    ``A`` (nc, m, K, I) and ``B`` (nc, m, K, J) give (nc, I, J).
    """
    nc, m, k, _ = A.shape
    Aw = (A * wdet[:, :, None, None]).reshape(nc, m * k, -1)
    return np.swapaxes(Aw, 1, 2) @ B.reshape(nc, m * k, -1)


def _pointwise(fn, x: np.ndarray) -> np.ndarray:
    """A pointwise callable ``fn(x, y)`` at every point of an (..., 2) array."""
    flat = x.reshape(-1, 2)
    return np.array([fn(p[0], p[1]) for p in flat]).reshape(x.shape[:-1] + (-1,))


def assemble_poisson(mesh: ExtractedMesh, forcing=None) -> AssembledSystem:
    """Stiffness int grad u . grad v and load int f v of the Laplace operator."""
    dofs, local, loads = [], [], []
    for _, rows, ev in cell_blocks(mesh):
        G = np.swapaxes(ev["grad_phys"], 2, 3)
        dofs.append(rows)
        local.append(_wgram(G, G, ev["wdet"]))
        if forcing is not None:
            fv = _pointwise(forcing, ev["x"])[..., 0]
            loads.append(np.einsum("cqi,cq->ci", ev["basis"], ev["wdet"] * fv))
    K = _csr(_sparsity(dofs, mesh.ndof), local, mesh.ndof)
    f = _vector(dofs, loads, mesh.ndof) if loads else np.zeros(mesh.ndof)
    return AssembledSystem(K, f, 1)


def _elastic_D(mat: MaterialModel) -> np.ndarray:
    lam, mu = mat.lam, mat.mu
    return np.array(
        [[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]]
    )


def assemble_linear_elasticity(mesh: ExtractedMesh, material: MaterialModel,
                               body_force=None) -> AssembledSystem:
    """Small-strain isotropic elasticity in Voigt form (2 components per dof)."""
    D = _elastic_D(material)
    n = mesh.ndof * 2
    dofs, local, loads = [], [], []
    for _, rows, ev in cell_blocks(mesh):
        dphi = ev["grad_phys"]
        nc, m, nr, _ = dphi.shape
        B = np.zeros((nc, m, 3, 2 * nr))
        B[:, :, 0, 0::2] = dphi[..., 0]
        B[:, :, 1, 1::2] = dphi[..., 1]
        B[:, :, 2, 0::2] = dphi[..., 1]
        B[:, :, 2, 1::2] = dphi[..., 0]
        dofs.append(_local_dofs(rows, 2))
        local.append(_wgram(B, D @ B, ev["wdet"]))
        if body_force is not None:
            bf = _pointwise(body_force, ev["x"])
            loads.append(np.einsum("cqi,cqk,cq->cik", ev["basis"], bf, ev["wdet"]))
    K = _csr(_sparsity(dofs, n), local, n)
    return AssembledSystem(K, _vector(dofs, loads, n) if loads else np.zeros(n), 2)


def assemble_neumann(mesh: ExtractedMesh, system: AssembledSystem, specs) -> None:
    """Add boundary tractions to the load vector (in place).

    Each spec is (patch, side, span_or_None, traction) where traction is a
    callable (x, normal) -> array of ncomp values; ``span`` restricts the
    load to a sub-interval of the side parameter (intervals are split so the
    quadrature never crosses the load boundary).
    """
    ncomp = system.ncomp
    for patch, side, span, traction in specs:
        for sc in mesh.side_cells(patch, side):
            a, b = sc.interval
            if span is not None:
                a, b = max(a, span[0]), min(b, span[1])
                if b - a <= 1e-14:
                    continue
            xs, ws = gauss_on(a, b, sc.degree + 2)
            ev = evaluate_side_cell(sc, xs)
            t = np.array([np.atleast_1d(traction(x, nrm))
                          for x, nrm in zip(ev["x"], ev["normal"])])
            rows = (sc.rows[:, None] * ncomp + np.arange(ncomp)[None, :]).reshape(-1)
            system.f[rows] += (ev["basis"].T @ ((ws * ev["speed"])[:, None] * t)).reshape(-1)


# --------------------------------------------------------------------------
# Dirichlet data


def boundary_projection(patch, side: str, fn) -> np.ndarray:
    """L2 projection of boundary data onto one side's spline space.

    Corner coefficients are set by interpolation (the basis is interpolatory
    at open-knot endpoints) and the interior coefficients solve the
    constrained L2 projection under the physical arc-length measure, so
    adjacent sides agree at shared corners.
    """
    curve = patch.boundary(side)
    kv = curve.kv
    n = kv.n
    xs, ws = gauss_on_breaks(kv.breakpoints(), kv.degree + 2)
    cols, N = bspline_table(kv, xs)
    R = N * curve.weights[cols]
    R /= R.sum(axis=1, keepdims=True)
    d = curve.derivatives(xs, 1)
    c = ws * np.linalg.norm(d[1], axis=1)
    f = np.array([fn(x, y) for x, y in d[0]], dtype=float)
    M = np.zeros((n, n))
    np.add.at(M, (cols[:, :, None], cols[:, None, :]),
              c[:, None, None] * (R[:, :, None] * R[:, None, :]))
    rhs = np.zeros(n)
    np.add.at(rhs, cols, (c * f)[:, None] * R)
    lo, hi = kv.domain
    vals = np.zeros(n)
    vals[0] = fn(*curve.point(lo))
    vals[-1] = fn(*curve.point(hi))
    interior = np.arange(1, n - 1)
    if interior.size:
        rhs_i = rhs[interior] - M[interior][:, [0, n - 1]] @ vals[[0, n - 1]]
        vals[interior] = np.linalg.solve(M[np.ix_(interior, interior)], rhs_i)
    return vals


def dirichlet_rows(model_or_none, mesh: ExtractedMesh, ncomp: int,
                   specs) -> list[tuple[int, float]]:
    """Translate per-side Dirichlet specs into (row, value) pairs.

    Specs are (patch, side, comp, fn).  Dofs replaced by interface traces are
    skipped: slave interface dofs never carry Dirichlet data directly.  When
    ``model_or_none`` is None the mesh must be a single patch.
    """
    out = []
    for patch, side, comp, fn in specs:
        p = mesh.patches[patch]
        vals = boundary_projection(p, side, fn if callable(fn) else (lambda x, y: fn))
        if model_or_none is not None:
            grid = model_or_none.grids[patch]
        else:
            grid = np.arange(p.shape[0] * p.shape[1]).reshape(p.shape)
        for dof, val in zip(grid[side_index(side)], vals):
            if dof >= 0:
                out.append((int(dof) * ncomp + comp, float(val)))
    return out


# --------------------------------------------------------------------------
# neo-Hookean

def strain_energy_density(mat: MaterialModel, F: np.ndarray) -> float:
    """Plane-strain energy lam(J^2-1)/4 - lam ln(J)/2 + mu(tr b - 3 - 2 ln J)/2."""
    J = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    if J <= 0:
        raise NumericalError("element inversion (J <= 0)")
    trb = float(np.sum(F * F)) + 1.0  # out-of-plane stretch is 1
    lam, mu = mat.lam, mat.mu
    return lam * (0.25 * (J**2 - 1.0) - 0.5 * math.log(J)) + 0.5 * mu * (
        trb - 3.0 - 2.0 * math.log(J)
    )


def _neo_hookean_geometry(mesh: ExtractedMesh):
    """Quadrature geometry and sparsity of the neo-Hookean kernel, memoised.

    Newton iterations reassemble the same mesh at new states, so the
    state-independent part is built once and kept in the mesh cache:
    per block the (nc, 2 nr) dof map, ``grad_phys`` and ``wdet``, then the
    CSR pattern of the tangent.
    """
    cached = mesh._cache.get("neo-hookean")
    if cached is None:
        blocks = [(_local_dofs(rows, 2), ev["grad_phys"], ev["wdet"])
                  for _, rows, ev in cell_blocks(mesh)]
        pattern = _sparsity([dofs for dofs, _, _ in blocks], mesh.ndof * 2)
        cached = mesh._cache["neo-hookean"] = (blocks, pattern)
    return cached


def deformation_gradients(mesh: ExtractedMesh, state: np.ndarray) -> list:
    """Deformation gradients F and det F at the neo-Hookean quadrature points.

    Returns one (F, J) pair per cached block, F of shape (nc, m, 2, 2); raises
    :class:`NumericalError` when any J <= 0.  This is the Newton feasibility
    guard: it inspects a trial state without assembling anything.
    """
    blocks, _ = _neo_hookean_geometry(mesh)
    d = np.asarray(state).reshape(-1)
    out = []
    for dofs, G, _ in blocks:
        # F_iJ = delta_iJ + sum_n d_ni dphi_nJ
        u = d[dofs].reshape(len(dofs), -1, 2)
        F = np.swapaxes(u, 1, 2)[:, None] @ G + np.eye(2)
        J = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
        if np.any(J <= 0):
            raise NumericalError("element inversion (J <= 0)")
        out.append((F, J))
    return out


def assemble_neo_hookean(mesh: ExtractedMesh, material: MaterialModel,
                         state: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """Internal residual and consistent tangent at displacement ``state``.

    Total Lagrangian plane strain: first Piola stress
    P = lam/2 (J^2-1) F^{-T} + mu (F - F^{-T}) and the matching material
    tangent; raises on element inversion.
    """
    lam, mu = material.lam, material.mu
    blocks, pattern = _neo_hookean_geometry(mesh)
    n = mesh.ndof * 2
    residuals, tangents = [], []
    for (dofs, G, wdet), (F, J) in zip(blocks, deformation_gradients(mesh, state)):
        nc, m, nr, _ = G.shape
        FinvT = np.stack([np.stack([F[..., 1, 1], -F[..., 1, 0]], axis=-1),
                          np.stack([-F[..., 0, 1], F[..., 0, 0]], axis=-1)], axis=-2)
        FinvT /= J[..., None, None]
        J2 = J * J
        P = (0.5 * lam * (J2 - 1.0))[..., None, None] * FinvT + mu * (F - FinvT)
        # r_ni = sum_q wdet dphi_nJ P_iJ
        residuals.append(((G * wdet[..., None, None]) @ np.swapaxes(P, 2, 3))
                         .sum(axis=1).reshape(nc, -1))
        # A_iJkL = lam J^2 FinvT_iJ FinvT_kL
        #        + (mu - lam/2 (J^2-1)) FinvT_iL FinvT_kJ + mu d_ik d_JL,
        # contracted with dphi_nJ dphi_mL; g_ni = dphi_nJ FinvT_iJ
        g = (G @ np.swapaxes(FinvT, 2, 3)).reshape(nc, m, 1, 2 * nr)
        k1 = _wgram(g, g, wdet * lam * J2)
        k2 = _wgram(g, g, wdet * (mu - 0.5 * lam * (J2 - 1.0)))
        Gt = np.swapaxes(G, 2, 3)
        k3 = mu * _wgram(Gt, Gt, wdet)[:, :, None, :, None] * np.eye(2)[:, None, :]
        # k2 holds g_ni g_mk at [(n, i), (m, k)]; the tangent needs g_nk g_mi
        k2 = k2.reshape(nc, nr, 2, nr, 2).transpose(0, 1, 4, 3, 2)
        tangents.append(k1.reshape(nc, nr, 2, nr, 2) + k2 + k3)
    r = _vector([dofs for dofs, _, _ in blocks], residuals, n)
    return r, _csr(pattern, tangents, n)


def newton_load_stepping(mesh: ExtractedMesh, material: MaterialModel,
                         external_load: np.ndarray, constraints,
                         increments: int = 20, tol_factor: float = 1e8,
                         max_iter: int = 25, layout=None) -> np.ndarray:
    """Incremental Newton solve with a dead external load.

    The load is scaled in ``increments`` equal steps; each step iterates
    until the residual drops by ``tol_factor`` (with an absolute floor).
    ``external_load`` lives in the mesh numbering.  On the mortar route,
    ``layout`` is the model: residuals and tangents are reduced to its
    retained dofs with :func:`~bezmortar.coupling.condense` and iterates are
    expanded back through its prolongation.  Constraints are (row, 0.0) pairs
    in the solved numbering.
    """
    if increments < 1:
        raise ValueError("need at least one load increment")
    P = None if layout is None else layout.prolongation_vec(2)
    dred = np.zeros(mesh.ndof * 2 if P is None else P.shape[1])
    expand = (lambda v: v) if P is None else (lambda v: P @ v)
    fixed = sorted({int(r) for r, _ in constraints})
    free = np.setdiff1d(np.arange(dred.size), fixed)
    floor = 1e-12 * (np.linalg.norm(external_load) + 1.0)
    # the assembly at the current iterate; the load is dead, so a converged
    # increment's assembly also starts the next increment
    rint = K = None
    for inc in range(1, increments + 1):
        scale = inc / increments
        fext = scale * external_load
        res0 = None
        for it in range(max_iter + 1):
            if rint is None:
                rint, K = assemble_neo_hookean(mesh, material, expand(dred))
            if layout is not None:
                red = condense(AssembledSystem(K, rint - fext, 2), layout)
                rred, Kred = red.f, red.K
            else:
                rred = rint - fext
                Kred = K
            rnorm = np.linalg.norm(rred[free])
            if res0 is None:
                res0 = rnorm
            if rnorm <= res0 / tol_factor or rnorm <= floor:
                break
            if it == max_iter:
                raise NumericalError(
                    f"Newton did not converge in increment {inc} "
                    f"(residual {rnorm:.3e})"
                )
            sysk = AssembledSystem(Kred.tocsr(), -rred, 2)
            sysk = apply_dirichlet(sysk, [(r, 0.0) for r in fixed])
            step = linear_solve(sysk)
            # feasibility guard: halve the update while it inverts an element
            alpha = 1.0
            for _ in range(12):
                try:
                    deformation_gradients(mesh, expand(dred + alpha * step))
                    break
                except NumericalError:
                    alpha *= 0.5
            else:
                raise NumericalError(
                    f"element inversion in increment {inc} could not be avoided"
                )
            dred = dred + alpha * step
            rint = K = None
    return dred


# --------------------------------------------------------------------------
# fields and errors


@dataclass
class SolutionField:
    """Coefficients over an extracted mesh, evaluable anywhere on any patch."""

    mesh: ExtractedMesh
    values: np.ndarray
    ncomp: int = 1

    def eval(self, patch: int, xi1: float, xi2: float) -> np.ndarray:
        cell = self.mesh.locate(patch, xi1, xi2)
        ev = evaluate_cell(cell, np.array([xi1]), np.array([xi2]), grad=False)
        coeffs = self.values.reshape(-1, self.ncomp)[cell.rows]
        return ev["basis"][0] @ coeffs

    def eval_gradient(self, patch: int, xi1: float, xi2: float) -> np.ndarray:
        cell = self.mesh.locate(patch, xi1, xi2)
        ev = evaluate_cell(cell, np.array([xi1]), np.array([xi2]))
        coeffs = self.values.reshape(-1, self.ncomp)[cell.rows]
        return np.einsum("nd,nc->cd", ev["grad_phys"][0], coeffs)


def l2_error(field: SolutionField, exact, quad_extra: int = 2,
             quantity=None) -> float:
    """Gauss-quadrature L2 distance between a field and an exact function.

    ``exact(x, y)`` returns ncomp values.  ``quantity`` optionally maps
    (values, gradients, x) at the quadrature points to a derived quantity
    (e.g. a stress component) compared against ``exact`` instead.
    """
    total = 0.0
    d = field.values.reshape(-1, field.ncomp)
    for _, rows, ev in cell_blocks(field.mesh, quad_extra):
        coeffs = d[rows]
        vals = (ev["basis"] @ coeffs).reshape(-1, field.ncomp)
        x = ev["x"].reshape(-1, 2)
        if quantity is not None:
            grads = np.einsum("cqnd,cnk->cqkd", ev["grad_phys"], coeffs)
            grads = grads.reshape(len(x), field.ncomp, 2)
            vals = np.array([quantity(vals[q], grads[q], x[q])
                             for q in range(len(x))])[:, None]
            ex = np.array([exact(xy[0], xy[1]) for xy in x])[:, None]
        else:
            ex = np.atleast_2d(np.array([exact(xy[0], xy[1]) for xy in x]))
            if ex.shape[0] != len(x):
                ex = ex.T
        diff = vals - ex
        total += float(np.sum(ev["wdet"].reshape(-1) * np.sum(diff * diff, axis=1)))
    return math.sqrt(total)


def l2_norm(field: SolutionField, quad_extra: int = 2) -> float:
    return l2_error(field, lambda x, y: np.zeros(field.ncomp), quad_extra)
