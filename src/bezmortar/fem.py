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
from .linsys import AssembledSystem, NumericalError, _prescribed, linear_solve
from .model import Cell, CellGroup, ExtractedMesh
from .splines import (
    SIDES,
    _is_int,
    bernstein_derivatives,
    gauss_on_breaks,
    gauss_rule,
    side_index,
)

__all__ = [
    "MaterialModel",
    "SolutionField",
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
]


@dataclass(frozen=True, kw_only=True)
class MaterialModel:
    """Isotropic material constants with derived Lame parameters."""

    E: float = 1.0
    nu: float = 0.3
    plane_stress: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.E) and self.E > 0):
            raise ValueError("Young's modulus E must be finite and positive")
        # lam stays finite up to nu = 1 in plane stress
        upper = 1.0 if self.plane_stress else 0.5
        if not -1.0 < self.nu < upper:
            raise ValueError(f"Poisson's ratio nu must lie in (-1, {upper:g})")

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
# A cell is the tensor Bernstein basis B of its rectangle, tabled on the unit
# square, times its extraction operators (Borden et al., IJNME 2011): its
# basis is (ophom @ B) / W, with the weight W = (1^T ophom) @ B, and its
# geometry is rational in the homogeneous Bézier control points ``geo``,
# one (x w, y w, w) per Bernstein function, built with the cell.  Every
# value and derivative is then a product of B or its derivatives with
# per-cell columns.  Cells of one degree share B at the reference Gauss
# points, so same-shaped cells take a few batched products; boundary loads
# and point evaluation take cells of a group at their own points, and
# ``evaluate_cell`` is the one-cell case.

# Cells, and points as one-point cells, evaluated together; bounds the
# transient arrays of one batch.
_BLOCK, _POINTS = 128, 4096


def _tensor_tables(p1: int, p2: int, u: np.ndarray, grad: bool):
    """Tensor Bernstein values (..., nb) on the unit square at points ``u``
    (..., 2) and, with ``grad``, their derivatives (2, ..., nb)."""
    D1, D2 = (bernstein_derivatives(p, u[..., k].reshape(-1), int(grad))
              for k, p in enumerate((p1, p2)))
    shape = u.shape[:-1] + (-1,)
    B = (D1[0][:, :, None] * D2[0][:, None, :]).reshape(shape)
    if not grad:
        return B, None
    dB = np.stack([(D1[1][:, :, None] * D2[0][:, None, :]).reshape(shape),
                   (D1[0][:, :, None] * D2[1][:, None, :]).reshape(shape)])
    return B, dB


@lru_cache(maxsize=None)
def _reference_tables(p1: int, p2: int, n1: int, n2: int):
    """Gauss points (m, 2), weights (m,) and Bernstein tables on the unit square."""
    t1, w1 = gauss_rule(n1)
    t2, w2 = gauss_rule(n2)
    t = np.column_stack([np.repeat(t1, n2), np.tile(t2, n1)])
    B, dB = _tensor_tables(p1, p2, t, True)
    tables = (t, np.outer(w1, w2).reshape(-1), B, dB)
    for a in tables:
        a.setflags(write=False)
    return tables


def _rational(B, dB, scale, ophom, geo, grad: bool, jac: bool) -> dict:
    """Rational basis and geometry of a stack of cells from Bernstein tables.

    ``B`` (m, nb) holds tensor Bernstein values at points shared by the cells,
    or (nc, m, nb) at each cell's own points, and ``dB`` (2, m, nb) or
    (2, nc, m, nb) their derivatives on the unit square, which cell c
    stretches by 1 / ``scale[c]`` (nc, 2).  The cells are stacked as
    ``ophom`` (nc, nr, nb) and ``geo`` (nc, nb, 3).  Per Bernstein function,
    ``Cf`` holds the field's homogeneous rows and their sum, the weight W,
    and ``geo`` the geometry's homogeneous Bézier control point
    (x w, y w, w), so every value and derivative is one product of a table
    with these columns.  Derivatives are taken on the unit square: the
    physical gradient does not depend on the stretch, so only ``jac`` and
    ``detJ`` are scaled.  Returns the
    :func:`evaluate_cell` keys with a leading cell axis: ``basis`` and ``x``,
    with ``jac`` also ``jac`` and ``detJ``, with ``grad`` (which needs
    ``jac``) also ``grad_phys``.
    """
    nr = ophom.shape[1]
    op_t = np.swapaxes(ophom, 1, 2)
    Cf = np.concatenate([op_t, op_t @ np.ones((nr, 1))], axis=2)
    V, G = B @ Cf, B @ geo
    W = V[..., nr:]
    basis = V[..., :nr] / W
    x = G[..., :2] / G[..., 2:]
    out = {"basis": basis, "x": x}
    if not jac:
        return out
    dB = dB.reshape((2, -1) + B.shape[-2:])
    dG = np.moveaxis(dB @ geo, 0, -1)
    # J[c, q, k, d] = d x_k / d t_d = (d(x_k w) / d t_d - x_k dw / d t_d) / w
    J = (dG[..., :2, :] - x[..., None] * dG[..., 2:, :]) / G[..., 2:, None]
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    detJ = det * (scale[:, 0] * scale[:, 1])[:, None]
    if not np.all(detJ > 0):
        raise NumericalError("non-positive geometric Jacobian")
    out.update({"detJ": detJ, "jac": J * scale[:, None, None, :]})
    if not grad:
        return out
    dV = dB @ Cf
    dbasis = np.moveaxis((dV[..., :nr] - basis * dV[..., nr:]) / W, 0, -1)
    # d/dx_k = sum_d d/dt_d * dt_d/dx_k, with J^{-1} = adj(J) / det J
    inv = np.stack([np.stack([J[..., 1, 1], -J[..., 0, 1]], axis=-1),
                    np.stack([-J[..., 1, 0], J[..., 0, 0]], axis=-1)], axis=-2)
    inv /= det[..., None, None]
    out["grad_phys"] = dbasis @ inv
    return out


def _group_at(g: CellGroup, sel: np.ndarray, xi: np.ndarray, grad: bool, jac: bool) -> dict:
    """:func:`_rational` of a group's cells ``sel`` at their own points ``xi`` (nsel, m, 2)."""
    lo, h = g.rect[sel, :, 0], g.rect[sel, :, 1] - g.rect[sel, :, 0]
    B, dB = _tensor_tables(*g.degrees, (xi - lo[:, None]) / h[:, None], jac)
    return _rational(B, dB, 1.0 / h, g.ophom[sel], g.geo[sel], grad, jac)


def evaluate_cell(cell: Cell, x1: np.ndarray, x2: np.ndarray, grad: bool = True):
    """Basis, geometry and Jacobians of one cell at parametric points.

    The basis is ``(ophom @ B) / sum(ophom @ B)`` and the point
    ``(B @ geo)[:2] / (B @ geo)[2]``, B the tensor Bernstein basis on the
    cell's ``rect``: the batched kernel of :func:`cell_blocks` on one cell.
    Returns a dict with keys ``basis`` (m, nrows), ``x`` (m, 2) and, when
    ``grad`` is set, ``grad_phys`` (m, nrows, 2), ``detJ`` (m,) and ``jac``.
    """
    (a1, b1), (a2, b2) = cell.rect
    h1, h2 = b1 - a1, b2 - a2
    B, dB = _tensor_tables(*cell.degrees, np.column_stack([(x1 - a1) / h1, (x2 - a2) / h2]), grad)
    ev = _rational(B, dB, np.array([[1.0 / h1, 1.0 / h2]]), cell.ophom[None], cell.geo[None],
                   grad, grad)
    return {k: v[0] for k, v in ev.items()}


def cell_blocks(mesh: ExtractedMesh, quad_extra: int = 1, grad: bool = True):
    """Evaluate every cell at its tensor Gauss rule of order degree + ``quad_extra``.

    The mesh's shape groups (nothing is padded) are evaluated up to
    ``_BLOCK`` cells at a time.  Yields ``(index, rows, ev)`` per block:
    ``index`` their stream positions, ``rows`` (nc, nr) their dof
    ids, and ``ev`` the :func:`evaluate_cell` keys with a leading cell axis
    plus ``xi`` (nc, m, 2), the parametric points, and ``wdet`` (nc, m), the
    quadrature weight times det J.  Without ``grad`` there is no
    ``grad_phys``.
    """
    for g in mesh.groups:
        p1, p2 = g.degrees
        t, w, B, dB = _reference_tables(p1, p2, p1 + quad_extra, p2 + quad_extra)
        for start in range(0, len(g.index), _BLOCK):
            blk = slice(start, start + _BLOCK)
            rect = g.rect[blk]
            lo, h = rect[:, :, 0], rect[:, :, 1] - rect[:, :, 0]
            ev = _rational(B, dB, 1.0 / h, g.ophom[blk], g.geo[blk], grad, True)
            ev["xi"] = lo[:, None, :] + h[:, None, :] * t
            ev["wdet"] = (h[:, 0] * h[:, 1])[:, None] * w * ev["detJ"]
            yield g.index[blk], g.rows[blk], ev


# --------------------------------------------------------------------------
# linear assembly


def _local_dofs(rows: np.ndarray, ncomp: int) -> np.ndarray:
    """(nc, nr*ncomp) global ids of stacked cell rows, component fastest."""
    return (rows[:, :, None] * ncomp + np.arange(ncomp)).reshape(len(rows), -1)


def _pattern(mesh: ExtractedMesh, ncomp: int):
    """CSR pattern of summed local matrices with ``ncomp`` components, cached.

    Returns (dofs, indptr, indices, slot): the groups' (nc, L) dof maps in
    :func:`cell_blocks` order, flattened; index arrays all matrices on the
    mesh share; the CSR slot of each entry of the (nc, L, L) local matrices.
    """
    pattern = mesh._cache.get(("pattern", ncomp))
    if pattern is None:
        n = mesh.ndof * ncomp
        dofs = [_local_dofs(g.rows, ncomp) for g in mesh.groups]
        flat = np.concatenate(dofs, axis=None)
        # the pattern of R^T R, R the cells' dof incidence, with its entries
        # numbered in CSR order and read at every local (row, column) pair
        ptr = np.r_[0, np.cumsum(np.concatenate([np.full(len(d), d.shape[1]) for d in dofs]))]
        R = sp.csr_matrix((np.ones(flat.size), flat, ptr), shape=(ptr.size - 1, n))
        shell = (R.T @ R).tocsr()
        shell.sort_indices()
        shell.data = np.arange(shell.nnz)
        ri = np.concatenate([np.repeat(d, d.shape[1], axis=1) for d in dofs], axis=None)
        cj = np.concatenate([np.tile(d, d.shape[1]) for d in dofs], axis=None)
        slot = np.asarray(shell[ri, cj]).ravel()
        pattern = mesh._cache[("pattern", ncomp)] = (flat, shell.indptr, shell.indices, slot)
        for a in pattern:
            a.setflags(write=False)
    return pattern


def _system(mesh: ExtractedMesh, ncomp: int, local: list, loads: list) -> AssembledSystem:
    """Sum local matrices (nc, L, L) and loads (nc, L), per block in
    :func:`cell_blocks` order, into K and f (zero without ``loads``)."""
    dofs, indptr, indices, slot = _pattern(mesh, ncomp)
    n = mesh.ndof * ncomp
    data = np.bincount(slot, np.concatenate(local, axis=None), minlength=indices.size)
    f = np.bincount(dofs, np.concatenate(loads, axis=None), minlength=n) if loads else np.zeros(n)
    return AssembledSystem(sp.csr_matrix((data, indices, indptr), shape=(n, n)), f)


def _load(basis: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per cell, sum over points q of w[q] basis[q, i] values[q, k], as (nc, nr, ncomp)."""
    return np.einsum("cqi,cq,cqk->cik", basis, w, values)


def _wgram(A: np.ndarray, B: np.ndarray, wdet: np.ndarray) -> np.ndarray:
    """Per cell, sum over points q and axis k of wdet[q] A[q, k, i] B[q, k, j].

    ``A`` (nc, m, K, I) and ``B`` (nc, m, K, J) give (nc, I, J).
    """
    nc, m, k, _ = A.shape
    Aw = (A * wdet[:, :, None, None]).reshape(nc, m * k, -1)
    return np.swapaxes(Aw, 1, 2) @ B.reshape(nc, m * k, -1)


def _side_patch(mesh: ExtractedMesh, patch, side: str):
    """The patch of a (patch, side) spec; a bad patch (a bool too) or side raises ``ValueError``."""
    if not (_is_int(patch) and 0 <= patch < len(mesh.patches)):
        raise ValueError(f"no patch {patch!r}: the mesh has {len(mesh.patches)} patches")
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected one of {', '.join(SIDES)}")
    return mesh.patches[patch]


def _at_points(value, shape: tuple, ncomp: int) -> np.ndarray:
    """A user callable's return at points of ``shape``, as (*shape, ncomp).

    One value per point (an array of ``shape``) gains the component axis; a
    scalar or a constant (ncomp,) vector is broadcast to every point.
    """
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("a user function returned a non-finite value")
    if v.shape == shape:
        v = v[..., None]
    return np.broadcast_to(v, shape + (ncomp,))


def assemble_poisson(mesh: ExtractedMesh, forcing=None) -> AssembledSystem:
    """Stiffness int grad u . grad v and load int f v of the Laplace operator."""
    local, loads = [], []
    for _, _, ev in cell_blocks(mesh):
        G = np.swapaxes(ev["grad_phys"], 2, 3)
        local.append(_wgram(G, G, ev["wdet"]))
        if forcing is not None:
            x = ev["x"]
            fv = _at_points(forcing(x[..., 0], x[..., 1]), x.shape[:-1], 1)
            loads.append(_load(ev["basis"], ev["wdet"], fv))
    return _system(mesh, 1, local, loads)


def _elastic_D(mat: MaterialModel) -> np.ndarray:
    lam, mu = mat.lam, mat.mu
    return np.array(
        [[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]]
    )


def assemble_linear_elasticity(mesh: ExtractedMesh, material: MaterialModel,
                               body_force=None) -> AssembledSystem:
    """Small-strain isotropic elasticity in Voigt form (2 components per dof)."""
    D = _elastic_D(material)
    local, loads = [], []
    for _, _, ev in cell_blocks(mesh):
        dphi = ev["grad_phys"]
        nc, m, nr, _ = dphi.shape
        B = np.zeros((nc, m, 3, 2 * nr))
        B[:, :, 0, 0::2] = dphi[..., 0]
        B[:, :, 1, 1::2] = dphi[..., 1]
        B[:, :, 2, 0::2] = dphi[..., 1]
        B[:, :, 2, 1::2] = dphi[..., 0]
        local.append(_wgram(B, D @ B, ev["wdet"]))
        if body_force is not None:
            x = ev["x"]
            bf = _at_points(body_force(x[..., 0], x[..., 1]), x.shape[:-1], 2)
            loads.append(_load(ev["basis"], ev["wdet"], bf))
    return _system(mesh, 2, local, loads)


def assemble_neumann(mesh: ExtractedMesh, ncomp: int, specs) -> np.ndarray:
    """Load vector of boundary tractions with ``ncomp`` components per mesh dof.

    Each spec is (patch, side, span_or_None, traction) where traction is a
    callable (x, normal) -> ncomp values, called once per shape group of the
    cells on the side with (..., 2) arrays of all their quadrature points and
    outward normals; ``span`` restricts the load to a sub-interval of the
    side parameter (intervals are clipped so the quadrature never crosses
    the load boundary, and cells left shorter than 1e-14 are skipped).  A
    cell on the side is evaluated as a 2D cell at Gauss points of order
    degree + 2 along its edge.
    """
    dofs, loads = [], []
    for patch, side, span, traction in specs:
        kvs = _side_patch(mesh, patch, side).kvs
        if span is not None and not span[0] < span[1]:
            raise ValueError(f"load span {tuple(span)} must be an increasing interval")
        axis, at_end = SIDES[side]
        along = 1 - axis
        edge = kvs[axis].domain[1 if at_end else 0]
        for g in mesh.groups:
            on = np.flatnonzero((g.patch == patch)
                                & (np.abs(g.rect[:, axis, int(at_end)] - edge) <= 1e-12))
            a, b = g.rect[on, along].T
            if span is not None:
                a, b = np.maximum(a, span[0]), np.minimum(b, span[1])
            keep = np.flatnonzero(b - a > 1e-14)
            if keep.size == 0:
                continue
            sel, a, b = on[keep], a[keep, None], b[keep, None]
            pts, wts = gauss_rule(g.degrees[along] + 2)
            # on the cells' edge, at the clipped Gauss points
            xi = np.empty((sel.size, pts.size, 2))
            xi[..., axis] = g.rect[sel, axis, int(at_end), None]
            xi[..., along] = a + (b - a) * pts
            ev = _group_at(g, sel, xi, False, True)
            tangent = ev["jac"][..., along]
            speed = np.linalg.norm(tangent, axis=-1)
            # outward normal: ccw (-b, a) of the tangent (a, b) on the west and
            # north sides, cw (b, -a) on the east and south sides
            sign = 1.0 if at_end == (axis == 1) else -1.0
            normal = sign * np.stack([-tangent[..., 1], tangent[..., 0]], -1) / speed[..., None]
            x = ev["x"]
            t = _at_points(traction(x, normal), x.shape[:-1], ncomp)
            wlen = (b - a) * wts * speed
            dofs.append(_local_dofs(g.rows[sel], ncomp).ravel())
            loads.append(_load(ev["basis"], wlen, t).ravel())
    n = mesh.ndof * ncomp
    if not dofs:
        return np.zeros(n)
    return np.bincount(np.concatenate(dofs), np.concatenate(loads), minlength=n)


# --------------------------------------------------------------------------
# Dirichlet data


def boundary_projection(patch, side: str, fn) -> np.ndarray:
    """L2 projection of boundary data onto one side's spline space.

    Corner coefficients are set by interpolation (the basis is interpolatory
    at open-knot endpoints) and the interior coefficients solve the
    constrained L2 projection under the physical arc-length measure, so
    adjacent sides agree at shared corners.  The curve's basis, points and
    tangents come from one table, at the Gauss points and both corners
    together.  The side's mass matrix and load are solved by
    :func:`linear_solve` with the two corner values as its constraints.
    """
    curve = patch.boundary(side)
    kv = curve.kv
    n = kv.n
    xs, ws = gauss_on_breaks(kv.breakpoints(), kv.degree + 2)
    cols, R, (x, dx) = curve.table(np.append(xs, kv.domain), 1)  # Gauss points, then corners
    cols, R = cols[:-2], R[:-2]
    c = ws * np.linalg.norm(dx[:-2], axis=1)
    f = _at_points(fn(x[:, 0], x[:, 1]), (len(x),), 1)[:, 0]
    # the interior functions scaled to unit L2 norm: the solved block's unit
    # diagonal is within a factor n of its best-conditioned diagonal scaling
    # (van der Sluis, Numer. Math. 1969), which LU, unlike Cholesky (Higham
    # 2002, §10.1), does not find by itself; the corner functions keep theirs
    norm = np.sqrt(np.bincount(cols.ravel(), (c[:, None] * R * R).ravel(), minlength=n))
    norm[[0, -1]] = 1.0
    R = R / norm[cols]
    cR = c[:, None] * R
    # every pair of a point's functions; the CSR conversion sums them
    i, j = np.broadcast_arrays(cols[:, :, None], cols[:, None, :])
    M = sp.csr_matrix(((cR[:, :, None] * R[:, None, :]).ravel(), (i.ravel(), j.ravel())),
                      shape=(n, n))
    load = np.bincount(cols.ravel(), (f[:-2, None] * cR).ravel(), minlength=n)
    return linear_solve(AssembledSystem(M, load), [(0, f[-2]), (n - 1, f[-1])]) / norm


def dirichlet_rows(mesh: ExtractedMesh, ncomp: int, specs) -> list[tuple[int, float]]:
    """Translate per-side Dirichlet specs into (row, value) pairs.

    Specs are (patch, side, comp, fn) with integer patch and comp; rows are in
    the solved numbering of ``mesh.grids``.  Dofs replaced by interface traces
    are skipped: slave interface dofs never carry Dirichlet data directly.
    """
    out = []
    for patch, side, comp, fn in specs:
        p = _side_patch(mesh, patch, side)
        if not (_is_int(comp) and 0 <= comp < ncomp):
            raise ValueError(f"component {comp!r} out of range for {ncomp} components")
        vals = boundary_projection(p, side, fn if callable(fn) else (lambda x, y: fn))
        for dof, val in zip(mesh.grids[patch][side_index(side)], vals):
            if dof >= 0:
                out.append((int(dof) * ncomp + comp, float(val)))
    return out


# --------------------------------------------------------------------------
# neo-Hookean

def _neo_hookean_geometry(mesh: ExtractedMesh) -> list:
    """Quadrature geometry of the neo-Hookean kernel, memoised.

    Newton iterations reassemble the same mesh at new states, so the
    state-independent part is built once and kept in the mesh cache: per
    block ``grad_phys``, ``wdet`` and the tangent's geometric term
    int dphi_n . dphi_m d_ik (per unit shear modulus, shaped (nc, nr, 2, nr, 2)).
    """
    if "neo-hookean" not in mesh._cache:
        blocks = []
        for _, _, ev in cell_blocks(mesh):
            Gt = np.swapaxes(ev["grad_phys"], 2, 3)
            k3 = _wgram(Gt, Gt, ev["wdet"])[:, :, None, :, None] * np.eye(2)[:, None, :]
            blocks.append((ev["grad_phys"], ev["wdet"], k3))
        mesh._cache["neo-hookean"] = blocks
    return mesh._cache["neo-hookean"]


def deformation_gradients(mesh: ExtractedMesh, state: np.ndarray) -> list:
    """Deformation gradients F and det F at the neo-Hookean quadrature points.

    Returns one (F, J) pair per cached block, F of shape (nc, m, 2, 2); raises
    :class:`NumericalError` when any J <= 0, before any stress is formed, and
    ``ValueError`` when ``state`` is not two values per mesh dof.
    """
    d = np.asarray(state).reshape(-1)
    if d.size != mesh.ndof * 2:
        raise ValueError(f"state has {d.size} values, the mesh {mesh.ndof * 2} displacement dofs")
    u, out, end = d[_pattern(mesh, 2)[0]], [], 0
    for G, _, _ in _neo_hookean_geometry(mesh):
        # the block's (nc, nr, 2) displacements; F_iJ = delta_iJ + sum_n d_ni dphi_nJ
        start, end = end, end + G.size // G.shape[1]
        F = np.swapaxes(u[start:end].reshape(len(G), -1, 2), 1, 2)[:, None] @ G + np.eye(2)
        J = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
        if not np.all(J > 0):
            raise NumericalError("element inversion (J <= 0)")
        out.append((F, J))
    return out


def assemble_neo_hookean(mesh: ExtractedMesh, material: MaterialModel,
                         state: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """Internal residual and consistent tangent at displacement ``state``.

    Total Lagrangian plane strain: first Piola stress
    P = lam/2 (J^2-1) F^{-T} + mu (F - F^{-T}) and the matching material
    tangent; raises on element inversion, and ``ValueError`` on a
    plane-stress material, whose lam the plane-strain energy cannot use.
    """
    if material.plane_stress:
        raise ValueError("the neo-Hookean energy is plane strain; got a plane-stress material")
    lam, mu = material.lam, material.mu
    blocks = _neo_hookean_geometry(mesh)
    residuals, tangents = [], []
    for (G, wdet, k3), (F, J) in zip(blocks, deformation_gradients(mesh, state)):
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
        # k2 holds g_ni g_mk at [(n, i), (m, k)]; the tangent needs g_nk g_mi
        k2 = k2.reshape(nc, nr, 2, nr, 2).transpose(0, 1, 4, 3, 2)
        tangents.append(k1.reshape(nc, nr, 2, nr, 2) + k2 + mu * k3)
    system = _system(mesh, 2, tangents, residuals)
    return system.f, system.K


# Newton steps allowed per load increment before the solve fails
_NEWTON_STEPS = 25


def newton_load_stepping(mesh: ExtractedMesh, material: MaterialModel,
                         external_load: np.ndarray, constraints,
                         increments: int = 20, tol_factor: float = 1e8) -> np.ndarray:
    """Incremental Newton solve with a dead external load; returns the solved dofs.

    The load is scaled in ``increments`` equal steps; each step iterates
    until the residual drops by ``tol_factor`` (with an absolute floor), in
    at most ``_NEWTON_STEPS`` steps.
    ``external_load`` lives in the mesh numbering.  Residuals and tangents are
    reduced to the solved dofs with :func:`~bezmortar.coupling.condense` and
    iterates are expanded back with :meth:`ExtractedMesh.expand` (both act
    only on a mesh with a prolongation, the mortar stream).  Constraints are
    (row, value) pairs in the solved numbering, checked once before any step
    by the rule of :func:`~bezmortar.linsys.linear_solve`; the iterates start
    at zero and every step holds the constrained rows, so a nonzero value
    raises ``ValueError`` too.

    The feasibility guard halves an update while the assembly at the trial
    state raises on an inverted element; the assembly that succeeds is the
    next iteration's residual and tangent.
    """
    if increments < 1:
        raise ValueError("need at least one load increment")
    # a factor <= 1 would accept the unsolved state of every increment
    if not (math.isfinite(tol_factor) and tol_factor > 1):
        raise ValueError("tol_factor must be finite and greater than 1")
    dred = np.zeros(2 * (mesh.ndof if mesh.P is None else mesh.P.shape[1]))
    prescribed = _prescribed(constraints, dred.size)
    held = [r for r, v in prescribed.items() if v != 0]
    if held:
        raise ValueError(f"Newton holds constrained rows at zero; row {held[0]} has a nonzero value")
    free = np.setdiff1d(np.arange(dred.size), list(prescribed))
    floor = 1e-12 * (np.linalg.norm(external_load) + 1.0)
    # the load is dead, so the assembly at the current iterate serves every
    # increment until the iterate moves
    rint, K = assemble_neo_hookean(mesh, material, mesh.expand(dred))
    for inc in range(1, increments + 1):
        scale = inc / increments
        fext = scale * external_load
        res0 = None
        for it in range(_NEWTON_STEPS + 1):
            red = condense(AssembledSystem(K, rint - fext), mesh)
            rred, Kred = red.f, red.K
            rnorm = np.linalg.norm(rred[free])
            if res0 is None:
                res0 = rnorm
            if rnorm <= res0 / tol_factor or rnorm <= floor:
                break
            if it == _NEWTON_STEPS:
                raise NumericalError(
                    f"Newton did not converge in increment {inc} "
                    f"(residual {rnorm:.3e})"
                )
            step = linear_solve(AssembledSystem(Kred, -rred), prescribed.items())
            alpha = 1.0
            for _ in range(12):
                trial = dred + alpha * step
                try:
                    rint, K = assemble_neo_hookean(mesh, material, mesh.expand(trial))
                    break
                except NumericalError:
                    alpha *= 0.5
            else:
                raise NumericalError(
                    f"element inversion in increment {inc} could not be avoided"
                )
            dred = trial
    return dred


# --------------------------------------------------------------------------
# fields and errors


@dataclass
class SolutionField:
    """Coefficients over an extracted mesh, evaluable anywhere on any patch."""

    mesh: ExtractedMesh
    values: np.ndarray
    ncomp: int = 1

    def __post_init__(self):
        if np.size(self.values) != self.mesh.ndof * self.ncomp:
            raise ValueError(f"field has {np.size(self.values)} values, the mesh "
                             f"{self.mesh.ndof} dofs of {self.ncomp} components")

    def evaluate(self, patch, xi1, xi2, grad: bool = False):
        """Values (n, ncomp) at n parametric points of ``patch`` (one index or
        n); with ``grad`` the pair of values and physical gradients (n, ncomp, 2).

        Points are evaluated as one-point cells of the cells that
        :meth:`ExtractedMesh.cell_index` finds, per shape group in batches of
        ``_POINTS``; the ``ValueError``s of ``cell_index`` reject bad points.
        """
        xi1, xi2 = np.atleast_1d(np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float))
        patch = np.full(xi1.shape, patch) if np.ndim(patch) == 0 else np.asarray(patch)
        k = self.mesh.cell_index(patch, xi1, xi2)
        xi, d = np.column_stack([xi1, xi2])[:, None], self.values.reshape(-1, self.ncomp)
        vals, grads = np.empty((k.size, self.ncomp)), np.empty((k.size, self.ncomp, 2))
        for g in self.mesh.groups:
            pos = np.minimum(np.searchsorted(g.index, k), len(g.index) - 1)
            hit = np.flatnonzero(g.index[pos] == k)
            for at in (hit[s : s + _POINTS] for s in range(0, hit.size, _POINTS)):
                ev = _group_at(g, pos[at], xi[at], grad, grad)
                coeffs = d[g.rows[pos[at]]]
                vals[at] = np.einsum("cqn,cnk->ck", ev["basis"], coeffs)
                if grad:
                    grads[at] = np.einsum("cqnd,cnk->ckd", ev["grad_phys"], coeffs)
        return (vals, grads) if grad else vals


def l2_error(field: SolutionField, exact, quad_extra: int = 2,
             quantity=None) -> float:
    """Gauss-quadrature L2 distance between a field and an exact function.

    ``exact(x, y)`` takes the coordinate arrays of a block of quadrature
    points and returns ncomp values per point.  ``quantity`` optionally maps
    (values (..., ncomp), gradients (..., ncomp, 2), x (..., 2)) at the
    points to one derived value per point (e.g. a stress component),
    compared against ``exact`` instead.
    """
    total = 0.0
    d = field.values.reshape(-1, field.ncomp)
    for _, rows, ev in cell_blocks(field.mesh, quad_extra, grad=quantity is not None):
        coeffs = d[rows]
        vals = ev["basis"] @ coeffs
        x = ev["x"]
        shape = x.shape[:-1]
        if quantity is not None:
            grads = np.einsum("cqnd,cnk->cqkd", ev["grad_phys"], coeffs)
            vals = _at_points(quantity(vals, grads, x), shape, 1)
        diff = vals - _at_points(exact(x[..., 0], x[..., 1]), shape, vals.shape[-1])
        total += float(np.sum(ev["wdet"] * np.sum(diff * diff, axis=-1)))
    return math.sqrt(total)

