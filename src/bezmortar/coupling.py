"""Interface machinery: compositional maps, coupling matrices, dual refinement.

The slave side of an interface drives everything: quadrature segments live in
the slave parameter, the dual basis is built on the (possibly refined) slave
interface space, and the coupling matrix maps master interface coefficients
to slave interface coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dualbasis import DualBasis, dual_extraction, rational_dual
from .linsys import AssembledSystem, NumericalError
from .splines import (
    BoundaryCurve,
    KnotVector,
    bspline_table,
    gauss_on_breaks,
    refinement_operator,
)

__all__ = [
    "InterfaceGeometryError",
    "InterfaceSpec",
    "CompositionalMap",
    "build_phi",
    "project_master_knots",
    "RefinedDualSpace",
    "refine_dual_space",
    "CouplingMatrix",
    "assemble_coupling",
    "InterfaceCoupling",
    "build_interface_coupling",
    "condense",
    "assemble_saddle",
]


class InterfaceGeometryError(NumericalError):
    """Interface curves do not coincide within the Newton tolerance."""


@dataclass(frozen=True)
class InterfaceSpec:
    """Pairing of a master patch side with a slave patch side.

    ``reversed`` marks interfaces whose boundary parameters run in opposite
    directions along the shared curve.
    """

    master: tuple[int, str]
    slave: tuple[int, str]
    reversed: bool = False


class CompositionalMap:
    """Slave-to-master reparameterization along a shared interface curve.

    phi(xi) returns the master boundary parameter whose image coincides with
    the slave boundary point x_s(xi); it is computed with a Newton iteration
    on the closest-point condition.  ``inverse`` maps master parameters back
    into the slave parameter.
    """

    def __init__(self, slave_curve: BoundaryCurve, master_curve: BoundaryCurve,
                 reversed: bool = False, tol: float = 1e-12, maxiter: int = 50):
        self.slave = slave_curve
        self.master = master_curve
        self.reversed = reversed
        self.tol = tol
        self.maxiter = maxiter
        s_lo, s_hi = slave_curve.domain
        self._chord = float(np.linalg.norm(slave_curve.point(s_hi) - slave_curve.point(s_lo)))
        self._scale = max(self._chord, 1e-30)

    def endpoint_mismatch(self) -> float:
        s_lo, s_hi = self.slave.domain
        m_lo, m_hi = self.master.domain
        if self.reversed:
            m_lo, m_hi = m_hi, m_lo
        a = np.linalg.norm(self.slave.point(s_lo) - self.master.point(m_lo))
        b = np.linalg.norm(self.slave.point(s_hi) - self.master.point(m_hi))
        return float(max(a, b)) / self._scale

    def _project(self, curve: BoundaryCurve, y: np.ndarray, eta0: np.ndarray) -> np.ndarray:
        """Closest-point Newton iteration for all points ``y`` (m, 2) at once.

        Each point stops at its first step within ``tol`` of the curve's
        parameter span; the iterates are clamped to the curve's domain.
        """
        lo, hi = curve.domain
        eta = np.clip(eta0, lo, hi)
        todo = np.arange(eta.size)
        for _ in range(self.maxiter):
            d = curve.derivatives(eta[todo], 2)
            r = d[0] - y[todo]
            g = np.einsum("qc,qc->q", r, d[1])
            tangent = np.einsum("qc,qc->q", d[1], d[1])
            gp = tangent + np.einsum("qc,qc->q", r, d[2])
            step = -g / np.where(gp <= 0.0, tangent, gp)
            eta[todo] = np.clip(eta[todo] + step, lo, hi)
            done = np.abs(step) <= self.tol * (hi - lo)
            stop = todo[done]
            gap = np.linalg.norm(curve.point(eta[stop]) - y[stop], axis=-1)
            if np.any(gap > 1e-8 * self._scale):
                raise InterfaceGeometryError(
                    "interface curves do not coincide at the projected point"
                )
            todo = todo[~done]
            if not todo.size:
                return eta
        raise InterfaceGeometryError("Newton projection did not converge")

    def _map(self, xi, source: BoundaryCurve, target: BoundaryCurve):
        x = np.asarray(xi, dtype=float)
        flat = x.reshape(-1)
        s_lo, s_hi = source.domain
        t_lo, t_hi = target.domain
        s = (flat - s_lo) / (s_hi - s_lo)
        if self.reversed:
            s = 1.0 - s
        eta = self._project(target, source.point(flat), t_lo + s * (t_hi - t_lo))
        return float(eta[0]) if x.ndim == 0 else eta.reshape(x.shape)

    def __call__(self, xi):
        """Master parameters of slave parameters: a float for a scalar, else an array."""
        return self._map(xi, self.slave, self.master)

    def inverse(self, eta):
        """Slave parameters of master parameters: a float for a scalar, else an array."""
        return self._map(eta, self.master, self.slave)

    def is_affine(self, tol: float = 1e-10) -> bool:
        """True when the reparameterization is linear (matched case)."""
        s_lo, s_hi = self.slave.domain
        t = np.array([0.25, 0.5, 0.75])
        eta = self(np.concatenate([[s_lo, s_hi], s_lo + t * (s_hi - s_lo)]))
        a, b = eta[0], eta[1]
        return not np.any(np.abs(eta[2:] - (a + t * (b - a))) > tol * max(abs(b - a), 1.0))


def build_phi(slave_curve: BoundaryCurve, master_curve: BoundaryCurve,
              reversed: bool = False, tol: float = 1e-12, maxiter: int = 50) -> CompositionalMap:
    """Construct and validate the compositional map of an interface."""
    phi = CompositionalMap(slave_curve, master_curve, reversed, tol, maxiter)
    if phi.endpoint_mismatch() > 1e-10:
        raise InterfaceGeometryError(
            f"interface endpoints do not coincide (mismatch {phi.endpoint_mismatch():.2e})"
        )
    return phi


def project_master_knots(phi: CompositionalMap, dedupe_tol: float = 1e-10) -> np.ndarray:
    """Merged quadrature breakpoints in the slave parameter.

    The master interior knots are pulled back through phi and merged with the
    slave breakpoints; near-duplicates are removed to avoid zero-measure
    segments.
    """
    slave_bp = phi.slave.kv.breakpoints()
    master_bp = phi.master.kv.breakpoints()[1:-1]
    pulled = phi.inverse(master_bp)
    merged = np.sort(np.concatenate([slave_bp, pulled]))
    span = merged[-1] - merged[0]
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > dedupe_tol * max(span, 1.0):
            keep.append(x)
    keep[-1] = merged[-1]
    return np.array(keep)


@dataclass(frozen=True)
class RefinedDualSpace:
    """Refined slave interface space with quadrature subdivision data.

    Level 0 keeps the original space; level 1 inserts the pulled-back master
    knots; each further level bisects every span.  ``refine_op`` maps
    original interface coefficients to refined ones.  ``segments`` are the
    quadrature breakpoints for coupling integrals, and :meth:`cells_in`
    yields the subdivision cells of one original slave element (empty at
    level 0, where no new continuity lines exist).
    """

    base: KnotVector
    refined: KnotVector
    level: int
    refine_op: np.ndarray
    segments: np.ndarray

    @property
    def n(self) -> int:
        return self.refined.n

    def cells_in(self, span: tuple[float, float]) -> list[tuple[float, float]]:
        """Subdivision cells tiling one original slave element."""
        if self.level == 0:
            return []
        a, b = span
        inner = [x for x in self.refined.breakpoints() if a < x < b]
        pts = [a] + inner + [b]
        return list(zip(pts[:-1], pts[1:]))


def refine_dual_space(slave_kv: KnotVector, merged_breakpoints: np.ndarray,
                      level: int) -> RefinedDualSpace:
    """Refine the slave interface space ``level`` times.

    The first refinement adds the projected master knots; subsequent ones
    bisect uniformly.  The global system never sees the refined functions as
    degrees of freedom, so refining does not change the problem size.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    refined = slave_kv
    if level >= 1:
        existing = refined.breakpoints()
        new = [x for x in merged_breakpoints
               if np.min(np.abs(existing - x)) > 1e-10]
        refined = refined.refined_with(new)
        for _ in range(level - 1):
            refined = refined.bisected()
    _, T = refinement_operator(slave_kv, _missing_knots(slave_kv, refined))
    segments = refined.breakpoints() if level >= 1 else np.asarray(merged_breakpoints)
    return RefinedDualSpace(slave_kv, refined, level, T, segments)


def _missing_knots(coarse: KnotVector, fine: KnotVector) -> list[float]:
    out = []
    cv = list(coarse.values)
    for x in fine.values:
        if cv and np.isclose(cv[0], x, atol=1e-14):
            cv.pop(0)
        else:
            out.append(float(x))
    return out


@dataclass
class CouplingMatrix:
    """Coupling between slave interface functions and master interface functions.

    ``values`` holds int dual_I(xi) ratmaster_J(phi(xi)) d xi (the dual is
    rational-scaled on rational interfaces, and the master basis is divided
    by its weight function); ``std`` is the same map expressed on standard
    weighted NURBS coefficients, which is the matrix used for condensation
    (for unit edge weights the two coincide).  Rows follow the (refined)
    slave interface functions, columns the master interface functions.
    """

    values: np.ndarray
    std: np.ndarray
    refine_level: int
    matched: bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def row_sum_error(self) -> float:
        return float(np.abs(self.std.sum(axis=1) - 1.0).max())


def assemble_coupling(dual: DualBasis, master_kv: KnotVector, phi: CompositionalMap,
                      segments: np.ndarray, slave_weights: np.ndarray | None = None,
                      master_weights: np.ndarray | None = None,
                      refine_level: int = 0) -> CouplingMatrix:
    """Integrate the coupling matrix over the merged segments.

    Each merged segment lies in a single dual element and maps into a single
    master element, so a Gauss rule of max(p_m, p_s)+1 points integrates the
    matched case exactly.  phi and the master basis are evaluated at the
    quadrature points of all segments at once.
    """
    p_s = dual.space.degree
    p_m = master_kv.degree
    nq = max(p_m, p_s) + 1
    x, wq = gauss_on_breaks(segments, nq)
    cols, Nm = bspline_table(master_kv, phi(x))
    wm = None if master_weights is None else np.asarray(master_weights, dtype=float)
    if wm is not None:
        Nm = Nm / np.einsum("qj,qj->q", Nm, wm[cols])[:, None]
    rows = np.empty((x.size, p_s + 1), dtype=int)
    dv = np.empty((x.size, p_s + 1))
    for q in range(0, x.size, nq):
        first_s, dv[q : q + nq] = dual.evaluate(x[q : q + nq])
        rows[q : q + nq] = first_s + np.arange(p_s + 1)
    G = np.zeros((dual.n, master_kv.n))
    np.add.at(G, (rows[:, :, None], cols[:, None, :]),
              wq[:, None, None] * (dv[:, :, None] * Nm[:, None, :]))
    std = G.copy()
    if slave_weights is not None:
        std /= np.asarray(slave_weights, dtype=float)[:, None]
    if wm is not None:
        std *= wm[None, :]
    return CouplingMatrix(G, std, refine_level, phi.is_affine())


@dataclass
class InterfaceCoupling:
    """All coupling data of one interface, driven from its slave side."""

    spec: InterfaceSpec
    phi: CompositionalMap
    merged: np.ndarray
    refined: RefinedDualSpace
    dual: DualBasis
    coupling: CouplingMatrix
    slave_edge_weights: np.ndarray
    refined_edge_weights: np.ndarray
    master_edge_weights: np.ndarray


def build_interface_coupling(spec: InterfaceSpec, slave_curve: BoundaryCurve,
                             master_curve: BoundaryCurve, level: int) -> InterfaceCoupling:
    """Build phi, the refined dual space and the coupling matrix of one interface."""
    phi = build_phi(slave_curve, master_curve, spec.reversed)
    merged = project_master_knots(phi)
    refined = refine_dual_space(slave_curve.kv, merged, level)
    w_slave = slave_curve.weights
    w_refined = refined.refine_op @ w_slave
    w_master = master_curve.weights
    dual = dual_extraction(refined.refined)
    rational = not (np.allclose(w_refined, 1.0) and np.allclose(w_master, 1.0))
    if rational:
        dual = rational_dual(dual, w_refined)
    coupling = assemble_coupling(
        dual,
        master_curve.kv,
        phi,
        refined.segments,
        slave_weights=w_refined if rational else None,
        master_weights=w_master if rational else None,
        refine_level=level,
    )
    return InterfaceCoupling(
        spec, phi, merged, refined, dual, coupling,
        w_slave, w_refined, w_master,
    )


def condense(system: AssembledSystem, layout) -> AssembledSystem:
    """Eliminate slave interface (and multiplier) dofs from a full system.

    ``layout`` provides the scalar prolongation operator P with
    d_full = P d_retained; the condensed operator is P^T K P and the load
    P^T f, which reproduces the familiar master-block formulas
    K^m_cc + G^T K^s_cc G, G^T K^s_cd, ... while preserving sparsity.
    """
    P = layout.prolongation_vec(system.ncomp)
    if P.shape[0] != system.nrows:
        raise ValueError("system size does not match layout")
    K = (P.T @ system.K @ P).tocsr()
    f = P.T @ system.f
    # retained dofs keep their row ids, so existing constraints carry over;
    # slave interface dofs are dependent and must never be constrained
    if any(row >= K.shape[0] for row in system.constraints):
        raise ValueError("Dirichlet constraint on an eliminated interface dof")
    return AssembledSystem(K, f, system.ncomp, dict(system.constraints))


def assemble_saddle(system: AssembledSystem, layout) -> tuple[AssembledSystem, int]:
    """Indefinite block system with explicit multiplier rows.

    The multiplier blocks pair each interface's dual functions with the
    master interface basis (the coupling matrix) and with the slave
    interface basis (an identity block, by biorthogonality).  Returns the
    system together with the number of multiplier rows appended after the
    displacement dofs.
    """
    ncomp = system.ncomp
    Bm, Bs = layout.multiplier_blocks(ncomp)
    nl = Bm.shape[0]
    n = system.nrows
    Z = sp.csr_matrix((nl, nl))
    K = sp.bmat(
        [
            [system.K, (Bm - Bs).T],
            [Bm - Bs, Z],
        ],
        format="csr",
    )
    f = np.concatenate([system.f, np.zeros(nl)])
    sys2 = AssembledSystem(K, f, ncomp, dict(system.constraints))
    return sys2, nl
