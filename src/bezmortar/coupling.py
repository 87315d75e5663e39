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

from .dualbasis import DualBasis, dual_extraction
from .linsys import AssembledSystem, NumericalError
from .splines import (
    BoundaryCurve,
    KnotVector,
    gauss_on_breaks,
    rational_table,
    refinement_operator,
)

__all__ = [
    "InterfaceGeometryError",
    "InterfaceSpec",
    "CompositionalMap",
    "build_phi",
    "project_master_knots",
    "refine_dual_space",
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

    def __init__(self, slave_curve: BoundaryCurve, master_curve: BoundaryCurve, reversed: bool):
        self.slave = slave_curve
        self.master = master_curve
        self.reversed = reversed
        s_lo, s_hi = slave_curve.domain
        self._scale = max(float(np.linalg.norm(slave_curve.point(s_hi)
                                               - slave_curve.point(s_lo))), 1e-30)

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

        Each point stops at its first step within 1e-12 of the curve's
        parameter span, within 50 steps; the iterates are clamped to the
        curve's domain.
        """
        lo, hi = curve.domain
        eta = np.clip(eta0, lo, hi)
        todo = np.arange(eta.size)
        for _ in range(50):
            d = curve.derivatives(eta[todo], 2)
            r = d[0] - y[todo]
            g = np.einsum("qc,qc->q", r, d[1])
            tangent = np.einsum("qc,qc->q", d[1], d[1])
            gp = tangent + np.einsum("qc,qc->q", r, d[2])
            step = -g / np.where(gp <= 0.0, tangent, gp)
            eta[todo] = np.clip(eta[todo] + step, lo, hi)
            done = np.abs(step) <= 1e-12 * (hi - lo)
            if done.any():
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


def build_phi(slave_curve: BoundaryCurve, master_curve: BoundaryCurve,
              reversed: bool = False) -> CompositionalMap:
    """Construct and validate the compositional map of an interface."""
    phi = CompositionalMap(slave_curve, master_curve, reversed)
    if phi.endpoint_mismatch() > 1e-10:
        raise InterfaceGeometryError(
            f"interface endpoints do not coincide (mismatch {phi.endpoint_mismatch():.2e})"
        )
    return phi


def project_master_knots(phi: CompositionalMap) -> np.ndarray:
    """Merged quadrature breakpoints in the slave parameter.

    The master interior knots are pulled back through phi and merged with the
    slave breakpoints; points within 1e-10 (relative to the span, at least
    one) of the last kept one are removed to avoid zero-measure segments.
    """
    slave_bp = phi.slave.kv.breakpoints()
    master_bp = phi.master.kv.breakpoints()[1:-1]
    pulled = phi.inverse(master_bp)
    merged = np.sort(np.concatenate([slave_bp, pulled]))
    span = merged[-1] - merged[0]
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > 1e-10 * max(span, 1.0):
            keep.append(x)
    keep[-1] = merged[-1]
    return np.array(keep)


# the deepest dual refinement: each level doubles the refined interface, and
# at this level the two-patch demo model builds in 0.014 s on a 2-core Xeon
MAX_DUAL_REFINE = 10


def refine_dual_space(slave_kv: KnotVector, merged_breakpoints: np.ndarray,
                      level: int) -> tuple[KnotVector, np.ndarray]:
    """Refine the slave interface space ``level`` times.

    Level 0 keeps the original space; level 1 inserts the pulled-back master
    knots; each further level bisects every span.  Returns the refined knot
    vector and the refinement operator T from the slave interface space,
    whose rows are the non-negative Oslo weights.  The global system never
    sees the refined functions as degrees of freedom, so refining does not
    change the problem size.
    """
    if not 0 <= level <= MAX_DUAL_REFINE:
        raise ValueError(f"refinement level must be non-negative and at most {MAX_DUAL_REFINE}")
    coarse = fine = slave_kv.breakpoints()
    if level >= 1:
        fine = np.union1d(coarse, [x for x in merged_breakpoints
                                   if np.min(np.abs(coarse - x)) > 1e-10])
        for _ in range(level - 1):
            fine = np.union1d(fine, 0.5 * (fine[:-1] + fine[1:]))
    return refinement_operator(slave_kv, np.setdiff1d(fine, coarse))


# The coupling's rounding cut in units of eps * A, A the summed magnitude of an
# entry's quadrature terms: a float sum errs by at most gamma_n * A (Higham 2002,
# sec. 4.2), and the terms' own rounding widens that.  On every case model at
# mesh and dual levels 0-2 each raw entry is at most 1,546 eps A (noise; p=1
# mismatched 2:2) or at least 7.6e7 eps A (p=4 mismatched 3:2): 190x and 250x
# from the cut.
_CUT = 3e5


def assemble_coupling(dual: DualBasis, phi: CompositionalMap, segments: np.ndarray) -> np.ndarray:
    """Integrate the coupling matrix G over the quadrature segments.

    ``dual`` pairs with the slave's rational basis: its weight function
    scales the duals (:class:`~bezmortar.dualbasis.DualBasis`).  Each segment
    lies in a single dual element and maps into a single master element, so
    a Gauss rule of max(p_m, p_s)+1 points integrates the matched case
    exactly.  phi, the rational master basis and the duals are evaluated at
    the quadrature points of all segments at once.  Beside each entry the
    sum of its terms' magnitudes A is accumulated, an entry within ``_CUT`` *
    eps * A of zero is cancellation noise and set to zero, and each row is
    divided by the dual's weight.
    """
    master = phi.master
    nq = max(master.kv.degree, dual.space.degree) + 1
    x, wq = gauss_on_breaks(segments, nq)
    cols, Rm, _ = rational_table(master.kv, master.weights, phi(x))
    rows, dv = dual.evaluate(x)
    at = (rows[:, :, None], cols[:, None, :])
    terms = wq[:, None, None] * (dv[:, :, None] * Rm[:, None, :])
    G, A = np.zeros((2, dual.n, master.kv.n))
    np.add.at(G, at, terms)
    np.add.at(A, at, np.abs(terms))
    G[np.abs(G) <= _CUT * np.finfo(float).eps * A] = 0.0
    return G / dual.weights[:, None]


@dataclass
class InterfaceCoupling:
    """All coupling data of one interface, driven from its slave side.

    ``space`` is the refined slave interface knot vector, ``weights`` its
    NURBS weights and ``segments`` the coupling's quadrature breakpoints.
    ``G`` maps master to slave interface coefficients, the matrix used for
    condensation: entry (I, J) is int dual_I(xi) R_J(phi(xi)) d xi / w_I,
    with the dual scaled by the slave weight function, R_J the rational
    master basis and w_I the refined slave weight.  It holds exact zeros
    where :func:`assemble_coupling` cuts rounding noise.
    """

    spec: InterfaceSpec
    phi: CompositionalMap
    space: KnotVector
    weights: np.ndarray
    segments: np.ndarray
    G: np.ndarray

    def row_sum_error(self) -> float:
        return float(np.abs(self.G.sum(axis=1) - 1.0).max())


def build_interface_coupling(spec: InterfaceSpec, slave_curve: BoundaryCurve,
                             master_curve: BoundaryCurve, level: int) -> InterfaceCoupling:
    """Build phi, the refined dual space and the coupling matrix of one interface.

    The quadrature segments are the refined space's breakpoints from level 1
    on and the merged breakpoints (:func:`project_master_knots`) at level 0.
    """
    phi = build_phi(slave_curve, master_curve, spec.reversed)
    merged = project_master_knots(phi)
    space, T = refine_dual_space(slave_curve.kv, merged, level)
    weights = T @ slave_curve.weights
    segments = space.breakpoints() if level else merged
    G = assemble_coupling(dual_extraction(space, weights), phi, segments)
    return InterfaceCoupling(spec, phi, space, weights, segments, G)


def condense(system: AssembledSystem, mesh) -> AssembledSystem:
    """Reduce a system assembled on ``mesh`` to the dofs it is solved for.

    On a mesh that carries a prolongation P (d_mesh = P d_solved, the mortar
    stream) the reduced operator is P^T K P and the load P^T f, which
    reproduces the familiar master-block formulas K^m_cc + G^T K^s_cc G,
    G^T K^s_cd, ... while preserving sparsity.  A mesh without one (the weak
    stream) is solved in its own numbering, and the system is returned as it
    is.  A system of another size than the mesh raises ``ValueError``.
    """
    n = mesh.ndof * system.ncomp
    if system.nrows != n:
        raise ValueError(f"system size {system.nrows} does not match the mesh's {n} rows")
    if mesh.P is None:
        return system
    P = mesh.prolongation_vec(system.ncomp)
    K = (P.T @ system.K @ P).tocsr()
    f = P.T @ system.f
    return AssembledSystem(K, f, system.ncomp)


def assemble_saddle(system: AssembledSystem, model) -> AssembledSystem:
    """Indefinite block system with explicit multiplier rows.

    The multiplier blocks pair each interface's dual functions with the
    master interface basis (the coupling matrix) and with the slave
    interface basis (an identity block, by biorthogonality).  ``system`` is
    assembled on the model's mortar mesh; the multiplier rows are appended
    after its displacement dofs.  Both blocks are scaled by the square root
    of K's largest diagonal entry, so that the multiplier unknowns (the
    multipliers divided by that factor) are on the scale of the
    displacements (Benzi, Golub & Liesen, Acta Numerica 14, 2005, §10):
    unscaled, SuperLU's displacements on the plates differed from the
    condensed ones by up to 5.4e-11 relative, at residuals of 1e-14.
    """
    Bm, Bs = model.multiplier_blocks(system.ncomp)
    B, nl = (Bm - Bs) * np.sqrt(system.K.diagonal().max()), Bm.shape[0]
    K = sp.bmat([[system.K, B.T], [B, sp.csr_matrix((nl, nl))]], format="csr")
    return AssembledSystem(K, np.concatenate([system.f, np.zeros(nl)]), system.ncomp)
