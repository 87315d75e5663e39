"""Local dual bases built from element extraction and projection weights.

A dual basis is a set of functions biorthogonal to the spline basis of an
interface under the parametric L2 inner product; scaled by the weight
function it pairs with the rational basis instead.  It is stored like the
extraction operators of :mod:`bezmortar.splines`: one small dense operator
per element, all stacked, turning Bernstein values into dual-function
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .splines import KnotVector, _bernstein_table, _element_tables, _frozen_copy

__all__ = [
    "bernstein_gramian",
    "reconstruction_operator",
    "projection_weights",
    "DualBasis",
    "dual_extraction",
]


def bernstein_gramian(p: int) -> np.ndarray:
    """Gramian int B_i B_j of the degree-p Bernstein basis over [0, 1].

    Closed-form moments C(p,i) C(p,j) / (C(2p,i+j) (2p+1)); an element of
    length h scales it by h.  The result is symmetric positive definite.
    """
    G = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(p + 1):
            G[i, j] = (
                math.comb(p, i)
                * math.comb(p, j)
                / (math.comb(2 * p, i + j) * (2 * p + 1))
            )
    return G


def reconstruction_operator(C: np.ndarray) -> np.ndarray:
    """Inverse of an element extraction operator, or of a stack of them.

    Expresses the element Bernstein basis in terms of the restricted spline
    basis; raises if an operator is singular (which would indicate an
    invalid extraction).
    """
    try:
        R = np.linalg.inv(C)
    except np.linalg.LinAlgError as exc:
        raise ValueError("extraction operator is singular") from exc
    if not np.all(np.isfinite(R)):
        raise ValueError("extraction operator is singular")
    return R


def projection_weights(kv: KnotVector) -> np.ndarray:
    """Per-element projection weights w_i^e = int_e N_i / int N_I, shape (n_el, p+1).

    Exact: on an element of length h every Bernstein polynomial integrates
    to h/(p+1), so the element integrals are C^e 1 h/(p+1).  For each global
    function the weights over its supporting elements sum to one, and all
    weights are non-negative.
    """
    bp, first, C = _element_tables(kv)
    ints = C.sum(axis=2) * (np.diff(bp) / (kv.degree + 1))[:, None]
    index = first[:, None] + np.arange(kv.degree + 1)
    total = np.bincount(index.reshape(-1), ints.reshape(-1), minlength=kv.n)
    return ints / total[index]


@dataclass(frozen=True)
class DualBasis:
    """Dual basis of a rational interface spline space, as element operators.

    ``matrices[e]`` (p+1, p+1) turns the Bernstein values on element e into
    the values of the duals of its p+1 active spline functions (the
    projection weights of :func:`projection_weights` are built into it).  The
    assembled functions satisfy int dual_I N_J = delta_IJ.  ``weights`` are
    the NURBS weights of ``space``, and the values are multiplied by their
    weight function W, so the duals pair biorthogonally with the rational
    functions N_J / W; unit weights give the parametric dual.
    """

    space: KnotVector
    matrices: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.space.n

    def evaluate(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Dual function values at the points of a 1-D array, in any elements.

        Returns ``index`` and ``values``, both of shape (m, p+1), indexed as
        :meth:`~bezmortar.splines.BoundaryCurve.table` indexes its basis; one
        Bernstein table gives the duals and W = sum_j N_j w_j, the sum that
        ``table`` forms.
        """
        e, B = _bernstein_table(self.space, np.asarray(xi, dtype=float), 0)
        _, first, C = _element_tables(self.space)
        index = first[e][:, None] + np.arange(self.space.degree + 1)
        W = (np.einsum("qb,qjb->qj", B[0], C[e]) * self.weights[index]).sum(axis=1)
        return index, np.einsum("qb,qjb->qj", B[0], self.matrices[e]) * W[:, None]


def dual_extraction(kv: KnotVector, weights: np.ndarray) -> DualBasis:
    """Build the biorthogonal dual basis of a rational interface spline space.

    All element operators at once: diag(w^e) (C^e)^-T inv(Gram) / h_e, with
    Gram the Bernstein Gramian of the unit interval and h_e the element
    length; assembling the element contributions makes
    int dual_I N_J = delta_IJ over the whole interface.  ``weights`` are the
    NURBS weights of ``kv``'s functions; the basis keeps a read-only copy.
    """
    weights = _frozen_copy(weights)
    if weights.shape != (kv.n,):
        raise ValueError("weight count does not match interface basis")
    if not np.all(weights > 0):
        raise ValueError("weights must be strictly positive")
    bp, _, C = _element_tables(kv)
    gram = bernstein_gramian(kv.degree)
    w = projection_weights(kv)[:, :, None]
    RT = np.swapaxes(reconstruction_operator(C), 1, 2)
    return DualBasis(kv, w * (RT @ np.linalg.inv(gram)) / np.diff(bp)[:, None, None], weights)
