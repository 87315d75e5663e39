"""Local dual bases built from element extraction and projection weights.

A dual basis is a set of functions biorthogonal to the spline basis of an
interface under the parametric (or, optionally, physical) L2 inner product.
It is stored element-wise: each element carries a small dense operator that
turns Bernstein values into dual-function values, mirroring the extraction
architecture of :mod:`bezmortar.splines`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .splines import (
    BernsteinInterval,
    ElementExtraction,
    KnotVector,
    bernstein_basis,
    bezier_extraction,
    bspline_table,
)

__all__ = [
    "bernstein_gramian",
    "reconstruction_operator",
    "projection_weights",
    "DualElement",
    "DualBasis",
    "dual_extraction",
    "rational_dual",
    "physical_dual",
]


def bernstein_gramian(interval: BernsteinInterval) -> np.ndarray:
    """Gramian int B_i B_j over the interval, from the closed-form moments.

    For the unit interval the entries are
    C(p,i) C(p,j) / (C(2p,i+j) (2p+1)); a general interval scales the whole
    matrix by its length.  The result is symmetric positive definite.
    """
    p = interval.degree
    G = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(p + 1):
            G[i, j] = (
                math.comb(p, i)
                * math.comb(p, j)
                / (math.comb(2 * p, i + j) * (2 * p + 1))
            )
    return G * interval.length


def reconstruction_operator(extraction: ElementExtraction | np.ndarray) -> np.ndarray:
    """Inverse of an element extraction operator.

    Expresses the element Bernstein basis in terms of the restricted spline
    basis; raises if the operator is singular (which would indicate an
    invalid extraction).
    """
    C = extraction.matrix if isinstance(extraction, ElementExtraction) else np.asarray(extraction)
    try:
        R = np.linalg.inv(C)
    except np.linalg.LinAlgError as exc:
        raise ValueError("extraction operator is singular") from exc
    if not np.all(np.isfinite(R)):
        raise ValueError("extraction operator is singular")
    return R


def integrate_basis(kv: KnotVector) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-element and total integrals of every basis function.

    Exact: on an element of length h every Bernstein polynomial integrates
    to h/(p+1), so the element integrals are C^e 1 h/(p+1).
    """
    p = kv.degree
    per_element = []
    total = np.zeros(kv.n)
    for op in bezier_extraction(kv):
        h = op.span[1] - op.span[0]
        ints = op.matrix.sum(axis=1) * (h / (p + 1))
        per_element.append(ints)
        total[op.first : op.first + p + 1] += ints
    return per_element, total


def projection_weights(kv: KnotVector) -> list[np.ndarray]:
    """Per-element projection weights w_i^e = int_e N_i / int N_I.

    For each global function the weights over its supporting elements sum to
    one, and all weights are non-negative.
    """
    per_element, total = integrate_basis(kv)
    return [ints / total[op.first : op.first + kv.degree + 1]
            for ints, op in zip(per_element, bezier_extraction(kv))]


@dataclass(frozen=True)
class DualElement:
    """Element-local dual operator.

    ``matrix`` D turns Bernstein values on the element into the p+1 dual
    function values; ``weights`` are the projection weights that went into
    its construction, and ``first`` indexes the global dual functions.
    """

    element: int
    span: tuple[float, float]
    first: int
    matrix: np.ndarray
    weights: np.ndarray

    @property
    def interval(self) -> BernsteinInterval:
        return BernsteinInterval(self.span[0], self.span[1], self.matrix.shape[0] - 1)

    @property
    def rows(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.matrix.shape[0])


@dataclass(frozen=True)
class DualBasis:
    """Dual basis of an interface spline space, stored element-wise.

    The assembled functions satisfy int dual_I N_J = delta_IJ with respect
    to ``measure``:

    * ``"parametric"`` - plain parametric inner product,
    * ``"rational"`` - duals scaled by the interface weight function W so
      they pair with the rational basis N_J / W (``weight_fn`` maps an
      array of points to W at each),
    * ``"physical"`` - duals scaled by 1/|J| so they pair with N_J under the
      physical arc-length measure.
    """

    space: KnotVector
    elements: tuple[DualElement, ...]
    measure: str = "parametric"
    weight_fn: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian_fn: Callable[[float], float] | None = None

    @property
    def n(self) -> int:
        return self.space.n

    def element_containing(self, xi: float) -> DualElement:
        return self.elements[self.space.element_index(xi)]

    def evaluate(self, xi) -> tuple[int, np.ndarray]:
        """Dual function values at points ``xi`` inside one element.

        Returns (first, values) where values has shape (m, p+1) for array
        input.  All points must lie in the same element.
        """
        pts = np.atleast_1d(np.asarray(xi, dtype=float))
        el = self.element_containing(float(pts[0]))
        B = bernstein_basis(el.interval, pts)
        vals = B @ el.matrix.T
        vals = self._scale(pts, vals)
        return el.first, (vals[0] if np.isscalar(xi) else vals)

    def _scale(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        if self.measure == "rational":
            w = self.weight_fn(pts)
            vals = vals * w[:, None]
        elif self.measure == "physical":
            j = np.array([self.jacobian_fn(x) for x in pts])
            if np.any(j <= 0):
                raise ValueError("degenerate interface Jacobian")
            vals = vals / j[:, None]
        return vals


def dual_extraction(kv: KnotVector) -> DualBasis:
    """Build the biorthogonal dual basis of an interface spline space.

    Each element operator is diag(w^e) (C^e)^-T inv(Gram_B); assembling the
    element contributions makes int dual_I N_J = delta_IJ over the whole
    interface.
    """
    weights = projection_weights(kv)
    elements = []
    for op, w in zip(bezier_extraction(kv), weights):
        R = reconstruction_operator(op)
        G = bernstein_gramian(op.interval)
        D = np.diag(w) @ R.T @ np.linalg.inv(G)
        elements.append(DualElement(op.element, op.span, op.first, D, w))
    return DualBasis(kv, tuple(elements))


def rational_dual(dual: DualBasis, weights: np.ndarray) -> DualBasis:
    """Scale a parametric dual basis by the interface weight function.

    ``weights`` are the NURBS weights of the interface basis; the returned
    duals pair biorthogonally with the rational functions N_J / W.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != dual.space.n:
        raise ValueError("weight count does not match interface basis")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    kv = dual.space

    def weight_fn(xi: np.ndarray) -> np.ndarray:
        index, vals = bspline_table(kv, xi)
        return np.einsum("qj,qj->q", vals, w[index])

    return replace(dual, measure="rational", weight_fn=weight_fn)


def physical_dual(dual: DualBasis, speed_fn: Callable[[float], float]) -> DualBasis:
    """Rescale a dual basis for biorthogonality under the arc-length measure.

    ``speed_fn`` must return the positive arc-length rate |dx/dxi| of the
    interface geometry map.
    """
    return replace(dual, measure="physical", jacobian_fn=speed_fn)
