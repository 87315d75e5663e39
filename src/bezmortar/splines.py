"""Univariate Bernstein/B-spline/NURBS machinery and tensor-product patches.

Everything in this module is exact spline algebra: basis evaluation,
interval transformations, knot insertion, element extraction operators and
rational geometry evaluation.  All objects are immutable after construction
and every function is pure, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "OutOfDomainError",
    "BernsteinInterval",
    "KnotVector",
    "ElementExtraction",
    "bernstein_basis",
    "bernstein_derivatives",
    "bernstein_transform",
    "bspline_basis",
    "bspline_derivatives",
    "bspline_table",
    "rational_table",
    "knot_insert",
    "refinement_operator",
    "bezier_extraction",
    "greville_abscissae",
    "uniform_open_knots",
    "gauss_rule",
    "gauss_on_breaks",
    "BoundaryCurve",
    "SIDES",
    "side_index",
    "Patch2D",
]


class OutOfDomainError(ValueError):
    """Raised when an evaluation point lies outside the parametric domain."""


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (x + 1.0)
    pts.setflags(write=False)
    wts = 0.5 * w
    wts.setflags(write=False)
    return pts, wts


def gauss_on(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped onto [lo, hi]."""
    pts, wts = gauss_rule(n)
    return lo + (hi - lo) * pts, (hi - lo) * wts


def gauss_on_breaks(breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on every interval between consecutive breakpoints.

    Points and weights are flattened interval by interval, ``n`` per interval.
    """
    b = np.asarray(breaks, dtype=float)
    pts, wts = gauss_rule(n)
    h = (b[1:] - b[:-1])[:, None]
    return (b[:-1, None] + h * pts).reshape(-1), (h * wts).reshape(-1)


@dataclass(frozen=True)
class BernsteinInterval:
    """Bernstein polynomial space of a given degree on the interval [lo, hi]."""

    lo: float
    hi: float
    degree: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def bernstein_basis(interval: BernsteinInterval, xi) -> np.ndarray:
    """Evaluate all degree-p Bernstein polynomials on ``interval``.

    Parameters
    ----------
    interval : BernsteinInterval
    xi : float or array of shape (m,)
        Evaluation points inside the interval.

    Returns
    -------
    ndarray of shape (p+1,) for scalar input, (m, p+1) otherwise.
    The values are non-negative and sum to one at every point.
    """
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if x.min() < interval.lo - 1e-12 or x.max() > interval.hi + 1e-12:
        raise OutOfDomainError(
            f"point outside [{interval.lo}, {interval.hi}]"
        )
    vals = _bernstein_unit(interval.degree, (x - interval.lo) / interval.length)
    return vals[0] if scalar else vals


def _bernstein_unit(p: int, t: np.ndarray) -> np.ndarray:
    """Bernstein values on [0, 1] for points ``t``; shape (m, p+1)."""
    m = t.shape[0]
    out = np.empty((m, p + 1))
    s = 1.0 - t
    for i in range(p + 1):
        out[:, i] = math.comb(p, i) * s ** (p - i) * t**i
    return out


def bernstein_derivatives(interval: BernsteinInterval, xi, nders: int = 1) -> np.ndarray:
    """Bernstein values and derivatives up to order ``nders``.

    Returns an array of shape (nders+1, p+1) for scalar ``xi`` or
    (nders+1, m, p+1) for an array; index 0 holds the values.
    """
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    p = interval.degree
    h = interval.length
    t = (x - interval.lo) / h
    out = np.zeros((nders + 1, x.shape[0], p + 1))
    out[0] = _bernstein_unit(p, t)
    for k in range(1, min(nders, p) + 1):
        # k-th derivative by repeated degree reduction with alternating signs:
        # column i collects sum_j C(k,j) (-1)^j B^{p-k}_{i-k+j}, zero-padded
        low = np.zeros((x.shape[0], p + k + 1))
        low[:, k : p + 1] = _bernstein_unit(p - k, t)
        fac = math.factorial(p) / math.factorial(p - k) / h**k
        acc = np.zeros((x.shape[0], p + 1))
        for j in range(k + 1):
            acc += math.comb(k, j) * (-1.0) ** j * low[:, j : j + p + 1]
        out[k] = fac * acc
    return out[:, 0, :] if scalar else out


def bernstein_transform(source: BernsteinInterval, target: BernsteinInterval) -> np.ndarray:
    """Basis transformation matrix M between two Bernstein intervals.

    M satisfies ``B_target(x) = M^{-T} B_source(x)`` pointwise, with both
    bases evaluated at the same physical parameter ``x`` (the polynomials are
    extended outside their native interval where needed).  Entry (j, k) is a
    product sum of source-interval Bernstein values at the target endpoints.
    """
    if source.degree != target.degree:
        raise ValueError("transformation requires equal degrees")
    p = source.degree
    # target endpoints in source-local coordinates
    a = (target.lo - source.lo) / source.length
    b = (target.hi - source.lo) / source.length
    M = np.zeros((p + 1, p + 1))
    for j in range(1, p + 2):
        Bj = _bernstein_unit(j - 1, np.array([b]))[0]  # degree j-1 at b
        Bp = _bernstein_unit(p - j + 1, np.array([a]))[0]  # degree p-j+1 at a
        for k in range(1, p + 2):
            lo = max(1, j + k - p - 1)
            hi = min(j, k)
            M[j - 1, k - 1] = sum(
                Bj[l - 1] * Bp[k - l] for l in range(lo, hi + 1)
            )
    return M


# knots closer than this are copies of one knot (see KnotVector)
KNOT_TOL = 1e-12


def isclose(a: float, b: float, atol: float = 1e-8, rtol: float = 1e-5) -> bool:
    """``np.isclose`` of two floats (NaN is never close) without numpy's call cost."""
    return a == b or abs(a - b) <= atol + rtol * abs(b)


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector with degree ``p``.

    Attributes
    ----------
    values : ndarray
        Non-decreasing knot sequence; first and last knots must have
        multiplicity p+1.  Knots closer than ``KNOT_TOL`` to their
        predecessor are stored as copies of it, so they form one breakpoint.
    degree : int
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        p = self.degree
        if p < 1:
            raise ValueError("degree must be at least 1")
        gaps = np.diff(vals)
        if np.any(gaps < 0):
            raise ValueError("knots must be non-decreasing")
        if np.any((gaps > 0) & (gaps <= KNOT_TOL)):
            # a knot within KNOT_TOL of its predecessor is another copy of it
            start = np.concatenate([[True], gaps > KNOT_TOL])
            vals = vals[np.maximum.accumulate(np.where(start, np.arange(vals.size), 0))]
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2 * (p + 1):
            raise ValueError("too few knots for an open knot vector")
        head, tail = vals[: p + 1].tolist(), vals[-p - 1 :].tolist()
        if not all([isclose(v, head[0]) for v in head] + [isclose(v, tail[-1]) for v in tail]):
            raise ValueError("knot vector is not open (end multiplicity != p+1)")
        if self.n < p + 1:
            raise ValueError("fewer basis functions than degree allows")

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.values) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.values[self.degree]), float(self.values[self.n])

    def breakpoints(self) -> np.ndarray:
        """Distinct knots spanning the domain."""
        return np.unique(self.values[self.degree : self.n + 1])

    def spans(self) -> list[tuple[float, float]]:
        """Non-empty knot intervals (the Bezier elements)."""
        bp = self.breakpoints()
        return [(float(a), float(b)) for a, b in zip(bp[:-1], bp[1:])]

    def find_span(self, xi: float) -> int:
        """Knot span index i with values[i] <= xi < values[i+1].

        The last non-empty span is closed on the right so the domain end is
        evaluable.
        """
        lo, hi = self.domain
        if xi < lo - 1e-12 or xi > hi + 1e-12:
            raise OutOfDomainError(f"{xi} outside [{lo}, {hi}]")
        v = self.values
        if xi >= v[self.n]:
            # last span, closed on the right
            i = self.n - 1
            while v[i] == v[i + 1]:
                i -= 1
            return i
        return int(np.searchsorted(v, xi, side="right") - 1)

    def element_index(self, xi: float) -> int:
        """Index of the Bezier element containing ``xi``."""
        bp = self.breakpoints()
        k = int(np.searchsorted(bp, xi, side="right") - 1)
        return min(max(k, 0), len(bp) - 2)

    def multiplicity(self, xi: float, tol: float = KNOT_TOL) -> int:
        return int(np.sum(np.abs(self.values - xi) <= tol))


def uniform_open_knots(p: int, n_elems: int, lo: float = 0.0, hi: float = 1.0) -> KnotVector:
    """Maximally smooth open knot vector with ``n_elems`` uniform elements."""
    interior = np.linspace(lo, hi, n_elems + 1)[1:-1]
    vals = np.concatenate([np.full(p + 1, lo), interior, np.full(p + 1, hi)])
    return KnotVector(vals, p)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Greville points: averages of p consecutive knots per basis function."""
    p = kv.degree
    return np.array([kv.values[i + 1 : i + p + 1].mean() for i in range(kv.n)])


def bspline_basis(kv: KnotVector, xi: float) -> tuple[int, np.ndarray]:
    """Non-vanishing B-spline basis values at ``xi`` (Cox-de Boor recursion).

    Returns
    -------
    (first, values)
        ``first`` is the global index of the first non-vanishing function;
        ``values`` holds the p+1 values, which are non-negative and sum to 1.
    """
    span = kv.find_span(xi)
    return span - kv.degree, _basis_funs(kv.values, kv.degree, span, xi)


def _basis_funs(knots: np.ndarray, p: int, span: int, xi: float) -> np.ndarray:
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    N = np.empty(p + 1)
    N[0] = 1.0
    for j in range(1, p + 1):
        left[j] = xi - knots[span + 1 - j]
        right[j] = knots[span + j] - xi
        saved = 0.0
        for r in range(j):
            tmp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        N[j] = saved
    return N


def bspline_derivatives(kv: KnotVector, xi: float, nders: int = 1) -> tuple[int, np.ndarray]:
    """Basis values and derivatives; returns (first, array (nders+1, p+1))."""
    p = kv.degree
    span = kv.find_span(xi)
    knots = kv.values
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    for j in range(1, p + 1):
        left[j] = xi - knots[span + 1 - j]
        right[j] = knots[span + j] - xi
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            tmp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = p
    for k in range(1, nders + 1):
        ders[k] *= fac
        fac *= p - k
    return span - p, ders


def knot_insert(kv: KnotVector, coeffs: np.ndarray, xi: float) -> tuple[KnotVector, np.ndarray]:
    """Insert one knot, returning the refined knot vector and control values.

    The represented spline is unchanged pointwise.  ``coeffs`` may have any
    trailing shape (scalars, points, homogeneous coordinates).
    """
    lo, hi = kv.domain
    if not (lo < xi < hi):
        raise OutOfDomainError(f"insertion point {xi} not strictly inside ({lo}, {hi})")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != kv.n:
        raise ValueError("coefficient count does not match basis size")
    knots, out = _insert(kv.values, kv.degree, coeffs, xi)
    return KnotVector(knots, kv.degree), out


def _insert(knots: np.ndarray, p: int, coeffs: np.ndarray, xi: float):
    """Boehm insertion of ``xi`` (strictly inside the domain) on raw arrays.

    Rows up to k-p are copied, rows after k shift down by one, and the p rows
    in between blend their two neighbours with alpha_i (Piegl & Tiller A5.1).
    """
    k = int(np.searchsorted(knots, xi, side="right")) - 1
    out = np.empty((coeffs.shape[0] + 1,) + coeffs.shape[1:])
    out[: k - p + 1] = coeffs[: k - p + 1]
    out[k + 1 :] = coeffs[k:]
    i = np.arange(k - p + 1, k + 1)
    alpha = ((xi - knots[i]) / (knots[i + p] - knots[i])).reshape((p,) + (1,) * (coeffs.ndim - 1))
    out[k - p + 1 : k + 1] = alpha * coeffs[k - p + 1 : k + 1] + (1.0 - alpha) * coeffs[k - p : k]
    return np.insert(knots, k + 1, xi), out


def refinement_operator(kv: KnotVector, new_knots) -> tuple[KnotVector, np.ndarray]:
    """Matrix T mapping coarse control values to refined control values.

    Inserting ``new_knots`` one by one; T has shape (n_fine, n_coarse) and
    satisfies ``N_coarse = T^T N_fine`` as basis functions.
    """
    xs = sorted(np.atleast_1d(np.asarray(new_knots, dtype=float)))
    lo, hi = kv.domain
    for xi in xs:
        if not (lo < xi < hi):
            raise OutOfDomainError(f"insertion point {xi} not strictly inside ({lo}, {hi})")
    knots, T = kv.values, np.eye(kv.n)
    for xi in xs:
        knots, T = _insert(knots, kv.degree, T, float(xi))
    return (KnotVector(knots, kv.degree) if xs else kv), T


@dataclass(frozen=True)
class ElementExtraction:
    """Extraction operator of one Bezier element.

    ``matrix`` C satisfies N^e = C B on the element span, where N^e are the
    p+1 non-vanishing spline functions (first global index ``first``) and B
    the Bernstein basis on the span.  Columns of C sum to one and C is
    invertible.
    """

    element: int
    span: tuple[float, float]
    first: int
    matrix: np.ndarray

    @property
    def interval(self) -> BernsteinInterval:
        return BernsteinInterval(self.span[0], self.span[1], self.matrix.shape[0] - 1)

    @property
    def rows(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.matrix.shape[0])


def bezier_extraction(kv: KnotVector) -> tuple[ElementExtraction, ...]:
    """Per-element extraction operators of an open knot vector.

    Borden et al. 2011 (IJNME 87:15-47), Algorithm 1: sweeping the
    breakpoints left to right, each interior knot is raised to multiplicity
    p by column blends of the current element's operator, and the overlap is
    carried into the next element's operator; O(n_el p^2) in all.  The result
    equals the rows of the global operator that raises every interior knot to
    multiplicity p (the C0 form), restricted to each element.  It is computed
    once per knot vector and kept on it, with read-only matrices.
    """
    ops = kv.__dict__.get("_extraction")
    if ops is None:
        ops = kv.__dict__["_extraction"] = _borden_extraction(kv)
    return ops


def _borden_extraction(kv: KnotVector) -> tuple[ElementExtraction, ...]:
    U, p = kv.values, kv.degree
    n_el = len(kv.breakpoints()) - 1
    C = np.tile(np.eye(p + 1), (n_el, 1, 1))
    spans = []
    a = p  # last copy of the element's left knot
    for e in range(n_el):
        i = b = a + 1  # first copy of its right knot
        if e + 1 < n_el:
            while U[b + 1] == U[b]:
                b += 1
            mult = b - i + 1
            r = p - mult
            if r > 0:
                alphas = (U[b] - U[a]) / (U[a + mult + 1 : a + p + 1] - U[a])
                for j in range(1, r + 1):
                    s = mult + j
                    al = alphas[: p - s + 1]
                    C[e, :, s:] = al * C[e, :, s:] + (1.0 - al) * C[e, :, s - 1 : p]
                    C[e + 1, r - j : r + 1, r - j] = C[e, p - j :, p]
        spans.append(((float(U[a]), float(U[i])), a - p))
        a = b
    C.setflags(write=False)
    return tuple(ElementExtraction(e, span, first, C[e]) for e, (span, first) in enumerate(spans))


def bspline_table(kv: KnotVector, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-vanishing basis functions at the points of a 1-D array, in Bezier form.

    Returns ``index`` and ``values``, both of shape (m, p+1): ``values[q, j]``
    is function ``index[q, j]`` at ``xi[q]``, the Bernstein values of the
    point's element times its extraction operator.
    """
    e, D = _bernstein_table(kv, xi, 0)
    _, first, C = _element_tables(kv)
    return first[e][:, None] + np.arange(kv.degree + 1), np.einsum("qb,qjb->qj", D[0], C[e])


def rational_table(kv: KnotVector, weights: np.ndarray,
                   xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-vanishing rational functions N_j w_j / W at the points of a 1-D array.

    Returns ``index`` and ``values`` as :func:`bspline_table` does, with the
    functions divided by the weight function W, and W itself, shape (m,).
    """
    index, N = bspline_table(kv, xi)
    R = N * weights[index]
    W = R.sum(axis=1)
    return index, R / W[:, None], W


def _element_tables(kv: KnotVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints, first functions and stacked operators of the elements of ``kv``."""
    tables = kv.__dict__.get("_element_tables")
    if tables is None:
        ops = bezier_extraction(kv)
        tables = kv.__dict__["_element_tables"] = (
            np.array([op.span[0] for op in ops] + [ops[-1].span[1]]),
            np.array([op.first for op in ops]),
            np.stack([op.matrix for op in ops]),
        )
    return tables


def _bernstein_table(kv: KnotVector, xi, nders: int) -> tuple[np.ndarray, np.ndarray]:
    """Element of each point of a 1-D array and its Bernstein derivatives in xi.

    Returns the element indices (m,) and d^k B / d xi^k, shape (nders+1, m, p+1).
    """
    x = np.asarray(xi, dtype=float)
    lo, hi = kv.domain
    if x.size and (x.min() < lo - KNOT_TOL or x.max() > hi + KNOT_TOL):
        raise OutOfDomainError(f"point outside [{lo}, {hi}]")
    bp = _element_tables(kv)[0]
    e = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(bp) - 2)
    h = bp[e + 1] - bp[e]
    D = bernstein_derivatives(BernsteinInterval(0.0, 1.0, kv.degree), (x - bp[e]) / h, nders)
    return e, D / h[None, :, None] ** np.arange(nders + 1)[:, None, None]


class BoundaryCurve:
    """Rational curve extracted from one side of a tensor-product patch.

    It is evaluated in Bezier form: per element, the homogeneous Bezier
    control points are the extraction operator applied to the element's
    homogeneous control points, and a point needs one Bernstein table.
    """

    def __init__(self, kv: KnotVector, points: np.ndarray, weights: np.ndarray):
        self.kv = kv
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.points.shape[0] != kv.n or self.weights.shape[0] != kv.n:
            raise ValueError("control data does not match basis size")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be strictly positive")
        hom = np.column_stack([self.points * self.weights[:, None], self.weights])
        _, first, C = _element_tables(kv)
        local = hom[first[:, None] + np.arange(kv.degree + 1)]
        self._bezier = np.einsum("eij,eic->ejc", C, local)

    @property
    def domain(self):
        return self.kv.domain

    def point(self, xi) -> np.ndarray:
        """Curve point, shape (2,) for scalar ``xi`` or (m, 2) for an array."""
        return self.derivatives(xi, 0)[0]

    def derivatives(self, xi, nders: int = 2) -> np.ndarray:
        """Curve point and derivatives d^k x / d xi^k, k = 0..nders (at most 2).

        Shape (nders+1, 2) for scalar ``xi`` or (nders+1, m, 2) for an array.
        """
        if nders > 2:
            raise ValueError("curve derivatives are available up to second order")
        x = np.asarray(xi, dtype=float)
        e, D = _bernstein_table(self.kv, x.reshape(-1), nders)
        h = np.einsum("kqj,qjc->kqc", D, self._bezier[e])
        A, W = h[..., :2], h[..., 2:]
        out = np.empty_like(A)
        out[0] = A[0] / W[0]
        if nders >= 1:
            out[1] = (A[1] - out[0] * W[1]) / W[0]
        if nders >= 2:
            out[2] = (A[2] - 2.0 * out[1] * W[1] - out[0] * W[2]) / W[0]
        return out[:, 0] if x.ndim == 0 else out

    def speed(self, xi):
        """Arc-length rate |dx/dxi|: a float for scalar ``xi``, else an array."""
        v = np.linalg.norm(self.derivatives(xi, 1)[1], axis=-1)
        return float(v) if np.ndim(xi) == 0 else v


# patch side -> (parametric axis the side fixes, whether at that axis's end)
SIDES = {"west": (0, False), "east": (0, True), "south": (1, False), "north": (1, True)}


def side_index(side: str) -> tuple:
    """Index of one side's entries in an (n1, n2, ...) net, in side-parameter order.

    ``net[side_index(side)]`` is a view, so it also writes to the side.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {tuple(SIDES)}")
    axis, at_end = SIDES[side]
    k = -1 if at_end else 0
    return (k, slice(None)) if axis == 0 else (slice(None), k)


class Patch2D:
    """Tensor-product NURBS patch in R^2.

    Attributes
    ----------
    kvs : (KnotVector, KnotVector)
        Knot vectors of the two parametric directions.
    points : ndarray (n1, n2, 2)
        Control points.
    weights : ndarray (n1, n2)
        Strictly positive rational weights.
    """

    def __init__(self, kvs, points, weights=None):
        self.kvs = tuple(kvs)
        self.points = np.asarray(points, dtype=float)
        n1, n2 = self.kvs[0].n, self.kvs[1].n
        if self.points.shape != (n1, n2, 2):
            raise ValueError(f"control net must have shape ({n1}, {n2}, 2)")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("control points must be finite")
        if weights is None:
            weights = np.ones((n1, n2))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (n1, n2):
            raise ValueError("weight net shape mismatch")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("weights must be finite and strictly positive")
        self._hom = np.concatenate(
            [self.points * self.weights[..., None], self.weights[..., None]], axis=2
        )

    @property
    def degrees(self) -> tuple[int, int]:
        return self.kvs[0].degree, self.kvs[1].degree

    @property
    def shape(self) -> tuple[int, int]:
        return self.kvs[0].n, self.kvs[1].n

    def eval(self, xi1: float, xi2: float):
        """Geometry, rational basis and parametric gradients at one point.

        Returns
        -------
        point : ndarray (2,)
        jac : ndarray (2, 2) with jac[i, j] = d x_i / d xi_j
        (first1, first2) : global indices of the first active function
        values : ndarray (p1+1, p2+1) rational basis values (sum to 1)
        grads : ndarray (p1+1, p2+1, 2) parametric gradients
        """
        f1, d1 = bspline_derivatives(self.kvs[0], xi1, 1)
        f2, d2 = bspline_derivatives(self.kvs[1], xi2, 1)
        p1, p2 = self.degrees
        w = self.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1]
        P = self.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1]
        Nw = w * np.outer(d1[0], d2[0])
        Nw1 = w * np.outer(d1[1], d2[0])
        Nw2 = w * np.outer(d1[0], d2[1])
        W = Nw.sum()
        if W <= 0:
            raise ValueError("non-positive weight function")
        W1, W2 = Nw1.sum(), Nw2.sum()
        vals = Nw / W
        grads = np.empty((p1 + 1, p2 + 1, 2))
        grads[..., 0] = (Nw1 - vals * W1) / W
        grads[..., 1] = (Nw2 - vals * W2) / W
        point = np.einsum("ij,ijk->k", vals, P)
        jac = np.einsum("ijd,ijk->kd", grads, P)
        return point, jac, (f1, f2), vals, grads

    def boundary(self, side: str) -> BoundaryCurve:
        """Extract one of the four sides as a rational curve."""
        ix = side_index(side)
        return BoundaryCurve(self.kvs[1 - SIDES[side][0]], self.points[ix], self.weights[ix])

    def refined(self, new_knots1=(), new_knots2=()) -> "Patch2D":
        """Insert knots in either direction; geometry unchanged pointwise."""
        hom = self._hom
        kv1, kv2 = self.kvs
        if len(np.atleast_1d(new_knots1)):
            kv1, T1 = refinement_operator(kv1, new_knots1)
            hom = np.einsum("ai,ijk->ajk", T1, hom)
        if len(np.atleast_1d(new_knots2)):
            kv2, T2 = refinement_operator(kv2, new_knots2)
            hom = np.einsum("bj,ijk->ibk", T2, hom)
        w = hom[..., 2]
        pts = hom[..., :2] / w[..., None]
        return Patch2D((kv1, kv2), pts, w)

    def refined_uniform(self, levels: int = 1) -> "Patch2D":
        if levels < 0:
            raise ValueError("refinement level must be non-negative")
        patch = self
        for _ in range(levels):
            mids1 = [0.5 * (a + b) for a, b in patch.kvs[0].spans()]
            mids2 = [0.5 * (a + b) for a, b in patch.kvs[1].spans()]
            patch = patch.refined(mids1, mids2)
        return patch

    def max_element_diameter(self) -> float:
        """Largest physical diagonal over all Bezier elements."""
        # every function of each direction at its breakpoints, dense: there an
        # element's Bernstein basis is its first unit vector (the last one at
        # the domain end), so the values are columns of the extraction operators
        tables = []
        for kv in self.kvs:
            _, first, C = _element_tables(kv)
            B = np.zeros((len(first) + 1, kv.n))
            B[np.arange(len(first))[:, None], first[:, None] + np.arange(kv.degree + 1)] = C[..., 0]
            B[-1, -kv.degree - 1:] = C[-1, :, -1]
            tables.append(B)
        B1, B2 = tables
        # homogeneous points on the grid of element corners, then projected
        hom = B2 @ np.tensordot(B1, self._hom, axes=1)
        x = hom[..., :2] / hom[..., 2:]
        d1 = np.linalg.norm(x[1:, 1:] - x[:-1, :-1], axis=2)
        d2 = np.linalg.norm(x[1:, :-1] - x[:-1, 1:], axis=2)
        return float(max(d1.max(), d2.max()))
