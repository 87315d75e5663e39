"""Univariate Bernstein/B-spline/NURBS machinery and tensor-product patches.

Everything in this module is exact spline algebra in one Bezier form: the
Bernstein functions live on the unit interval, and a knot vector's operators
over that basis, one (p+1, p+1) operator per element or per subinterval,
come from one knot-insertion kernel; the element operators are stacked
arrays kept on the knot vector.  On top of that come rational curve and
patch geometry.  All objects are immutable after construction and every
function is pure, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MeshFormatError",
    "OutOfDomainError",
    "KnotVector",
    "bernstein_derivatives",
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


class MeshFormatError(ValueError):
    """Invalid patch or mesh input, with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class OutOfDomainError(ValueError):
    """Raised when an evaluation point lies outside the parametric domain."""


def _is_int(v) -> bool:
    """An index or count: a Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (x + 1.0)
    pts.setflags(write=False)
    wts = 0.5 * w
    wts.setflags(write=False)
    return pts, wts


def gauss_on_breaks(breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on every interval between consecutive breakpoints.

    Points and weights are flattened interval by interval, ``n`` per interval.
    """
    b = np.asarray(breaks, dtype=float)
    pts, wts = gauss_rule(n)
    h = (b[1:] - b[:-1])[:, None]
    return (b[:-1, None] + h * pts).reshape(-1), (h * wts).reshape(-1)


def _bernstein_unit(p: int, t: np.ndarray) -> np.ndarray:
    """Bernstein values on [0, 1] for points ``t``; shape (m, p+1)."""
    m = t.shape[0]
    out = np.empty((m, p + 1))
    s = 1.0 - t
    for i in range(p + 1):
        out[:, i] = math.comb(p, i) * s ** (p - i) * t**i
    return out


def bernstein_derivatives(p: int, t, nders: int = 1) -> np.ndarray:
    """Degree-p Bernstein values and derivatives on [0, 1] up to order ``nders``.

    Returns an array of shape (nders+1, p+1) for scalar ``t`` or
    (nders+1, m, p+1) for an array; index 0 holds the values, which are
    non-negative and sum to one on [0, 1].  Points outside [0, 1] evaluate
    the polynomials' extension.
    """
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((nders + 1, t.shape[0], p + 1))
    out[0] = _bernstein_unit(p, t)
    for k in range(1, min(nders, p) + 1):
        # k-th derivative by repeated degree reduction with alternating signs:
        # column i collects sum_j C(k,j) (-1)^j B^{p-k}_{i-k+j}, zero-padded
        low = np.zeros((t.shape[0], p + k + 1))
        low[:, k : p + 1] = _bernstein_unit(p - k, t)
        fac = math.factorial(p) / math.factorial(p - k)
        acc = np.zeros((t.shape[0], p + 1))
        for j in range(k + 1):
            acc += math.comb(k, j) * (-1.0) ** j * low[:, j : j + p + 1]
        out[k] = fac * acc
    return out[:, 0, :] if scalar else out


# knots closer than this are copies of one knot (see KnotVector)
KNOT_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector with degree ``p``.

    Attributes
    ----------
    values : ndarray
        Finite, non-decreasing knot sequence in which no knot appears more
        than p+1 times and the first and last knots appear exactly p+1
        times.  Knots closer than ``KNOT_TOL`` to their predecessor are
        stored as copies of it, so they form one breakpoint.  Other knots
        raise :class:`MeshFormatError`.
    degree : int
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a copy, frozen below
        p = self.degree
        if p < 1:
            raise MeshFormatError("bad-degree", "degree must be at least 1")
        if not np.all(np.isfinite(vals)):
            raise MeshFormatError("non-finite", "knots must be finite")
        gaps = np.diff(vals)
        if np.any(gaps < 0):
            raise MeshFormatError("knots-not-nondecreasing", "knots must be non-decreasing")
        if np.any((gaps > 0) & (gaps <= KNOT_TOL)):
            # a knot within KNOT_TOL of its predecessor is another copy of it
            start = np.concatenate([[True], gaps > KNOT_TOL])
            vals = vals[np.maximum.accumulate(np.where(start, np.arange(vals.size), 0))]
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2 * (p + 1):
            raise MeshFormatError("knots-not-open", "too few knots for an open knot vector")
        # in sorted knots, no knot appears more than p+1 times when each is
        # below the knot p+1 places on
        if not (vals[0] == vals[p] and vals[-p - 1] == vals[-1]
                and np.all(vals[p + 1:] > vals[: -p - 1])):
            raise MeshFormatError("knots-not-open", "knot vector is not open: the end knots "
                                  "must appear p+1 times and no knot more")

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


def uniform_open_knots(p: int, n_elems: int) -> KnotVector:
    """Maximally smooth open knot vector on [0, 1] with ``n_elems`` uniform elements."""
    interior = np.linspace(0.0, 1.0, n_elems + 1)[1:-1]
    vals = np.concatenate([np.full(p + 1, 0.0), interior, np.full(p + 1, 1.0)])
    return KnotVector(vals, p)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Greville points: averages of p consecutive knots per basis function."""
    p = kv.degree
    return np.array([kv.values[i + 1 : i + p + 1].mean() for i in range(kv.n)])


def _oslo_band(kv: KnotVector, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each fine function's band of coarse coefficients, by the Oslo algorithm.

    ``fine`` is a sorted knot sequence holding the knots of ``kv``.  Returns
    ``first`` (m,) and ``a`` (m, p+1) with ``N_j = sum_i a[i, j - first[i]] B_i``
    over the m fine functions B_i: row i is the blossom R_1(t_{i+1}) ...
    R_p(t_{i+p}) of de Boor's triangle on the coarse span mu of t_i, for all i
    at once in p steps (Cohen, Lyche & Riesenfeld, CGIP 14, 1980).
    """
    p = kv.degree
    m = len(fine) - p - 1
    mu = np.searchsorted(kv.values, fine[:m], side="right") - 1
    near = kv.values[mu[:, None] + np.arange(1 - p, p + 1)]  # tau_{mu-p+1..mu+p}
    a = np.repeat(np.eye(1, p + 1), m, axis=0)
    for k in range(1, p + 1):
        lo, hi = near[:, p - k : p], near[:, p : p + k]
        aw = a[:, :k] * ((fine[k : m + k, None] - lo) / (hi - lo))
        a[:, :k] -= aw
        a[:, 1 : k + 1] += aw
    return mu - p, a


def refinement_operator(kv: KnotVector, new_knots) -> tuple[KnotVector, np.ndarray]:
    """Matrix T mapping coarse control values to refined control values.

    T has shape (n_fine, n_coarse) and satisfies ``N_coarse = T^T N_fine`` as
    basis functions; each row holds one fine function's band of the Oslo
    algorithm (:func:`_oslo_band`), all new knots at once.
    """
    xs = np.sort(np.asarray(new_knots, dtype=float).ravel())
    lo, hi = kv.domain
    outside = xs[~((lo < xs) & (xs < hi))]
    if outside.size:
        raise OutOfDomainError(f"insertion point {outside[0]} not strictly inside ({lo}, {hi})")
    if not xs.size:
        return kv, np.eye(kv.n)
    fine = np.sort(np.concatenate([kv.values, xs]))
    first, a = _oslo_band(kv, fine)
    T = np.zeros((len(first), kv.n))
    T[np.arange(len(first))[:, None], first[:, None] + np.arange(kv.degree + 1)] = a
    return KnotVector(fine, kv.degree), T


def _subdivision(kv: KnotVector, bp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First functions (n,) and operators C (n, p+1, p+1) of ``kv`` on the
    intervals between sorted breakpoints ``bp`` that hold its knots: on
    interval e, N^e = C[e] B with B the interval's Bernstein basis.

    Raising each interior breakpoint to multiplicity max(m, p), m its
    multiplicity in ``kv``, makes the fine functions on each interval its
    Bernstein polynomials, so C[e][j, k], coarse function first[e]+j in fine
    function k of interval e, is read from that refinement's Oslo band
    (:func:`_oslo_band`).  A row reads only its interval's ends and the knot
    spans of them and of the breakpoint before, so a whole element gets the
    same operator, bit for bit, from any ``bp``.
    """
    U, p = kv.values, kv.degree
    past = np.searchsorted(U, bp, "right")  # past the last copy of each breakpoint
    c0 = np.maximum(past[1:-1] - np.searchsorted(U, bp[1:-1]), p)
    first_fine, a = _oslo_band(kv, np.repeat(bp, np.pad(c0, 1, constant_values=p + 1)))
    rows = np.append(0, np.cumsum(c0))[:, None] + np.arange(p + 1)
    # an interval's functions start p places before the last knot at or below its left end
    first = past[:-1] - 1 - p
    # a row shared with the interval before has its band start there: pad it
    band = np.concatenate([a, np.zeros_like(a[:, :p])], axis=1)
    cols = first[:, None, None] + np.arange(p + 1)[:, None] - first_fine[rows][:, None, :]
    return first, band[rows[:, None, :], cols]


def bezier_extraction(kv: KnotVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element extraction operators of an open knot vector, stacked.

    Returns the breakpoints (n_el+1,), the first non-vanishing function of
    each element (n_el,) and the operators C (n_el, p+1, p+1): on element e,
    N^e = C[e] B with N^e the p+1 non-vanishing spline functions and B the
    Bernstein basis of the unit element.  Columns of C[e] sum to one and
    C[e] is invertible.  They are :func:`_subdivision` at the breakpoints,
    computed once per knot vector and kept on it, as read-only arrays.
    """
    tables = kv.__dict__.get("_extraction")
    if tables is None:
        bp = kv.breakpoints()
        tables = kv.__dict__["_extraction"] = (bp, *_subdivision(kv, bp))
        for t in tables:
            t.setflags(write=False)
    return tables


def _element_tables(kv: KnotVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bezier_extraction` of ``kv``; once built it is read from the knot
    vector without a call, so each call of the public function is one build."""
    return kv.__dict__.get("_extraction") or bezier_extraction(kv)


def _bernstein_table(kv: KnotVector, xi, nders: int) -> tuple[np.ndarray, np.ndarray]:
    """Element of each point of a 1-D array and its Bernstein derivatives in xi.

    Returns the element indices (m,) and d^k B / d xi^k, shape (nders+1, m, p+1).
    """
    x = np.asarray(xi, dtype=float)
    lo, hi = kv.domain
    if not np.all((x >= lo - KNOT_TOL) & (x <= hi + KNOT_TOL)):  # NaN fails both
        raise OutOfDomainError(f"point outside [{lo}, {hi}]")
    bp = _element_tables(kv)[0]
    e = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(bp) - 2)
    h = bp[e + 1] - bp[e]
    D = bernstein_derivatives(kv.degree, (x - bp[e]) / h, nders)
    return e, D / h[None, :, None] ** np.arange(nders + 1)[:, None, None]


def _frozen_copy(a) -> np.ndarray:
    """A read-only float copy of ``a``: a curve or patch owns its control data."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class BoundaryCurve:
    """Rational curve: one side of a tensor-product patch, or an interface trace.

    It is evaluated in Bezier form: per element, the homogeneous Bezier
    control points are the extraction operator applied to the element's
    homogeneous control points, and a point needs one Bernstein table.
    """

    def __init__(self, kv: KnotVector, points: np.ndarray, weights: np.ndarray):
        self.kv = kv
        self.points = _frozen_copy(points)
        self.weights = _frozen_copy(weights)
        if self.points.shape[:1] != (kv.n,) or self.weights.shape != (kv.n,):
            raise ValueError("control data does not match basis size")
        if self.points.shape != (kv.n, 2):
            raise ValueError(f"control points must have shape ({kv.n}, 2), not {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("control points must be finite")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("weights must be finite and strictly positive")
        hom = np.column_stack([self.points * self.weights[:, None], self.weights])
        _, first, C = _element_tables(kv)
        local = hom[first[:, None] + np.arange(kv.degree + 1)]
        self._bezier = np.einsum("eij,eic->ejc", C, local)

    @property
    def domain(self):
        return self.kv.domain

    def point(self, xi) -> np.ndarray:
        """Curve point, shape (2,) for scalar ``xi`` or (m, 2) for an array."""
        return self.table(np.reshape(xi, -1), 0)[2][0].reshape(np.shape(xi) + (2,))

    def table(self, xi, nders: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Basis, points and their derivatives at the points of a 1-D array,
        from one Bernstein table.

        Returns ``index`` and ``R``, both (m, p+1): ``R[q, j]`` is the rational
        function N_j w_j / W of index ``index[q, j]`` at ``xi[q]``, the
        Bernstein values of the point's element times its extraction operator
        and the weights.  ``X`` (nders+1, m, 2) holds the curve point and its
        derivatives d^k x / d xi^k, k = 0..nders (at most 2), by the quotient
        rule on the homogeneous Bezier points (Piegl & Tiller, The NURBS Book,
        eq. 4.8).
        """
        if nders > 2:
            raise ValueError("curve derivatives are available up to second order")
        e, D = _bernstein_table(self.kv, xi, nders)
        _, first, C = _element_tables(self.kv)
        index = first[e][:, None] + np.arange(self.kv.degree + 1)
        R = np.einsum("qb,qjb->qj", D[0], C[e]) * self.weights[index]
        h = np.einsum("kqj,qjc->kqc", D, self._bezier[e])
        A, W = h[..., :2], h[..., 2:]
        X = np.empty_like(A)
        X[0] = A[0] / W[0]
        if nders >= 1:
            X[1] = (A[1] - X[0] * W[1]) / W[0]
        if nders >= 2:
            X[2] = (A[2] - 2.0 * X[1] * W[1] - X[0] * W[2]) / W[0]
        return index, R / R.sum(axis=1)[:, None], X


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
        self.points = _frozen_copy(points)
        n1, n2 = self.kvs[0].n, self.kvs[1].n
        if self.points.shape != (n1, n2, 2):
            raise MeshFormatError("control-net-mismatch", f"control net is not ({n1}, {n2}, 2)")
        if not np.all(np.isfinite(self.points)):
            raise MeshFormatError("non-finite", "control points must be finite")
        self.weights = _frozen_copy(np.ones((n1, n2)) if weights is None else weights)
        if self.weights.shape != (n1, n2):
            raise MeshFormatError("control-net-mismatch", "weight net shape mismatch")
        if not np.all(np.isfinite(self.weights)):
            raise MeshFormatError("non-finite", "weights must be finite")
        if not np.all(self.weights > 0):
            raise MeshFormatError("weights-nonpositive", "weights must be strictly positive")
        self._hom = np.concatenate(
            [self.points * self.weights[..., None], self.weights[..., None]], axis=2
        )

    @property
    def degrees(self) -> tuple[int, int]:
        return self.kvs[0].degree, self.kvs[1].degree

    @property
    def shape(self) -> tuple[int, int]:
        return self.kvs[0].n, self.kvs[1].n

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

    def refined_uniform(self, levels: int) -> "Patch2D":
        """Bisect every element ``levels`` times, with one insertion per direction."""
        if levels < 0:
            raise ValueError("refinement level must be non-negative")
        new = []
        for kv in self.kvs:
            bp = kv.breakpoints()
            for _ in range(levels):
                bp = np.union1d(bp, 0.5 * (bp[:-1] + bp[1:]))
            new.append(np.setdiff1d(bp, kv.breakpoints()))
        return self.refined(*new) if levels else self

    def max_element_diameter(self) -> float:
        """Largest physical diagonal over all Bezier elements, at their corners."""
        # every function of each direction at its breakpoints, dense: there the
        # Bernstein row is a unit vector, so they are each element's first
        # operator column, and the last element's last column at the end
        tables = []
        for kv in self.kvs:
            _, first, C = _element_tables(kv)
            index = np.append(first, first[-1])[:, None] + np.arange(kv.degree + 1)
            B = np.zeros((len(index), kv.n))
            np.put_along_axis(B, index, np.concatenate([C[:, :, 0], C[-1:, :, -1]]), axis=1)
            tables.append(B)
        B1, B2 = tables
        # homogeneous points on the grid of element corners, then projected
        hom = B2 @ np.tensordot(B1, self._hom, axes=1)
        x = hom[..., :2] / hom[..., 2:]
        d1 = np.linalg.norm(x[1:, 1:] - x[:-1, :-1], axis=2)
        d2 = np.linalg.norm(x[1:, :-1] - x[:-1, 1:], axis=2)
        return float(max(d1.max(), d2.max()))
