"""Independent reference evaluators that tests compare the library against.

The library evaluates splines in Bezier form only, from the stacked
extraction tables.  These are the classic scalar forms instead: the knot span
search and the Cox-de Boor recursions for basis values and derivatives
(Piegl & Tiller, A2.1-A2.3), a rational patch evaluation built on them, and
the Bernstein change of basis from one interval to another by de Casteljau's
algorithm.  They read nothing of the library but a knot vector's values, so the batched
code they check cannot also be their source.

Five checks only tests use live here too: the net force of a stress field's
tractions over the quarter plate, the last observed rate of a convergence
report, a model's prolongation built by rounds, restacking P after every
round, the way the library built it before it formed each block once,
whether an interface reparameterization is affine, and the relative
asymmetry of an assembled matrix.

A reader of the mesh file format assembles the Poisson and elasticity
systems of a document's weak cells from the document alone, with
``patch_eval`` for the geometry of its patches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from bezmortar.splines import KnotVector, OutOfDomainError


def find_span(kv: KnotVector, xi: float) -> int:
    """Knot span index i with values[i] <= xi < values[i+1].

    The last non-empty span is closed on the right so the domain end is
    evaluable.
    """
    lo, hi = kv.domain
    if not lo - 1e-12 <= xi <= hi + 1e-12:
        raise OutOfDomainError(f"{xi} outside [{lo}, {hi}]")
    v = kv.values
    if xi >= v[kv.n]:
        # last span, closed on the right
        i = kv.n - 1
        while v[i] == v[i + 1]:
            i -= 1
        return i
    return int(np.searchsorted(v, xi, side="right") - 1)


def bspline_basis(kv: KnotVector, xi: float) -> tuple[int, np.ndarray]:
    """Non-vanishing B-spline basis values at ``xi`` (Cox-de Boor recursion).

    Returns
    -------
    (first, values)
        ``first`` is the global index of the first non-vanishing function;
        ``values`` holds the p+1 values, which are non-negative and sum to 1.
    """
    span = find_span(kv, xi)
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
    span = find_span(kv, xi)
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


def bernstein_change(p: int, src, tgt) -> np.ndarray:
    """Matrix M with B_src = M^T B_tgt for the degree-p Bernstein bases of two intervals.

    Column i holds the Bernstein coefficients over ``tgt`` = (a, b) of the
    function B_i over ``src``: its blossom at a (p-j times) and b (j times)
    in ``src``'s unit coordinates, by p de Casteljau steps (Farin, Curves and
    Surfaces for CAGD, ch. 4), for all i at once.
    """
    (lo, hi), (a, b) = src, tgt
    ua, ub = (a - lo) / (hi - lo), (b - lo) / (hi - lo)
    M = np.empty((p + 1, p + 1))
    for j in range(p + 1):
        c = np.eye(p + 1)
        for u in [ua] * (p - j) + [ub] * j:
            c = (1.0 - u) * c[:-1] + u * c[1:]
        M[j] = c[0]
    return M


def patch_eval(patch, xi1: float, xi2: float):
    """Geometry, rational basis and parametric gradients of a patch at one point.

    Returns
    -------
    point : ndarray (2,)
    jac : ndarray (2, 2) with jac[i, j] = d x_i / d xi_j
    (first1, first2) : global indices of the first active function
    values : ndarray (p1+1, p2+1) rational basis values (sum to 1)
    grads : ndarray (p1+1, p2+1, 2) parametric gradients
    """
    f1, d1 = bspline_derivatives(patch.kvs[0], xi1, 1)
    f2, d2 = bspline_derivatives(patch.kvs[1], xi2, 1)
    p1, p2 = patch.degrees
    w = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1]
    P = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1]
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


def plate_traction_residual(stress, radius: float, side: float, nq: int = 64) -> float:
    """Net force of the tractions of ``stress(x, y) -> (sxx, syy, sxy)`` over the
    whole boundary of the quarter plate [0, side]^2 with a hole of ``radius``.

    Includes the symmetry-plane reactions; equilibrium demands (near) zero.
    Each edge takes an ``nq``-point Gauss rule.
    """
    t, w = np.polynomial.legendre.leggauss(nq)
    total = np.zeros(2)

    def edge(x, n, lo, hi):
        """Traction force over the points ``x`` of the parameters on (lo, hi)."""
        sxx, syy, sxy = stress(x[:, 0], x[:, 1])
        n = np.broadcast_to(n, x.shape)
        traction = np.column_stack([sxx * n[:, 0] + sxy * n[:, 1], sxy * n[:, 0] + syy * n[:, 1]])
        return 0.5 * (hi - lo) * w @ traction

    on = lambda lo, hi: lo + 0.5 * (hi - lo) * (t + 1)
    flat = np.full(nq, side)
    total += edge(np.column_stack([flat, on(0.0, side)]), (1.0, 0.0), 0.0, side)
    total += edge(np.column_stack([on(0.0, side), flat]), (0.0, 1.0), 0.0, side)
    # the symmetry planes x = 0 and y = 0, from the hole to the outer side
    total += edge(np.column_stack([np.zeros(nq), on(radius, side)]), (-1.0, 0.0), radius, side)
    total += edge(np.column_stack([on(radius, side), np.zeros(nq)]), (0.0, -1.0), radius, side)
    # the hole, outward normal toward the center, weighted by arc length
    rim = np.column_stack([np.cos(on(0.0, np.pi / 2)), np.sin(on(0.0, np.pi / 2))])
    total += radius * edge(radius * rim, -rim, 0.0, np.pi / 2)
    return float(np.abs(total).max())


def observed_rate(report) -> float:
    """The last rate entry of a convergence report."""
    rates = [r["rate"] for r in report.rows if r["rate"] != ""]
    if not rates:
        raise ValueError("no rate: fewer than two consecutive levels solved")
    return float(rates[-1])


def prolongation_by_rounds(model) -> sp.csr_matrix:
    """P of a model, its interfaces formed round by round.

    An interface depends on every interface at whose trace columns its
    constraint rows G E have an entry.  Each round takes every interface
    whose dependencies are formed and forms its block as G E times P
    restacked from the blocks so far; a round that forms none means a cycle.
    """
    ident = sp.identity(model.n_retained, format="csr")
    blocks = [sp.csr_matrix((ids.size, model.n_retained)) for ids in model.trace_ids]
    deps = [{cj for cj, ids in enumerate(model.trace_ids) if GE[:, ids].nnz}
            for GE in model._constraints]
    done: set[int] = set()
    while len(done) < len(blocks):
        ready = [ci for ci, d in enumerate(deps) if ci not in done and d <= done]
        if not ready:
            raise ValueError("cyclic interface dependency; cannot condense")
        P = sp.vstack([ident] + blocks, format="csr")
        for ci in ready:
            blocks[ci] = model._constraints[ci] @ P
        done.update(ready)
    P = sp.vstack([ident] + blocks, format="csr")
    P.sort_indices()
    return P


def is_affine(phi) -> bool:
    """True when the reparameterization ``phi`` is linear (matched case), to
    1e-10 of the span."""
    s_lo, s_hi = phi.slave.domain
    t = np.array([0.25, 0.5, 0.75])
    eta = phi(np.concatenate([[s_lo, s_hi], s_lo + t * (s_hi - s_lo)]))
    a, b = eta[0], eta[1]
    return not np.any(np.abs(eta[2:] - (a + t * (b - a))) > 1e-10 * max(abs(b - a), 1.0))


def symmetry_error(K) -> float:
    """Frobenius norm of K - K^T relative to that of K, from K's dense form."""
    A = K.toarray()
    nrm = np.linalg.norm(A)
    return float(np.linalg.norm(A - A.T) / nrm) if nrm > 0 else 0.0


def _bernstein(p: int, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Degree-p Bernstein values on [0, 1] at u and their derivatives in u,
    by the recursion B_k^q = (1 - u) B_k^(q-1) + u B_(k-1)^(q-1)."""
    lower, values = None, np.ones(1)
    for _ in range(p):
        lower, values = values, np.append(values * (1 - u), 0.0) + np.append(0.0, values * u)
    return values, p * (np.append(0.0, lower) - np.append(lower, 0.0))


class _DocumentPatch:
    """A mesh document's patch, as ``patch_eval`` reads it."""

    def __init__(self, q: dict):
        self.degrees = tuple(q["degrees"])
        self.kvs = tuple(KnotVector(np.array(v, dtype=float), p)
                         for v, p in zip(q["knots"], self.degrees))
        shape = (self.kvs[0].n, self.kvs[1].n)
        self.weights = np.reshape(q["weights"], shape)
        self.points = np.reshape(q["control_points"], shape + (2,))


def weak_document_system(doc: dict, ncomp: int, forcing=None, D=None):
    """K (CSR) and f of a mesh document's weak cells, read as the README's
    "Mesh file format" section states them.

    Each cell's basis is (matrix @ B) / sum(matrix @ B), B the tensor
    Bernstein basis of the patch's degrees on the cell's ``rect`` with index
    i (p2 + 1) + j, the first direction slowest; the geometry is the patch's
    own NURBS map at the point of ``rect`` (``patch_eval``).  Integrals use
    p + 1 Gauss points per direction.  With ``ncomp`` 1 this is the Laplace
    stiffness and the load of ``forcing(x, y)``; with 2 it is small-strain
    elasticity with the Voigt matrix ``D`` (3, 3) and no body force, rows
    d * 2 + c for dof d and component c.
    """
    patches = [_DocumentPatch(q) for q in doc["patches"]]
    n = doc["weak_dofs"] * ncomp
    K, f = sp.lil_matrix((n, n)), np.zeros(n)
    for cell in doc["weak_cells"]:
        patch = patches[cell["patch"]]
        p1, p2 = patch.degrees
        M = np.array(cell["matrix"], dtype=float)
        (a1, b1), (a2, b2) = cell["rect"]
        rows = (np.array(cell["rows"])[:, None] * ncomp + np.arange(ncomp)).reshape(-1)
        t1, w1 = np.polynomial.legendre.leggauss(p1 + 1)
        t2, w2 = np.polynomial.legendre.leggauss(p2 + 1)
        Ke, fe = np.zeros((rows.size, rows.size)), np.zeros(rows.size)
        for s1, v1 in zip(t1, w1):
            for s2, v2 in zip(t2, w2):
                u1, u2 = (1 + s1) / 2, (1 + s2) / 2
                xi1, xi2 = a1 + (b1 - a1) * u1, a2 + (b2 - a2) * u2
                B1, dB1 = _bernstein(p1, u1)
                B2, dB2 = _bernstein(p2, u2)
                R = M @ np.outer(B1, B2).reshape(-1)
                dR = np.stack([M @ np.outer(dB1, B2).reshape(-1) / (b1 - a1),
                               M @ np.outer(B1, dB2).reshape(-1) / (b2 - a2)], axis=1)
                N = R / R.sum()
                dN = (dR - N[:, None] * dR.sum(axis=0)) / R.sum()
                x, jac = patch_eval(patch, xi1, xi2)[:2]
                grad = dN @ np.linalg.inv(jac)  # d N / d x_k = sum_d dN/dxi_d dxi_d/dx_k
                wdet = v1 * v2 * (b1 - a1) * (b2 - a2) / 4 * np.linalg.det(jac)
                if ncomp == 1:
                    Ke += wdet * grad @ grad.T
                    if forcing is not None:
                        fe += wdet * forcing(x[0], x[1]) * N
                else:
                    Bv = np.zeros((3, rows.size))
                    Bv[0, 0::2], Bv[1, 1::2] = grad[:, 0], grad[:, 1]
                    Bv[2, 0::2], Bv[2, 1::2] = grad[:, 1], grad[:, 0]
                    Ke += wdet * Bv.T @ D @ Bv
        K[np.ix_(rows, rows)] += Ke
        f[rows] += fe
    return K.tocsr(), f
