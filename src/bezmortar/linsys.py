"""Assembled linear systems, Dirichlet elimination and direct solves."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["NumericalError", "AssembledSystem", "linear_solve"]


# Systems of at most this many rows are solved dense; above it, symmetric
# positive definite free blocks by banded Cholesky and others by SuperLU (see
# linear_solve).  Whole linear_solve calls forced onto each route on the
# benchmark cases' condensed free blocks (tests/solve_routes.py, recorded in
# BENCH_band_order.json): banded Cholesky beats dense LU on the first and the
# warm call from 282 rows on, and up to 244 rows dense wins at least the warm
# call on every block.  So the dense bound lies between, and the dense copy of
# K stays under 0.5 MB.
_DENSE_ROWS = 250

# max |K - K^T| / max |K| is at most 3.4e-16 on the swept blocks, the plate
# saddle systems and the neo-Hookean tangents (PᵀKP and the assembly sum in
# different orders); a nonsymmetric operator is far above this bound.
_SYMMETRY_RTOL = 1e-14


class NumericalError(RuntimeError):
    """Solver-level failure (singular system, non-convergence)."""


@dataclass
class AssembledSystem:
    """Sparse symmetric stiffness (or tangent) with load vector.

    Rows are vector degrees of freedom: with ncomp components per dof, scalar
    dof ``d`` and component ``c`` map to row ``d * ncomp + c``.
    """

    K: sp.csr_matrix
    f: np.ndarray

    @property
    def nrows(self) -> int:
        return self.K.shape[0]


def linear_solve(system: AssembledSystem, constraints) -> np.ndarray:
    """Direct solve with symmetric elimination of constrained rows.

    ``constraints`` is an iterable of (row, value) pairs: vector-dof rows
    with prescribed values, checked by :func:`_prescribed`.

    Returns the full solution vector (constrained rows carry their
    prescribed values).  The factorization is chosen from the free block:

    - up to ``_DENSE_ROWS`` system rows, K is densified (at most n² doubles,
      with duplicate entries summed) and its free block is solved by
      LAPACK's LU with partial pivoting (``numpy.linalg.solve``).  At this
      size the fixed costs of the sparse routes outweigh the dense
      arithmetic they save;
    - above it, the free block ``K[free][:, free]``, with duplicate entries
      summed, is solved by banded Cholesky (:func:`_banded_cholesky`) when it
      is symmetric with a positive diagonal, in the narrower band of its
      natural order and the reverse Cuthill-McKee order.  The condensed and
      weak systems are symmetric positive definite;
    - any other block, and one whose Cholesky factorization fails (an
      indefinite Newton tangent), is factored by SuperLU as
      ``K[free][:, free]`` in CSC form, whose transpose, the block's CSR
      arrays, left relative residuals above 1e-10 on the plate saddle
      systems.  Its columns are ordered by multiple minimum degree on the
      pattern of Aᵀ + A (Liu, ACM TOMS 11, 1985), which on the benchmark
      meshes, symmetric in pattern, keeps about half the fill of COLAMD.

    Raises ValueError on a bad constraint (see :func:`_prescribed`) and
    :class:`NumericalError` when factorization fails or the relative
    residual exceeds 1e-10: (K x - f) on the free rows against ‖f[free]‖ +
    ‖K[free][:, fixed]‖_F ‖x[fixed]‖, which unlike the eliminated load
    (f - K x)[free] cannot cancel (Higham 2002, §7.1); its second term is read
    from K's stored entries, and only when some constrained value is nonzero.
    """
    n = system.nrows
    K = system.K.tocsr()
    f = np.asarray(system.f, dtype=float)
    prescribed = _prescribed(constraints, n)
    fixed = np.fromiter(prescribed, dtype=np.int64, count=len(prescribed))
    x = np.zeros(n)
    x[fixed] = np.fromiter(prescribed.values(), dtype=float, count=len(prescribed))
    if fixed.size == n:
        return x
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    rhs = (f - K @ x)[free]
    if n <= _DENSE_ROWS:
        try:
            sol = np.linalg.solve(K.toarray()[free][:, free], rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense factorization failed: {exc}") from exc
    else:
        A = K[free][:, free]
        sol = _banded_cholesky(A, rhs)
        if sol is None:
            try:
                sol = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
            except RuntimeError as exc:
                raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular system (non-finite solution)")
    x[free] = sol
    resid = np.linalg.norm((K @ x - f)[free])
    scale = np.linalg.norm(f[free])
    if np.any(x[fixed]):  # K[free][:, fixed] by a row and a column mask on K's entries
        cross = np.repeat(free, np.diff(K.indptr)) & ~free[K.indices]
        scale += np.linalg.norm(K.data[cross]) * np.linalg.norm(x[fixed])
    if scale > 0 and resid / scale > 1e-10:
        raise NumericalError(f"solver residual {resid / scale:.2e} exceeds 1e-10")
    return x


def _prescribed(constraints, n: int) -> dict[int, float]:
    """Each constrained row's value, from (row, value) pairs on an n-row system.

    The one check of the pairs, for :func:`linear_solve` and Newton alike: a
    row constrained twice must receive consistent values (within 1e-8
    relative), and the first one is kept.  Raises ValueError on conflicting
    values for one row, a row that is no integer or lies outside the system
    and a value that is not finite.
    """
    prescribed: dict[int, float] = {}
    for row, value in constraints:
        try:
            row = operator.index(row)
        except TypeError:
            raise ValueError(f"Dirichlet row {row!r} is not an integer") from None
        value = float(value)
        if not 0 <= row < n:
            raise ValueError(f"Dirichlet row {row} outside the system's rows 0..{n - 1}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite Dirichlet value on row {row}")
        first = prescribed.setdefault(row, value)
        if abs(first - value) > 1e-8 * max(1.0, abs(first), abs(value)):
            raise ValueError(f"conflicting Dirichlet values on dof {row}: {first} vs {value}")
    return prescribed


def _banded_cholesky(A: sp.csr_matrix, rhs: np.ndarray):
    """The solution of the free block A by banded Cholesky; None where a
    diagonal entry is not positive (the saddle systems' multiplier rows), A
    is not symmetric or it is not positive definite.

    With duplicate entries summed, A must match its transpose within
    ``_SYMMETRY_RTOL`` times the largest entry of its upper triangle, so a
    stored nonzero whose transposed entry is missing counts against that
    bound.  The band b, the largest distance of a stored entry from the
    diagonal, is read in the natural order and in the reverse Cuthill-McKee
    order of the block's pattern (Cuthill & McKee, ACM National Conference
    1969; George & Liu, *Computer Solution of Large Sparse Positive Definite
    Systems*, 1981, ch. 4), and the narrower one is kept; a tie keeps the
    natural order.  Numbered patch by patch, the square's blocks are
    narrower in their own order and the plates' and the annulus's in RCM's.
    The upper band is solved by LAPACK ``pbsv`` (``scipy.linalg.solveh_banded``)
    in place: (b + 1) m doubles, m the free rows.
    """
    A.sum_duplicates()  # in place, columns in order: SuperLU may get A next
    i, j = np.repeat(np.arange(rhs.size), np.diff(A.indptr)), A.indices
    if not (np.all(A.diagonal() > 0) and abs(A - A.T).max()
            <= _SYMMETRY_RTOL * np.abs(A.data[i <= j]).max()):
        return None
    # each row's place in RCM order; a block that passed is symmetric in
    # pattern but for entries within the tolerance, and those may be ignored
    at = np.argsort(rcm := reverse_cuthill_mckee(A, symmetric_mode=True))
    if np.abs(at[i] - at[j]).max() >= np.abs(i - j).max():
        rcm = at = np.arange(rhs.size)  # the natural order is no wider
    i, j = at[i], at[j]  # int64, so that the band index below cannot overflow
    b, upper = int(np.abs(i - j).max()), i <= j
    # LAPACK's upper band storage holds entry (i, j), i <= j, at [b + i - j, j],
    # here in Fortran order, index j (b + 1) + b + i - j, so that pbsv needs no copy
    ab = np.bincount(b * (j[upper] + 1) + i[upper], A.data[upper], (b + 1) * rhs.size)
    try:
        sol = sla.solveh_banded(ab.reshape(-1, b + 1).T, rhs[rcm], overwrite_ab=True,
                                check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return sol[at]
