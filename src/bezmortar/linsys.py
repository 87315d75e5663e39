"""Assembled linear systems, Dirichlet elimination and direct solves."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "AssembledSystem", "linear_solve"]


# Systems of at most this many rows are solved dense; above it, free blocks of
# band work m (b + 1)² up to _BAND_WORK by banded Cholesky when symmetric and
# positive definite, and others by SuperLU (see linear_solve).  Whole
# linear_solve calls forced onto each route (tests/solve_routes.py, recorded in
# BENCH_banded_solve.json) on the benchmark cases' condensed free blocks, one
# BLAS thread, each route in three fresh interpreters; the medians of the
# first call / the warm calls, in µs:
#
#   rows (free)  band  band work      dense           banded          SuperLU      case, level
#     36 (27)     13    5.3e3        648 /    61      728 /   107     1101 /   384  square p=2, 0
#     92 (78)     19    3.1e4        623 /   101     1024 /   234     1793 /   899  square p=2, 1
#    154 (136)    46    3.0e5        685 /   208      962 /   298     1759 /  1090  square p=4, 1
#    184 (170)   129    2.9e6        951 /   338     1196 /   433     1862 /  1134  plate 2-patch, 1
#    244 (232)   136    4.4e6       2651 /  1028     2575 /  1520     2907 /  1983  plate 3-patch, 1
#    282 (258)    31    2.6e5       2829 /  1268     1231 /   472     2209 /  1641  square p=2, 2
#    282 (258)   176    8.1e6       2558 /  1371     1730 /  1147     2314 /  1649  annulus, 2
#    384 (356)    69    1.7e6       4767 /  2993     2363 /  1391     5719 /  4933  square p=4, 2
#    564 (540)   387    8.1e7      11200 /  7427     7979 /  6211     5563 /  5064  plate 2-patch, 2
#    744 (724)   400    1.2e8      22557 / 17924    14446 / 12236     6989 /  6071  plate 3-patch, 2
#    974 (930)    55    2.9e6      29047 / 24410     4454 /  3479     7434 /  6450  square p=2, 3
#    974 (930)   636    3.8e8      26867 / 17637    15684 / 13108     8160 /  7160  annulus, 3
#   3606 (3522)  103    3.8e7          -            16066 / 13102    32709 / 28050  square p=2, 4
#
# Banded Cholesky beats dense LU on both calls from 282 rows on; up to 244
# rows dense wins at least the warm call on every block (at 244 the first
# calls are within 3%).  So the dense bound lies between, and the dense copy
# of K stays under 0.5 MB.
_DENSE_ROWS = 250

# Above the dense bound, banded Cholesky beats SuperLU on every swept block up
# to a band work of 3.8e7 and loses from 8.1e7 on (the 2-patch plate at level
# 2): its cost grows as m b², SuperLU's with the fill of a minimum-degree
# ordering, and the plates' and the annulus's patch-by-patch numbering gives
# bands of 0.5-0.7 m.  The budget is the largest round work below that
# crossover.  The square at levels 5 and 6 (band work 5.5e8 and 8.3e9) stays
# on SuperLU although the band wins there too (113 against 169 ms and 0.67
# against 1.06 s on the first call): one bound on m b² cannot part it from
# the plates.
_BAND_WORK = 8e7

# max |K - K^T| / max |K| is at most 3.4e-16 on the swept blocks, the plate
# saddle systems and the neo-Hookean tangents (PᵀKP and the assembly sum in
# different orders); a nonsymmetric operator is far above this bound.
_SYMMETRY_RTOL = 1e-14


class NumericalError(RuntimeError):
    """Solver-level failure (singular system, non-convergence)."""


@dataclass
class AssembledSystem:
    """Sparse symmetric stiffness (or tangent) with load vector.

    Rows are vector degrees of freedom: scalar dof ``d`` and component ``c``
    map to row ``d * ncomp + c``.
    """

    K: sp.csr_matrix
    f: np.ndarray
    ncomp: int = 1

    @property
    def nrows(self) -> int:
        return self.K.shape[0]


def linear_solve(system: AssembledSystem, constraints) -> np.ndarray:
    """Direct solve with symmetric elimination of constrained rows.

    ``constraints`` is an iterable of (row, value) pairs: vector-dof rows
    with prescribed values.  A row constrained twice must receive consistent
    values (within 1e-8 relative), and the first one is solved for.

    Returns the full solution vector (constrained rows carry their
    prescribed values).  The factorization is chosen from the free block:

    - up to ``_DENSE_ROWS`` system rows, K is densified (at most n² doubles,
      with duplicate entries summed) and its free block is solved by
      LAPACK's LU with partial pivoting (``numpy.linalg.solve``).  At this
      size the fixed costs of the sparse routes outweigh the dense
      arithmetic they save;
    - above it, the free block's band is read from K's stored entries, with
      the free rows renumbered in their order.  A block whose entries mirror
      each other within ``_SYMMETRY_RTOL`` times the largest entry of its
      upper triangle and whose band work m (b + 1)² (m rows, b the largest
      distance of an entry from the diagonal) is at most ``_BAND_WORK`` is
      solved by banded Cholesky (LAPACK ``pbsv`` through
      ``scipy.linalg.solveh_banded``; George & Liu, *Computer Solution of
      Large Sparse Positive Definite Systems*, 1981, ch. 4) on its upper
      band.  The condensed and weak systems are symmetric positive definite,
      and numbered patch by patch the square's are narrow-banded;
    - any other block, and one that is not positive definite (a diagonal
      entry that is not positive, as in the saddle systems, or a failed
      Cholesky factorization, as on an indefinite Newton tangent), is
      factored by SuperLU: ``K[free][:, free]`` in CSC form,
      whose transpose, the block's CSR arrays, left relative residuals above
      1e-10 on the plate saddle systems.  Its columns are ordered by
      multiple minimum degree on the pattern of Aᵀ + A (Liu, ACM TOMS 11,
      1985), which on the benchmark meshes, symmetric in pattern, keeps
      about half the fill of COLAMD.

    Raises ValueError on conflicting values for one row, a row that is no
    integer or lies outside the system or a value that is not finite, and
    :class:`NumericalError` when factorization fails or the relative
    residual, (K x - f) on the free rows against the load the free block is
    solved for, exceeds 1e-10.
    """
    n = system.nrows
    K = system.K.tocsr()
    f = np.asarray(system.f, dtype=float)
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
        sol = _banded_cholesky(K, free, rhs)
        if sol is None:
            try:
                sol = spla.splu(K[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
            except RuntimeError as exc:
                raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular system (non-finite solution)")
    x[free] = sol
    resid = np.linalg.norm((K @ x - f)[free])
    scale = np.linalg.norm(rhs)
    if scale > 0 and resid / scale > 1e-10:
        raise NumericalError(f"solver residual {resid / scale:.2e} exceeds 1e-10")
    return x


def _banded_cholesky(K: sp.csr_matrix, free: np.ndarray, rhs: np.ndarray):
    """The free block's solution by banded Cholesky; None where its band work
    exceeds ``_BAND_WORK``, it is not symmetric, a diagonal entry is not
    positive (the saddle systems' multiplier rows, numbered last, would fail
    the factorization only after every row before them) or it is not
    positive definite."""
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    keep = free[rows] & free[K.indices]
    renumber = np.cumsum(free) - 1
    i, j, v = renumber[rows[keep]], renumber[K.indices[keep]], K.data[keep]
    m = rhs.size
    b = int(np.abs(i - j).max(initial=0))
    if m * (b + 1) ** 2 > _BAND_WORK:
        return None
    # LAPACK's upper band storage holds entry (i, j), i <= j, at [b + i - j, j];
    # the strict lower triangle is mirrored to the same places, summing duplicates
    upper = i <= j
    at = (b - np.abs(i - j)) * m + np.maximum(i, j)
    ab = np.bincount(at[upper], v[upper], (b + 1) * m).reshape(b + 1, m)
    if not np.all(ab[b] > 0):
        return None
    mirror = np.bincount(at[~upper], v[~upper], b * m).reshape(b, m)
    mirror -= ab[:b]
    if not np.abs(mirror, out=mirror).max(initial=0.0) <= _SYMMETRY_RTOL * max(ab.max(), -ab.min()):
        return None
    try:
        return sla.solveh_banded(ab, rhs, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
