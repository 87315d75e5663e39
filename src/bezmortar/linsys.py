"""Assembled linear systems, Dirichlet elimination and direct solves."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "AssembledSystem", "linear_solve"]


# Systems of at most this many rows are solved dense (see linear_solve).  Whole
# linear_solve calls on the benchmark cases' own reduced systems (square p=2-4,
# annulus, plate with a hole), one BLAS thread, best of 16-60 calls, SuperLU
# ordered by minimum degree on A^T + A:
#
#   rows (free)   dense µs   SuperLU µs
#     36 (27)          43          172
#     92 (78)          87          379
#    154 (136)        194          784
#    244 (232)        571         1023
#    282 (258)        671         1137
#    331 (305)       1065         1987
#    384 (356)       1720         3767
#    564 (540)       4675         3553
#    744 (724)       9448         5318
#    974 (930)      18359         5136
#
# Dense wins up to at least 384 rows and loses from 564 on, as it did under
# the COLAMD column ordering: minimum degree cuts the fill of the large
# systems, not the fixed costs of the small ones.  The bound keeps its
# margin below that crossover and keeps the dense copy of K under 0.75 MB.
_DENSE_ROWS = 300


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
    prescribed values).  The factorization is chosen from the system's row
    count ``n``:

    - up to ``_DENSE_ROWS`` rows, K is densified (at most n² doubles, with
      duplicate entries summed) and its free block is solved by LAPACK's LU
      with partial pivoting (``numpy.linalg.solve``).  At this size
      SuperLU's fixed costs (ordering, symbolic analysis, supernode set-up)
      outweigh the dense arithmetic it saves;
    - above it, the free block ``K[free][:, free]`` is factored by SuperLU
      in CSC form: its transpose, whose CSC arrays are the block's CSR
      arrays, left relative residuals above 1e-10 on the plate saddle
      systems.  Its columns are ordered by multiple minimum degree on the
      pattern of Aᵀ + A (Liu, ACM TOMS 11, 1985), which on the benchmark
      meshes, symmetric in pattern, keeps about half the fill of COLAMD.

    Raises ValueError on conflicting values for one row, a row that is no
    integer or lies outside the system or a value that is not finite, and
    :class:`NumericalError` when factorization fails or the relative
    residual on the free rows exceeds 1e-10.
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
        block = K.toarray()[free][:, free]
        try:
            sol = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense factorization failed: {exc}") from exc
    else:
        block = K[free][:, free]
        try:
            sol = spla.splu(block.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
        except RuntimeError as exc:
            raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular system (non-finite solution)")
    resid = np.linalg.norm(block @ sol - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and resid / scale > 1e-10:
        raise NumericalError(f"solver residual {resid / scale:.2e} exceeds 1e-10")
    x[free] = sol
    return x
