"""Assembled linear systems, Dirichlet elimination and direct solves."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "AssembledSystem", "apply_dirichlet", "linear_solve"]


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
    map to row ``d * ncomp + c``.  ``constraints`` maps constrained rows to
    prescribed values; it is filled by :func:`apply_dirichlet`.
    """

    K: sp.csr_matrix
    f: np.ndarray
    ncomp: int = 1
    constraints: dict[int, float] = field(default_factory=dict)

    @property
    def nrows(self) -> int:
        return self.K.shape[0]


def apply_dirichlet(system: AssembledSystem, constraints) -> AssembledSystem:
    """Attach Dirichlet constraints, checking for conflicts.

    Parameters
    ----------
    constraints : iterable of (row, value)
        Vector-dof row indices with prescribed values.  A row constrained
        twice must receive consistent values (within 1e-8 relative),
        otherwise a ValueError is raised.
    """
    merged = dict(system.constraints)
    for row, value in constraints:
        row = int(row)
        if row in merged:
            scale = max(1.0, abs(merged[row]), abs(value))
            if abs(merged[row] - value) > 1e-8 * scale:
                raise ValueError(
                    f"conflicting Dirichlet values on dof {row}: "
                    f"{merged[row]} vs {value}"
                )
        else:
            merged[row] = float(value)
    return replace(system, constraints=merged)


def linear_solve(system: AssembledSystem) -> np.ndarray:
    """Direct solve with symmetric elimination of constrained rows.

    Returns the full solution vector (constrained rows carry their
    prescribed values).  The factorization is chosen from the system's row
    count ``n``:

    - up to ``_DENSE_ROWS`` rows, K is densified (at most n² doubles, with
      duplicate entries summed) and its free block is solved by LAPACK's LU
      with partial pivoting (``numpy.linalg.solve``).  At this size
      SuperLU's fixed costs (ordering, symbolic analysis, supernode set-up)
      outweigh the dense arithmetic it saves;
    - above it, the free block is selected in one pass over K's CSR arrays:
      the entries whose row and column are both free are kept, in their
      order, and renumbered.  SuperLU factors the block itself, in CSC
      form: its transpose, whose CSC arrays are the block's CSR arrays,
      left relative residuals above 1e-10 on the plate saddle systems.
      Its columns are ordered by multiple minimum degree on the pattern of
      Aᵀ + A (Liu, ACM TOMS 11, 1985), which on the benchmark meshes,
      symmetric in pattern, keeps about half the fill of COLAMD.

    Raises ValueError when a constrained row lies outside the system or its
    value is not finite, and :class:`NumericalError` when factorization
    fails or the relative residual on the free rows exceeds 1e-10.
    """
    n = system.nrows
    K = system.K.tocsr()
    f = np.asarray(system.f, dtype=float)
    c = system.constraints
    fixed = np.fromiter(c.keys(), dtype=np.int64, count=len(c))
    values = np.fromiter(c.values(), dtype=float, count=len(c))
    bad = (fixed < 0) | (fixed >= n)
    if bad.any():
        raise ValueError(f"Dirichlet row {fixed[bad][0]} outside the system's rows 0..{n - 1}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite Dirichlet value on row {fixed[~np.isfinite(values)][0]}")
    x = np.zeros(n)
    x[fixed] = values
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    nfree = n - fixed.size
    if nfree == 0:
        return x
    rhs = (f - K @ x)[free]
    if n <= _DENSE_ROWS:
        block = K.toarray()[free][:, free]
        try:
            sol = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense factorization failed: {exc}") from exc
    else:
        renumber = np.cumsum(free, dtype=K.indices.dtype) - 1
        row = np.repeat(np.arange(n), np.diff(K.indptr))
        keep = free[row] & free[K.indices]
        rows, cols = renumber[row[keep]], renumber[K.indices[keep]]
        indptr = np.zeros(nfree + 1, dtype=K.indptr.dtype)
        np.cumsum(np.bincount(rows, minlength=nfree), out=indptr[1:])
        block = sp.csr_matrix((K.data[keep], cols, indptr), shape=(nfree, nfree))
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
