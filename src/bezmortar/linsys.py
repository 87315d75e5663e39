"""Assembled linear systems, Dirichlet elimination and sparse solves."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "AssembledSystem", "apply_dirichlet", "linear_solve"]


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

    def symmetry_error(self) -> float:
        d = self.K - self.K.T
        nrm = spla.norm(self.K)
        return spla.norm(d) / nrm if nrm > 0 else 0.0


def apply_dirichlet(system: AssembledSystem, constraints, tol: float = 1e-8) -> AssembledSystem:
    """Attach Dirichlet constraints, checking for conflicts.

    Parameters
    ----------
    constraints : iterable of (row, value)
        Vector-dof row indices with prescribed values.  A row constrained
        twice must receive consistent values (within ``tol`` relative),
        otherwise a ValueError is raised.
    """
    merged = dict(system.constraints)
    for row, value in constraints:
        row = int(row)
        if row in merged:
            scale = max(1.0, abs(merged[row]), abs(value))
            if abs(merged[row] - value) > tol * scale:
                raise ValueError(
                    f"conflicting Dirichlet values on dof {row}: "
                    f"{merged[row]} vs {value}"
                )
        else:
            merged[row] = float(value)
    return replace(system, constraints=merged)


def linear_solve(system: AssembledSystem, rtol: float = 1e-10) -> np.ndarray:
    """Direct sparse solve with symmetric elimination of constrained rows.

    Returns the full solution vector (constrained rows carry their
    prescribed values).  The free block is selected in one pass over K's
    CSR arrays: the entries whose row and column are both free are kept, in
    their order, and renumbered.  Its CSR arrays are the CSC arrays of its
    transpose, so SuperLU factors the transpose as it stands and solves
    with ``trans="T"``; no further copy or format conversion is made.

    Raises ValueError when a constrained row lies outside the system or its
    value is not finite, and :class:`NumericalError` when factorization
    fails or the relative residual on the free rows exceeds ``rtol``.
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
    renumber = np.cumsum(free, dtype=K.indices.dtype) - 1
    row = np.repeat(np.arange(n), np.diff(K.indptr))
    keep = free[row] & free[K.indices]
    rows, cols, data = renumber[row[keep]], renumber[K.indices[keep]], K.data[keep]
    indptr = np.zeros(nfree + 1, dtype=K.indptr.dtype)
    np.cumsum(np.bincount(rows, minlength=nfree), out=indptr[1:])
    try:
        sol = spla.splu(sp.csc_matrix((data, cols, indptr), shape=(nfree, nfree))).solve(
            rhs, trans="T")
    except RuntimeError as exc:
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular system (non-finite solution)")
    resid = np.linalg.norm(np.bincount(rows, data * sol[cols], minlength=nfree) - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and resid / scale > rtol:
        raise NumericalError(f"solver residual {resid / scale:.2e} exceeds {rtol:.0e}")
    x[free] = sol
    return x
