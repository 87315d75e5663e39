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
    prescribed values).  Raises :class:`NumericalError` when factorization
    fails or the relative residual on the free rows exceeds ``rtol``.
    """
    n = system.nrows
    K = system.K.tocsr()
    f = np.asarray(system.f, dtype=float)
    fixed = np.fromiter(system.constraints.keys(), dtype=int, count=len(system.constraints))
    x = np.zeros(n)
    if fixed.size:
        x[fixed] = [system.constraints[int(i)] for i in fixed]
    free = np.setdiff1d(np.arange(n), fixed, assume_unique=False)
    if free.size == 0:
        return x
    rhs = f[free] - K[free][:, fixed] @ x[fixed] if fixed.size else f[free]
    Kff = K[free][:, free].tocsc()
    try:
        sol = spla.spsolve(Kff, rhs)
    except RuntimeError as exc:
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular system (non-finite solution)")
    resid = np.linalg.norm(Kff @ sol - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and resid / scale > rtol:
        raise NumericalError(f"solver residual {resid / scale:.2e} exceeds {rtol:.0e}")
    x[free] = sol
    return x
