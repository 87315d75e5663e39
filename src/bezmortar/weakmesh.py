"""Reference formulas of the weakly continuous element extraction operators.

Interface continuity can be compiled into the element extraction operators of
the slave patch: each interface-adjacent element's trace rows are replaced by
master-function rows obtained by contracting the localized coupling matrix.
The compiled mesh itself comes from :meth:`MultiPatchModel.weak_mesh`, which
contracts through the prolongation operator; the functions here spell the
same operators out factor by factor for one element, so that
:func:`interface_operator_report` can pin them to exact values.
"""

from __future__ import annotations

import numpy as np

from .model import MultiPatchModel
from .splines import (
    SIDES,
    BernsteinInterval,
    bernstein_transform,
    bezier_extraction,
)

__all__ = [
    "weak_interface_operator",
    "refined_weak_interface_operator",
    "tensor_weak_patch_operator",
    "interface_operator_report",
]


def weak_interface_operator(G_local: np.ndarray, extraction: np.ndarray) -> np.ndarray:
    """Element operator expressing master functions in slave Bernstein form.

    ``G_local`` is the coupling matrix restricted to the interface functions
    active on the element (rows) and the master functions active on its image
    (columns); ``extraction`` is the slave element extraction operator.  The
    result maps element Bernstein values to master basis values, so a
    conforming interface (identity coupling block) returns the extraction
    operator unchanged.
    """
    return np.asarray(G_local).T @ np.asarray(extraction)


def refined_weak_interface_operator(G_local: np.ndarray, refined_extraction: np.ndarray,
                                    transform: np.ndarray) -> np.ndarray:
    """Weak operator of a refined subelement in parent Bernstein coordinates.

    ``transform`` is the Bernstein transformation matrix from the parent
    element interval to the subelement interval; with no refinement it is the
    identity and the plain interface operator is recovered.
    """
    M = np.asarray(transform)
    return np.asarray(G_local).T @ np.asarray(refined_extraction) @ np.linalg.inv(M).T


def tensor_weak_patch_operator(transverse: np.ndarray, trace_row: int,
                               standard_1d: np.ndarray, weak_1d: np.ndarray) -> np.ndarray:
    """Two-dimensional weak element operator from its 1D factors.

    The transverse operator is split into interior rows and the single row
    supported on the interface; only the interface row group is modified:

        [ interior_rows x standard_1d ]
        [ trace_row     x weak_1d     ]

    Columns follow transverse-major tensor ordering.
    """
    tr = np.asarray(transverse)
    interior = np.delete(np.arange(tr.shape[0]), trace_row)
    top = np.kron(tr[interior], np.asarray(standard_1d))
    bottom = np.kron(tr[[trace_row]], np.asarray(weak_1d))
    return np.vstack([top, bottom])


def interface_operator_report(model: MultiPatchModel, interface: int = 0,
                              element: int | None = None,
                              subcell: int = 0) -> dict[str, np.ndarray]:
    """Named operators of one refined interface subelement.

    Collects, for one slave element crossed by a refined-interface knot, the
    coupling matrix, its localized block, the refined and parent extraction
    operators in both directions, the Bernstein transformation matrix and the
    assembled 1D and tensor weak operators.  Used by the demo pipeline and
    the regression tests that pin these matrices to exact rationals.
    """
    coup = model.couplings[interface]
    pi, side = coup.spec.slave
    patch = model.patches[pi]
    axis_f, at_end = SIDES[side]
    axis_i = 1 - axis_f
    kv_i = patch.kvs[axis_i]
    kv_f = patch.kvs[axis_f]
    p_i = kv_i.degree
    refined = coup.refined.refined
    # pick the slave element that was actually subdivided (fall back to the
    # first element when no refinement crossed any element)
    if element is None:
        element = next(
            (k for k, s in enumerate(kv_i.spans())
             if len(coup.refined.cells_in(s)) > 1),
            0,
        )
    ops_i = bezier_extraction(kv_i)
    parent = ops_i[element]
    cells = coup.refined.cells_in(parent.span) or [parent.span]
    cell = cells[subcell]
    r_op = coup.refined.extraction[refined.element_index(0.5 * (cell[0] + cell[1]))]
    M = bernstein_transform(
        BernsteinInterval(parent.span[0], parent.span[1], p_i),
        BernsteinInterval(cell[0], cell[1], p_i),
    )
    mkv = coup.phi.master.kv
    eta = coup.phi(0.5 * (cell[0] + cell[1]))
    m_first = mkv.find_span(eta) - mkv.degree
    G = coup.coupling.values
    G_local = G[
        r_op.first : r_op.first + p_i + 1, m_first : m_first + mkv.degree + 1
    ]
    weak_1d = refined_weak_interface_operator(G_local, r_op.matrix, M)
    # transverse factor: the element layer adjacent to the interface
    ops_f = bezier_extraction(kv_f)
    op_f = ops_f[-1] if at_end else ops_f[0]
    trace_row = kv_f.degree if at_end else 0
    tensor = tensor_weak_patch_operator(
        op_f.matrix, trace_row, parent.matrix, weak_1d
    )
    return {
        "coupling": G,
        "coupling_local": G_local,
        "refined_extraction": r_op.matrix,
        "transform": M,
        "weak_1d": weak_1d,
        "parent_extraction": parent.matrix,
        "transverse_extraction": op_f.matrix,
        "tensor_operator": tensor,
    }
