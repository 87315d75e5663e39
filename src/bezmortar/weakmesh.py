"""Named operators of one weakly continuous interface cell.

Interface continuity can be compiled into the element extraction operators of
the slave patch: each interface-adjacent element's trace rows are replaced by
master-function rows obtained by contracting the localized coupling matrix.
:meth:`MultiPatchModel.weak_mesh` emits these cells;
:func:`interface_operator_report` reads one of them back in the factored form
of the paper (parent Bernstein coordinates, transverse-major rows) next to
the coupling and extraction operators it was built from.
"""

from __future__ import annotations

import numpy as np

from .model import MultiPatchModel
from .splines import (
    SIDES,
    BernsteinInterval,
    bernstein_transform,
    bezier_extraction,
    side_index,
)

__all__ = ["interface_operator_report"]


def interface_operator_report(model: MultiPatchModel, interface: int = 0,
                              element: int | None = None,
                              subcell: int = 0) -> dict[str, np.ndarray]:
    """Named operators of one refined interface subelement.

    Collects, for one slave element crossed by a refined-interface knot, the
    coupling matrix, its localized block, the refined and parent extraction
    operators in both directions and the Bernstein transformation matrix.
    The tensor weak operator is the cell ``weak_mesh()`` emits there, pulled
    back to parent Bernstein coordinates along the interface, with rows in
    transverse-major order (the slave functions by transverse, then
    interface index, then the master functions along the master edge) and
    columns transverse-major; ``weak_1d`` is its master rows on the edge's
    transverse Bernstein column group.  Used by the demo pipeline and the
    regression tests that pin these matrices to exact rationals.
    """
    coup = model.couplings[interface]
    pi, side = coup.spec.slave
    mp, ms = coup.spec.master
    patch = model.patches[pi]
    axis_f, at_end = SIDES[side]
    kv_i, kv_f = patch.kvs[1 - axis_f], patch.kvs[axis_f]
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
    parent = bezier_extraction(kv_i)[element]
    a, b = (coup.refined.cells_in(parent.span) or [parent.span])[subcell]
    r_op = bezier_extraction(refined)[refined.element_index(0.5 * (a + b))]
    M = bernstein_transform(parent.interval, BernsteinInterval(a, b, p_i))
    mkv = coup.phi.master.kv
    m_first = mkv.find_span(coup.phi(0.5 * (a + b))) - mkv.degree
    G = coup.coupling.values
    G_local = G[r_op.first : r_op.first + p_i + 1, m_first : m_first + mkv.degree + 1]
    # transverse factor: the element layer adjacent to the interface
    op_f = bezier_extraction(kv_f)[-1 if at_end else 0]
    xi = [0.0, 0.0]
    xi[axis_f], xi[1 - axis_f] = 0.5 * sum(op_f.span), 0.5 * (a + b)
    cell = model.weak_mesh().locate(pi, *xi)
    grid = model.grids[pi]
    order = np.concatenate([(grid.T if axis_f else grid).reshape(-1),
                            model.grids[mp][side_index(ms)]])
    rank = {dof: k for k, dof in enumerate(order.tolist()) if dof >= 0}
    rows = np.argsort([rank[dof] for dof in cell.rows.tolist()], kind="stable")
    op = cell.ophom[rows].reshape(len(rows), patch.degrees[0] + 1, patch.degrees[1] + 1)
    if axis_f:
        op = op.transpose(0, 2, 1)
    op = op @ np.linalg.inv(M).T
    tensor = op.reshape(len(rows), -1)
    edge = kv_f.degree if at_end else 0
    n_int = kv_f.degree * (p_i + 1)
    return {
        "coupling": G,
        "coupling_local": G_local,
        "refined_extraction": r_op.matrix,
        "transform": M,
        "weak_1d": op[n_int:, edge],
        "parent_extraction": parent.matrix,
        "transverse_extraction": op_f.matrix,
        "tensor_operator": tensor,
    }
