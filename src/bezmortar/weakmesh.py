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
from .splines import SIDES, _element_tables, bernstein_transform, bspline_table, side_index

__all__ = ["interface_operator_report"]


def interface_operator_report(model: MultiPatchModel) -> dict[str, np.ndarray]:
    """Named operators of one refined subelement of the first interface.

    Collects, for the first slave element crossed by a refined-interface
    knot (the first element when no refinement crossed any) and its first
    subcell, the coupling matrix, its localized block, the refined and parent
    extraction operators in both directions and the Bernstein transformation
    matrix, all read from the knot vectors' stacked extraction tables.
    The tensor weak operator is the cell ``weak_mesh()`` emits there, pulled
    back to parent Bernstein coordinates along the interface, with rows in
    transverse-major order (the slave functions by transverse, then
    interface index, then the master functions along the master edge) and
    columns transverse-major; ``weak_1d`` is its master rows on the edge's
    transverse Bernstein column group.  The regression tests pin these
    matrices to exact rationals; no library path calls it.
    """
    coup = model.couplings[0]
    pi, side = coup.spec.slave
    mp, ms = coup.spec.master
    patch = model.patches[pi]
    axis_f, at_end = SIDES[side]
    kv_i, kv_f = patch.kvs[1 - axis_f], patch.kvs[axis_f]
    p_i = kv_i.degree
    bp_i, _, C_i = _element_tables(kv_i)
    bp_r, first_r, C_r = _element_tables(coup.refined.refined)
    # the first refined breakpoint inside a slave element ends its first subcell
    cuts = np.setdiff1d(bp_r, bp_i)
    element = int(np.searchsorted(bp_i, cuts[0])) - 1 if cuts.size else 0
    lo, hi = bp_i[element], bp_i[element + 1]
    a, b = lo, (cuts[0] if cuts.size else hi)
    M = bernstein_transform(p_i, *(np.array([(t - lo) / (hi - lo)]) for t in (a, b)))[0]
    e_r = np.searchsorted(bp_r, 0.5 * (a + b)) - 1
    mkv = coup.phi.master.kv
    m_first = bspline_table(mkv, np.array([coup.phi(0.5 * (a + b))]))[0][0, 0]
    G = coup.coupling.values
    G_local = G[first_r[e_r] : first_r[e_r] + p_i + 1, m_first : m_first + mkv.degree + 1]
    # transverse factor: the element layer adjacent to the interface
    bp_f, _, C_f = _element_tables(kv_f)
    e_f = len(bp_f) - 2 if at_end else 0
    xi = [0.0, 0.0]
    xi[axis_f], xi[1 - axis_f] = 0.5 * (bp_f[e_f] + bp_f[e_f + 1]), 0.5 * (a + b)
    mesh = model.weak_mesh()
    pos = mesh.cell_index(np.array([pi]), np.array([xi[0]]), np.array([xi[1]]))[0]
    g = next(g for g in mesh.groups if pos in g.index)
    c = np.searchsorted(g.index, pos)
    grid = model.grids[pi]
    order = np.concatenate([(grid.T if axis_f else grid).reshape(-1),
                            model.grids[mp][side_index(ms)]])
    rank = {dof: k for k, dof in enumerate(order.tolist()) if dof >= 0}
    rows = np.argsort([rank[dof] for dof in g.rows[c].tolist()], kind="stable")
    op = g.ophom[c][rows].reshape(len(rows), patch.degrees[0] + 1, patch.degrees[1] + 1)
    if axis_f:
        op = op.transpose(0, 2, 1)
    op = op @ np.linalg.inv(M).T
    tensor = op.reshape(len(rows), -1)
    edge = kv_f.degree if at_end else 0
    n_int = kv_f.degree * (p_i + 1)
    return {
        "coupling": G,
        "coupling_local": G_local,
        "refined_extraction": C_r[e_r],
        "transform": M,
        "weak_1d": op[n_int:, edge],
        "parent_extraction": C_i[element],
        "transverse_extraction": C_f[e_f],
        "tensor_operator": tensor,
    }
