"""The batched cell builder against a per-element reference builder.

The reference below builds every cell on its own: one ``np.kron`` per
standard element, and trace cells row by row, with the refined interface
extraction in the edge row group and each subcell's interface-direction
operator from ``splines._subdivision`` at the knot vector's breakpoints and
that subcell's two ends (the kernel's arithmetic is checked against
``bspline_table`` in test_splines); each cell's geometry is the transpose of
its patch's operator ``w (C1 kron C2)`` times the control points (x, y, 1).
The mortar stream must equal it bit for bit (cell order and every field);
the weak stream, contracted cell by cell through ``P[c.rows]``, must give
the same rows and operators to rounding.  The blocks ``cell_blocks`` reads
from the mesh's shape groups must equal, bit for bit, those of regrouping
the cells by shape.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given

from bezmortar import InterfaceSpec, MultiPatchModel
from bezmortar import fem
from bezmortar.benchmarks import (
    largedef_model,
    rect_patch,
)
from bezmortar.model import Cell
from bezmortar.splines import (
    SIDES,
    Patch2D,
    _subdivision,
    bezier_extraction,
)
from cases import case_model, two_patch_models

# ------------------------------------------------------- reference builder

# one element of a knot vector: first function, extraction operator, span
Element = namedtuple("Element", "first matrix span")


def elements(kv) -> list[Element]:
    """The elements of ``kv``, one by one, from its stacked extraction tables."""
    bp, first, C = bezier_extraction(kv)
    return [Element(f, Ce, (a, b))
            for f, Ce, a, b in zip(first.tolist(), C, bp[:-1].tolist(), bp[1:].tolist())]



def reference_mortar_cells(model) -> list[Cell]:
    cells = []
    for pi in range(len(model.patches)):
        slave_sides = {coup.spec.slave[1]: ci for ci, coup in enumerate(model.couplings)
                       if coup.spec.slave[0] == pi}
        for op1 in elements(model.patches[pi].kvs[0]):
            for op2 in elements(model.patches[pi].kvs[1]):
                side = _strip_side(model, pi, slave_sides, op1, op2)
                if side is None:
                    cells.append(_standard_cell(model, pi, op1, op2))
                else:
                    cells.extend(_trace_cells(model, pi, slave_sides[side], side, op1, op2))
    return cells


def reference_weak_cells(model) -> list[Cell]:
    P = model.P.tocsr()
    cells = []
    for c in reference_mortar_cells(model):
        if c.rows.max() < model.n_retained:
            cells.append(c)
            continue
        sub = P[c.rows]
        cols = np.unique(sub.indices)
        # every retained dof with a stored entry in P[rows] is a row, however
        # small its contracted operator: the library's rule since it stopped
        # dropping rows by size (rows of 1e-19-1e-13 against a cell maximum
        # near 1 occur, p = 3 with dual refinement 2 on a reversed interface)
        cells.append(Cell(c.patch, c.rect, cols, np.asarray(sub[:, cols].T @ c.ophom),
                          c.geo, c.degrees))
    return cells


def _strip_side(model, pi, slave_sides, op1, op2):
    patch = model.patches[pi]
    hit = None
    for side in slave_sides:
        axis, at_end = SIDES[side]
        edge = patch.kvs[axis].n - 1 - patch.degrees[axis] if at_end else 0
        if (op1, op2)[axis].first == edge:
            if hit is not None:
                raise ValueError("element adjacent to two slave interfaces; refine the patch")
            hit = side
    return hit


def _standard_cell(model, pi, op1, op2) -> Cell:
    patch = model.patches[pi]
    p1, p2 = patch.degrees
    f1, f2 = op1.first, op2.first
    w = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
    pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
    op = w[:, None] * np.kron(op1.matrix, op2.matrix)
    rows = model.grids[pi][f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
    return Cell(pi, (op1.span, op2.span), rows.copy(), op, _geo(op, pts), (p1, p2))


def _trace_cells(model, pi, ci, side, op1, op2) -> list[Cell]:
    patch = model.patches[pi]
    coup = model.couplings[ci]
    p1, p2 = patch.degrees
    axis_f, at_end = SIDES[side]
    op_f, op_i = (op1, op2)[axis_f], (op1, op2)[1 - axis_f]
    p_f, p_i = patch.degrees[axis_f], patch.degrees[1 - axis_f]
    edge_global = patch.kvs[axis_f].n - 1 if at_end else 0
    r_ops = elements(coup.trace.kv)
    r_bp = [op.span[0] for op in r_ops]
    w_r = coup.trace.weights
    tids = model.trace_ids[ci]
    lo, hi = op_i.span
    # the element's own cut: the refined breakpoints strictly inside it
    cuts = [lo] + [x for x in coup.trace.kv.breakpoints().tolist() if lo < x < hi] + [hi]
    cells = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        r_op = r_ops[max(int(np.searchsorted(r_bp, 0.5 * (a + b), side="right")) - 1, 0)]
        # this subcell's operator: the kernel at the knot vector's own
        # breakpoints and the subcell's two ends
        kv_i = patch.kvs[1 - axis_f]
        bp = np.union1d(kv_i.breakpoints(), [a, b])
        first, C = _subdivision(kv_i, bp)
        k = int(np.searchsorted(bp, a))
        assert first[k] == op_i.first
        Ci_cell = C[k]
        rows, op_rows = [], []
        for a_f in range(p_f + 1):
            g_f = op_f.first + a_f
            if g_f == edge_global:
                for r in range(p_i + 1):
                    rows.append(int(tids[r_op.first + r]))
                    op_rows.append(w_r[r_op.first + r]
                                   * _axis_kron(op_f.matrix[a_f], r_op.matrix[r], axis_f))
            else:
                for a_i in range(p_i + 1):
                    pos = (g_f, op_i.first + a_i) if axis_f == 0 else (op_i.first + a_i, g_f)
                    rows.append(int(model.grids[pi][pos]))
                    op_rows.append(patch.weights[pos]
                                   * _axis_kron(op_f.matrix[a_f], Ci_cell[a_i], axis_f))
        if axis_f == 0:
            f1, f2 = op_f.first, op_i.first
            kron = np.kron(op_f.matrix, Ci_cell)
            rect = (op_f.span, (a, b))
        else:
            f1, f2 = op_i.first, op_f.first
            kron = np.kron(Ci_cell, op_f.matrix)
            rect = ((a, b), op_f.span)
        wg = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
        pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
        cells.append(Cell(pi, rect, np.array(rows), np.array(op_rows),
                          _geo(wg[:, None] * kron, pts), (p1, p2)))
    return cells


def _geo(op, pts):
    """Homogeneous Bézier control points (x w, y w, w) of one cell: its
    geometric operator's transpose times the control points (x, y, 1)."""
    return op.T @ np.column_stack([pts, np.ones(len(pts))])


def _axis_kron(row_f, row_i, axis_f):
    return np.kron(row_f, row_i) if axis_f == 0 else np.kron(row_i, row_f)


def reference_cell_blocks(mesh, quad_extra=1, grad=True):
    """``cell_blocks`` over cells regrouped by shape in stream order."""
    groups: dict = {}
    for k, c in enumerate(mesh.cells):
        groups.setdefault((c.degrees, c.ophom.shape), []).append(k)
    for ((p1, p2), _), members in groups.items():
        t, w, B, dB = fem._reference_tables(p1, p2, p1 + quad_extra, p2 + quad_extra)
        for start in range(0, len(members), fem._BLOCK):
            index = np.array(members[start : start + fem._BLOCK])
            cells = [mesh.cells[k] for k in index]
            rect = np.array([c.rect for c in cells])
            lo, h = rect[:, :, 0], rect[:, :, 1] - rect[:, :, 0]
            ev = fem._rational(B, dB, 1.0 / h, np.stack([c.ophom for c in cells]),
                               np.stack([c.geo for c in cells]), grad, True)
            ev["xi"] = lo[:, None, :] + h[:, None, :] * t
            ev["wdet"] = (h[:, 0] * h[:, 1])[:, None] * w * ev["detJ"]
            yield index, np.stack([c.rows for c in cells]), ev


# ------------------------------------------------------------- comparison


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_streams_match(model):
    got, want = model.mortar_mesh().cells, reference_mortar_cells(model)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.patch, g.rect, g.degrees) == (w.patch, w.rect, w.degrees)
        for name in ("rows", "ophom", "geo"):
            assert _bitwise(getattr(g, name), getattr(w, name)), name
    got, want = model.weak_mesh().cells, reference_weak_cells(model)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.patch, g.rect, g.degrees) == (w.patch, w.rect, w.degrees)
        assert np.array_equal(g.rows, w.rows)
        assert g.ophom.shape == w.ophom.shape
        assert np.abs(g.ophom - w.ophom).max() <= 1e-15 * np.abs(w.ophom).max()
        assert _bitwise(g.geo, w.geo)


def assert_blocks_match(mesh):
    for quad_extra, grad in ((1, True), (2, False)):
        got = list(fem.cell_blocks(mesh, quad_extra, grad))
        want = list(reference_cell_blocks(mesh, quad_extra, grad))
        assert len(got) == len(want)
        for (gi, gr, gev), (wi, wr, wev) in zip(got, want):
            assert _bitwise(gi, wi) and _bitwise(gr, wr)
            assert sorted(gev) == sorted(wev)
            for key in wev:
                assert _bitwise(gev[key], wev[key]), key


# ------------------------------------------------------------------ models

@given(two_patch_models())
def test_batched_streams_match_reference(model):
    assert_streams_match(model)


@given(two_patch_models())
def test_generated_cell_blocks_match_regrouped_cells(model):
    assert_blocks_match(model.mortar_mesh())
    assert_blocks_match(model.weak_mesh())


def _reversed_model():
    # the slave turned by 180 degrees: its interface parameter runs backwards
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 3, 3, (0.5, 1.0), (0.0, 1.0))
    turned = Patch2D(slave.kvs, slave.points[::-1, ::-1], slave.weights)
    return MultiPatchModel([master, turned],
                           [InterfaceSpec(master=(0, "east"), slave=(1, "east"), reversed=True)], 1)


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: MultiPatchModel([rect_patch(3, 4, 3)], []).weak_mesh(),
        lambda: case_model("square-mixed", 2).mortar_mesh(),
        lambda: case_model("square-mixed", 2).weak_mesh(),
        lambda: _reversed_model().mortar_mesh(),
        lambda: _reversed_model().weak_mesh(),
        lambda: case_model("plate-hole-3patch", 0, matched=False).mortar_mesh(),
        lambda: case_model("plate-hole-3patch", 0, matched=False).weak_mesh(),
    ],
    ids=["single", "square-mortar", "square-weak", "reversed-mortar", "reversed-weak",
         "plate-3patch-mortar", "plate-3patch-weak"],
)
def test_cell_blocks_match_regrouped_cells(mesh_fn, monkeypatch):
    mesh = mesh_fn()
    assert_blocks_match(mesh)
    # blocks cut inside the groups
    monkeypatch.setattr(fem, "_BLOCK", 5)
    assert_blocks_match(mesh)


@pytest.mark.parametrize(
    "model_fn",
    [
        lambda: case_model("square-demo", 0),
        lambda: case_model("square-demo", 0, dual_refine=0),
        lambda: case_model("square-mixed", 1, matched=False, p=3),
        lambda: case_model("square-mixed", 0, ratio=(3, 2), matched=False, p=4, dual_refine=2),
        lambda: case_model("annulus", 1),
        lambda: case_model("plate-hole-3patch", 0, matched=False),
        lambda: largedef_model(1, weak=True),
    ],
)
def test_named_models_match_reference(model_fn):
    assert_streams_match(model_fn())


def test_uncoupled_patch_has_one_stream():
    # with no interface the weak stream is the mortar stream, and the
    # numbering is the patch's row-major function order
    patch = rect_patch(3, 4, 3)
    model = MultiPatchModel([patch], [])
    mortar, weak = model.mortar_mesh(), model.weak_mesh()
    assert mortar.ndof == weak.ndof == patch.weights.size
    assert len(mortar.groups) == len(weak.groups)
    for g, w in zip(mortar.groups, weak.groups):
        assert g.degrees == w.degrees
        for name in ("index", "patch", "rect", "rows", "ophom", "geo"):
            assert _bitwise(getattr(g, name), getattr(w, name)), name
    assert _bitwise(weak.grids[0], np.arange(patch.weights.size).reshape(patch.shape))
    x = np.arange(2.0 * weak.ndof)
    assert weak.P is None and weak.expand(x) is x
    assert np.array_equal(mortar.P.toarray(), np.eye(mortar.ndof))
