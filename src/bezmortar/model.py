"""Multi-patch models, dof layout and extracted-element cell streams.

A model couples tensor-product patches along full-side interfaces.  Its dof
layout replaces every slave interface's edge functions by the (possibly
refined) interface basis and builds the prolongation operator that expresses
those trace dofs through master dofs.  Two element streams are derived from
the same data:

* the *mortar* stream keeps trace dofs explicit (assemble, then condense),
* the *weak* stream contracts them element by element, producing standard
  extracted elements a solver can assemble directly.

The layout rests on one sparse operator per interface: its master edge's
functions as rows over the full dofs.  The prolongation P and the saddle
blocks are sparse products of these with the coupling matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .coupling import (
    InterfaceCoupling,
    InterfaceSpec,
    build_interface_coupling,
)
from .splines import (
    SIDES,
    BernsteinInterval,
    Patch2D,
    bernstein_transform,
    bezier_extraction,
    side_index,
)

__all__ = ["Cell", "SideCell", "ExtractedMesh", "MultiPatchModel", "single_patch_mesh"]


@dataclass(frozen=True)
class Cell:
    """One quadrature cell of an extracted element stream.

    Field basis values at a point are ``(ophom @ B) / sum(ophom @ B)`` with B
    the tensor Bernstein basis on ``rect``; geometry comes from ``geo_ophom``
    and ``geo_pts`` the same way.  ``rows`` are scalar dof ids of the owning
    mesh.
    """

    patch: int
    rect: tuple[tuple[float, float], tuple[float, float]]
    rows: np.ndarray
    ophom: np.ndarray
    geo_pts: np.ndarray
    geo_ophom: np.ndarray
    degrees: tuple[int, int]


@dataclass(frozen=True)
class SideCell:
    """Restriction of a 2D cell to one patch side (for loads and traces)."""

    patch: int
    side: str
    interval: tuple[float, float]
    rows: np.ndarray
    ophom: np.ndarray
    geo_pts: np.ndarray
    geo_ophom: np.ndarray
    degree: int
    ccw_normal: bool


@dataclass
class ExtractedMesh:
    """Element stream plus dof count; the input to Galerkin assembly.

    ``_cache`` holds data derived from the cells on first use (the point
    locator, the neo-Hookean kernel's geometry and sparsity), so the cells
    must not change once the mesh is in use.
    """

    patches: list[Patch2D]
    cells: list[Cell]
    ndof: int
    route: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def locate(self, patch: int, xi1: float, xi2: float) -> Cell:
        """Cell of ``patch`` containing the parametric point.

        Of the cells whose rectangle, widened by 1e-12, holds the point, the
        first in stream order is returned.
        """
        grid = self._locator().get(patch)
        if grid is not None:
            (lo1, hi1), (lo2, hi2), owner = grid
            # grid boxes i with lo[i] <= xi <= hi[i] form a contiguous range
            i0, i1 = np.searchsorted(hi1, xi1, "left"), np.searchsorted(lo1, xi1, "right")
            j0, j1 = np.searchsorted(hi2, xi2, "left"), np.searchsorted(lo2, xi2, "right")
            if i0 < i1 and j0 < j1:
                k = owner[i0:i1, j0:j1].min()
                if k < len(self.cells):
                    return self.cells[k]
        raise ValueError(f"point ({xi1}, {xi2}) not inside patch {patch}")

    def _locator(self) -> dict:
        """Per patch: the grid of all cell breakpoints and each box's first cell.

        Every cell rectangle is a union of grid boxes, so a point lies within
        the 1e-12 slack of a cell exactly when it lies within the slack of one
        of that cell's boxes; ``owner`` holds the lowest index of the cells
        covering each box (``len(cells)`` where none does).
        """
        if "locator" not in self._cache:
            by_patch: dict = {}
            for k, c in enumerate(self.cells):
                by_patch.setdefault(c.patch, []).append(k)
            grids = {}
            for patch, ks in by_patch.items():
                rects = np.array([self.cells[k].rect for k in ks])
                bps = [np.unique(rects[:, a]) for a in (0, 1)]
                ends = [np.searchsorted(bps[a], rects[:, a]) for a in (0, 1)]
                owner = np.full((len(bps[0]) - 1, len(bps[1]) - 1), len(self.cells))
                for k, (a1, b1), (a2, b2) in reversed(list(zip(ks, *ends))):
                    owner[a1:b1, a2:b2] = k
                grids[patch] = tuple((bp[:-1] - 1e-12, bp[1:] + 1e-12) for bp in bps) + (owner,)
            self._cache["locator"] = grids
        return self._cache["locator"]

    def side_cells(self, patch: int, side: str) -> list[SideCell]:
        """Restrict the cells adjacent to one patch side."""
        axis, at_end = SIDES[side]
        kv = self.patches[patch].kvs[axis]
        edge_val = kv.domain[1] if at_end else kv.domain[0]
        out = []
        for c in self.cells:
            if c.patch != patch:
                continue
            lo, hi = c.rect[axis]
            boundary = hi if at_end else lo
            if abs(boundary - edge_val) > 1e-12:
                continue
            out.append(_restrict(c, side))
        out.sort(key=lambda s: s.interval[0])
        return out


def _restrict(cell: Cell, side: str) -> SideCell:
    axis, at_end = SIDES[side]
    p1, p2 = cell.degrees
    sel = np.arange((p1 + 1) * (p2 + 1)).reshape(p1 + 1, p2 + 1)[side_index(side)]
    op = cell.ophom[:, sel]
    keep = np.flatnonzero(np.abs(op).sum(axis=1) > 0)
    # outward normal from the side tangent (a,b): ccw (-b,a) on the west and
    # north sides, cw (b,-a) on the east and south sides
    return SideCell(
        cell.patch, side, cell.rect[1 - axis], cell.rows[keep], op[keep],
        cell.geo_pts, cell.geo_ophom[:, sel], cell.degrees[1 - axis], at_end == (axis == 1),
    )


class MultiPatchModel:
    """Patches coupled along full-side interfaces with refineable dual spaces.

    Parameters
    ----------
    patches : list of Patch2D
    interfaces : list of InterfaceSpec
    dual_refine : int
        Refinement level of every interface's dual space (0 keeps the
        original slave interface basis).
    """

    def __init__(self, patches, interfaces, dual_refine: int = 0):
        self.patches = list(patches)
        self.interfaces = list(interfaces)
        self.dual_refine = int(dual_refine)
        self.couplings: list[InterfaceCoupling] = []
        for spec in self.interfaces:
            mp, ms = spec.master
            sp_, ss = spec.slave
            coup = build_interface_coupling(
                spec,
                self.patches[sp_].boundary(ss),
                self.patches[mp].boundary(ms),
                self.dual_refine,
            )
            self.couplings.append(coup)
        self._build_layout()

    # ------------------------------------------------------------------ dofs

    def _build_layout(self):
        """Number the dofs and build the prolongation operator.

        Retained dofs are the patch functions off the slave edges, numbered
        patch by patch in row-major order (``grids`` holds them, -1 on slave
        edges); each interface then appends one trace dof per refined
        interface function (``trace_ids``).
        """
        slave = [np.zeros(p.shape, dtype=bool) for p in self.patches]
        for coup in self.couplings:
            pi, side = coup.spec.slave
            edge = slave[pi][side_index(side)]
            if edge.any():
                raise ValueError(
                    "chained slave dependency: a dof is slave on two interfaces"
                )
            edge[...] = True
        self.grids: list[np.ndarray] = []
        count = 0
        for mask in slave:
            grid = np.full(mask.shape, -1)
            n = int(np.count_nonzero(~mask))
            grid[~mask] = np.arange(count, count + n)
            count += n
            self.grids.append(grid)
        self.n_retained = count
        self.trace_ids: list[np.ndarray] = []
        for coup in self.couplings:
            self.trace_ids.append(np.arange(count, count + coup.refined.n))
            count += coup.refined.n
        self.ndof_full = count
        masters = [c.spec.master for c in self.couplings]
        fmaps = {mp: self._function_map(mp) for mp, _ in masters}
        self._master_edges = [fmaps[mp][_flat(self.patches[mp])[side_index(ms)]]
                              for mp, ms in masters]
        self.P = self._prolongation()

    def _function_map(self, pi: int) -> sp.csr_matrix:
        """Every tensor function of patch ``pi`` as a row over the full dofs.

        Retained functions are unit rows; a slave-edge function is its column
        of the interface refinement operator over that interface's trace dofs.
        """
        grid = self.grids[pi].reshape(-1)
        keep = np.flatnonzero(grid >= 0)
        rows, cols, vals = [keep], [grid[keep]], [np.ones(keep.size)]
        flat = _flat(self.patches[pi])
        for ci, coup in enumerate(self.couplings):
            if coup.spec.slave[0] == pi:
                T = coup.refined.refine_op
                r, k = np.nonzero(np.abs(T) > 1e-15)
                rows.append(flat[side_index(coup.spec.slave[1])][k])
                cols.append(self.trace_ids[ci][r])
                vals.append(T[r, k])
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(grid.size, self.ndof_full),
        )

    def _prolongation(self) -> sp.csr_matrix:
        """P with full dofs = P @ retained dofs.

        Interface i's trace rows are G_i E_i P, with E_i its master-edge
        operator, so they are formed once the rows of every trace dof E_i
        reaches exist: interfaces are taken in dependency order.
        """
        ident = sp.identity(self.n_retained, format="csr")
        blocks = [sp.csr_matrix((ids.size, self.n_retained)) for ids in self.trace_ids]
        deps = [{cj for cj, ids in enumerate(self.trace_ids) if E[:, ids].nnz}
                for E in self._master_edges]
        done: set[int] = set()
        while len(done) < len(self.couplings):
            ready = [ci for ci, d in enumerate(deps) if ci not in done and d <= done]
            if not ready:
                raise ValueError("cyclic interface dependency; cannot condense")
            P = sp.vstack([ident] + blocks, format="csr")
            for ci in ready:
                G = _pruned(self.couplings[ci].coupling.std)
                blocks[ci] = G @ self._master_edges[ci] @ P
            done.update(ready)
        P = sp.vstack([ident] + blocks, format="csr")
        P.sort_indices()  # the sparse products leave column order unsorted
        return P

    def prolongation_vec(self, ncomp: int) -> sp.csr_matrix:
        if ncomp == 1:
            return self.P
        return sp.kron(self.P, sp.eye(ncomp), format="csr")

    def multiplier_blocks(self, ncomp: int):
        """Constraint blocks (master side, slave side) for the saddle system.

        Interface i contributes the rows G_i E_i to ``Bm`` and the selection of
        its trace dofs to ``Bs``.
        """
        for coup in self.couplings:
            mp, ms = coup.spec.master
            if np.any(self.grids[mp][side_index(ms)] < 0):
                raise ValueError("saddle assembly requires unreplaced master edges")
        Bm = sp.vstack(
            [sp.csr_matrix((0, self.ndof_full))]
            + [_pruned(c.coupling.std) @ E for c, E in zip(self.couplings, self._master_edges)],
            format="csr",
        )
        trace = np.arange(self.n_retained, self.ndof_full)
        Bs = sp.csr_matrix((np.ones(trace.size), (np.arange(trace.size), trace)),
                           shape=(trace.size, self.ndof_full))
        Bm.sort_indices()  # the sparse product leaves column order unsorted
        if ncomp > 1:
            # the CSR route stores no zeros from the identity blocks
            Bm = sp.kron(Bm, sp.eye(ncomp), format="csr")
            Bs = sp.kron(Bs, sp.eye(ncomp), format="csr")
            Bm.eliminate_zeros()
            Bs.eliminate_zeros()
        return Bm, Bs

    def dof_partition(self) -> dict:
        """Scalar-dof labels: distinct dofs and per-interface master/slave sets."""
        on_iface = set()
        per_iface = []
        for ci, coup in enumerate(self.couplings):
            mp, ms = coup.spec.master
            edge = self.grids[mp][side_index(ms)]
            master = [int(d) for d in edge if d >= 0]
            slave = [int(t) for t in self.trace_ids[ci]]
            per_iface.append({"master": np.array(master), "slave": np.array(slave)})
            on_iface.update(master)
            on_iface.update(slave)
        distinct = np.array(
            [d for d in range(self.ndof_full) if d not in on_iface]
        )
        return {"distinct": distinct, "interfaces": per_iface}

    # ----------------------------------------------------------------- cells

    def mortar_mesh(self) -> ExtractedMesh:
        """Element stream in full numbering (trace dofs explicit)."""
        cells = []
        for pi in range(len(self.patches)):
            cells.extend(self._patch_cells(pi))
        return ExtractedMesh(self.patches, cells, self.ndof_full, "mortar")

    def weak_mesh(self) -> ExtractedMesh:
        """Element stream with interface constraints compiled into operators.

        Trace rows are contracted through the prolongation operator, which
        localizes the coupling matrix to each element; the result is a
        standard extracted mesh over the retained dofs only.
        """
        P = self.P.tocsr()
        cells = []
        for c in self.mortar_mesh().cells:
            if c.rows.size and c.rows.max() < self.n_retained:
                cells.append(c)
                continue
            sub = P[c.rows]
            cols = np.unique(sub.indices)
            op = np.asarray(sub[:, cols].T @ c.ophom)
            # drop rows whose coupling weight is pure quadrature noise
            keep = np.abs(op).max(axis=1) > 1e-13 * max(np.abs(op).max(), 1.0)
            cells.append(
                Cell(c.patch, c.rect, cols[keep], op[keep],
                     c.geo_pts, c.geo_ophom, c.degrees)
            )
        return ExtractedMesh(self.patches, cells, self.n_retained, "weak")

    def _patch_cells(self, pi: int) -> list[Cell]:
        patch = self.patches[pi]
        p1, p2 = patch.degrees
        ops1 = bezier_extraction(patch.kvs[0])
        ops2 = bezier_extraction(patch.kvs[1])
        slave_sides = {
            coup.spec.slave[1]: ci
            for ci, coup in enumerate(self.couplings)
            if coup.spec.slave[0] == pi
        }
        cells = []
        for op1 in ops1:
            for op2 in ops2:
                side = self._strip_side(pi, slave_sides, op1, op2)
                if side is None:
                    cells.append(self._standard_cell(pi, op1, op2))
                else:
                    cells.extend(
                        self._trace_cells(pi, slave_sides[side], side, op1, op2)
                    )
        return cells

    def _strip_side(self, pi, slave_sides, op1, op2):
        patch = self.patches[pi]
        hit = None
        for side in slave_sides:
            axis, at_end = SIDES[side]
            op = (op1, op2)[axis]
            n = patch.kvs[axis].n
            edge = n - 1 - patch.degrees[axis] if at_end else 0
            if op.first == edge:
                if hit is not None:
                    raise ValueError(
                        "element adjacent to two slave interfaces; refine the patch"
                    )
                hit = side
        return hit

    def _standard_cell(self, pi, op1, op2) -> Cell:
        patch = self.patches[pi]
        p1, p2 = patch.degrees
        f1, f2 = op1.first, op2.first
        w = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
        pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
        kron = np.kron(op1.matrix, op2.matrix)
        geo = w[:, None] * kron
        rows = self.grids[pi][f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
        if np.any(rows < 0):
            raise RuntimeError("trace dof leaked into a standard element")
        return Cell(pi, (op1.span, op2.span), rows.copy(), geo, pts, geo, (p1, p2))

    def _trace_cells(self, pi, ci, side, op1, op2) -> list[Cell]:
        """Cells of a slave-interface-adjacent element.

        The element is subdivided at the refined interface's new continuity
        lines; on each subcell the trace row group uses the refined interface
        extraction while interior rows keep the parent extraction pulled into
        subcell Bernstein coordinates.
        """
        patch = self.patches[pi]
        coup = self.couplings[ci]
        p1, p2 = patch.degrees
        axis_f, at_end = SIDES[side]  # direction the side pins
        axis_i = 1 - axis_f           # direction along the interface
        op_f = (op1, op2)[axis_f]
        op_i = (op1, op2)[axis_i]
        p_f, p_i = patch.degrees[axis_f], patch.degrees[axis_i]
        n_f = patch.kvs[axis_f].n
        edge_global = n_f - 1 if at_end else 0
        refined = coup.refined.refined
        r_ops = bezier_extraction(refined)
        w_r = coup.refined_edge_weights
        tids = self.trace_ids[ci]
        parent = BernsteinInterval(op_i.span[0], op_i.span[1], p_i)
        sub = coup.refined.cells_in(op_i.span) or [op_i.span]
        f_f = op_f.first
        f_i = op_i.first
        cells = []
        for a, b in sub:
            r_op = r_ops[refined.element_index(0.5 * (a + b))]
            if (abs(a - parent.lo) < 1e-14) and (abs(b - parent.hi) < 1e-14):
                Ci_cell = op_i.matrix
            else:
                M = bernstein_transform(parent, BernsteinInterval(a, b, p_i))
                Ci_cell = op_i.matrix @ M.T
            rows, op_rows = [], []
            for a_f in range(p_f + 1):
                g_f = f_f + a_f
                if g_f == edge_global:
                    for r in range(p_i + 1):
                        rows.append(int(tids[r_op.first + r]))
                        op_rows.append(
                            w_r[r_op.first + r]
                            * _axis_kron(op_f.matrix[a_f], r_op.matrix[r], axis_f)
                        )
                else:
                    for a_i in range(p_i + 1):
                        pos = (g_f, f_i + a_i) if axis_f == 0 else (f_i + a_i, g_f)
                        rows.append(int(self.grids[pi][pos]))
                        op_rows.append(
                            patch.weights[pos]
                            * _axis_kron(op_f.matrix[a_f], Ci_cell[a_i], axis_f)
                        )
            # geometry: parent functions pulled to subcell coordinates
            if axis_f == 0:
                f1, f2 = f_f, f_i
                kron = np.kron(op_f.matrix, Ci_cell)
                rect = (op_f.span, (a, b))
            else:
                f1, f2 = f_i, f_f
                kron = np.kron(Ci_cell, op_f.matrix)
                rect = ((a, b), op_f.span)
            wg = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
            pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
            cells.append(
                Cell(
                    pi,
                    rect,
                    np.array(rows),
                    np.array(op_rows),
                    pts,
                    wg[:, None] * kron,
                    (p1, p2),
                )
            )
        return cells


def _axis_kron(row_f: np.ndarray, row_i: np.ndarray, axis_f: int) -> np.ndarray:
    """Tensor row in dir1-major column ordering."""
    return np.kron(row_f, row_i) if axis_f == 0 else np.kron(row_i, row_f)


def _flat(patch: Patch2D) -> np.ndarray:
    """Row-major index of every tensor function of a patch, shaped like its net."""
    return np.arange(patch.shape[0] * patch.shape[1]).reshape(patch.shape)


def _pruned(G: np.ndarray) -> sp.csr_matrix:
    """Sparse coupling matrix without its quadrature-noise entries."""
    return sp.csr_matrix(np.where(np.abs(G) < 1e-15, 0.0, G))


def single_patch_mesh(patch: Patch2D) -> ExtractedMesh:
    """Standard extracted mesh of one uncoupled patch."""
    p1, p2 = patch.degrees
    cells = []
    grid = _flat(patch)
    for op1 in bezier_extraction(patch.kvs[0]):
        for op2 in bezier_extraction(patch.kvs[1]):
            f1, f2 = op1.first, op2.first
            w = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
            pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
            geo = w[:, None] * np.kron(op1.matrix, op2.matrix)
            rows = grid[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
            cells.append(Cell(0, (op1.span, op2.span), rows.copy(), geo, pts, geo, (p1, p2)))
    return ExtractedMesh([patch], cells, patch.shape[0] * patch.shape[1], "single")
