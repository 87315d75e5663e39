"""Multi-patch models, dof layout and extracted-element cell streams.

A model couples tensor-product patches along full-side interfaces.  Its dof
layout replaces every slave interface's edge functions by the (possibly
refined) interface basis and builds the prolongation operator that expresses
those trace dofs through master dofs.  Two element streams are derived from
the same data:

* the *mortar* stream keeps trace dofs explicit (assemble, then condense),
* the *weak* stream contracts them element by element, producing standard
  extracted elements a solver can assemble directly.
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
    BernsteinInterval,
    Patch2D,
    bernstein_transform,
    bezier_extraction,
)

__all__ = ["Cell", "SideCell", "ExtractedMesh", "MultiPatchModel", "single_patch_mesh"]

_SIDE_AXIS = {"west": 0, "east": 0, "south": 1, "north": 1}
_SIDE_END = {"west": False, "east": True, "south": False, "north": True}
# outward normal from curve tangent: (a,b) -> ccw (-b,a) or cw (b,-a)
_SIDE_CCW = {"north": True, "west": True, "south": False, "east": False}


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

    def cells_of_patch(self, patch: int) -> list[Cell]:
        return [c for c in self.cells if c.patch == patch]

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
        axis = _SIDE_AXIS[side]
        at_end = _SIDE_END[side]
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
            out.append(_restrict(c, side, axis, at_end))
        out.sort(key=lambda s: s.interval[0])
        return out


def _restrict(cell: Cell, side: str, axis: int, at_end: bool) -> SideCell:
    p1, p2 = cell.degrees
    n1, n2 = p1 + 1, p2 + 1
    cols = np.arange(n1 * n2).reshape(n1, n2)
    if axis == 0:
        sel = cols[-1 if at_end else 0, :]
        deg = p2
        interval = cell.rect[1]
    else:
        sel = cols[:, -1 if at_end else 0]
        deg = p1
        interval = cell.rect[0]
    op = cell.ophom[:, sel]
    keep = np.flatnonzero(np.abs(op).sum(axis=1) > 0)
    return SideCell(
        cell.patch, side, interval, cell.rows[keep], op[keep],
        cell.geo_pts, cell.geo_ophom[:, sel], deg, _SIDE_CCW[side],
    )


def _kron_row(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    return np.kron(r1, r2)


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

    def __init__(self, patches, interfaces, dual_refine: int = 0,
                 coupling_quad: int | None = None):
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
                coupling_quad,
            )
            self.couplings.append(coup)
        self._build_layout()

    # ------------------------------------------------------------------ dofs

    def _build_layout(self):
        self.grids: list[np.ndarray] = []
        owner: list[dict[tuple[int, int], int]] = []  # (i1,i2) -> coupling idx
        for patch in self.patches:
            n1, n2 = patch.shape
            self.grids.append(np.full((n1, n2), -2, dtype=int))
            owner.append({})
        # mark slave trace edges
        for ci, coup in enumerate(self.couplings):
            pi, side = coup.spec.slave
            idx = _edge_indices(self.patches[pi], side)
            for pos in idx:
                if pos in owner[pi]:
                    raise ValueError(
                        "chained slave dependency: a dof is slave on two interfaces"
                    )
                owner[pi][pos] = ci
        # number grid dofs (retained)
        count = 0
        for pi, patch in enumerate(self.patches):
            n1, n2 = patch.shape
            for i1 in range(n1):
                for i2 in range(n2):
                    if (i1, i2) in owner[pi]:
                        self.grids[pi][i1, i2] = -1
                    else:
                        self.grids[pi][i1, i2] = count
                        count += 1
        self.n_retained = count
        # number trace blocks
        self.trace_ids: list[np.ndarray] = []
        for coup in self.couplings:
            n_r = coup.refined.n
            self.trace_ids.append(np.arange(count, count + n_r))
            count += n_r
        self.ndof_full = count
        self._owner = owner
        self._build_prolongation()

    def _function_row(self, pi: int, i1: int, i2: int) -> dict[int, float]:
        """A patch tensor function as combination of full dofs."""
        gid = self.grids[pi][i1, i2]
        if gid >= 0:
            return {int(gid): 1.0}
        ci = self._owner[pi][(i1, i2)]
        coup = self.couplings[ci]
        side = coup.spec.slave[1]
        k = i2 if _SIDE_AXIS[side] == 0 else i1
        T = coup.refined.refine_op
        ids = self.trace_ids[ci]
        return {
            int(ids[r]): float(T[r, k])
            for r in range(T.shape[0])
            if abs(T[r, k]) > 1e-15
        }

    def _build_prolongation(self):
        """Rows of P: trace dofs expressed through retained dofs."""
        rows: dict[int, dict[int, float]] = {
            d: {d: 1.0} for d in range(self.n_retained)
        }
        pending = list(range(len(self.couplings)))
        while pending:
            progressed = False
            for ci in list(pending):
                coup = self.couplings[ci]
                mp, ms = coup.spec.master
                cols = _edge_indices(self.patches[mp], ms)
                master_rows = [self._function_row(mp, i1, i2) for (i1, i2) in cols]
                if any(
                    any(d not in rows for d in mr) for mr in master_rows
                ):
                    continue
                G = coup.coupling.std
                for I, tid in enumerate(self.trace_ids[ci]):
                    acc: dict[int, float] = {}
                    for J, mr in enumerate(master_rows):
                        g = G[I, J]
                        if abs(g) < 1e-15:
                            continue
                        for d, c in mr.items():
                            for rd, rc in rows[d].items():
                                acc[rd] = acc.get(rd, 0.0) + g * c * rc
                    rows[int(tid)] = acc
                pending.remove(ci)
                progressed = True
            if not progressed:
                raise ValueError("cyclic interface dependency; cannot condense")
        data, ri, cj = [], [], []
        for r, entries in rows.items():
            for c, v in entries.items():
                ri.append(r)
                cj.append(c)
                data.append(v)
        self.P = sp.csr_matrix(
            (data, (ri, cj)), shape=(self.ndof_full, self.n_retained)
        )

    def prolongation_vec(self, ncomp: int) -> sp.csr_matrix:
        if ncomp == 1:
            return self.P
        return sp.kron(self.P, sp.eye(ncomp), format="csr")

    def retained_of_full(self, dof: int) -> int:
        return dof if dof < self.n_retained else -1

    def multiplier_blocks(self, ncomp: int):
        """Constraint blocks (master side, slave side) for the saddle system."""
        nl = sum(c.refined.n for c in self.couplings)
        Bm = sp.lil_matrix((nl, self.ndof_full))
        Bs = sp.lil_matrix((nl, self.ndof_full))
        off = 0
        for ci, coup in enumerate(self.couplings):
            mp, ms = coup.spec.master
            cols = _edge_indices(self.patches[mp], ms)
            for J, pos in enumerate(cols):
                gid = self.grids[mp][pos]
                if gid < 0:
                    raise ValueError(
                        "saddle assembly requires unreplaced master edges"
                    )
                col = coup.coupling.std[:, J]
                for I in range(coup.refined.n):
                    if abs(col[I]) > 1e-15:
                        Bm[off + I, gid] = col[I]
            for I, tid in enumerate(self.trace_ids[ci]):
                Bs[off + I, tid] = 1.0
            off += coup.refined.n
        if ncomp > 1:
            Bm = sp.kron(Bm.tocsr(), sp.eye(ncomp))
            Bs = sp.kron(Bs.tocsr(), sp.eye(ncomp))
        return Bm.tocsr(), Bs.tocsr()

    def dof_partition(self) -> dict:
        """Scalar-dof labels: distinct dofs and per-interface master/slave sets."""
        on_iface = set()
        per_iface = []
        for ci, coup in enumerate(self.couplings):
            mp, ms = coup.spec.master
            master = [
                int(self.grids[mp][pos])
                for pos in _edge_indices(self.patches[mp], ms)
                if self.grids[mp][pos] >= 0
            ]
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
            axis = _SIDE_AXIS[side]
            op = (op1, op2)[axis]
            n = patch.kvs[axis].n
            edge = n - 1 - patch.degrees[axis] if _SIDE_END[side] else 0
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
        axis_f = _SIDE_AXIS[side]     # direction the side pins
        axis_i = 1 - axis_f           # direction along the interface
        op_f = (op1, op2)[axis_f]
        op_i = (op1, op2)[axis_i]
        p_f, p_i = patch.degrees[axis_f], patch.degrees[axis_i]
        n_f = patch.kvs[axis_f].n
        edge_global = n_f - 1 if _SIDE_END[side] else 0
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


def _edge_indices(patch: Patch2D, side: str) -> list[tuple[int, int]]:
    n1, n2 = patch.shape
    if side == "west":
        return [(0, j) for j in range(n2)]
    if side == "east":
        return [(n1 - 1, j) for j in range(n2)]
    if side == "south":
        return [(i, 0) for i in range(n1)]
    if side == "north":
        return [(i, n2 - 1) for i in range(n1)]
    raise ValueError(f"unknown side {side}")


def single_patch_mesh(patch: Patch2D) -> ExtractedMesh:
    """Standard extracted mesh of one uncoupled patch."""
    p1, p2 = patch.degrees
    cells = []
    grid = np.arange(patch.shape[0] * patch.shape[1]).reshape(patch.shape)
    for op1 in bezier_extraction(patch.kvs[0]):
        for op2 in bezier_extraction(patch.kvs[1]):
            f1, f2 = op1.first, op2.first
            w = patch.weights[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
            pts = patch.points[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1, 2)
            geo = w[:, None] * np.kron(op1.matrix, op2.matrix)
            rows = grid[f1 : f1 + p1 + 1, f2 : f2 + p2 + 1].reshape(-1)
            cells.append(Cell(0, (op1.span, op2.span), rows.copy(), geo, pts, geo, (p1, p2)))
    return ExtractedMesh([patch], cells, patch.shape[0] * patch.shape[1], "single")
