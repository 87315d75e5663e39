"""Multi-patch models, dof layout and extracted-element cell streams.

A model couples tensor-product patches along full-side interfaces.  Its dof
layout replaces every slave interface's edge functions by the (possibly
refined) interface basis and builds the prolongation operator that expresses
those trace dofs through master dofs.  Two element streams are derived from
the same data:

* the *mortar* stream keeps trace dofs explicit (assemble, then condense),
* the *weak* stream contracts them through the prolongation, producing
  standard extracted elements a solver can assemble directly.

Both come from one tensor-product builder over a patch's stacked element
extraction operators; along a slave interface the edge row group is swapped
for the refined interface extraction.

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
    _element_tables,
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
        per_iface = []
        on_iface = np.zeros(0, dtype=int)
        for ci, coup in enumerate(self.couplings):
            mp, ms = coup.spec.master
            edge = self.grids[mp][side_index(ms)]
            master, slave = edge[edge >= 0], self.trace_ids[ci].copy()
            per_iface.append({"master": master, "slave": slave})
            on_iface = np.concatenate([on_iface, master, slave])
        distinct = np.setdiff1d(np.arange(self.ndof_full), on_iface)
        return {"distinct": distinct, "interfaces": per_iface}

    # ----------------------------------------------------------------- cells

    def mortar_mesh(self) -> ExtractedMesh:
        """Element stream in full numbering (trace dofs explicit)."""
        cells = [c for pi in range(len(self.patches)) for c in self._patch_cells(pi)]
        return ExtractedMesh(self.patches, cells, self.ndof_full, "mortar")

    def weak_mesh(self) -> ExtractedMesh:
        """Element stream with interface constraints compiled into operators.

        Trace rows are contracted through the prolongation operator, which
        localizes the coupling matrix to each element; the result is a
        standard extracted mesh over the retained dofs only.  Cells of one
        degree pair are contracted together: every entry of ``P[rows]`` is
        keyed by its cell and retained dof, and one sparse aggregation of the
        stacked operators sums each key's rows.
        """
        cells = self.mortar_mesh().cells
        groups: dict = {}
        for k, c in enumerate(cells):
            if c.rows.max() >= self.n_retained:
                groups.setdefault(c.degrees, []).append(k)
        for ks in groups.values():
            sub = self.P[np.concatenate([cells[k].rows for k in ks])]
            nloc = cells[ks[0]].rows.size
            row = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
            keys, key = np.unique(row // nloc * self.n_retained + sub.indices,
                                  return_inverse=True)
            A = sp.csr_matrix((sub.data, (key, row)), shape=(keys.size, sub.shape[0]))
            op = A @ np.concatenate([cells[k].ophom for k in ks])
            owner, cols = np.divmod(keys, self.n_retained)
            # drop rows whose coupling weight is pure quadrature noise
            rowmax = np.abs(op).max(axis=1)
            cellmax = np.ones(len(ks))
            np.maximum.at(cellmax, owner, rowmax)
            keep = np.flatnonzero(rowmax > 1e-13 * cellmax[owner])
            cuts = np.searchsorted(owner[keep], np.arange(1, len(ks)))
            for k, rows, ophom in zip(ks, np.split(cols[keep], cuts), np.split(op[keep], cuts)):
                c = cells[k]
                cells[k] = Cell(c.patch, c.rect, rows, ophom, c.geo_pts, c.geo_ophom, c.degrees)
        return ExtractedMesh(self.patches, cells, self.n_retained, "weak")

    def _patch_cells(self, pi: int) -> list[Cell]:
        """Cells of patch ``pi`` in row-major element order.

        Every element gives one standard cell, except those along a slave
        interface, whose slot takes that interface's trace cells.
        """
        cells, rows = _grid_cells(pi, self.patches[pi], self.grids[pi])
        slots = [[c] for c in cells]
        hits = np.zeros(len(cells), dtype=int)
        for ci, coup in enumerate(self.couplings):
            if coup.spec.slave[0] == pi:
                strip, subcells = self._trace_cells(pi, ci)
                hits[strip] += 1
                for k, sub in zip(strip, subcells):
                    slots[k] = sub
        if hits.max() > 1:
            raise ValueError("element adjacent to two slave interfaces; refine the patch")
        if np.any(rows[hits == 0] < 0):
            raise RuntimeError("trace dof leaked into a standard element")
        return [c for slot in slots for c in slot]

    def _trace_cells(self, pi: int, ci: int) -> tuple[np.ndarray, list[list[Cell]]]:
        """Elements along slave interface ``ci`` (row-major indices) and their cells.

        Each element is subdivided at the refined interface's new continuity
        lines.  A subcell is the tensor cell of the element's transverse
        extraction and its interface-direction extraction pulled into subcell
        Bernstein coordinates; its rows are put in transverse-major order and
        the edge row group is swapped for the refined interface extraction
        over the trace dofs.
        """
        patch = self.patches[pi]
        coup = self.couplings[ci]
        axis_f, at_end = SIDES[coup.spec.slave[1]]  # direction the side pins
        kv_f, kv_i = patch.kvs[axis_f], patch.kvs[1 - axis_f]
        p_f, p_i = kv_f.degree, kv_i.degree
        bp_f, first_f, C_f = _element_tables(kv_f)
        e_f = first_f.size - 1 if at_end else 0
        ops_i = bezier_extraction(kv_i)
        refined = coup.refined.refined
        owner, rects, Cs, e_r = [], [], [], []
        for op in ops_i:
            parent = op.interval
            for a, b in coup.refined.cells_in(op.span) or [op.span]:
                if abs(a - parent.lo) < 1e-14 and abs(b - parent.hi) < 1e-14:
                    Cs.append(op.matrix)
                else:
                    M = bernstein_transform(parent, BernsteinInterval(a, b, p_i))
                    Cs.append(op.matrix @ M.T)
                owner.append(op.element)
                rects.append((a, b))
                e_r.append(refined.element_index(0.5 * (a + b)))
        m, owner = len(owner), np.array(owner)
        transverse = (np.full(m, first_f[e_f]), np.broadcast_to(C_f[e_f], (m,) + C_f.shape[1:]))
        along = (_element_tables(kv_i)[1][owner], np.stack(Cs))
        pairs = transverse + along if axis_f == 0 else along + transverse
        rows, geo, pts = _tensor_cells(patch, self.grids[pi], *pairs)
        perm = np.arange(rows.shape[1]).reshape(patch.degrees[0] + 1, -1)
        perm = (perm.T if axis_f else perm).reshape(-1)
        rows, op = rows[:, perm], geo[:, perm]
        # the edge row group: refined interface functions over the trace dofs
        _, first_r, C_r = _element_tables(refined)
        r = first_r[e_r][:, None] + np.arange(p_i + 1)
        edge = p_f if at_end else 0  # local index of the side's functions
        grp = slice(edge * (p_i + 1), (edge + 1) * (p_i + 1))
        kron = np.einsum("mrl,k->mrlk" if axis_f else "mrl,k->mrkl", C_r[e_r], C_f[e_f, edge])
        op[:, grp] = coup.refined_edge_weights[r][..., None] * kron.reshape(m, p_i + 1, -1)
        rows[:, grp] = self.trace_ids[ci][r]
        span_f = (float(bp_f[e_f]), float(bp_f[e_f + 1]))
        subcells = [[] for _ in ops_i]
        for s, (k, ab) in enumerate(zip(owner.tolist(), rects)):
            rect = (ab, span_f) if axis_f else (span_f, ab)
            subcells[k].append(Cell(pi, rect, rows[s], op[s], pts[s], geo[s], patch.degrees))
        e_i, n2 = np.arange(len(ops_i)), _element_tables(patch.kvs[1])[1].size
        return (e_i * n2 + e_f if axis_f else e_f * n2 + e_i), subcells


def _tensor_cells(patch: Patch2D, grid: np.ndarray, first1, C1, first2, C2):
    """Rows, operators and control points of stacked tensor-product cells.

    Cell k pairs the element with first function ``first1[k]`` and extraction
    operator ``C1[k]`` in direction 1 with ``first2[k]``, ``C2[k]`` in
    direction 2.  Its rows are the ``grid`` entries of the (p1+1) x (p2+1)
    active functions in row-major order and its operator is
    ``w * (C1[k] kron C2[k])`` with ``w`` their weights.
    """
    p1, p2 = patch.degrees
    n = (p1 + 1) * (p2 + 1)
    i = first1[:, None, None] + np.arange(p1 + 1)[:, None]
    j = first2[:, None, None] + np.arange(p2 + 1)
    kron = np.einsum("mik,mjl->mijkl", C1, C2).reshape(-1, n, n)
    return (grid[i, j].reshape(-1, n), patch.weights[i, j].reshape(-1, n, 1) * kron,
            patch.points[i, j].reshape(-1, n, 2))


def _grid_cells(pi: int, patch: Patch2D, grid: np.ndarray) -> tuple[list[Cell], np.ndarray]:
    """Standard cells of every element of a patch in row-major element order,
    and their stacked rows."""
    (bp1, first1, C1), (bp2, first2, C2) = (_element_tables(kv) for kv in patch.kvs)
    e1, e2 = np.divmod(np.arange(first1.size * first2.size), first2.size)
    rows, geo, pts = _tensor_cells(patch, grid, first1[e1], C1[e1], first2[e2], C2[e2])
    spans1, spans2 = (list(zip(bp[:-1].tolist(), bp[1:].tolist())) for bp in (bp1, bp2))
    degrees = patch.degrees
    cells = [Cell(pi, (spans1[a], spans2[b]), rows[k], geo[k], pts[k], geo[k], degrees)
             for k, (a, b) in enumerate(zip(e1.tolist(), e2.tolist()))]
    return cells, rows


def _flat(patch: Patch2D) -> np.ndarray:
    """Row-major index of every tensor function of a patch, shaped like its net."""
    return np.arange(patch.shape[0] * patch.shape[1]).reshape(patch.shape)


def _pruned(G: np.ndarray) -> sp.csr_matrix:
    """Sparse coupling matrix without its quadrature-noise entries."""
    return sp.csr_matrix(np.where(np.abs(G) < 1e-15, 0.0, G))


def single_patch_mesh(patch: Patch2D) -> ExtractedMesh:
    """Standard extracted mesh of one uncoupled patch."""
    cells, _ = _grid_cells(0, patch, _flat(patch))
    return ExtractedMesh([patch], cells, patch.shape[0] * patch.shape[1], "single")
