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
for the refined interface extraction.  A stream is held as stacked cell
groups, one per cell shape.

The layout rests on one sparse operator per interface: its master edge's
functions as rows over the full dofs.  The prolongation P and the saddle
blocks are sparse products of these with the coupling matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .coupling import (
    InterfaceCoupling,
    InterfaceSpec,
    build_interface_coupling,
    is_noise,
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

__all__ = ["Cell", "CellGroup", "ExtractedMesh", "MultiPatchModel", "single_patch_mesh"]


@dataclass(frozen=True)
class Cell:
    """One quadrature cell of an extracted element stream.

    Field basis values at a point are ``(ophom @ B) / sum(ophom @ B)`` with B
    the tensor Bernstein basis on ``rect``; geometry comes from ``geo_ophom``
    and ``geo_pts`` the same way.  ``rows`` are scalar dof ids of the owning
    mesh.  :attr:`ExtractedMesh.cells` holds one read-only view per cell.
    """

    patch: int
    rect: tuple[tuple[float, float], tuple[float, float]]
    rows: np.ndarray
    ophom: np.ndarray
    geo_pts: np.ndarray
    geo_ophom: np.ndarray
    degrees: tuple[int, int]


@dataclass(frozen=True)
class CellGroup:
    """Cells of one shape stacked along a leading cell axis, in stream order.

    ``index`` (nc,) holds their positions in the stream, ``patch`` (nc,) and
    ``rect`` (nc, 2, 2) their patches and parameter rectangles; ``rows``
    (nc, nr), ``ophom`` (nc, nr, nb), ``geo_pts`` (nc, ng, 2) and
    ``geo_ophom`` (nc, ng, nb) are the :class:`Cell` fields stacked.
    """

    index: np.ndarray
    patch: np.ndarray
    rect: np.ndarray
    rows: np.ndarray
    ophom: np.ndarray
    geo_pts: np.ndarray
    geo_ophom: np.ndarray
    degrees: tuple[int, int]

    def take(self, sel, **fields) -> CellGroup:
        """The cells ``sel``; ``fields`` replace stacked fields (already selected)."""
        return CellGroup(*(fields[f] if f in fields else getattr(self, f)[sel] for f in _STACKED),
                         self.degrees)


_STACKED = ("index", "patch", "rect", "rows", "ophom", "geo_pts", "geo_ophom")


class ExtractedMesh:
    """Element stream plus dof count; the input to Galerkin assembly.

    The stream is held as shape groups: ``pieces`` that share degrees and
    operator shapes are merged into one :class:`CellGroup`, ordered by
    position, and the groups are ordered by their first position.  ``_cache``
    holds data derived from the groups on first use (the cell views, the point
    locator, the assembly pattern per component count and the neo-Hookean
    kernel's quadrature geometry), so the groups are read-only.
    """

    def __init__(self, patches: list[Patch2D], pieces, ndof: int):
        self.patches = patches
        self.ndof = ndof
        self._cache: dict = {}
        by_shape: dict = {}
        for p in pieces:
            if len(p.index):
                key = (p.degrees, p.ophom.shape[1:], p.geo_ophom.shape[1:])
                by_shape.setdefault(key, []).append(p)
        self.groups: list[CellGroup] = []
        for ps in by_shape.values():
            ps.sort(key=lambda p: p.index[0])
            g = ps[0] if len(ps) == 1 else CellGroup(
                *(np.concatenate([getattr(p, f) for p in ps]) for f in _STACKED), ps[0].degrees)
            if np.any(np.diff(g.index) < 0):  # interleaved pieces
                g = g.take(np.argsort(g.index))
            for f in _STACKED:
                getattr(g, f).setflags(write=False)
            self.groups.append(g)
        self.groups.sort(key=lambda g: g.index[0])

    def __len__(self) -> int:
        return sum(len(g.index) for g in self.groups)

    @property
    def cells(self) -> tuple[Cell, ...]:
        """Every cell as a :class:`Cell` view, in stream order."""
        if "cells" not in self._cache:
            cells = [None] * len(self)
            for g in self.groups:
                for k, patch, rect, *arrays in zip(g.index.tolist(), g.patch.tolist(),
                                                   g.rect.tolist(), g.rows, g.ophom,
                                                   g.geo_pts, g.geo_ophom):
                    cells[k] = Cell(patch, tuple(map(tuple, rect)), *arrays, g.degrees)
            self._cache["cells"] = tuple(cells)
        return self._cache["cells"]

    def locate(self, patch: int, xi1: float, xi2: float) -> Cell:
        """Cell of ``patch`` containing the parametric point (see :meth:`cell_index`)."""
        return self.cells[self.cell_index(np.array([patch]), np.array([xi1]), np.array([xi2]))[0]]

    def cell_index(self, patch: np.ndarray, xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
        """Stream position of the cell of ``patch[q]`` holding each point q.

        Of the cells whose rectangle, widened by 1e-12, holds the point, the
        first in stream order is taken; a point no cell holds raises
        ``ValueError``.
        """
        out = np.full(len(patch), len(self))
        for pi, ((lo1, hi1), (lo2, hi2), owner) in self._locator().items():
            at = np.flatnonzero(patch == pi)
            s, t = xi1[at], xi2[at]
            # grid boxes i with lo[i] <= xi <= hi[i] form a contiguous range
            i0, i1 = np.searchsorted(hi1, s, "left"), np.searchsorted(lo1, s, "right")
            j0, j1 = np.searchsorted(hi2, t, "left"), np.searchsorted(lo2, t, "right")
            for di in range(int((i1 - i0).max(initial=0))):
                for dj in range(int((j1 - j0).max(initial=0))):
                    ok = (i0 + di < i1) & (j0 + dj < j1)
                    out[at[ok]] = np.minimum(out[at[ok]], owner[i0[ok] + di, j0[ok] + dj])
        if np.any(out == len(self)):
            q = np.argmax(out == len(self))
            raise ValueError(f"point ({xi1[q]}, {xi2[q]}) not inside patch {patch[q]}")
        return out

    def _locator(self) -> dict:
        """Per patch: the grid of all cell breakpoints and each box's first cell.

        Every cell rectangle is a union of grid boxes, so a point lies within
        the 1e-12 slack of a cell exactly when it lies within the slack of one
        of that cell's boxes; ``owner`` holds the lowest position of the cells
        covering each box (the cell count where none does).
        """
        if "locator" not in self._cache:
            index, patch, rect = (np.concatenate([getattr(g, f) for g in self.groups])
                                  for f in ("index", "patch", "rect"))
            grids = {}
            for pi in np.unique(patch).tolist():
                ks, rects = index[patch == pi], rect[patch == pi]
                bps = [np.unique(rects[:, a]) for a in (0, 1)]
                ends = [np.searchsorted(bps[a], rects[:, a]).tolist() for a in (0, 1)]
                owner = np.full((len(bps[0]) - 1, len(bps[1]) - 1), len(index))
                for k, (a1, b1), (a2, b2) in sorted(zip(ks.tolist(), *ends), reverse=True):
                    owner[a1:b1, a2:b2] = k
                grids[pi] = tuple((bp[:-1] - 1e-12, bp[1:] + 1e-12) for bp in bps) + (owner,)
            self._cache["locator"] = grids
        return self._cache["locator"]


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
                r, k = np.nonzero(T)
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
                G = sp.csr_matrix(self.couplings[ci].coupling.std)
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
            + [sp.csr_matrix(c.coupling.std) @ E
               for c, E in zip(self.couplings, self._master_edges)],
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
        return ExtractedMesh(self.patches, self._mortar_pieces(), self.ndof_full)

    def weak_mesh(self) -> ExtractedMesh:
        """Element stream with interface constraints compiled into operators.

        Trace rows are contracted through the prolongation operator, which
        localizes the coupling matrix to each element; the result is a
        standard extracted mesh over the retained dofs only.  The trace cells
        of one interface are contracted together: every entry of
        ``P[rows]`` is keyed by its cell and retained dof, and one sparse
        aggregation of the stacked operators sums each key's rows.  The
        contracted cells are regrouped by their retained-row count.
        """
        pieces = []
        for g in self._mortar_pieces():
            if not np.any(g.rows >= self.n_retained):  # standard cells
                pieces.append(g)
                continue
            sub = self.P[g.rows.reshape(-1)]
            nloc, nb = g.ophom.shape[1:]
            row = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
            keys, key = np.unique(row // nloc * self.n_retained + sub.indices,
                                  return_inverse=True)
            A = sp.csr_matrix((sub.data, (key, row)), shape=(keys.size, sub.shape[0]))
            op = A @ g.ophom.reshape(-1, nb)
            owner, cols = np.divmod(keys, self.n_retained)
            # drop the rows that are noise next to their cell's largest row
            rowmax = np.abs(op).max(axis=1)
            cellmax = np.zeros(len(g.index))
            np.maximum.at(cellmax, owner, rowmax)
            keep = np.flatnonzero(~is_noise(rowmax, cellmax[owner]))
            owner, cols, op = owner[keep], cols[keep], op[keep]
            count = np.bincount(owner, minlength=len(g.index))
            for n in np.unique(count).tolist():
                at = count[owner] == n  # the rows of the cells with n rows, in order
                pieces.append(g.take(count == n, rows=cols[at].reshape(-1, n),
                                     ophom=op[at].reshape(-1, n, nb)))
        return ExtractedMesh(self.patches, pieces, self.n_retained)

    def _mortar_pieces(self) -> list[CellGroup]:
        """The mortar stream: per patch, in row-major element order, one piece
        of standard cells and one per slave interface.

        Every element gives one standard cell, except those along a slave
        interface, whose position takes that interface's trace cells.
        """
        pieces, start = [], 0
        for pi, patch in enumerate(self.patches):
            traces = [self._trace_cells(pi, ci) for ci, coup in enumerate(self.couplings)
                      if coup.spec.slave[0] == pi]
            n = _element_tables(patch.kvs[0])[1].size * _element_tables(patch.kvs[1])[1].size
            hits = np.zeros(n, dtype=int)
            counts = np.ones(n, dtype=int)  # cells per element
            for t in traces:
                elements, k = np.unique(t.index, return_counts=True)
                hits[elements] += 1
                counts[elements] = k
            if hits.max() > 1:
                raise ValueError("element adjacent to two slave interfaces; refine the patch")
            standard = _grid_cells(pi, patch, self.grids[pi], hits == 0)
            if np.any(standard.rows < 0):
                raise RuntimeError("trace dof leaked into a standard element")
            first = start + np.cumsum(counts) - counts
            for t in [standard] + traces:
                # subcells of one element are consecutive, in interface order
                rank = np.arange(len(t.index)) - np.searchsorted(t.index, t.index)
                pieces.append(replace(t, index=first[t.index] + rank))
            start += int(counts.sum())
        return pieces

    def _trace_cells(self, pi: int, ci: int) -> CellGroup:
        """Cells along slave interface ``ci``, ``index`` holding their elements.

        Each element is subdivided at the refined interface's new continuity
        lines; ``index`` is the row-major element index of every subcell, in
        increasing order.  A subcell is the tensor cell of the element's
        transverse extraction and its interface-direction extraction pulled
        into subcell Bernstein coordinates; its rows are put in
        transverse-major order and the edge row group is swapped for the
        refined interface extraction over the trace dofs.
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
        rect = np.empty((m, 2, 2))
        rect[:, axis_f], rect[:, 1 - axis_f] = bp_f[e_f : e_f + 2], rects
        n2 = _element_tables(patch.kvs[1])[1].size
        elements = owner * n2 + e_f if axis_f else e_f * n2 + owner
        return CellGroup(elements, np.full(m, pi), rect, rows, op, pts, geo, patch.degrees)


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


def _grid_cells(pi: int, patch: Patch2D, grid: np.ndarray, keep) -> CellGroup:
    """Standard cells of the elements ``keep`` selects (a mask or slice over the
    row-major element order) of a patch, ``index`` holding their elements."""
    (bp1, first1, C1), (bp2, first2, C2) = (_element_tables(kv) for kv in patch.kvs)
    elements = np.arange(first1.size * first2.size)[keep]
    e1, e2 = np.divmod(elements, first2.size)
    rows, geo, pts = _tensor_cells(patch, grid, first1[e1], C1[e1], first2[e2], C2[e2])
    rect = np.stack([np.column_stack([bp[:-1], bp[1:]])[e] for bp, e in ((bp1, e1), (bp2, e2))],
                    axis=1)
    return CellGroup(elements, np.full(e1.size, pi), rect, rows, geo, pts, geo, patch.degrees)


def _flat(patch: Patch2D) -> np.ndarray:
    """Row-major index of every tensor function of a patch, shaped like its net."""
    return np.arange(patch.shape[0] * patch.shape[1]).reshape(patch.shape)


def single_patch_mesh(patch: Patch2D) -> ExtractedMesh:
    """Standard extracted mesh of one uncoupled patch."""
    return ExtractedMesh([patch], [_grid_cells(0, patch, _flat(patch), slice(None))],
                         patch.weights.size)
