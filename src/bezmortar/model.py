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

The layout rests on one sparse operator per interface, its constraint rows
G E: the coupling matrix G times the unit rows E of the master edge's full
dof ids (``master_ids``).  The prolongation P multiplies them, the saddle
block stacks them.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .coupling import InterfaceCoupling, build_interface_coupling
from .splines import (
    SIDES,
    Patch2D,
    _element_tables,
    _subdivision,
    side_index,
)

__all__ = ["Cell", "CellGroup", "ExtractedMesh", "MultiPatchModel"]


@dataclass(frozen=True)
class Cell:
    """One quadrature cell of an extracted element stream.

    Field basis values at a point are ``(ophom @ B) / sum(ophom @ B)`` with B
    the tensor Bernstein basis on ``rect``; the geometry is rational in the
    homogeneous Bézier control points ``geo`` (nb, 3), one (x w, y w, w) per
    Bernstein function: x = (B @ geo)[:2] / (B @ geo)[2].  ``rows`` are
    scalar dof ids of the owning mesh.  :attr:`ExtractedMesh.cells` holds one
    read-only view per cell.
    """

    patch: int
    rect: tuple[tuple[float, float], tuple[float, float]]
    rows: np.ndarray
    ophom: np.ndarray
    geo: np.ndarray
    degrees: tuple[int, int]


@dataclass(frozen=True)
class CellGroup:
    """Cells of one shape stacked along a leading cell axis, in stream order.

    ``index`` (nc,) holds their positions in the stream, ``patch`` (nc,) and
    ``rect`` (nc, 2, 2) their patches and parameter rectangles; ``rows``
    (nc, nr), ``ophom`` (nc, nr, nb) and ``geo`` (nc, nb, 3) are the
    :class:`Cell` fields stacked.
    """

    index: np.ndarray
    patch: np.ndarray
    rect: np.ndarray
    rows: np.ndarray
    ophom: np.ndarray
    geo: np.ndarray
    degrees: tuple[int, int]

    def take(self, sel, **fields) -> CellGroup:
        """The cells ``sel``; ``fields`` replace stacked fields (already selected)."""
        return CellGroup(*(fields[f] if f in fields else getattr(self, f)[sel] for f in _STACKED),
                         self.degrees)


_STACKED = ("index", "patch", "rect", "rows", "ophom", "geo")


class ExtractedMesh:
    """Element stream plus the dof numbering it is solved in; the input to assembly.

    ``grids`` holds each patch's solved dof ids (-1 on slave edges) and ``P``
    the scalar prolongation from the solved dofs to the ``ndof`` mesh dofs,
    or None where the cells use the solved dofs (the weak stream).  The
    stream is held as shape groups: ``pieces`` that share degrees and
    operator shape are merged into one :class:`CellGroup`, ordered by
    position, and the groups are ordered by their first position.  ``_cache``
    holds data derived from the groups on first use (the cell views, the
    breakpoint grids of :meth:`cell_index`, the assembly pattern per component
    count and the neo-Hookean kernel's quadrature geometry), so the groups
    are read-only.
    """

    def __init__(self, patches: list[Patch2D], pieces, ndof: int, grids: list[np.ndarray],
                 P: sp.csr_matrix | None):
        self.patches = patches
        self.ndof = ndof
        self.grids = grids
        self.P = P
        self._cache: dict = {}
        by_shape: dict = {}
        for p in pieces:
            if len(p.index):
                by_shape.setdefault((p.degrees, p.ophom.shape[1:]), []).append(p)
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

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Mesh-dof values of solved values ``x``, any number of components
        per dof, component fastest."""
        return x if self.P is None else (self.P @ x.reshape(self.P.shape[1], -1)).reshape(-1)

    @property
    def cells(self) -> tuple[Cell, ...]:
        """Every cell as a :class:`Cell` view, in stream order."""
        if "cells" not in self._cache:
            cells = [None] * len(self)
            for g in self.groups:
                for k, patch, rect, *arrays in zip(g.index.tolist(), g.patch.tolist(),
                                                   g.rect.tolist(), g.rows, g.ophom, g.geo):
                    cells[k] = Cell(patch, tuple(map(tuple, rect)), *arrays, g.degrees)
            self._cache["cells"] = tuple(cells)
        return self._cache["cells"]

    def cell_index(self, patch: np.ndarray, xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
        """Stream position of the cell of ``patch[q]`` holding each point q.

        Of the cells whose rectangle, widened by 1e-12, holds the point, the
        first in stream order is taken.  Unequal or non-1-D shapes, non-finite
        parameters and a point no cell holds raise ``ValueError``.
        """
        patch, xi1, xi2 = np.asarray(patch), np.asarray(xi1, float), np.asarray(xi2, float)
        if not (xi1.ndim == 1 and patch.shape == xi1.shape == xi2.shape):
            raise ValueError(f"patch, xi1 and xi2 have shapes {patch.shape}, {xi1.shape} and "
                             f"{xi2.shape}; expected one value per point")
        if not np.all(np.isfinite(xi1) & np.isfinite(xi2)):
            raise ValueError("non-finite parameter")
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
        npatch = len(self.patches)
        for spec in self.interfaces:
            if not all(0 <= pi < npatch for pi, _ in (spec.master, spec.slave)):
                raise ValueError(f"interface {spec} names a patch outside 0..{npatch - 1}")
        self.couplings: list[InterfaceCoupling] = [
            build_interface_coupling(spec, self.patches[spec.slave[0]].boundary(spec.slave[1]),
                                     self.patches[spec.master[0]].boundary(spec.master[1]),
                                     self.dual_refine) for spec in self.interfaces]
        self._build_layout()

    # ------------------------------------------------------------------ dofs

    def _build_layout(self):
        """Number the dofs and build the prolongation operator.

        Retained dofs are the patch functions off the slave edges, numbered
        patch by patch in row-major order (``grids`` holds them, -1 on slave
        edges); each interface then appends one trace dof per refined
        interface function (``trace_ids``).  ``master_ids`` holds the full dof
        of each master edge function.  A master edge meets a slave edge only
        at a corner (no side is both), where the refined interface function
        of that end is the only one that does not vanish, so there it holds
        the end trace dof.
        """
        if {c.spec.master for c in self.couplings} & {c.spec.slave for c in self.couplings}:
            raise ValueError("a side is master of one interface and slave of another")
        slave = [np.zeros(p.shape, dtype=bool) for p in self.patches]
        pinned = set()  # (patch, axis) of every slave side
        for coup in self.couplings:
            pi, side = coup.spec.slave
            edge = slave[pi][side_index(side)]
            if edge.any():
                raise ValueError("chained slave dependency: a dof is slave on two interfaces")
            # opposite slave sides of a patch one element across share its elements
            axis = SIDES[side][0]
            if (pi, axis) in pinned and len(self.patches[pi].kvs[axis].breakpoints()) == 2:
                raise ValueError("element adjacent to two slave interfaces; refine the patch")
            pinned.add((pi, axis))
            edge[...] = True
        # each patch's retained dofs, then each interface's trace dofs, in turn
        ends = np.cumsum([0] + [np.count_nonzero(~m) for m in slave]
                         + [c.trace.kv.n for c in self.couplings]).tolist()
        self.grids: list[np.ndarray] = [np.full(m.shape, -1) for m in slave]
        for grid, mask, a, b in zip(self.grids, slave, ends, ends[1:]):
            grid[~mask] = np.arange(a, b)
        self.n_retained, self.ndof_full = ends[len(slave)], ends[-1]
        self.trace_ids: list[np.ndarray] = [np.arange(a, b) for a, b in
                                            zip(ends[len(slave):], ends[len(slave) + 1:])]
        ids = [grid.copy() for grid in self.grids]
        for coup, tids in zip(self.couplings, self.trace_ids):
            pi, side = coup.spec.slave
            ids[pi][side_index(side)][[0, -1]] = tids[[0, -1]]
        self.master_ids: list[np.ndarray] = [ids[mp][side_index(ms)]
                                             for mp, ms in (c.spec.master for c in self.couplings)]
        self._constraints = [  # G_i E_i
            sp.csr_matrix(c.G) @ sp.csr_matrix((np.ones(m.size), m, np.arange(m.size + 1)),
                                               shape=(m.size, self.ndof_full))
            for c, m in zip(self.couplings, self.master_ids)]
        self.P = self._prolongation()

    def _prolongation(self) -> sp.csr_matrix:
        """P with full dofs = P @ retained dofs, stacked once from one block per interface.

        Interface i's block is (G_i E_i) P: its retained columns plus, for each
        interface j whose trace dofs it reaches (an owner array read at its
        columns), those columns times j's block.  Each block is formed once, in
        dependency order.
        """
        nr, n = self.n_retained, len(self.couplings)
        owner = np.repeat(np.arange(-1, n), [nr] + [ids.size for ids in self.trace_ids])
        deps = [sorted(set(owner[GE.indices].tolist()) - {-1}) for GE in self._constraints]
        try:
            order = list(graphlib.TopologicalSorter(dict(enumerate(deps))).static_order())
        except graphlib.CycleError:
            raise ValueError("cyclic interface dependency; cannot condense") from None
        blocks: list = [None] * n
        for ci in order:
            GE = self._constraints[ci]
            blocks[ci] = sum((GE[:, self.trace_ids[cj]] @ blocks[cj] for cj in deps[ci]),
                             GE[:, :nr])
        P = sp.vstack([sp.identity(nr, format="csr")] + blocks, format="csr")
        P.sort_indices()  # the sparse products leave column order unsorted
        return P

    def multiplier_blocks(self):
        """Scalar constraint blocks (master side, slave side) for the saddle system.

        Interface i contributes the rows G_i E_i to ``Bm`` and the selection of
        its trace dofs to ``Bs``.
        """
        Bm = sp.vstack([sp.csr_matrix((0, self.ndof_full))] + self._constraints, format="csr")
        Bs = sp.eye(self.ndof_full - self.n_retained, self.ndof_full, self.n_retained, format="csr")
        Bm.sort_indices()  # the sparse product leaves column order unsorted
        return Bm, Bs

    # ----------------------------------------------------------------- cells

    def mortar_mesh(self) -> ExtractedMesh:
        """Element stream in full numbering (trace dofs explicit), carrying ``P``."""
        return ExtractedMesh(self.patches, self._mortar_pieces(), self.ndof_full, self.grids,
                             self.P)

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
            count = np.bincount(owner, minlength=len(g.index))
            for n in np.unique(count).tolist():
                at = count[owner] == n  # the rows of the cells with n rows, in order
                pieces.append(g.take(count == n, rows=cols[at].reshape(-1, n),
                                     ophom=op[at].reshape(-1, n, nb)))
        return ExtractedMesh(self.patches, pieces, self.n_retained, self.grids, None)

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
            counts = np.ones(n, dtype=int)  # cells per element
            plain = np.ones(n, dtype=bool)  # elements off every slave interface
            for t in traces:
                elements, k = np.unique(t.index, return_counts=True)
                plain[elements] = False
                counts[elements] = k
            standard = _grid_cells(pi, patch, self.grids[pi], plain)
            first = start + np.cumsum(counts) - counts
            for t in [standard] + traces:
                # subcells of one element are consecutive, in interface order
                rank = np.arange(len(t.index)) - np.searchsorted(t.index, t.index)
                pieces.append(replace(t, index=first[t.index] + rank))
            start += int(counts.sum())
        return pieces

    def _trace_cells(self, pi: int, ci: int) -> CellGroup:
        """Cells along slave interface ``ci``, ``index`` holding their elements.

        Each element is subdivided at the refined interface's breakpoints
        inside it; ``index`` is the row-major element index of every subcell,
        in increasing order.  A subcell is the tensor cell of the element's
        transverse extraction and its own interface-direction operator, all
        of them from one :func:`~bezmortar.splines._subdivision` at the union
        of the element and refined-interface breakpoints; its rows are put in
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
        bp_i = _element_tables(kv_i)[0]
        bp_r, first_r, C_r = _element_tables(coup.trace.kv)
        cuts = np.union1d(bp_i, bp_r)
        a, b = cuts[:-1], cuts[1:]
        owner = np.searchsorted(bp_i, a, "right") - 1
        e_r = np.clip(np.searchsorted(bp_r, 0.5 * (a + b), "right") - 1, 0, bp_r.size - 2)
        m = owner.size
        transverse = (np.full(m, first_f[e_f]), np.broadcast_to(C_f[e_f], (m,) + C_f.shape[1:]))
        along = _subdivision(kv_i, cuts)
        pairs = transverse + along if axis_f == 0 else along + transverse
        rows, op, geo = _tensor_cells(patch, self.grids[pi], *pairs)
        perm = np.arange(rows.shape[1]).reshape(patch.degrees[0] + 1, -1)
        perm = (perm.T if axis_f else perm).reshape(-1)
        rows, op = rows[:, perm], op[:, perm]
        # the edge row group: refined interface functions over the trace dofs
        r = first_r[e_r][:, None] + np.arange(p_i + 1)
        edge = p_f if at_end else 0  # local index of the side's functions
        grp = slice(edge * (p_i + 1), (edge + 1) * (p_i + 1))
        kron = np.einsum("mrl,k->mrlk" if axis_f else "mrl,k->mrkl", C_r[e_r], C_f[e_f, edge])
        op[:, grp] = coup.trace.weights[r][..., None] * kron.reshape(m, p_i + 1, -1)
        rows[:, grp] = self.trace_ids[ci][r]
        rect = np.empty((m, 2, 2))
        rect[:, axis_f], rect[:, 1 - axis_f] = bp_f[e_f : e_f + 2], np.column_stack([a, b])
        n2 = _element_tables(patch.kvs[1])[1].size
        elements = owner * n2 + e_f if axis_f else e_f * n2 + owner
        return CellGroup(elements, np.full(m, pi), rect, rows, op, geo, patch.degrees)


def _tensor_cells(patch: Patch2D, grid: np.ndarray, first1, C1, first2, C2):
    """Rows, operators and Bézier geometry ``geo`` of stacked tensor-product cells.

    Cell k pairs the element with first function ``first1[k]`` and extraction
    operator ``C1[k]`` in direction 1 with ``first2[k]``, ``C2[k]`` in
    direction 2.  Its rows are the ``grid`` entries of the (p1+1) x (p2+1)
    active functions in row-major order, its operator is
    ``w * (C1[k] kron C2[k])`` with ``w`` their weights, and its geometry the
    operator's transpose times their control points (x, y, 1).
    """
    p1, p2 = patch.degrees
    n = (p1 + 1) * (p2 + 1)
    i = first1[:, None, None] + np.arange(p1 + 1)[:, None]
    j = first2[:, None, None] + np.arange(p2 + 1)
    kron = np.einsum("mik,mjl->mijkl", C1, C2).reshape(-1, n, n)
    op = patch.weights[i, j].reshape(-1, n, 1) * kron
    pts = patch.points[i, j].reshape(-1, n, 2)
    geo = np.swapaxes(op, 1, 2) @ np.concatenate([pts, np.ones_like(pts[..., :1])], axis=2)
    return grid[i, j].reshape(-1, n), op, geo


def _grid_cells(pi: int, patch: Patch2D, grid: np.ndarray, keep) -> CellGroup:
    """Standard cells of the elements ``keep`` selects (a mask or slice over the
    row-major element order) of a patch, ``index`` holding their elements."""
    (bp1, first1, C1), (bp2, first2, C2) = (_element_tables(kv) for kv in patch.kvs)
    elements = np.arange(first1.size * first2.size)[keep]
    e1, e2 = np.divmod(elements, first2.size)
    cells = _tensor_cells(patch, grid, first1[e1], C1[e1], first2[e2], C2[e2])
    rect = np.stack([np.column_stack([bp[:-1], bp[1:]])[e] for bp, e in ((bp1, e1), (bp2, e2))],
                    axis=1)
    return CellGroup(elements, np.full(e1.size, pi), rect, *cells, patch.degrees)
