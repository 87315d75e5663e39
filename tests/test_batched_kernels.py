"""The batched cell kernels against per-cell reference loops over evaluate_cell.

The references walk the cells one at a time at their tensor Gauss points
and build the matrix through a COO triplet list, as a plain extracted-element
code would; the batched kernels must give the same systems to rounding.
The cell kernel both share is checked on its own against the scalar
Cox-de Boor patch evaluation of ``tests/reference.py``.
Boundary loads are checked the same way against a loop over 1D side cells
(each 2D cell on the side restricted to its edge functions), and every user
callable must see the points of a block at once.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from bezmortar import (
    Cell,
    ExtractedMesh,
    InterfaceSpec,
    MaterialModel,
    MultiPatchModel,
    NumericalError,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neo_hookean,
    assemble_poisson,
    fem,
    l2_error,
)
from bezmortar.benchmarks import (
    CASES,
    field_difference_l2,
    kirsch_cartesian,
    largedef_model,
    manufactured_fields,
    rect_patch,
)
from bezmortar.fem import (
    assemble_neumann,
    boundary_projection,
    deformation_gradients,
    dirichlet_rows,
    evaluate_cell,
)
from bezmortar.splines import (
    SIDES,
    KnotVector,
    Patch2D,
    bernstein_derivatives,
    gauss_on_breaks,
    greville_abscissae,
    side_index,
)
from cases import case_model
from reference import patch_eval

RNG = np.random.default_rng(7)
TOL = 1e-12


def _mixed_degree_model():
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(3, 3, 3, (0.5, 1.0), (0.0, 1.0))
    return MultiPatchModel([master, slave],
                           [InterfaceSpec(master=(0, "east"), slave=(1, "west"))], 1)


MESHES = {
    "weak-largedef": lambda: largedef_model(1, weak=True).weak_mesh(),
    # rational patches
    "mortar-annulus": lambda: case_model("annulus", 0).mortar_mesh(),
    # rational, three shape groups with 9, 10 and 11 rows
    "weak-plate-3patch": lambda: case_model("plate-hole-3patch", 0, matched=False).weak_mesh(),
    # one group per degree
    "weak-mixed-degree": lambda: _mixed_degree_model().weak_mesh(),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _cell_quadrature(cell, n1, n2):
    """Tensor Gauss points and weights on the cell rectangle."""
    (a1, b1), (a2, b2) = cell.rect
    x1, w1 = gauss_on_breaks((a1, b1), n1)
    x2, w2 = gauss_on_breaks((a2, b2), n2)
    return np.repeat(x1, n2), np.tile(x2, n1), np.outer(w1, w2).reshape(-1)


def _cells(mesh, quad_extra=1):
    """(cell, ev, wdet) at the cell's tensor Gauss rule, one cell at a time."""
    for cell in mesh.cells:
        n1, n2 = cell.degrees[0] + quad_extra, cell.degrees[1] + quad_extra
        x1, x2, w = _cell_quadrature(cell, n1, n2)
        ev = evaluate_cell(cell, x1, x2)
        yield cell, ev, w * ev["detJ"]


def _dofs(cell, ncomp):
    return (cell.rows[:, None] * ncomp + np.arange(ncomp)).reshape(-1)


def _coo(blocks, n):
    ri = np.concatenate([np.repeat(d, len(d)) for d, _ in blocks])
    cj = np.concatenate([np.tile(d, len(d)) for d, _ in blocks])
    data = np.concatenate([k.reshape(-1) for _, k in blocks])
    return sp.coo_matrix((data, (ri, cj)), shape=(n, n)).tocsr()


def _assert_same_matrix(K, ref):
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.abs(K.data - ref.data).max() <= TOL * np.abs(ref.data).max()


def _assert_close(v, ref, tol=TOL):
    assert np.abs(v - ref).max() <= tol * np.abs(ref).max()


# ------------------------------------------- the kernel against Cox-de Boor


@st.composite
def single_patches(draw):
    """Rational patches of degree 1-4 on random open knot vectors (interior
    knots repeated up to p times), weights in [0.5, 2] and as control net the
    Greville grid of a gently warped unit square."""
    kvs = []
    for _ in range(2):
        p = draw(st.integers(1, 4))
        interior = draw(st.lists(st.floats(0.05, 0.95), max_size=3, unique=True))
        vals = sorted(x for x in interior for _ in range(draw(st.integers(1, p))))
        kvs.append(KnotVector(np.concatenate([np.zeros(p + 1), vals, np.ones(p + 1)]), p))
    g1, g2 = np.meshgrid(*(greville_abscissae(kv) for kv in kvs), indexing="ij")
    points = np.stack([g1 + 0.1 * g1 * g2, g2 + 0.05 * np.sin(np.pi * g1)], axis=-1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Patch2D(kvs, points, rng.uniform(0.5, 2.0, points.shape[:2]))


def _patch_reference(patch, grid, xi):
    """``patch_eval`` at the points ``xi`` (m, 2), the basis scattered to the
    dofs of ``grid``: x (m, 2), jac (m, 2, 2), basis (m, ndof) and grad_phys
    (m, ndof, 2)."""
    ndof = grid.max() + 1
    x, jac = np.empty((len(xi), 2)), np.empty((len(xi), 2, 2))
    basis, grad = np.zeros((len(xi), ndof)), np.zeros((len(xi), ndof, 2))
    for q, (xi1, xi2) in enumerate(xi):
        x[q], jac[q], (f1, f2), vals, grads = patch_eval(patch, xi1, xi2)
        dofs = grid[f1 : f1 + vals.shape[0], f2 : f2 + vals.shape[1]].reshape(-1)
        basis[q, dofs] = vals.reshape(-1)
        grad[q, dofs] = grads.reshape(-1, 2) @ np.linalg.inv(jac[q])
    return x, jac, basis, grad


@given(single_patches())
def test_cell_blocks_match_cox_de_boor(patch):
    # the batched kernel against the scalar recursions of tests/reference.py,
    # which share none of its Bezier algebra
    mesh = MultiPatchModel([patch], []).weak_mesh()
    grid = mesh.grids[0]
    for quad_extra, grad in ((1, True), (2, False)):
        for _, rows, ev in fem.cell_blocks(mesh, quad_extra, grad=grad):
            assert ("grad_phys" in ev) == grad
            for c in range(len(rows)):
                x, jac, basis, grad_phys = _patch_reference(patch, grid, ev["xi"][c])
                _assert_close(ev["x"][c], x)
                _assert_close(ev["jac"][c], jac)
                _assert_close(ev["detJ"][c], np.linalg.det(jac))
                _assert_close(ev["basis"][c], basis[:, rows[c]])
                if grad:
                    _assert_close(ev["grad_phys"][c], grad_phys[:, rows[c]])


def _forcing(x, y):
    return np.sin(x) + y * y


def _poisson_reference(mesh):
    blocks, f = [], np.zeros(mesh.ndof)
    for cell, ev, wdet in _cells(mesh):
        dphi = ev["grad_phys"]
        blocks.append((cell.rows, np.einsum("qid,qjd,q->ij", dphi, dphi, wdet)))
        fv = np.array([_forcing(*xy) for xy in ev["x"]])
        f[cell.rows] += ev["basis"].T @ (wdet * fv)
    return _coo(blocks, mesh.ndof), f


def test_poisson_matches_reference(mesh):
    K_ref, f_ref = _poisson_reference(mesh)
    system = assemble_poisson(mesh, _forcing)
    _assert_same_matrix(system.K, K_ref)
    _assert_close(system.f, f_ref)


def test_block_size_does_not_change_the_system(mesh, monkeypatch):
    K = assemble_poisson(mesh, _forcing).K
    monkeypatch.setattr(fem, "_BLOCK", 3)
    _assert_same_matrix(assemble_poisson(mesh, _forcing).K, K)


_ELASTIC = MaterialModel(E=7.0, nu=0.3)


def _elasticity_reference(mesh, mat):
    lam, mu = mat.lam, mat.mu
    D = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    blocks = []
    for cell, ev, wdet in _cells(mesh):
        dphi = ev["grad_phys"]
        nr = len(cell.rows)
        B = np.zeros((len(wdet), 3, 2 * nr))
        B[:, 0, 0::2] = dphi[:, :, 0]
        B[:, 1, 1::2] = dphi[:, :, 1]
        B[:, 2, 0::2] = dphi[:, :, 1]
        B[:, 2, 1::2] = dphi[:, :, 0]
        blocks.append((_dofs(cell, 2), np.einsum("qai,ab,qbj,q->ij", B, D, B, wdet)))
    return _coo(blocks, mesh.ndof * 2)


def test_elasticity_matches_reference(mesh):
    system = assemble_linear_elasticity(mesh, _ELASTIC)
    _assert_same_matrix(system.K, _elasticity_reference(mesh, _ELASTIC))
    assert not system.f.any()


def _neo_hookean_reference(mesh, mat, state):
    lam, mu = mat.lam, mat.mu
    eye = np.eye(2)
    d = state.reshape(-1, 2)
    r = np.zeros(mesh.ndof * 2)
    blocks = []
    for cell, ev, wdet in _cells(mesh):
        dphi = ev["grad_phys"]
        nr = len(cell.rows)
        rloc = np.zeros((nr, 2))
        kloc = np.zeros((2 * nr, 2 * nr))
        for q in range(len(wdet)):
            F = eye + d[cell.rows].T @ dphi[q]
            J = np.linalg.det(F)
            FinvT = np.linalg.inv(F).T
            P = 0.5 * lam * (J**2 - 1.0) * FinvT + mu * (F - FinvT)
            rloc += wdet[q] * dphi[q] @ P.T
            g = dphi[q] @ FinvT.T
            k = (lam * J**2 * np.einsum("ni,mk->nimk", g, g)
                 + (mu - 0.5 * lam * (J**2 - 1.0)) * np.einsum("nk,mi->nimk", g, g)
                 + mu * np.einsum("nm,ik->nimk", dphi[q] @ dphi[q].T, eye))
            kloc += wdet[q] * k.reshape(2 * nr, 2 * nr)
        r[_dofs(cell, 2)] += rloc.reshape(-1)
        blocks.append((_dofs(cell, 2), kloc))
    return r, _coo(blocks, mesh.ndof * 2)


def _admissible_state(mesh):
    """A displacement of 2% of the patch width that inverts no element.

    It comes from a generator of its own, so it does not depend on which
    tests drew from ``RNG`` before.
    """
    size = max(np.ptp(p.points[..., 0]) for p in mesh.patches)
    return 0.02 * size * np.random.default_rng(1).uniform(-1.0, 1.0, mesh.ndof * 2)


def test_neo_hookean_matches_reference(mesh):
    mat = MaterialModel(E=10.0, nu=0.3)
    state = _admissible_state(mesh)
    r_ref, K_ref = _neo_hookean_reference(mesh, mat, state)
    # twice: the second call runs on the geometry memoised by the first
    for _ in range(2):
        r, K = assemble_neo_hookean(mesh, mat, state)
        _assert_close(r, r_ref)
        _assert_same_matrix(K, K_ref)


def test_cached_geometric_tangent_equals_the_in_loop_formula(mesh):
    # mu int dphi_n . dphi_m d_ik, as the kernel formed it at every assembly
    mu = MaterialModel(E=10.0, nu=0.3).mu
    blocks = fem._neo_hookean_geometry(mesh)
    for (_, _, ev), (G, _, k3) in zip(fem.cell_blocks(mesh), blocks, strict=True):
        Gt = np.swapaxes(ev["grad_phys"], 2, 3)
        ref = mu * fem._wgram(Gt, Gt, ev["wdet"])[:, :, None, :, None] * np.eye(2)[:, None, :]
        assert np.array_equal(G, ev["grad_phys"])
        assert np.array_equal(mu * k3, ref)


# ------------------------------------------------------------ the one sum


def _sparsity(dofs: list, n: int):
    """CSR pattern and slots built from scratch for one sum: the cached pattern's oracle."""
    keys = np.concatenate([(d[:, :, None].astype(np.int64) * n + d[:, None, :]).reshape(-1)
                           for d in dofs])
    uniq, slot = np.unique(keys, return_inverse=True)
    indptr = np.searchsorted(uniq, np.arange(n + 1) * n)
    return indptr, uniq % n, slot


def _csr(pattern, local: list, n: int) -> sp.csr_matrix:
    indptr, indices, slot = pattern
    data = np.bincount(slot, weights=np.concatenate([a.reshape(-1) for a in local]),
                       minlength=len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _vector(dofs: list, local: list, n: int) -> np.ndarray:
    return np.bincount(np.concatenate([d.reshape(-1) for d in dofs]),
                       weights=np.concatenate([a.reshape(-1) for a in local]), minlength=n)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _spy(monkeypatch, name):
    """Record the arguments and result of every call of a ``fem`` function."""
    calls, real = [], getattr(fem, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(fem, name, spy)
    return calls


def _gentle_state(mesh):
    """A small displacement from a private generator, leaving ``RNG`` to the other tests."""
    size = max(np.ptp(p.points[..., 0]) for p in mesh.patches)
    return 0.002 * size * np.random.default_rng(5).uniform(-1.0, 1.0, mesh.ndof * 2)


def test_assembly_reuses_the_pattern_of_its_component_count(mesh):
    first, second = assemble_poisson(mesh).K, assemble_poisson(mesh, _forcing).K
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    elastic = assemble_linear_elasticity(mesh, _ELASTIC).K
    _, tangent = assemble_neo_hookean(mesh, MaterialModel(E=10.0, nu=0.3),
                                      _gentle_state(mesh))
    assert np.shares_memory(elastic.indices, tangent.indices)
    assert np.shares_memory(elastic.indptr, tangent.indptr)
    assert not np.shares_memory(first.indices, elastic.indices)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_one_mesh_serves_scalar_and_vector_systems(name):
    # a fresh mesh: Poisson caches the one-component pattern first
    mesh = MESHES[name]()
    K_ref, f_ref = _poisson_reference(mesh)
    system = assemble_poisson(mesh, _forcing)
    _assert_same_matrix(system.K, K_ref)
    _assert_close(system.f, f_ref)
    _assert_same_matrix(assemble_linear_elasticity(mesh, _ELASTIC).K,
                        _elasticity_reference(mesh, _ELASTIC))


def test_cached_sum_equals_the_per_call_sum(mesh, monkeypatch):
    calls = _spy(monkeypatch, "_system")
    body = lambda x, y: np.stack([np.cos(x * y), x - y * y], axis=-1)
    assemble_poisson(mesh, _forcing)
    assemble_linear_elasticity(mesh, _ELASTIC, body)
    r, K = assemble_neo_hookean(mesh, MaterialModel(E=10.0, nu=0.3),
                                _gentle_state(mesh))
    assert [args[1] for args, _ in calls] == [1, 2, 2]
    assert calls[-1][1].f is r and calls[-1][1].K is K
    _assert_sums_from_scratch(calls)


def _assert_sums_from_scratch(calls):
    """Every recorded ``_system`` call gave bitwise the K and f of the sum
    built from scratch on the sorted unique (row, column) pairs."""
    for (mesh, ncomp, local, loads), system in calls:
        n = mesh.ndof * ncomp
        dofs = [fem._local_dofs(rows, ncomp) for _, rows, _ in fem.cell_blocks(mesh, grad=False)]
        ref = _csr(_sparsity(dofs, n), local, n)
        for attr in ("indptr", "indices", "data"):
            assert _same_bits(getattr(system.K, attr), getattr(ref, attr))
        assert _same_bits(system.f, _vector(dofs, loads, n))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_every_case_system_equals_the_sum_from_scratch(case_id, monkeypatch):
    # the cached pattern on the models of the case table, both routes, one
    # and two components
    model = case_model(case_id, 0 if case_id == "square-demo" else 1)
    calls = _spy(monkeypatch, "_system")
    for mesh in (model.mortar_mesh(), model.weak_mesh()):
        assemble_poisson(mesh, _forcing)
        assemble_linear_elasticity(mesh, _ELASTIC, lambda x, y: np.stack([y, x * x], axis=-1))
    assert [args[1] for args, _ in calls] == [1, 2, 1, 2]
    _assert_sums_from_scratch(calls)


def test_l2_error_matches_reference(mesh):
    values = RNG.normal(size=mesh.ndof * 2)
    exact = lambda x, y: np.stack([x * y, np.cos(y)], axis=-1)
    total = 0.0
    for cell, ev, wdet in _cells(mesh, quad_extra=2):
        diff = ev["basis"] @ values.reshape(-1, 2)[cell.rows]
        diff -= np.array([exact(*xy) for xy in ev["x"]])
        total += float(np.sum(wdet * np.sum(diff * diff, axis=1)))
    got = l2_error(SolutionField(mesh, values, 2), exact)
    assert abs(got - math.sqrt(total)) <= TOL * math.sqrt(total)


def test_field_difference_matches_pointwise_reference():
    weak = largedef_model(0, weak=True).weak_mesh()
    conforming = largedef_model(0, weak=False).weak_mesh()
    fa = SolutionField(weak, RNG.normal(size=weak.ndof * 2), 2)
    fb = SolutionField(conforming, RNG.normal(size=conforming.ndof * 2), 2)
    total = 0.0
    for cell, ev, wdet in _cells(weak, quad_extra=2):
        x1, x2, _ = _cell_quadrature(cell, cell.degrees[0] + 2, cell.degrees[1] + 2)
        va = ev["basis"] @ fa.values.reshape(-1, 2)[cell.rows]
        for q in range(len(wdet)):
            d = va[q] - _point_value(fb, cell.patch, float(x1[q]), float(x2[q]))
            total += wdet[q] * float(d @ d)
    got = field_difference_l2(fa, fb)
    assert abs(got - math.sqrt(total)) <= TOL * math.sqrt(total)


def _locate(mesh, patch, xi1, xi2):
    """The cell ``cell_index`` finds for one point."""
    return mesh.cells[mesh.cell_index(np.array([patch]), np.array([xi1]), np.array([xi2]))[0]]


def _point_value(field, patch, xi1, xi2, grad=False):
    """A field's values (ncomp,) at one point, with ``grad`` also its gradients
    (ncomp, 2), from that point's cell alone."""
    cell = _locate(field.mesh, patch, xi1, xi2)
    ev = evaluate_cell(cell, np.array([xi1]), np.array([xi2]), grad)
    coeffs = field.values.reshape(-1, field.ncomp)[cell.rows]
    value = ev["basis"][0] @ coeffs
    return (value, np.einsum("nd,nk->kd", ev["grad_phys"][0], coeffs)) if grad else value


def _field_difference_per_point(field_a, field_b, quad_extra=2):
    """field_difference_l2 with one ``_locate`` per point, hits grouped in a dict."""
    total = 0.0
    da = field_a.values.reshape(-1, field_a.ncomp)
    db = field_b.values.reshape(-1, field_b.ncomp)
    for index, rows, ev in fem.cell_blocks(field_a.mesh, quad_extra, grad=False):
        va = (ev["basis"] @ da[rows]).reshape(-1, field_a.ncomp)
        xi = ev["xi"].reshape(-1, 2)
        patches = np.repeat([field_a.mesh.cells[k].patch for k in index], ev["xi"].shape[1])
        hits = {}
        for q, (patch, (s, t)) in enumerate(zip(patches, xi)):
            cell = _locate(field_b.mesh, int(patch), s, t)
            hits.setdefault(id(cell), (cell, []))[1].append(q)
        vb = np.empty_like(va)
        for cell, qs in hits.values():
            ev_b = evaluate_cell(cell, xi[qs, 0], xi[qs, 1], grad=False)
            vb[qs] = ev_b["basis"] @ db[cell.rows]
        d = va - vb
        total += float(np.sum(ev["wdet"].reshape(-1) * np.sum(d * d, axis=1)))
    return math.sqrt(total)


def _square_mortar_weak():
    model = case_model("square-mixed", 1)
    return model.mortar_mesh(), model.weak_mesh()


@pytest.mark.parametrize("pair", [
    lambda: (largedef_model(0, weak=True).weak_mesh(),
             largedef_model(0, weak=False).weak_mesh()),
    _square_mortar_weak,
], ids=["largedef-weak-conforming", "square-mortar-weak"])
def test_field_difference_matches_per_point_locate(pair):
    mesh_a, mesh_b = pair()
    fa = SolutionField(mesh_a, RNG.normal(size=mesh_a.ndof * 2), 2)
    fb = SolutionField(mesh_b, RNG.normal(size=mesh_b.ndof * 2), 2)
    ref = _field_difference_per_point(fa, fb)
    assert abs(field_difference_l2(fa, fb) - ref) <= 1e-14 * ref


def test_inverting_one_element_raises_from_assembly_and_guard():
    model = largedef_model(0, weak=True)
    mesh = model.weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
    state = np.zeros(mesh.ndof * 2)
    assert all(np.allclose(F, np.eye(2)) and np.allclose(J, 1.0)
               for F, J in deformation_gradients(mesh, state))
    # the corner function of the master patch lives on one element only;
    # pushing its control point past the element's far corner folds it
    corner = int(model.grids[0][0, 0])
    assert sum(corner in cell.rows for cell in mesh.cells) == 1
    state[2 * corner : 2 * corner + 2] = [1.0, 1.0]
    with pytest.raises(NumericalError, match="inversion"):
        deformation_gradients(mesh, state)
    with pytest.raises(NumericalError, match="inversion"):
        assemble_neo_hookean(mesh, mat, state)


def test_guard_rejects_nan_state():
    mesh = largedef_model(0, weak=True).weak_mesh()
    state = np.zeros(mesh.ndof * 2)
    state[3] = np.nan
    with pytest.raises(NumericalError, match="inversion"):
        deformation_gradients(mesh, state)


def _scan(mesh, patch, xi1, xi2):
    for c in mesh.cells:
        (a1, b1), (a2, b2) = c.rect
        if (c.patch == patch and a1 - 1e-12 <= xi1 <= b1 + 1e-12
                and a2 - 1e-12 <= xi2 <= b2 + 1e-12):
            return c
    return None


def test_locate_matches_linear_scan(mesh):
    # cell_index, the point locator, against a scan over every cell
    for patch in range(len(mesh.patches)):
        rects = np.array([c.rect for c in mesh.cells if c.patch == patch])
        b1, b2 = np.unique(rects[:, 0]), np.unique(rects[:, 1])
        # breakpoints and points inside, just within and just beyond the slack
        offsets = np.array([0.0, 5e-13, -5e-13, 2e-12, -2e-12])
        s1 = np.concatenate([(b1[:, None] + offsets).ravel(),
                             RNG.uniform(b1[0], b1[-1], 20)])
        s2 = np.concatenate([(b2[:, None] + offsets).ravel(),
                             RNG.uniform(b2[0], b2[-1], 20)])
        xi1, xi2 = np.repeat(s1, s2.size), np.tile(s2, s1.size)
        refs = [_scan(mesh, patch, a, b) for a, b in zip(xi1, xi2)]
        inside = np.array([r is not None for r in refs])
        # one call for every point some cell holds ...
        got = mesh.cell_index(np.full(inside.sum(), patch), xi1[inside], xi2[inside])
        want = [r for r in refs if r is not None]
        assert len(got) == len(want) and all(mesh.cells[k] is r for k, r in zip(got, want))
        # ... and each point no cell holds raises
        for a, b in zip(xi1[~inside], xi2[~inside]):
            with pytest.raises(ValueError, match="not inside"):
                mesh.cell_index(np.array([patch]), np.array([a]), np.array([b]))
    with pytest.raises(ValueError, match="not inside"):
        mesh.cell_index(np.array([len(mesh.patches)]), np.array([0.5]), np.array([0.5]))


def test_locate_returns_the_first_of_overlapping_cells():
    # cell_index takes the first in stream order of the cells holding a point
    base = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    (grid,) = base.groups
    n = len(base)
    whole = dataclasses.replace(grid.take([n - 1]), rect=np.array([[[0.0, 1.0], [0.0, 1.0]]]))
    last = ExtractedMesh(base.patches, [grid, dataclasses.replace(whole, index=np.array([n]))],
                         base.ndof, base.grids, None)
    first = ExtractedMesh(base.patches, [dataclasses.replace(grid, index=grid.index + 1),
                                         dataclasses.replace(whole, index=np.array([0]))],
                          base.ndof, base.grids, None)
    xi1, xi2 = RNG.uniform(0.0, 1.0, (2, 20))
    patch = np.zeros(20, dtype=int)
    want = [base.cells.index(_scan(base, 0, a, b)) for a, b in zip(xi1, xi2)]
    assert last.cell_index(patch, xi1, xi2).tolist() == want
    assert first.cell_index(patch, xi1, xi2).tolist() == [0] * 20


# ---------------------------------------------------------- point evaluation


def _coordinate(breaks):
    """A parameter in the span of ``breaks``, or a breakpoint within the slack."""
    return st.one_of(st.floats(float(breaks[0]), float(breaks[-1])),
                     st.tuples(st.sampled_from(breaks.tolist()),
                               st.sampled_from([0.0, 5e-13, -5e-13])).map(sum))


@given(data=st.data())
def test_evaluate_matches_per_point_reference(mesh, data):
    breaks = [[np.unique(np.array([c.rect[a] for c in mesh.cells if c.patch == p]))
               for a in (0, 1)] for p in range(len(mesh.patches))]
    point = st.integers(0, len(mesh.patches) - 1).flatmap(
        lambda p: st.tuples(st.just(p), *map(_coordinate, breaks[p])))
    patch, xi1, xi2 = map(np.array, zip(*data.draw(st.lists(point, min_size=1, max_size=12))))
    field = SolutionField(mesh, np.random.default_rng(5).normal(size=mesh.ndof * 2), 2)
    vals, grads = field.evaluate(patch, xi1, xi2, grad=True)
    ref = [_point_value(field, *q, grad=True) for q in zip(patch.tolist(), xi1, xi2)]
    ref_vals, ref_grads = (np.array(r) for r in zip(*ref))
    # the same arithmetic on one point or many, up to the matrix products' order
    _assert_close(vals, ref_vals, 1e-14)
    _assert_close(field.evaluate(patch, xi1, xi2), ref_vals, 1e-14)
    _assert_close(grads, ref_grads, 1e-14)


@pytest.mark.parametrize("args, message", [
    ((0, [0.5, 0.5], [0.5]), "shapes"),
    (([0, 0], [0.5], [0.5]), "shapes"),
    ((0, [[0.5]], [[0.5]]), "shapes"),
    ((1, [0.5], [0.5]), "not inside patch 1"),
    ((-1, [0.5], [0.5]), "not inside patch -1"),
    ((0.5, [0.5], [0.5]), "not inside patch 0.5"),
    ((0, [0.5, 1.5], [0.5, 0.5]), "not inside patch 0"),
    ((0, [np.nan], [0.5]), "non-finite"),
    ((0, [0.5], [np.inf]), "non-finite"),
], ids=["short-xi2", "long-patch", "two-dimensional", "patch-past-the-end", "negative-patch",
        "fractional-patch", "outside-the-patch", "nan-xi1", "infinite-xi2"])
def test_evaluate_rejects_bad_input(args, message):
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    field = SolutionField(mesh, np.zeros(mesh.ndof))
    for grad in (False, True):
        with pytest.raises(ValueError, match=message):
            field.evaluate(*args, grad=grad)


@pytest.mark.parametrize("patch, xi1, xi2", [
    ([0], [0.2, 0.7], [0.5, 0.5]),
    ([0, 0], [0.5], [0.5]),
    ([0], [0.5], [0.5, 0.6]),
    ([[0]], [[0.5]], [[0.5]]),
], ids=["one-patch-two-points", "two-patches-one-point", "short-xi1", "two-dimensional"])
def test_cell_index_rejects_unequal_shapes(patch, xi1, xi2):
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    with pytest.raises(ValueError, match="shapes"):
        mesh.cell_index(np.array(patch), np.array(xi1), np.array(xi2))


# ------------------------------------------------------------ boundary loads


@dataclasses.dataclass(frozen=True)
class SideCell:
    """Restriction of a 2D cell to one patch side: its edge functions only."""

    patch: int
    side: str
    interval: tuple[float, float]
    rows: np.ndarray
    ophom: np.ndarray
    geo: np.ndarray
    degree: int
    ccw_normal: bool


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
        cell.geo[sel], cell.degrees[1 - axis], at_end == (axis == 1),
    )


def side_cells(mesh, patch: int, side: str) -> list[SideCell]:
    """Restrict the cells adjacent to one patch side."""
    axis, at_end = SIDES[side]
    kv = mesh.patches[patch].kvs[axis]
    edge_val = kv.domain[1] if at_end else kv.domain[0]
    out = []
    for c in mesh.cells:
        if c.patch != patch:
            continue
        lo, hi = c.rect[axis]
        boundary = hi if at_end else lo
        if abs(boundary - edge_val) > 1e-12:
            continue
        out.append(_restrict(c, side))
    out.sort(key=lambda s: s.interval[0])
    return out


def _side_cell_reference(side, xs):
    """One side cell at its own points, Bernstein basis on its interval."""
    a, b = side.interval
    h = b - a
    D = bernstein_derivatives(side.degree, (xs - a) / h, 1) / np.array([1.0, h])[:, None, None]
    vhom = D[0] @ side.ophom.T
    basis = vhom / vhom.sum(axis=1)[:, None]
    ghom, dg = D[0] @ side.geo, D[1] @ side.geo
    x = ghom[:, :2] / ghom[:, 2:]
    tangent = (dg[:, :2] - x * dg[:, 2:]) / ghom[:, 2:]
    speed = np.linalg.norm(tangent, axis=1)
    if side.ccw_normal:
        normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    else:
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    return {"basis": basis, "x": x, "speed": speed, "normal": normal / speed[:, None]}


def _neumann_reference(mesh, specs, ncomp):
    """Side cell by side cell, the traction called at one point at a time."""
    f = np.zeros(mesh.ndof * ncomp)
    for patch, side, span, traction in specs:
        for sc in side_cells(mesh, patch, side):
            a, b = sc.interval
            if span is not None:
                a, b = max(a, span[0]), min(b, span[1])
                if b - a <= 1e-14:
                    continue
            xs, ws = gauss_on_breaks((a, b), sc.degree + 2)
            ev = _side_cell_reference(sc, xs)
            t = np.array([np.broadcast_to(traction(x, n), (ncomp,))
                          for x, n in zip(ev["x"], ev["normal"])])
            f[_dofs(sc, ncomp)] += (ev["basis"].T @ ((ws * ev["speed"])[:, None] * t)).reshape(-1)
    return f


def _flux(x, n):
    gx, gy = manufactured_fields("annulus")[1](x[..., 0], x[..., 1])
    return gx * n[..., 0] + gy * n[..., 1]


def _kirsch(x, n):
    sxx, syy, sxy = kirsch_cartesian(x[..., 0], x[..., 1])
    return np.stack([sxx * n[..., 0] + sxy * n[..., 1], sxy * n[..., 0] + syy * n[..., 1]],
                    axis=-1)


def _reversed_model():
    # the slave turned by 180 degrees: its interface parameter runs backwards
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 3, 3, (0.5, 1.0), (0.0, 1.0))
    turned = Patch2D(slave.kvs, slave.points[::-1, ::-1].copy(), slave.weights[::-1, ::-1].copy())
    return MultiPatchModel([master, turned],
                           [InterfaceSpec(master=(0, "east"), slave=(1, "east"), reversed=True)], 1)


_SIDES = ("west", "east", "south", "north")
_PUSH = lambda x, n: np.array([3.0, -2.0])
_SHEAR = lambda x, n: np.stack([x[..., 1] * n[..., 0], x[..., 0] ** 2 + n[..., 1]], axis=-1)

NEUMANN_CASES = {
    "mortar-annulus-flux": (
        lambda: case_model("annulus", 0).mortar_mesh(), 1,
        [(k, s, None, _flux) for k in (0, 1) for s in _SIDES]),
    "weak-plate-3patch-kirsch": (
        lambda: case_model("plate-hole-3patch", 0, matched=False).weak_mesh(), 2,
        [(k, s, None, _kirsch) for k in (0, 1, 2) for s in _SIDES]),
    "weak-largedef-spans": (
        lambda: largedef_model(1, weak=True).weak_mesh(), 2,
        [(0, "north", (0.5, 1.0), _PUSH), (1, "north", (0.0, 0.5), _PUSH),
         (0, "west", (0.25, 0.75), _SHEAR), (1, "south", (0.3, 0.62), _SHEAR),
         (1, "east", (2.0, 3.0), _PUSH), (0, "south", None, _SHEAR)]),
    "mortar-reversed": (lambda: _reversed_model().mortar_mesh(), 2,
                        [(k, s, (0.1, 0.8), _SHEAR) for k in (0, 1) for s in _SIDES]),
    "weak-reversed": (lambda: _reversed_model().weak_mesh(), 1,
                      [(k, s, None, lambda x, n: x[..., 0] - n[..., 1])
                       for k in (0, 1) for s in _SIDES]),
}


@pytest.mark.parametrize("name", sorted(NEUMANN_CASES))
def test_neumann_matches_side_cell_loop(name):
    make, ncomp, specs = NEUMANN_CASES[name]
    mesh = make()
    f = assemble_neumann(mesh, ncomp, specs)
    ref = _neumann_reference(mesh, specs, ncomp)
    assert np.abs(ref).max() > 0
    _assert_close(f, ref)


@pytest.mark.parametrize("name", sorted(NEUMANN_CASES))
def test_neumann_sum_equals_the_per_call_sum(name, monkeypatch):
    make, ncomp, specs = NEUMANN_CASES[name]
    mesh = make()
    dofs, loads = _spy(monkeypatch, "_local_dofs"), _spy(monkeypatch, "_load")
    f = assemble_neumann(mesh, ncomp, specs)
    assert dofs and len(dofs) == len(loads)
    assert _same_bits(f, _vector([d for _, d in dofs], [v for _, v in loads], f.size))


# ------------------------------------------------------ callables take arrays


class _Counted:
    """A user callable that records the shape of its last argument per call."""

    def __init__(self, fn):
        self.fn, self.shapes = fn, []

    def __call__(self, *args):
        self.shapes.append(np.shape(args[-1]))
        return self.fn(*args)


def _block_points(mesh, quad_extra):
    return [ev["wdet"].size for _, _, ev in fem.cell_blocks(mesh, quad_extra)]


def test_cell_callables_are_called_once_per_block(mesh):
    # each call gets every point of one block: (x, y) of the block's shape
    mat = MaterialModel(E=7.0, nu=0.3)
    forcing = _Counted(_forcing)
    body = _Counted(lambda x, y: np.stack([x, y * y], axis=-1))
    assemble_poisson(mesh, forcing)
    assemble_linear_elasticity(mesh, mat, body)
    for fn in (forcing, body):
        assert [math.prod(s) for s in fn.shapes] == _block_points(mesh, 1)
    field = SolutionField(mesh, RNG.normal(size=mesh.ndof * 2), 2)
    exact = _Counted(lambda x, y: np.stack([x * y, np.cos(y)], axis=-1))
    l2_error(field, exact)
    assert [math.prod(s) for s in exact.shapes] == _block_points(mesh, 2)
    # with ``quantity``: (values, gradients, x) with x of shape (..., 2)
    exact = _Counted(lambda x, y: x - y)
    quantity = _Counted(lambda v, g, x: g[..., 0, 0] + v[..., 1])
    l2_error(field, exact, quantity=quantity)
    assert [math.prod(s) for s in exact.shapes] == _block_points(mesh, 2)
    assert [math.prod(s[:-1]) for s in quantity.shapes] == _block_points(mesh, 2)


def test_boundary_callables_are_called_once_per_spec():
    model = largedef_model(1, weak=True)
    mesh = model.weak_mesh()
    push, shear = _Counted(_PUSH), _Counted(_SHEAR)
    assemble_neumann(mesh, 2, [(0, "north", None, push), (1, "east", None, shear)])
    for fn, (patch, side) in ((push, (0, "north")), (shear, (1, "east"))):
        # (x, normal), each (..., 2), once per shape group with cells on the
        # side, at degree + 2 points per cell
        axis, at_end = SIDES[side]
        edge = mesh.patches[patch].kvs[axis].domain[int(at_end)]
        points = []
        for g in mesh.groups:
            n = np.count_nonzero((g.patch == patch) & (g.rect[:, axis, int(at_end)] == edge))
            if n:
                points.append(n * (g.degrees[1 - axis] + 2))
        assert points
        assert [math.prod(s[:-1]) for s in fn.shapes] == points
    data = _Counted(lambda x, y: x + y)
    boundary_projection(model.patches[1], "south", data)
    assert len(data.shapes) == 1 and math.prod(data.shapes[0]) > 4
    data.shapes.clear()
    dirichlet_rows(mesh, 2, [(0, "south", 1, data), (1, "east", 0, data)])
    assert len(data.shapes) == 2
