"""The batched cell kernels against per-cell reference loops over evaluate_cell.

The references walk the cells one at a time at ``cell_quadrature`` points
and build the matrix through a COO triplet list, as a plain extracted-element
code would; the batched kernels must give the same systems to rounding.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from bezmortar import (
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
    single_patch_mesh,
)
from bezmortar.benchmarks import (
    field_difference_l2,
    gen_annulus_two_patch,
    gen_plate_hole,
    largedef_model,
    rect_patch,
)
from bezmortar.fem import cell_quadrature, deformation_gradients, evaluate_cell

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
    "mortar-annulus": lambda: gen_annulus_two_patch((2, 3), p=2, level=0,
                                                    dual_refine=1).mortar_mesh(),
    # rational, three shape groups with 9, 10 and 11 rows
    "weak-plate-3patch": lambda: gen_plate_hole(3, False, 2, 0).weak_mesh(),
    # one group per degree
    "weak-mixed-degree": lambda: _mixed_degree_model().weak_mesh(),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _cells(mesh, quad_extra=1):
    """(cell, ev, wdet) at the cell's tensor Gauss rule, one cell at a time."""
    for cell in mesh.cells:
        n1, n2 = cell.degrees[0] + quad_extra, cell.degrees[1] + quad_extra
        x1, x2, w = cell_quadrature(cell, n1, n2)
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


def _assert_close(v, ref):
    assert np.abs(v - ref).max() <= TOL * np.abs(ref).max()


def _forcing(x, y):
    return math.sin(x) + y * y


def test_poisson_matches_reference(mesh):
    blocks, f = [], np.zeros(mesh.ndof)
    for cell, ev, wdet in _cells(mesh):
        dphi = ev["grad_phys"]
        blocks.append((cell.rows, np.einsum("qid,qjd,q->ij", dphi, dphi, wdet)))
        fv = np.array([_forcing(*xy) for xy in ev["x"]])
        f[cell.rows] += ev["basis"].T @ (wdet * fv)
    system = assemble_poisson(mesh, _forcing)
    _assert_same_matrix(system.K, _coo(blocks, mesh.ndof))
    _assert_close(system.f, f)


def test_block_size_does_not_change_the_system(mesh, monkeypatch):
    K = assemble_poisson(mesh, _forcing).K
    monkeypatch.setattr(fem, "_BLOCK", 3)
    _assert_same_matrix(assemble_poisson(mesh, _forcing).K, K)


def test_elasticity_matches_reference(mesh):
    mat = MaterialModel("linear-elastic", E=7.0, nu=0.3)
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
    system = assemble_linear_elasticity(mesh, mat)
    _assert_same_matrix(system.K, _coo(blocks, mesh.ndof * 2))
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
    size = max(np.ptp(p.points[..., 0]) for p in mesh.patches)
    return 0.02 * size * RNG.uniform(-1.0, 1.0, mesh.ndof * 2)


def test_neo_hookean_matches_reference(mesh):
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    state = _admissible_state(mesh)
    r_ref, K_ref = _neo_hookean_reference(mesh, mat, state)
    # twice: the second call runs on the geometry memoised by the first
    for _ in range(2):
        r, K = assemble_neo_hookean(mesh, mat, state)
        _assert_close(r, r_ref)
        _assert_same_matrix(K, K_ref)


def test_l2_error_matches_reference(mesh):
    values = RNG.normal(size=mesh.ndof * 2)
    exact = lambda x, y: np.array([x * y, math.cos(y)])
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
        x1, x2, _ = cell_quadrature(cell, cell.degrees[0] + 2, cell.degrees[1] + 2)
        va = ev["basis"] @ fa.values.reshape(-1, 2)[cell.rows]
        for q in range(len(wdet)):
            d = va[q] - fb.eval(cell.patch, float(x1[q]), float(x2[q]))
            total += wdet[q] * float(d @ d)
    got = field_difference_l2(fa, fb)
    assert abs(got - math.sqrt(total)) <= TOL * math.sqrt(total)


def test_inverting_one_element_raises_from_assembly_and_guard():
    model = largedef_model(0, weak=True)
    mesh = model.weak_mesh()
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
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


def _scan(mesh, patch, xi1, xi2):
    for c in mesh.cells:
        (a1, b1), (a2, b2) = c.rect
        if (c.patch == patch and a1 - 1e-12 <= xi1 <= b1 + 1e-12
                and a2 - 1e-12 <= xi2 <= b2 + 1e-12):
            return c
    return None


def test_locate_matches_linear_scan(mesh):
    for patch in range(len(mesh.patches)):
        rects = np.array([c.rect for c in mesh.cells if c.patch == patch])
        b1, b2 = np.unique(rects[:, 0]), np.unique(rects[:, 1])
        # breakpoints and points inside, just within and just beyond the slack
        offsets = np.array([0.0, 5e-13, -5e-13, 2e-12, -2e-12])
        s1 = np.concatenate([(b1[:, None] + offsets).ravel(),
                             RNG.uniform(b1[0], b1[-1], 20)])
        s2 = np.concatenate([(b2[:, None] + offsets).ravel(),
                             RNG.uniform(b2[0], b2[-1], 20)])
        for xi1 in s1:
            for xi2 in s2:
                ref = _scan(mesh, patch, xi1, xi2)
                if ref is None:
                    with pytest.raises(ValueError, match="not inside"):
                        mesh.locate(patch, xi1, xi2)
                else:
                    assert mesh.locate(patch, xi1, xi2) is ref
    with pytest.raises(ValueError, match="not inside"):
        mesh.locate(len(mesh.patches), 0.5, 0.5)


def test_locate_returns_the_first_of_overlapping_cells():
    base = single_patch_mesh(rect_patch(2, 2, 2))
    whole = dataclasses.replace(base.cells[-1], rect=((0.0, 1.0), (0.0, 1.0)))
    last = ExtractedMesh(base.patches, base.cells + [whole], base.ndof, "single")
    first = ExtractedMesh(base.patches, [whole] + base.cells, base.ndof, "single")
    for xi1, xi2 in RNG.uniform(0.0, 1.0, (20, 2)):
        assert last.locate(0, xi1, xi2) is _scan(base, 0, xi1, xi2)
        assert first.locate(0, xi1, xi2) is whole
