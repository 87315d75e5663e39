import math

import numpy as np
import pytest
import scipy.sparse as sp

from bezmortar import (
    MaterialModel,
    NumericalError,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neo_hookean,
    assemble_neumann,
    assemble_poisson,
    apply_dirichlet,
    boundary_projection,
    condense,
    dirichlet_rows,
    l2_error,
    linear_solve,
    newton_load_stepping,
    single_patch_mesh,
)
from bezmortar.benchmarks import gen_demo_two_patch, manufactured_fields, rect_patch
from bezmortar.fem import (
    cell_quadrature,
    evaluate_cell,
    evaluate_side_cell,
    strain_energy_density,
)
from bezmortar.linsys import AssembledSystem
from bezmortar.splines import BernsteinInterval, bernstein_derivatives, gauss_on

RNG = np.random.default_rng(99)


# --------------------------------------------------------------- geometry


def test_side_cell_normals_point_outward():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    expected = {"west": (-1, 0), "east": (1, 0), "south": (0, -1), "north": (0, 1)}
    for side, n in expected.items():
        sc = mesh.side_cells(0, side)[0]
        ev = evaluate_side_cell(sc, np.array([0.3]))
        assert np.abs(ev["normal"][0] - n).max() < 1e-13
        assert abs(ev["speed"][0] - 1.0) < 1e-13


def test_cell_evaluation_geometry():
    mesh = single_patch_mesh(rect_patch(3, 2, 3, (1.0, 3.0), (0.0, 1.0)))
    cell = mesh.cells[0]
    ev = evaluate_cell(cell, np.array([0.2]), np.array([0.1]))
    assert np.abs(ev["x"][0] - [1 + 2 * 0.2, 0.1]).max() < 1e-13
    assert np.abs(ev["jac"][0] - np.diag([2.0, 1.0])).max() < 1e-12


# ----------------------------------------------------------------- Poisson


def test_poisson_symmetry():
    mesh = single_patch_mesh(rect_patch(2, 3, 3))
    system = assemble_poisson(mesh)
    assert system.symmetry_error() < 1e-12


def test_multipatch_linear_patch_test():
    model = gen_demo_two_patch(1)
    mesh = model.weak_mesh()
    u = lambda x, y: 2 * x - 3 * y + 0.5
    sides = [(0, s, 0, u) for s in ("west", "east", "south")] + [
        (1, s, 0, u) for s in ("west", "east", "north")
    ]
    system = apply_dirichlet(assemble_poisson(mesh), dirichlet_rows(model, mesh, 1, sides))
    x = linear_solve(system)
    assert l2_error(SolutionField(mesh, x, 1), u) < 1e-10


def test_interpolant_error_rate():
    # L2 projection of the harmonic manufactured field converges at p+1
    u, grad, _ = manufactured_fields("square-dirichlet")
    for p in (2, 3):
        errs = []
        for n in (4, 8):
            mesh = single_patch_mesh(rect_patch(p, n, n))
            M = sp.lil_matrix((mesh.ndof, mesh.ndof))
            b = np.zeros(mesh.ndof)
            for cell in mesh.cells:
                x1, x2, w = cell_quadrature(cell, p + 2, p + 2)
                ev = evaluate_cell(cell, x1, x2)
                wdet = w * ev["detJ"]
                loc = np.einsum("qi,qj,q->ij", ev["basis"], ev["basis"], wdet)
                M[np.ix_(cell.rows, cell.rows)] += loc
                f = np.array([u(xy[0], xy[1]) for xy in ev["x"]])
                b[cell.rows] += ev["basis"].T @ (wdet * f)
            x = np.linalg.solve(M.toarray(), b)
            errs.append(l2_error(SolutionField(mesh, x, 1), u))
        rate = math.log(errs[0] / errs[1]) / math.log(2)
        assert rate > p + 0.7


# --------------------------------------------------------------- elasticity


def test_rigid_translation_zero_energy():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("linear-elastic", E=10.0, nu=0.3)
    system = assemble_linear_elasticity(mesh, mat)
    d = np.tile([0.7, -0.3], mesh.ndof)
    assert abs(d @ (system.K @ d)) < 1e-12
    assert system.symmetry_error() < 1e-12


def test_uniaxial_traction_exact():
    # plane strain block pulled in x; exact solution is a constant-strain field
    mat = MaterialModel("linear-elastic", E=200.0, nu=0.3)
    mesh = single_patch_mesh(rect_patch(2, 1, 1))
    system = assemble_linear_elasticity(mesh, mat)
    T = 5.0
    assemble_neumann(mesh, system, [(0, "east", None, lambda x, n: np.array([T, 0.0]))])
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(None, mesh, 2, [(0, "west", 0, zero), (0, "south", 1, zero)])
    x = linear_solve(apply_dirichlet(system, rows))
    field = SolutionField(mesh, x, 2)
    exx = T * (1 - mat.nu**2) / mat.E
    eyy = -T * mat.nu * (1 + mat.nu) / mat.E
    exact = lambda xx, yy: np.array([exx * xx, eyy * yy])
    assert l2_error(field, exact) < 1e-12
    g = field.eval_gradient(0, 0.5, 0.5)
    sxx = (mat.lam + 2 * mat.mu) * g[0, 0] + mat.lam * g[1, 1]
    assert abs(sxx - T) < 1e-10


def test_plane_stress_flag_changes_stiffness():
    strain = MaterialModel("linear-elastic", E=10.0, nu=0.3)
    stress = MaterialModel("linear-elastic", E=10.0, nu=0.3, plane_stress=True)
    assert strain.lam != stress.lam
    assert strain.mu == stress.mu


# ---------------------------------------------------------------- Dirichlet


def test_dirichlet_conflict_detection():
    mesh = single_patch_mesh(rect_patch(1, 1, 1))
    system = assemble_poisson(mesh)
    with pytest.raises(ValueError, match="conflict"):
        apply_dirichlet(system, [(0, 1.0), (0, 2.0)])


def test_homogeneous_dirichlet_zero_trace():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    model = None
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(model, mesh, 1, [(0, s, 0, zero) for s in
                                           ("west", "east", "south", "north")])
    system = apply_dirichlet(assemble_poisson(mesh, lambda x, y: 1.0), rows)
    x = linear_solve(system)
    field = SolutionField(mesh, x, 1)
    for t in np.linspace(0, 1, 7):
        assert abs(field.eval(0, t, 0.0)[0]) < 1e-12
        assert abs(field.eval(0, 1.0, t)[0]) < 1e-12


def test_constraining_everything_returns_projection():
    mesh = single_patch_mesh(rect_patch(1, 1, 1))
    system = assemble_poisson(mesh)
    vals = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    system = apply_dirichlet(system, vals.items())
    x = linear_solve(system)
    assert np.allclose(x, [1, 2, 3, 4])


def test_boundary_projection_rate():
    u, grad, _ = manufactured_fields("square-dirichlet")
    errs = []
    for n in (4, 8):
        patch = rect_patch(2, n, n)
        vals = boundary_projection(patch, "east", u)
        curve = patch.boundary("east")
        err = 0.0
        from bezmortar.splines import bspline_basis

        for a, b in curve.kv.spans():
            xs, ws = gauss_on(a, b, 5)
            for xq, wq in zip(xs, ws):
                first, N = bspline_basis(curve.kv, float(xq))
                uh = N @ vals[first : first + 3]
                x, y = curve.point(float(xq))
                err += wq * (uh - u(x, y)) ** 2
        errs.append(math.sqrt(err))
    rate = math.log(errs[0] / errs[1]) / math.log(2)
    assert rate > 2.7


# ------------------------------------------------------------------- solver


def test_linear_solve_identity():
    system = AssembledSystem(sp.eye(5, format="csr"), np.arange(5.0), 1)
    assert np.allclose(linear_solve(system), np.arange(5.0))


def test_linear_solve_vs_dense_oracle():
    n = 100
    A = sp.random(n, n, density=0.05, random_state=3)
    K = (A @ A.T + 10 * sp.eye(n)).tocsr()
    f = RNG.normal(size=n)
    x = linear_solve(AssembledSystem(K, f, 1))
    assert np.abs(x - np.linalg.solve(K.toarray(), f)).max() < 1e-8


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_linear_solve_singular_raises():
    K = sp.csr_matrix((2, 2))
    with pytest.raises(NumericalError):
        linear_solve(AssembledSystem(K, np.ones(2), 1))


# -------------------------------------------------------------- neo-Hookean


def test_rest_state_zero_residual():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    r, K = assemble_neo_hookean(mesh, mat, np.zeros(mesh.ndof * 2))
    assert np.abs(r).max() < 1e-12
    # a rigid translation is a rest state too: zero out-of-balance residual
    r2, _ = assemble_neo_hookean(mesh, mat, np.tile([0.7, -0.3], mesh.ndof))
    assert np.abs(r2).max() < 1e-12


def test_tangent_matches_finite_differences():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    d0 = 0.05 * RNG.normal(size=mesh.ndof * 2)
    r0, K0 = assemble_neo_hookean(mesh, mat, d0)
    v = RNG.normal(size=mesh.ndof * 2)
    v /= np.linalg.norm(v)
    eps = 1e-6
    rp, _ = assemble_neo_hookean(mesh, mat, d0 + eps * v)
    rm, _ = assemble_neo_hookean(mesh, mat, d0 - eps * v)
    fd = (rp - rm) / (2 * eps)
    Kv = K0 @ v
    assert np.linalg.norm(Kv - fd) / np.linalg.norm(Kv) < 1e-6


def test_energy_density_uniform_stretch():
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    c = 1.3
    J = c * c
    lam, mu = mat.lam, mat.mu
    expected = lam * (0.25 * (J**2 - 1) - 0.5 * math.log(J)) + 0.5 * mu * (
        2 * c * c + 1 - 3 - 2 * math.log(J)
    )
    assert abs(strain_energy_density(mat, c * np.eye(2)) - expected) < 1e-13


def test_inverted_state_raises():
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    with pytest.raises(NumericalError):
        strain_energy_density(mat, np.diag([1.0, -0.5]))


def test_zero_load_identity_deformation():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("neo-hookean", E=10.0, nu=0.3)
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(None, mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    d = newton_load_stepping(mesh, mat, np.zeros(mesh.ndof * 2), rows, increments=3)
    assert np.abs(d).max() < 1e-12


def test_path_independence_of_dead_loading():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("neo-hookean", E=100.0, nu=0.3)
    system = AssembledSystem(sp.csr_matrix((mesh.ndof * 2, mesh.ndof * 2)),
                             np.zeros(mesh.ndof * 2), 2)
    assemble_neumann(mesh, system, [(0, "north", None,
                                     lambda x, n: np.array([0.0, -15.0]))])
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(None, mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    d20 = newton_load_stepping(mesh, mat, system.f, rows, increments=20)
    d40 = newton_load_stepping(mesh, mat, system.f, rows, increments=40)
    assert np.abs(d20 - d40).max() / np.abs(d20).max() < 1e-6


def test_nonconvergence_reports_increment():
    mesh = single_patch_mesh(rect_patch(2, 2, 2))
    mat = MaterialModel("neo-hookean", E=1.0, nu=0.3)
    system = AssembledSystem(sp.csr_matrix((mesh.ndof * 2, mesh.ndof * 2)),
                             np.zeros(mesh.ndof * 2), 2)
    assemble_neumann(mesh, system, [(0, "north", None,
                                     lambda x, n: np.array([0.0, -50.0]))])
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(None, mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    with pytest.raises(NumericalError, match="increment"):
        newton_load_stepping(mesh, mat, system.f, rows, increments=2, max_iter=4)


# ------------------------------------------------- quadrature subdivision


def test_quadrature_subdivision_is_necessary():
    """Skipping the new continuity lines in the slave elements changes the
    interface stiffness measurably; honoring them keeps the weak route
    identical to the condensed mortar route."""
    model = gen_demo_two_patch(1)
    weak = assemble_poisson(model.weak_mesh())
    red = condense(assemble_poisson(model.mortar_mesh()), model)
    import scipy.sparse.linalg as spla

    assert spla.norm(weak.K - red.K) / spla.norm(red.K) < 1e-12

    # naive variant: one Gauss rule over each parent element, evaluating the
    # weak basis exactly (it is only piecewise smooth inside the parent)
    mesh = model.weak_mesh()
    by_parent = {}
    for cell in mesh.cells:
        by_parent.setdefault((cell.patch, cell.rect[0]), []).append(cell)
    K = sp.lil_matrix((mesh.ndof, mesh.ndof))
    for (patch, span1), cells in by_parent.items():
        lo2 = min(c.rect[1][0] for c in cells)
        hi2 = max(c.rect[1][1] for c in cells)
        x1, w1 = gauss_on(span1[0], span1[1], 3)
        x2, w2 = gauss_on(lo2, hi2, 3)
        for i1, (xq1, wq1) in enumerate(zip(x1, w1)):
            for xq2, wq2 in zip(x2, w2):
                cell = next(c for c in cells
                            if c.rect[1][0] - 1e-12 <= xq2 <= c.rect[1][1] + 1e-12)
                ev = evaluate_cell(cell, np.array([xq1]), np.array([xq2]))
                dphi = ev["grad_phys"][0]
                loc = (wq1 * wq2 * ev["detJ"][0]) * (dphi @ dphi.T)
                K[np.ix_(cell.rows, cell.rows)] += loc
    naive = K.tocsr()
    diff = np.abs((naive - weak.K).toarray())
    assert diff.max() > 1e-8  # the quadrature crime is detectable


def test_nonlinear_mortar_route_matches_weak_route():
    # condensed tangent stepping and compiled-mesh stepping solve the same
    # nonlinear system
    from bezmortar import Condenser
    from bezmortar.benchmarks import largedef_model

    model = largedef_model(0, weak=True)
    mat = MaterialModel("neo-hookean", E=30e9, nu=0.48)
    down = lambda x, n: np.array([0.0, -2e9])
    zero = lambda x, y: 0.0
    diri = [(0, "south", 1, zero), (1, "south", 1, zero), (0, "west", 0, zero)]

    weak_mesh = model.weak_mesh()
    sys_w = AssembledSystem(sp.csr_matrix((weak_mesh.ndof * 2, weak_mesh.ndof * 2)),
                            np.zeros(weak_mesh.ndof * 2), 2)
    assemble_neumann(weak_mesh, sys_w, [(0, "north", None, down)])
    rows = dirichlet_rows(model, weak_mesh, 2, diri)
    d_weak = newton_load_stepping(weak_mesh, mat, sys_w.f, rows, increments=4)

    mortar_mesh = model.mortar_mesh()
    sys_m = AssembledSystem(sp.csr_matrix((mortar_mesh.ndof * 2, mortar_mesh.ndof * 2)),
                            np.zeros(mortar_mesh.ndof * 2), 2)
    assemble_neumann(mortar_mesh, sys_m, [(0, "north", None, down)])
    cond = Condenser(model, 2)
    d_red = newton_load_stepping(mortar_mesh, mat, sys_m.f, rows, increments=4,
                                 condenser=cond)
    scale = np.abs(d_weak).max()
    assert np.abs(d_weak - d_red).max() / scale < 1e-8
