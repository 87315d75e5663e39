import contextlib
import dataclasses
import math
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from hypothesis import given
from hypothesis import strategies as st

from bezmortar import (
    MaterialModel,
    MultiPatchModel,
    NumericalError,
    SolutionField,
    assemble_linear_elasticity,
    assemble_neo_hookean,
    assemble_neumann,
    assemble_poisson,
    boundary_projection,
    condense,
    dirichlet_rows,
    l2_error,
    linear_solve,
    newton_load_stepping,
)
from bezmortar.benchmarks import (
    CASES,
    BenchmarkCase,
    build_case,
    largedef_model,
    manufactured_fields,
    rect_patch,
    run_largedef,
    solve_case,
)
from bezmortar.fem import evaluate_cell
from bezmortar import linsys
from bezmortar.linsys import AssembledSystem
from bezmortar.splines import (
    SIDES,
    BoundaryCurve,
    KnotVector,
    Patch2D,
    gauss_on_breaks,
    greville_abscissae,
)
from cases import case_model
from reference import bspline_basis, symmetry_error

RNG = np.random.default_rng(99)


# --------------------------------------------------------------- geometry


def test_side_cell_normals_point_outward():
    # traction n.e_x or n.e_y on a unit-square side loads the side by n_x or
    # n_y in total: the normal points outward and the side length is 1
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    expected = {"west": (-1, 0), "east": (1, 0), "south": (0, -1), "north": (0, 1)}
    for side, n in expected.items():
        for k in (0, 1):
            f = assemble_neumann(mesh, 1, [(0, side, None, lambda x, nrm: nrm[..., k])])
            assert abs(f.sum() - n[k]) < 1e-13


def test_cell_evaluation_geometry():
    mesh = MultiPatchModel([rect_patch(3, 2, 3, (1.0, 3.0), (0.0, 1.0))], []).weak_mesh()
    cell = mesh.cells[0]
    ev = evaluate_cell(cell, np.array([0.2]), np.array([0.1]))
    assert np.abs(ev["x"][0] - [1 + 2 * 0.2, 0.1]).max() < 1e-13
    assert np.abs(ev["jac"][0] - np.diag([2.0, 1.0])).max() < 1e-12


def test_nan_jacobian_raises():
    cell = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh().cells[0]
    bad = dataclasses.replace(cell, geo=np.where(np.arange(9)[:, None] == 4, np.nan, cell.geo))
    with pytest.raises(NumericalError, match="Jacobian"):
        evaluate_cell(bad, np.array([0.2]), np.array([0.3]))


def _cell_quadrature(cell, n1, n2):
    """Tensor Gauss points and weights on the cell rectangle."""
    (a1, b1), (a2, b2) = cell.rect
    x1, w1 = gauss_on_breaks((a1, b1), n1)
    x2, w2 = gauss_on_breaks((a2, b2), n2)
    return np.repeat(x1, n2), np.tile(x2, n1), np.outer(w1, w2).reshape(-1)


# ----------------------------------------------------------------- Poisson


def test_poisson_symmetry():
    mesh = MultiPatchModel([rect_patch(2, 3, 3)], []).weak_mesh()
    system = assemble_poisson(mesh)
    assert symmetry_error(system.K) < 1e-12


def test_multipatch_linear_patch_test():
    model = case_model("square-demo", 0)
    mesh = model.weak_mesh()
    u = lambda x, y: 2 * x - 3 * y + 0.5
    sides = [(0, s, 0, u) for s in ("west", "east", "south")] + [
        (1, s, 0, u) for s in ("west", "east", "north")
    ]
    x = linear_solve(assemble_poisson(mesh), dirichlet_rows(mesh, 1, sides))
    assert l2_error(SolutionField(mesh, x, 1), u) < 1e-10


def test_interpolant_error_rate():
    # L2 projection of the harmonic manufactured field converges at p+1
    u, grad, _ = manufactured_fields("square-dirichlet")
    for p in (2, 3):
        errs = []
        for n in (4, 8):
            mesh = MultiPatchModel([rect_patch(p, n, n)], []).weak_mesh()
            M = sp.lil_matrix((mesh.ndof, mesh.ndof))
            b = np.zeros(mesh.ndof)
            for cell in mesh.cells:
                x1, x2, w = _cell_quadrature(cell, p + 2, p + 2)
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
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
    system = assemble_linear_elasticity(mesh, mat)
    d = np.tile([0.7, -0.3], mesh.ndof)
    assert abs(d @ (system.K @ d)) < 1e-12
    assert symmetry_error(system.K) < 1e-12


def test_uniaxial_traction_exact():
    # plane strain block pulled in x; exact solution is a constant-strain field
    mat = MaterialModel(E=200.0, nu=0.3)
    mesh = MultiPatchModel([rect_patch(2, 1, 1)], []).weak_mesh()
    system = assemble_linear_elasticity(mesh, mat)
    T = 5.0
    system.f += assemble_neumann(mesh, 2, [(0, "east", None, lambda x, n: np.array([T, 0.0]))])
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 2, [(0, "west", 0, zero), (0, "south", 1, zero)])
    x = linear_solve(system, rows)
    field = SolutionField(mesh, x, 2)
    exx = T * (1 - mat.nu**2) / mat.E
    eyy = -T * mat.nu * (1 + mat.nu) / mat.E
    exact = lambda xx, yy: np.stack([exx * xx, eyy * yy], axis=-1)
    assert l2_error(field, exact) < 1e-12
    _, (g,) = field.evaluate(0, 0.5, 0.5, grad=True)
    sxx = (mat.lam + 2 * mat.mu) * g[0, 0] + mat.lam * g[1, 1]
    assert abs(sxx - T) < 1e-10


def test_plane_stress_flag_changes_stiffness():
    strain = MaterialModel(E=10.0, nu=0.3)
    stress = MaterialModel(E=10.0, nu=0.3, plane_stress=True)
    assert strain.lam != stress.lam
    assert strain.mu == stress.mu


@pytest.mark.parametrize("kwargs, message", [
    (dict(E=math.inf), "Young"),
    (dict(E=math.nan), "Young"),
    (dict(E=0.0), "Young"),
    (dict(E=-2.0), "Young"),
    (dict(nu=0.5), r"\(-1, 0.5\)"),
    (dict(nu=0.7), r"\(-1, 0.5\)"),
    (dict(nu=math.nan), "ratio"),
    (dict(nu=-1.0), r"\(-1, 0.5\)"),
    (dict(nu=1.0, plane_stress=True), r"\(-1, 1\)"),
    (dict(nu=math.inf), r"\(-1, 0.5\)"),
])
def test_material_rejects_invalid_constants(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MaterialModel(**kwargs)


def test_material_bounds_are_open_but_reachable():
    assert MaterialModel(nu=0.7, plane_stress=True).lam > 0
    assert MaterialModel(nu=-0.9).mu > 0


def test_material_takes_keywords_only():
    with pytest.raises(TypeError):
        MaterialModel("neo-hookean", nu=0.3)


# ---------------------------------------------------------------- Dirichlet


def test_dirichlet_conflict_detection():
    mesh = MultiPatchModel([rect_patch(1, 1, 1)], []).weak_mesh()
    system = assemble_poisson(mesh)
    with pytest.raises(ValueError, match="conflict"):
        linear_solve(system, [(0, 1.0), (0, 2.0)])


def test_homogeneous_dirichlet_zero_trace():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    model = None
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 1, [(0, s, 0, zero) for s in
                                           ("west", "east", "south", "north")])
    x = linear_solve(assemble_poisson(mesh, lambda x, y: 1.0), rows)
    field = SolutionField(mesh, x, 1)
    t = np.linspace(0, 1, 7)
    assert np.abs(field.evaluate(0, t, np.zeros(7))).max() < 1e-12
    assert np.abs(field.evaluate(0, np.ones(7), t)).max() < 1e-12


@pytest.mark.parametrize("spec, message", [
    ((0, "west", 1, 0.0), "component 1 out of range for 1 components"),
    ((0, "west", -1, 0.0), "component -1 out of range"),
    ((1, "west", 0, 0.0), "no patch 1"),
    ((-1, "west", 0, 0.0), "no patch -1"),
    ((0, "up", 0, 0.0), "unknown side 'up'"),
])
def test_dirichlet_rows_reject_bad_specs(spec, message):
    # on a 4x4 patch, (0, "west", 5, 0.0) would name rows 5-8, another dof's
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    assert mesh.ndof == 16
    with pytest.raises(ValueError, match=message):
        dirichlet_rows(mesh, 1, [spec])
    with pytest.raises(ValueError, match="component 5 out of range for 2"):
        dirichlet_rows(mesh, 2, [(0, "west", 5, 0.0)])


@pytest.mark.parametrize("spec, message", [
    ((0, "north", (0.8, 0.2), None), "increasing"),
    ((0, "north", (0.5, 0.5), None), "increasing"),
    ((0, "north", (math.nan, 1.0), None), "increasing"),
    ((2, "north", None, None), "no patch 2"),
    ((0, "top", None, None), "unknown side 'top'"),
])
def test_neumann_rejects_bad_specs(spec, message):
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    with pytest.raises(ValueError, match=message):
        assemble_neumann(mesh, 1, [spec[:3] + (lambda x, n: 1.0,)])


@pytest.mark.parametrize("spec, message", [
    ((0, "south", 0.5, 1.0), "component 0.5 out of range"),
    ((0, "south", True, 1.0), "component True out of range"),
    ((True, "south", 0, 1.0), "no patch True"),
    ((0.0, "south", 0, 1.0), "no patch 0.0"),
], ids=["fractional-component", "bool-component", "bool-patch", "float-patch"])
def test_specs_refuse_a_component_or_patch_that_is_not_an_integer(spec, message):
    # a fractional component once gave rows 0.5, 8.5, ..., and True was patch 1
    mesh = MultiPatchModel([rect_patch(2, 2, 2), rect_patch(2, 2, 2, (1.0, 2.0))], []).weak_mesh()
    with pytest.raises(ValueError, match=message):
        dirichlet_rows(mesh, 2, [spec])
    if spec[2] == 0:
        with pytest.raises(ValueError, match=message):
            assemble_neumann(mesh, 2, [(spec[0], "south", None, lambda x, n: (1.0, 0.0))])


@pytest.mark.parametrize("where", ["forcing", "body_force", "traction", "exact", "quantity",
                                   "boundary"])
def test_non_finite_user_values_are_rejected(where):
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()

    def bad(*args):
        # NaN where x > 1/2; traction and quantity see points as (..., 2)
        x = args[0][..., 0] if where in ("traction", "quantity") else args[0]
        return np.where(x > 0.5, np.nan, 1.0)

    field = SolutionField(mesh, np.zeros(mesh.ndof), 1)
    run = {
        "forcing": lambda: assemble_poisson(mesh, bad),
        "body_force": lambda: assemble_linear_elasticity(
            mesh, MaterialModel(), bad),
        "traction": lambda: assemble_neumann(mesh, 1, [(0, "east", None, lambda x, n: bad(x))]),
        "exact": lambda: l2_error(field, bad),
        "quantity": lambda: l2_error(field, lambda x, y: 0.0,
                                     quantity=lambda v, g, x: bad(x)),
        "boundary": lambda: dirichlet_rows(mesh, 1, [(0, "east", 0, bad)]),
    }[where]
    with pytest.raises(ValueError, match="non-finite"):
        run()


def test_field_and_state_sizes_are_checked():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    with pytest.raises(ValueError, match="field has 15 values"):
        SolutionField(mesh, np.zeros(mesh.ndof - 1), 1)
    with pytest.raises(ValueError, match="field has 16 values"):
        SolutionField(mesh, np.zeros(mesh.ndof), 2)
    mat = MaterialModel(E=10.0, nu=0.3)
    with pytest.raises(ValueError, match="state has 16 values"):
        assemble_neo_hookean(mesh, mat, np.zeros(mesh.ndof))
    with pytest.raises(ValueError, match="state has 33 values"):
        assemble_neo_hookean(mesh, mat, np.zeros(mesh.ndof * 2 + 1))


def test_constraining_everything_returns_projection():
    mesh = MultiPatchModel([rect_patch(1, 1, 1)], []).weak_mesh()
    system = assemble_poisson(mesh)
    vals = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    x = linear_solve(system, vals.items())
    assert np.allclose(x, [1, 2, 3, 4])


def _dense_boundary_projection(patch, side, fn):
    """boundary_projection through a dense mass matrix and a dense solve,
    refined until its own rounding is far below the library's solve."""
    curve = patch.boundary(side)
    kv = curve.kv
    n = kv.n
    xs, ws = gauss_on_breaks(kv.breakpoints(), kv.degree + 2)
    cols, R, (x, dx) = curve.table(xs, 1)
    c = ws * np.linalg.norm(dx, axis=1)
    x = np.vstack([x, curve.point(kv.domain[0]), curve.point(kv.domain[1])])
    f = fn(x[:, 0], x[:, 1])
    M = np.zeros((n, n))
    np.add.at(M, (cols[:, :, None], cols[:, None, :]),
              c[:, None, None] * (R[:, :, None] * R[:, None, :]))
    rhs = np.zeros(n)
    np.add.at(rhs, cols, (c * f[:-2])[:, None] * R)
    vals = np.zeros(n)
    vals[0], vals[-1] = f[-2:]
    inner = np.arange(1, n - 1)
    if inner.size:
        rhs_i = rhs[inner] - M[inner][:, [0, n - 1]] @ vals[[0, n - 1]]
        A = M[np.ix_(inner, inner)]
        x = np.linalg.solve(A, rhs_i)
        for _ in range(2):  # refined against a long-double residual
            r = rhs_i.astype(np.longdouble) - A.astype(np.longdouble) @ x.astype(np.longdouble)
            x = x + np.linalg.solve(A, r.astype(float))
        vals[inner] = x
    return vals


@st.composite
def rational_patches(draw):
    """Rational patches of degree 1-4 over random knots with repeated interior
    knots, control points a jittered Greville grid of the unit square."""
    kvs = []
    for _ in range(2):
        p = draw(st.integers(1, 4))
        interior = draw(st.lists(st.floats(0.05, 0.95), max_size=5, unique=True))
        # a value within KNOT_TOL of another would merge with it into one knot
        interior = [x for i, x in enumerate(interior)
                    if all(abs(x - y) > 1e-11 for y in interior[:i])]
        vals = sorted(x for x in interior for _ in range(draw(st.integers(1, p))))
        kvs.append(KnotVector(np.concatenate([np.zeros(p + 1), vals, np.ones(p + 1)]), p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1, g2 = (greville_abscissae(kv) for kv in kvs)
    points = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1)
    points += 0.01 * rng.uniform(-1.0, 1.0, points.shape)
    return Patch2D(kvs, points, rng.uniform(0.5, 2.0, points.shape[:2]))


@given(rational_patches())
def test_boundary_projection_matches_refined_dense_solve(patch):
    fn = lambda x, y: np.sin(2 * x) + y * y + 1.0
    for side in SIDES:
        got = boundary_projection(patch, side, fn)
        ref = _dense_boundary_projection(patch, side, fn)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_boundary_projection_evaluates_its_curve_once():
    # basis, points and tangents at the Gauss points and both corners in one
    # table call of first order, so one Bernstein table; no point call
    patch = rect_patch(2, 3, 2)
    spies = {name: mock.patch.object(BoundaryCurve, name, autospec=True,
                                     side_effect=getattr(BoundaryCurve, name))
             for name in ("table", "point")}
    with spies["table"] as table, spies["point"] as point:
        vals = boundary_projection(patch, "north", lambda x, y: x + 2 * y)
    assert (table.call_count, point.call_count) == (1, 0)
    assert table.call_args.args[2] == 1
    # linear data is in the space: the corners interpolate, the rest is exact
    g = greville_abscissae(patch.kvs[0])
    assert np.abs(vals - (g + 2.0)).max() < 1e-13


def test_boundary_projection_rate():
    u, grad, _ = manufactured_fields("square-dirichlet")
    errs = []
    for n in (4, 8):
        patch = rect_patch(2, n, n)
        vals = boundary_projection(patch, "east", u)
        curve = patch.boundary("east")
        err = 0.0
        for a, b in pairwise(curve.kv.breakpoints()):
            xs, ws = gauss_on_breaks((a, b), 5)
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
    assert np.allclose(linear_solve(system, []), np.arange(5.0))


def test_linear_solve_vs_dense_oracle():
    n = 100
    A = sp.random(n, n, density=0.05, random_state=3)
    K = (A @ A.T + 10 * sp.eye(n)).tocsr()
    f = RNG.normal(size=n)
    x = linear_solve(AssembledSystem(K, f, 1), [])
    assert np.abs(x - np.linalg.solve(K.toarray(), f)).max() < 1e-8


# the row bound between linear_solve's dense and sparse routes
_DENSE_ROWS = linsys._DENSE_ROWS


@contextlib.contextmanager
def _routes():
    """Spies on linear_solve's three factorizations, by route name."""
    with mock.patch.object(linsys.np.linalg, "solve", wraps=np.linalg.solve) as dense, \
            mock.patch.object(linsys.sla, "solveh_banded",
                              wraps=linsys.sla.solveh_banded) as banded, \
            mock.patch.object(linsys.spla, "splu", wraps=linsys.spla.splu) as superlu:
        yield {"dense": dense, "banded": banded, "superlu": superlu}


def _ran(spies) -> dict:
    return {route: spy.call_count for route, spy in spies.items()}


def _cholesky_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_linear_solve_singular_raises():
    # above the dense bound the zero matrix is symmetric and within the band
    # budget, but its zero diagonal sends it to SuperLU, which fails too
    for n, ran in ((2, {"dense": 1, "banded": 0, "superlu": 0}),
                   (_DENSE_ROWS + 1, {"dense": 0, "banded": 0, "superlu": 1})):
        with _routes() as spies, pytest.raises(NumericalError):
            linear_solve(AssembledSystem(sp.csr_matrix((n, n)), np.ones(n), 1), [])
        assert _ran(spies) == ran


@pytest.mark.parametrize("K, message", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite solution"),
    # the 12x12 Hilbert matrix: a relative residual of 1.9e-9
    (1.0 / (np.arange(1, 13)[:, None] + np.arange(12)), "residual .* exceeds 1e-10"),
], ids=["nan-entry", "hilbert-12"])
def test_linear_solve_refuses_an_inaccurate_solution(K, message):
    with pytest.raises(NumericalError, match=message):
        linear_solve(AssembledSystem(sp.csr_matrix(K), np.ones(len(K)), 1), [])


def test_constrained_hilbert_block_is_still_refused():
    # the free block is the 12x12 Hilbert matrix, coupled by its first column
    # to one row held at 1: the scale gains ‖K[free][:, fixed]‖ ‖x[fixed]‖,
    # and the relative residual, 1.7e-9, stays above the gate
    H = 1.0 / (np.arange(1, 13)[:, None] + np.arange(12))
    K = np.block([[H, H[:, :1]], [H[:1], np.ones((1, 1))]])
    with pytest.raises(NumericalError, match="residual .* exceeds 1e-10"):
        linear_solve(AssembledSystem(sp.csr_matrix(K), np.ones(13), 1), [(12, 1.0)])


def test_residual_gate_accepts_a_cancelled_load():
    # the mass matrix and load of u = 1 - 2y on the west side of a one-element
    # p = 2 square, at 4 Gauss points: u is in the space and its interior
    # coefficient is 0, so the eliminated load (f - K x)[free] cancels to
    # rounding, and against it the backward-stable solve read as a relative
    # residual of 1.0; against ‖f[free]‖ + ‖K[free][:, fixed]‖ ‖x[fixed]‖ it
    # is accepted
    curve = rect_patch(2, 1, 1).boundary("west")
    xs, ws = gauss_on_breaks(curve.kv.breakpoints(), 4)
    cols, R, (x, dx) = curve.table(xs, 1)
    c = ws * np.linalg.norm(dx, axis=1)
    M, f = np.zeros((3, 3)), np.zeros(3)
    np.add.at(M, (cols[:, :, None], cols[:, None, :]),
              c[:, None, None] * R[:, :, None] * R[:, None, :])
    np.add.at(f, cols, (c * (1 - 2 * x[:, 1]))[:, None] * R)
    x = linear_solve(AssembledSystem(sp.csr_matrix(M), f, 1), [(0, 1.0), (2, -1.0)])
    assert (x[0], x[2]) == (1.0, -1.0)
    assert abs(x[1]) <= 1e-15


def test_dirichlet_rows_of_data_in_the_space():
    # the same side through the library's projection: corners 1 and -1, and
    # the interior coefficient of the linear data 0 to rounding
    mesh = MultiPatchModel([rect_patch(2, 1, 1)], []).weak_mesh()
    rows = dirichlet_rows(mesh, 1, [(0, "west", 0, lambda x, y: 1 - 2 * y)])
    (_, first), (_, middle), (_, last) = rows
    assert (first, last) == (1.0, -1.0)
    assert abs(middle) <= 1e-15


@pytest.mark.parametrize("constraints, message", [
    ({-1: 2.0}, "row -1 outside"),
    ({5: 2.0}, "row 5 outside"),
    ({0: float("nan")}, "non-finite Dirichlet value on row 0"),
    ({1.7: 5.0}, "row 1.7 is not an integer"),
    ({np.float64(1.0): 5.0}, r"row np\.float64\(1\.0\) is not an integer"),
    ({"1": 5.0}, "row '1' is not an integer"),
], ids=["negative-row", "row-past-the-end", "nan-value", "fractional-row", "float-row",
        "string-row"])
def test_linear_solve_rejects_bad_constraints(constraints, message):
    system = AssembledSystem(sp.eye(3, format="csr"), np.ones(3), 1)
    with pytest.raises(ValueError, match=message):
        linear_solve(system, constraints.items())


@given(st.integers(0, 2**32 - 1), st.data())
def test_one_constraint_rule_on_generated_pairs(seed, data):
    # duplicates of a row within 1e-9 relative are one constraint, solved at
    # the row's first value; the order of the pairs does not matter while
    # each row's duplicates keep theirs; above 1e-8 relative they conflict
    rng = np.random.default_rng(seed)
    n = 8
    R = rng.normal(size=(n, n))
    system = AssembledSystem(sp.csr_matrix(R @ R.T + n * np.eye(n)), rng.normal(size=n), 1)
    first, pairs = {}, []
    for row in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)):
        if row in first:
            value = first[row] * (1 + data.draw(st.floats(-1e-9, 1e-9)))
        else:
            value = first[row] = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        pairs.append((row, value))
    x = linear_solve(system, pairs)
    assert all(x[row] == value for row, value in first.items())
    order = data.draw(st.permutations(range(len(pairs))))
    queues = {row: iter([v for r, v in pairs if r == row]) for row in first}
    shuffled = [(pairs[i][0], next(queues[pairs[i][0]])) for i in order]
    assert linear_solve(system, shuffled).tobytes() == x.tobytes()
    row = data.draw(st.sampled_from(sorted(first)))
    step = data.draw(st.floats(1e-7, 1.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
    clash = first[row] + step * max(1.0, abs(first[row]))
    with pytest.raises(ValueError, match="conflicting Dirichlet values"):
        linear_solve(system, [*pairs, (row, clash)])


@st.composite
def constrained_systems(draw):
    """A random square CSR matrix and load with constrained rows (none to all).

    The matrix is small or has ``_DENSE_ROWS`` rows (dense route), or has a
    few rows more (banded route when its free block is symmetric, SuperLU
    otherwise).  It may be symmetric; rows may hold explicit zeros and may
    list their columns in descending order, as a non-canonical CSR array does.
    """
    n = draw(st.one_of(st.integers(1, 25), st.just(_DENSE_ROWS),
                       st.integers(_DENSE_ROWS + 1, _DENSE_ROWS + 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = sp.random(n, n, density=draw(st.floats(0.05, 0.7)), random_state=rng, format="csr")
    if draw(st.booleans()):  # symmetric, for the banded route
        K = (K + K.T).tocsr()
    if draw(st.booleans()):  # zeros symmetric entries in pairs
        K.data[K.data < 0.3] = 0.0
    if draw(st.booleans()):
        order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(K.indptr, K.indptr[1:])])
        K = sp.csr_matrix((K.data[order], K.indices[order], K.indptr), shape=K.shape)
    fixed = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return K, rng.normal(size=n), {r: float(v) for r, v in zip(fixed, rng.normal(size=n))}


class _Factored(Exception):
    pass


def _band_storage(coo: sp.coo_matrix) -> np.ndarray:
    """LAPACK's upper band storage of a symmetric matrix, ``[b + i - j, j]``
    holding entry (i, j), b the largest distance of a stored entry from the
    diagonal."""
    m = coo.shape[0]
    b = int(np.abs(coo.row - coo.col).max(initial=0))
    dense = coo.toarray()
    ab = np.zeros((b + 1, m))
    for d in range(b + 1):
        ab[b - d, d:] = np.diagonal(dense, d)
    return ab


def _rcm_place(A: sp.csr_matrix) -> np.ndarray:
    """Each row's place in the reverse Cuthill-McKee order of A's pattern,
    duplicates summed."""
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    return np.argsort(reverse_cuthill_mckee(A, symmetric_mode=True))


def _upper_band(A: sp.csr_matrix) -> np.ndarray:
    """The band storage of a symmetric matrix in the narrower of its natural
    and reverse Cuthill-McKee orders, natural on a tie."""
    coo = A.tocsr().tocoo()
    at = _rcm_place(A)
    if np.abs(at[coo.row] - at[coo.col]).max() < np.abs(coo.row - coo.col).max():
        coo = sp.coo_matrix((coo.data, (at[coo.row], at[coo.col])), shape=A.shape)
    return _band_storage(coo)


@given(constrained_systems())
def test_free_block_is_the_fancy_index_selection(case):
    K, f, constraints = case
    free = np.ones(K.shape[0], dtype=bool)
    free[list(constraints)] = False
    seen, options, routes = [], [], []

    def factor(route):
        def record(A, *args, **kwargs):
            seen.append(A.copy())
            options.append(kwargs)
            routes.append(route)
            raise _Factored
        return record

    system = AssembledSystem(K, f, 1)
    with mock.patch.object(linsys.spla, "splu", side_effect=factor("superlu")), \
            mock.patch.object(linsys.sla, "solveh_banded", side_effect=factor("banded")), \
            mock.patch.object(linsys.np.linalg, "solve", side_effect=factor("dense")):
        if free.any():
            with pytest.raises(_Factored):
                linear_solve(system, constraints.items())
        else:
            x = linear_solve(system, constraints.items())
            assert np.array_equal(x, [constraints[r] for r in range(K.shape[0])])
    if not free.any():
        assert not seen
        return
    ref = K[free][:, free]
    (A,) = seen
    if K.shape[0] <= _DENSE_ROWS:
        # K[free][:, free] as a dense array, for LAPACK
        assert routes == ["dense"]
        assert isinstance(A, np.ndarray)
        assert A.dtype == float and A.shape == ref.shape
        assert A.tobytes() == ref.toarray().tobytes()
        return
    dense = ref.toarray()
    ab = _upper_band(ref)
    if (np.abs(dense - dense.T).max() <= linsys._SYMMETRY_RTOL * np.abs(np.triu(dense)).max()
            and np.all(np.diagonal(dense) > 0)):
        # the upper band of K[free][:, free] in the narrower of its natural and
        # RCM orders, for LAPACK's banded Cholesky
        assert routes == ["banded"]
        assert options == [{"overwrite_ab": True, "check_finite": False}]
        assert A.dtype == float and A.shape == ab.shape
        assert A.tobytes() == ab.tobytes()
        return
    # K[free][:, free] itself, in CSC form for SuperLU, ordered by minimum
    # degree on A^T + A
    assert routes == ["superlu"]
    assert options == [{"permc_spec": "MMD_AT_PLUS_A"}]
    ref = ref.tocsc()
    assert A.format == "csc" and A.shape == ref.shape
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def _dense_constrained_solve(K, f, constraints):
    x = np.zeros(K.shape[0])
    fixed = np.array(sorted(constraints), dtype=int)
    x[fixed] = [constraints[r] for r in fixed]
    free = np.setdiff1d(np.arange(K.shape[0]), fixed)
    Kd = K.toarray()
    x[free] = np.linalg.solve(Kd[np.ix_(free, free)], f[free] - Kd[np.ix_(free, fixed)] @ x[fixed])
    return x


@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(0, 6), st.data())
def test_linear_solve_matches_dense_solve(seed, n, m, data):
    # an SPD block A, and with m > 0 the saddle system [[A, B^T], [B, 0]]:
    # its zero block has no usable diagonal pivot
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=0.3, random_state=rng)
    A = (R @ R.T + n * sp.eye(n)).tocsr()
    m = min(m, n // 2)
    if m:
        B = sp.csr_matrix(rng.normal(size=(m, n)))
        K = sp.bmat([[A, B.T], [B, None]], format="csr")
    else:
        K = A
    fixed = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 2 * m))
    constraints = {r: float(v) for r, v in zip(fixed, rng.normal(size=len(fixed)))}
    f = rng.normal(size=K.shape[0])
    x = linear_solve(AssembledSystem(K, f, 1), constraints.items())
    ref = _dense_constrained_solve(K, f, constraints)
    assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    assert all(x[r] == v for r, v in constraints.items())


def _spd_or_saddle(rng, n, m):
    """An n-row SPD matrix, or with m > 0 an n-row saddle system [[A, B^T], [B, 0]]."""
    na = n - m
    R = sp.random(na, na, density=0.02, random_state=rng)
    A = (R @ R.T + na * sp.eye(na)).tocsr()
    if not m:
        return A
    B = sp.csr_matrix(rng.normal(size=(m, na)) * np.sqrt(na))
    return sp.bmat([[A, B.T], [B, None]], format="csr")


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.data())
def test_dense_and_superlu_routes_agree_at_the_bound(seed, m, data):
    # the same free system, solved dense at _DENSE_ROWS rows and, with one more
    # row coupled to every other row and constrained, by banded Cholesky when
    # it is SPD (m = 0), or by SuperLU when it is the saddle system, whose
    # zero diagonal entries rule Cholesky out; the SPD system also agrees with
    # SuperLU, reached by a Cholesky that fails
    rng = np.random.default_rng(seed)
    n = _DENSE_ROWS
    K = _spd_or_saddle(rng, n, m)
    k = data.draw(st.integers(0, n - 2 * m))
    fixed = rng.choice(n - m, size=k, replace=False)
    constraints = {int(r): float(v) for r, v in zip(fixed, rng.normal(size=k))}
    f = rng.normal(size=n)
    col, value = rng.normal(size=n), float(rng.normal())
    K1 = sp.bmat([[K, col[:, None]], [col[None, :], [[1.0]]]], format="csr")
    f1 = np.append(f + value * col, 0.0)
    system1, constraints1 = AssembledSystem(K1, f1, 1), [*constraints.items(), (n, value)]
    with _routes() as spies:
        x = linear_solve(AssembledSystem(K, f, 1), constraints.items())
    assert _ran(spies) == {"dense": 1, "banded": 0, "superlu": 0}
    with _routes() as spies:
        x1 = linear_solve(system1, constraints1)
    assert _ran(spies) == {"dense": 0, "banded": int(m == 0), "superlu": int(m > 0)}
    assert np.abs(x1[:n] - x).max() <= 1e-12 * np.abs(x).max()
    assert x1[n] == value
    if not m:
        with mock.patch.object(linsys.sla, "solveh_banded", side_effect=_cholesky_fails), \
                mock.patch.object(linsys.spla, "splu", wraps=linsys.spla.splu) as superlu:
            x2 = linear_solve(system1, constraints1)
        assert superlu.call_count == 1
        assert np.abs(x1 - x2).max() <= 1e-12 * np.abs(x2).max()


@pytest.mark.parametrize("skew, ran", [
    (1e-15, {"dense": 0, "banded": 1, "superlu": 0}),
    (1e-12, {"dense": 0, "banded": 0, "superlu": 1}),
], ids=["within-tolerance", "beyond-tolerance"])
def test_symmetry_tolerance_picks_the_route(skew, ran):
    # an SPD block above the dense bound with one entry of its upper triangle
    # moved by skew times the largest entry: within _SYMMETRY_RTOL (1e-14) it
    # takes banded Cholesky, beyond it SuperLU, with a positive diagonal on both
    rng = np.random.default_rng(7)
    n = _DENSE_ROWS + 5
    K = _spd_or_saddle(rng, n, 0).toarray()
    K[0, 1] += skew * np.abs(K).max()
    f = rng.normal(size=n)
    with _routes() as spies:
        x = linear_solve(AssembledSystem(sp.csr_matrix(K), f, 1), [])
    assert _ran(spies) == ran
    ref = np.linalg.solve(K, f)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_plate_saddle_system_falls_back_to_superlu():
    # level 1 puts the 3-patch plate's saddle system (324 rows) above the
    # dense bound: symmetric, but with a zero diagonal block, it is solved
    # by SuperLU without a Cholesky attempt; the two dense solves are the
    # projections of its two Dirichlet sides
    case = BenchmarkCase("plate-hole-3patch")
    with _routes() as spies:
        saddle = solve_case(case, 1, "saddle")["field"].values
    assert _ran(spies) == {"dense": 2, "banded": 0, "superlu": 1}
    mortar = solve_case(case, 1, "mortar")["field"].values
    assert np.abs(saddle - mortar).max() <= 1e-12 * np.abs(mortar).max()


@pytest.mark.parametrize("case, level", [
    (BenchmarkCase("plate-hole-3patch", matched=False), 1),
    (BenchmarkCase("plate-hole-3patch", matched=False), 2),
    (BenchmarkCase("square-mixed", matched=False), 2),
], ids=["plate-3patch-1", "plate-3patch-2", "square-2"])
def test_saddle_displacements_match_the_condensed_ones(case, level):
    # with the multiplier blocks scaled by sqrt(max diag K), the saddle route
    # keeps the condensed routes' precision: unscaled, the plate differed by
    # 5.4e-11 and 2.6e-11 relative at residuals near 1e-14
    saddle = solve_case(case, level, "saddle")["field"].values
    mortar = solve_case(case, level, "mortar")["field"].values
    assert np.abs(saddle - mortar).max() <= 1e-12 * np.abs(mortar).max()


def _neo_hookean_tangent():
    """A neo-Hookean tangent and out-of-balance load of a stretched and sheared
    14 x 14 net (392 rows), with its west side held."""
    mesh = MultiPatchModel([rect_patch(2, 12, 12)], []).weak_mesh()
    xy = mesh.patches[0].points.reshape(-1, 2)
    u = np.column_stack([0.05 * xy[:, 0] + 0.02 * xy[:, 1] ** 2, -0.03 * xy[:, 0] * xy[:, 1]])
    r, K = assemble_neo_hookean(mesh, MaterialModel(E=10.0, nu=0.3), u.reshape(-1))
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 2, [(0, "west", 0, zero), (0, "west", 1, zero)])
    return AssembledSystem(K, -r, 2), rows


def test_neo_hookean_tangent_above_the_dense_bound_takes_the_banded_route():
    system, rows = _neo_hookean_tangent()
    assert system.nrows > _DENSE_ROWS
    with _routes() as spies:
        x = linear_solve(system, rows)
    assert _ran(spies) == {"dense": 0, "banded": 1, "superlu": 0}
    with mock.patch.object(linsys.sla, "solveh_banded", side_effect=_cholesky_fails):
        ref = linear_solve(system, rows)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_indefinite_symmetric_tangent_falls_back_to_superlu():
    # the tangent shifted between its two lowest free eigenvalues: symmetric,
    # with a positive diagonal, but not positive
    # definite, so Cholesky is tried and fails
    system, rows = _neo_hookean_tangent()
    free = np.setdiff1d(np.arange(system.nrows), [r for r, _ in rows])
    low = np.linalg.eigvalsh(system.K.toarray()[np.ix_(free, free)])[:2]
    shifted = AssembledSystem((system.K - low.mean() * sp.eye(system.nrows)).tocsr(),
                              system.f, 2)
    with _routes() as spies:
        x = linear_solve(shifted, rows)
    assert _ran(spies) == {"dense": 0, "banded": 1, "superlu": 1}
    Kd = shifted.K.toarray()[np.ix_(free, free)]
    ref = np.linalg.solve(Kd, shifted.f[free])
    assert np.abs(x[free] - ref).max() <= 1e-10 * np.abs(ref).max()


def _condensed(case: BenchmarkCase, level: int):
    """The condensed system and Dirichlet rows that ``solve_case`` solves on
    the mortar route, and the free block of that system."""
    problem = CASES[case.case].linear
    mesh = build_case(case, level).mortar_mesh()
    system = problem.assemble(mesh)
    system.f += assemble_neumann(mesh, problem.ncomp, problem.neumann)
    rows = dirichlet_rows(mesh, problem.ncomp, problem.dirichlet)
    red = condense(system, mesh)
    free = np.ones(red.nrows, dtype=bool)
    free[[r for r, _ in rows]] = False
    return red, rows, red.K.tocsr()[free][:, free]


@pytest.mark.parametrize("case", [BenchmarkCase("plate-hole-2patch", matched=False),
                                  BenchmarkCase("plate-hole-3patch", matched=False),
                                  BenchmarkCase("annulus")], ids=lambda case: case.case)
def test_patchwise_numbered_block_takes_the_band_in_rcm_order(case):
    # numbered patch by patch, the plates' and the annulus's free blocks have
    # bands of 0.5-0.7 m at level 2; RCM narrows them, and the banded solution
    # equals SuperLU's, reached by a Cholesky that fails
    system, rows, block = _condensed(case, 2)
    coo = block.tocoo()
    natural = int(np.abs(coo.row - coo.col).max())
    at = _rcm_place(block)
    rcm = int(np.abs(at[coo.row] - at[coo.col]).max())
    assert system.nrows > _DENSE_ROWS and rcm < natural / 2
    with _routes() as spies:
        x = linear_solve(system, rows)
    assert _ran(spies) == {"dense": 0, "banded": 1, "superlu": 0}
    assert spies["banded"].call_args.args[0].shape == (rcm + 1, block.shape[0])
    with mock.patch.object(linsys.sla, "solveh_banded", side_effect=_cholesky_fails):
        ref = linear_solve(system, rows)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_square_block_keeps_its_natural_band():
    # the square, numbered row by row, is narrower in its own order than in
    # RCM's: the band LAPACK receives is the natural one, bit for bit
    system, rows, block = _condensed(BenchmarkCase("square-mixed", matched=False), 3)
    coo = block.tocoo()
    at = _rcm_place(block)
    assert np.abs(at[coo.row] - at[coo.col]).max() > np.abs(coo.row - coo.col).max()
    seen, solve = [], linsys.sla.solveh_banded

    def record(ab, *args, **kwargs):
        seen.append(ab.copy())
        return solve(ab, *args, **kwargs)

    with mock.patch.object(linsys.sla, "solveh_banded", side_effect=record):
        x = linear_solve(system, rows)
    (ab,) = seen
    assert ab.tobytes() == _band_storage(coo).tobytes()
    with mock.patch.object(linsys.sla, "solveh_banded", side_effect=_cholesky_fails):
        ref = linear_solve(system, rows)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


# -------------------------------------------------------------- neo-Hookean


def test_rest_state_zero_residual():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
    r, K = assemble_neo_hookean(mesh, mat, np.zeros(mesh.ndof * 2))
    assert np.abs(r).max() < 1e-12
    # a rigid translation is a rest state too: zero out-of-balance residual
    r2, _ = assemble_neo_hookean(mesh, mat, np.tile([0.7, -0.3], mesh.ndof))
    assert np.abs(r2).max() < 1e-12


@pytest.mark.parametrize("nu", [0.3, 0.6])
def test_neo_hookean_refuses_a_plane_stress_material(nu):
    # the energy is plane strain: a plane-stress lam would be used silently
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=nu, plane_stress=True)
    zero = np.zeros(mesh.ndof * 2)
    with pytest.raises(ValueError, match="plane strain"):
        assemble_neo_hookean(mesh, mat, zero)
    with pytest.raises(ValueError, match="plane strain"):
        newton_load_stepping(mesh, mat, zero, [], increments=1)


def test_newton_refuses_a_nonzero_constraint_value():
    # the iterates start at zero and every step holds the constrained rows,
    # so a prescribed 0.05 would be solved as 0
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
    rows = dirichlet_rows(mesh, 2, [(0, "west", 1, 0.0), (0, "south", 0, 0.05)])
    held = next(r for r, v in rows if v != 0)
    assert rows[0][1] == 0.0
    with pytest.raises(ValueError, match=f"row {held} has a nonzero value"):
        newton_load_stepping(mesh, mat, np.zeros(2 * mesh.ndof), rows, increments=1)


@pytest.mark.parametrize("load", [0.0, 1e9], ids=["zero-load", "nonzero-load"])
@pytest.mark.parametrize("pair, message", [
    ((1.7, 0.0), "row 1.7 is not an integer"),
    ((-1, 0.0), "row -1 outside"),
    ((10**6, 0.0), "row 1000000 outside"),
    ((0, float("nan")), "non-finite Dirichlet value on row 0"),
], ids=["fractional-row", "negative-row", "row-past-the-end", "nan-value"])
def test_newton_checks_its_constraints_by_the_solve_rule(pair, message, load):
    # at zero load no step is solved, so Newton checks the pairs itself, before
    # any step, with linear_solve's rule and messages: nothing is truncated
    # or accepted silently
    mesh = largedef_model(0, True).mortar_mesh()
    with pytest.raises(ValueError, match=message):
        newton_load_stepping(mesh, MaterialModel(E=30e9, nu=0.48), np.full(2 * mesh.ndof, load),
                             [pair], increments=1)


def test_tangent_matches_finite_differences():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
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


def test_zero_load_identity_deformation():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=10.0, nu=0.3)
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    d = newton_load_stepping(mesh, mat, np.zeros(mesh.ndof * 2), rows, increments=3)
    assert np.abs(d).max() < 1e-12


def test_path_independence_of_dead_loading():
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=100.0, nu=0.3)
    load = assemble_neumann(mesh, 2, [(0, "north", None, lambda x, n: np.array([0.0, -15.0]))])
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    d20 = newton_load_stepping(mesh, mat, load, rows, increments=20)
    d40 = newton_load_stepping(mesh, mat, load, rows, increments=40)
    assert np.abs(d20 - d40).max() / np.abs(d20).max() < 1e-6


def test_nonconvergence_reports_increment():
    # three times the pressure of criterion 10 in one increment
    with pytest.raises(NumericalError, match="Newton did not converge in increment 1"):
        run_largedef("largedef-case1", 0, 1, 1e8, pressure=3e11)


@pytest.mark.parametrize("kwargs, message", [
    (dict(tol_factor=0.5), "tol_factor"),
    (dict(tol_factor=1.0), "tol_factor"),
    (dict(tol_factor=math.nan), "tol_factor"),
    (dict(tol_factor=math.inf), "tol_factor"),
])
def test_newton_rejects_settings_that_skip_the_solve(kwargs, message):
    # each would return the unloaded start state or run every Newton step
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    mat = MaterialModel(E=100.0, nu=0.3)
    load = np.zeros(mesh.ndof * 2)
    load[1::2] = -1.0
    zero = lambda x, y: 0.0
    rows = dirichlet_rows(mesh, 2, [(0, "south", 0, zero), (0, "south", 1, zero)])
    with pytest.raises(ValueError, match=message):
        newton_load_stepping(mesh, mat, load, rows, increments=1, **kwargs)


# ------------------------------------------------- quadrature subdivision


def test_quadrature_subdivision_is_necessary():
    """Skipping the new continuity lines in the slave elements changes the
    interface stiffness measurably; honoring them keeps the weak route
    identical to the condensed mortar route."""
    model = case_model("square-demo", 0)
    weak = assemble_poisson(model.weak_mesh())
    mortar = model.mortar_mesh()
    red = condense(assemble_poisson(mortar), mortar)
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
        x1, w1 = gauss_on_breaks(span1, 3)
        x2, w2 = gauss_on_breaks((lo2, hi2), 3)
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
    from bezmortar.benchmarks import largedef_model

    model = largedef_model(0, weak=True)
    mat = MaterialModel(E=30e9, nu=0.48)
    down = lambda x, n: np.array([0.0, -2e9])
    zero = lambda x, y: 0.0
    diri = [(0, "south", 1, zero), (1, "south", 1, zero), (0, "west", 0, zero)]

    def solve(mesh):
        load = assemble_neumann(mesh, 2, [(0, "north", None, down)])
        return newton_load_stepping(mesh, mat, load, dirichlet_rows(mesh, 2, diri), increments=4)

    # the same call on both meshes: the mortar mesh condenses through its P
    d_weak, d_red = solve(model.weak_mesh()), solve(model.mortar_mesh())
    scale = np.abs(d_weak).max()
    assert np.abs(d_weak - d_red).max() / scale < 1e-8
