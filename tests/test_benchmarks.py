import math
import sys
from unittest import mock

import numpy as np
import pytest

from bezmortar import OutOfDomainError, linsys
from bezmortar.benchmarks import (
    CASES,
    PLATE_RADIUS,
    PLATE_SIDE,
    PLATE_TENSION,
    BenchmarkCase,
    ConvergenceReport,
    annulus_sector_patch,
    exact_plate_stress,
    field_difference_l2,
    interface_jump_norm,
    kirsch_cartesian,
    largedef_model,
    manufactured_fields,
    rect_patch,
    run_convergence,
    run_largedef,
    solve_case,
    weak_vs_conforming_relative_error,
)
from bezmortar.fem import SolutionField, l2_error
from bezmortar.linsys import NumericalError
from bezmortar.mesh_io import CSV_COLUMNS, convergence_csv
from bezmortar.model import MultiPatchModel
from bezmortar.splines import BoundaryCurve
from cases import case_model
from reference import is_affine, observed_rate, plate_traction_residual


# ---------------------------------------------------------------- geometry


def test_square_level0_element_counts():
    model = case_model("square-mixed", 0)
    assert [len(kv.breakpoints()) - 1 for kv in model.patches[0].kvs] == [2, 2]
    assert [len(kv.breakpoints()) - 1 for kv in model.patches[1].kvs] == [3, 3]


def test_square_matched_phi_affine():
    model = case_model("square-mixed", 0)
    assert is_affine(model.couplings[0].phi)


def test_square_mismatched_geometry_coincident():
    model = case_model("square-mixed", 1, matched=False)
    coup = model.couplings[0]
    assert not is_affine(coup.phi)
    for t in np.linspace(0, 1, 40):
        x = coup.phi.slave.point(t)
        assert abs(x[0] - 0.5) < 1e-12  # stays on the interface line
        y = coup.phi.master.point(coup.phi(t))
        assert np.linalg.norm(x - y) < 1e-10


def test_annulus_radii_and_counts():
    model = case_model("annulus", 0, dual_refine=0)
    for patch in model.patches:
        for side in ("west", "east", "south", "north"):
            curve = patch.boundary(side)
            lo, hi = curve.kv.domain
            for t in np.linspace(lo, hi, 30):
                r = np.linalg.norm(curve.point(t))
                assert 0.4 - 1e-12 <= r <= 4.0 + 1e-12
    # inner boundary is the exact circle of radius 0.4
    inner = model.patches[0].boundary("west")
    for t in np.linspace(0, 1, 30):
        assert abs(np.linalg.norm(inner.point(t)) - 0.4) < 1e-12
    assert len(model.patches[0].kvs[0].breakpoints()) - 1 == 2
    assert len(model.patches[1].kvs[0].breakpoints()) - 1 == 3


def test_plate_hole_edge_and_defaults():
    assert (PLATE_RADIUS, PLATE_SIDE, PLATE_TENSION) == (1.0, 4.0, 10.0)
    model = case_model("plate-hole-2patch", 0)
    for patch in model.patches:
        hole = patch.boundary("west")
        for t in np.linspace(0, 1, 30):
            assert abs(np.linalg.norm(hole.point(t)) - PLATE_RADIUS) < 1e-12


def test_plate_three_patch_roles():
    model = case_model("plate-hole-3patch", 0)
    assert len(model.interfaces) == 2
    # the middle patch is slave of the first interface and master of the second
    assert model.interfaces[0].slave[0] == 1
    assert model.interfaces[1].master[0] == 1
    # interfaces geometrically coincide with both neighbours
    for coup in model.couplings:
        assert coup.phi.endpoint_mismatch() < 1e-10


def test_interface_coincidence_all_generators():
    for model in (
        case_model("square-mixed", 1),
        case_model("square-mixed", 1, ratio=(3, 2), matched=False),
        case_model("annulus", 1, dual_refine=0),
        case_model("plate-hole-2patch", 1, matched=False),
    ):
        for coup in model.couplings:
            for t in np.linspace(0, 1, 20):
                lo, hi = coup.phi.slave.domain
                xi = lo + t * (hi - lo)
                r = np.linalg.norm(
                    coup.phi.master.point(coup.phi(xi)) - coup.phi.slave.point(xi)
                )
                assert r < 1e-10


# ----------------------------------------------------------- exact solutions


def test_hole_edge_traction_free():
    for theta in np.linspace(0, math.pi / 2, 11):
        srr, stt, srt = exact_plate_stress(PLATE_RADIUS, theta)
        assert abs(srr) < 1e-12 and abs(srt) < 1e-12


def test_crown_stress_concentration():
    sxx, _, _ = kirsch_cartesian(0.0, PLATE_RADIUS)
    assert abs(sxx - 3 * PLATE_TENSION) < 1e-12


def test_far_field_recovers_tension():
    sxx, syy, sxy = kirsch_cartesian(500.0, 0.5)
    assert abs(sxx - PLATE_TENSION) < 1e-3
    assert abs(syy) < 1e-3 and abs(sxy) < 1e-3


def test_inside_hole_rejected():
    with pytest.raises(OutOfDomainError):
        exact_plate_stress(0.5 * PLATE_RADIUS, 0.3)


def test_exact_tractions_self_equilibrated():
    residual = plate_traction_residual(kirsch_cartesian, PLATE_RADIUS, PLATE_SIDE)
    assert residual < 1e-8 * PLATE_TENSION * PLATE_SIDE


def test_manufactured_square_harmonic():
    u, grad, f = manufactured_fields("square-dirichlet")
    assert f is None
    eps = 1e-5
    for x, y in [(0.3, 0.4), (0.7, 0.2)]:
        lap = (
            u(x + eps, y) + u(x - eps, y) + u(x, y + eps) + u(x, y - eps) - 4 * u(x, y)
        ) / eps**2
        assert abs(lap) < 1e-4
        g = grad(x, y)
        fd = ((u(x + eps, y) - u(x - eps, y)) / (2 * eps),
              (u(x, y + eps) - u(x, y - eps)) / (2 * eps))
        assert abs(g[0] - fd[0]) < 1e-6 and abs(g[1] - fd[1]) < 1e-6


def test_manufactured_annulus_forcing():
    u, grad, f = manufactured_fields("annulus")
    x, y = 0.3, -0.2
    assert abs(f(x, y) - 2 * math.pi**2 * u(x, y)) < 1e-13


# ------------------------------------------------------------------- errors


def test_l2_error_of_exact_interpolant_is_zero():
    from bezmortar.splines import greville_abscissae

    patch = rect_patch(1, 2, 2)
    mesh = MultiPatchModel([patch], []).weak_mesh()
    g1 = greville_abscissae(patch.kvs[0])
    g2 = greville_abscissae(patch.kvs[1])
    u = lambda x, y: 2 * x + y
    vals = np.add.outer(2 * g1, g2).reshape(-1)
    assert l2_error(SolutionField(mesh, vals, 1), u) < 1e-14


def test_rate_arithmetic():
    case = BenchmarkCase("square-mixed")
    report = ConvergenceReport(case)
    report.add(0, 1.0, 10, 1e-2)
    report.add(1, 0.5, 20, 1.25e-3)
    assert abs(report.rows[1]["rate"] - 3.0) < 1e-12


def test_l2_error_quadrature_insensitive():
    case = BenchmarkCase("square-mixed", p=2, dual_refine=1)
    solved = solve_case(case, 1, "weak")
    exact = manufactured_fields("square-mixed")[0]
    e1 = l2_error(solved["field"], exact, quad_extra=2)
    e2 = l2_error(solved["field"], exact, quad_extra=5)
    assert abs(e1 - e2) / e1 < 1e-3


# -------------------------------------------------------------- convergence


def test_square_mixed_matched_rates():
    rep = run_convergence(BenchmarkCase("square-mixed", p=2, dual_refine=1), levels=3)
    assert not rep.failed
    assert 2.5 < observed_rate(rep) < 4.0


def test_square_unrefined_rate_between_two_and_three():
    rep = run_convergence(BenchmarkCase("square-mixed", p=2, dual_refine=0), levels=4)
    assert 2.0 <= observed_rate(rep) <= 3.05


def test_partial_report_on_failure(monkeypatch):
    import bezmortar.benchmarks as B

    calls = {"n": 0}
    orig = B.solve_case

    def flaky(case, level, method="mortar"):
        if level >= 1:
            raise NumericalError("synthetic failure")
        return orig(case, level, method)

    monkeypatch.setattr(B, "solve_case", flaky)
    rep = B.run_convergence(BenchmarkCase("square-mixed", p=2), levels=3)
    assert rep.failed
    assert rep.rows[-1]["status"].startswith("failed")
    assert len(rep.rows) == 2
    # only a failed study's CSV has the status column
    header, *rows = convergence_csv(rep).splitlines()
    assert header == ",".join(CSV_COLUMNS + ("status",))
    assert [row.split(",")[-1] for row in rows] == ["ok", "failed: synthetic failure"]


@pytest.mark.parametrize("call, message", [
    (lambda: annulus_sector_patch(0.0, math.pi, 0.4, 4.0, 2, 2), "sweeps below 90 degrees"),
    (lambda: manufactured_fields("plate-hole-2patch"), "no manufactured solution"),
    (lambda: run_largedef("square-mixed", 0, 1, 1e8, pressure=1.0), "is no pressure case"),
], ids=["half-annulus", "plate-fields", "linear-case-pressure"])
def test_case_builders_refuse_what_they_cannot_build(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_validation_of_case_configuration():
    with pytest.raises(ValueError):
        BenchmarkCase("nope")
    with pytest.raises(ValueError):
        BenchmarkCase("annulus", p=3)
    with pytest.raises(ValueError):
        BenchmarkCase("annulus", matched=False)
    with pytest.raises(ValueError, match="at p = 1 with ratio 1:1 there are none"):
        BenchmarkCase("square-mixed", p=1, ratio=(1, 1), matched=False)
    with pytest.raises(ValueError):
        solve_case(BenchmarkCase("square-mixed"), 0, "bogus")


@pytest.mark.parametrize("case_id, name, value", [
    ("largedef-case1", "p", 3),
    ("largedef-case2", "ratio", (3, 4)),
    ("largedef-case3", "matched", False),
    ("largedef-case1", "dual_refine", 2),
    ("square-demo", "p", 3),
    ("square-demo", "ratio", (3, 2)),
    ("square-demo", "matched", False),
    ("annulus", "p", 3),
    ("annulus", "matched", False),
    ("plate-hole-2patch", "p", 3),
    ("plate-hole-3patch", "p", 4),
])
def test_case_refuses_a_setting_its_geometry_fixes(case_id, name, value):
    with pytest.raises(ValueError, match=f"{case_id} fixes {name} = "):
        BenchmarkCase(case_id, **{name: value})


@pytest.mark.parametrize("case_id, settings", [
    ("square-mixed", dict(p=3, ratio=(3, 4), matched=False, dual_refine=2, seed=7)),
    ("square-demo", dict(dual_refine=0, seed=7)),
    ("annulus", dict(ratio=(3, 4), dual_refine=2, seed=7)),
    ("plate-hole-2patch", dict(ratio=(3, 4), matched=False, dual_refine=2, seed=7)),
    ("largedef-case1", dict(seed=7)),
])
def test_case_takes_the_settings_its_geometry_reads(case_id, settings):
    case = BenchmarkCase(case_id, **settings)
    assert all(getattr(case, k) == v for k, v in settings.items())


def test_studies_need_a_level():
    with pytest.raises(ValueError, match="at least one level"):
        run_convergence(BenchmarkCase("square-mixed"), 0)
    with pytest.raises(ValueError, match="at least one level"):
        weak_vs_conforming_relative_error("largedef-case1", 0, 20, 1e8, 12e9)


@pytest.mark.parametrize("case_id", ["plate-hole-2patch", "plate-hole-3patch"])
def test_saddle_route_solves_the_sparse_plate_systems(case_id):
    # level 2 puts the saddle system (636 and 888 rows) above the dense
    # bound; its zero diagonal block sends it to SuperLU, where factoring the
    # transposed free block left relative residuals of 1.05e-10 and
    # 1.65e-10, above the solver's 1e-10 bound
    case = BenchmarkCase(case_id)
    with mock.patch.object(linsys.sla, "solveh_banded") as banded, \
            mock.patch.object(linsys.spla, "splu", wraps=linsys.spla.splu) as superlu:
        saddle = solve_case(case, 2, "saddle")["field"].values
    assert (banded.call_count, superlu.call_count) == (0, 1)
    mortar = solve_case(case, 2, "mortar")["field"].values
    assert np.abs(saddle - mortar).max() <= 1e-12 * np.abs(mortar).max()


# ------------------------------------------------------------ interface jump


def test_jump_norm_nonincreasing_in_dual_refinement():
    jumps = []
    for n in (0, 1, 2):
        case = BenchmarkCase("square-mixed", p=2, dual_refine=n, matched=False)
        solved = solve_case(case, 1, "mortar")
        jumps.append(interface_jump_norm(solved["model"], solved["field"].values))
    assert jumps[0] >= jumps[1] >= jumps[2]
    assert jumps[2] < 0.1 * jumps[0]


def test_jump_norm_reads_the_component_count_from_the_values():
    solved = solve_case(BenchmarkCase("plate-hole-2patch", matched=False), 1, "mortar")
    model, values = solved["model"], solved["field"].values
    both = interface_jump_norm(model, values)
    x, y = (interface_jump_norm(model, values[c::2]) for c in (0, 1))
    assert both > 0
    assert abs(both - math.hypot(x, y)) <= 1e-12 * both
    with pytest.raises(ValueError, match="full dofs"):
        interface_jump_norm(model, values[:-1])


def test_jump_norm_reads_one_table_per_side():
    # per interface one table call of its own on the refined trace, of first
    # order for its basis and its speed, and one on the master curve at the
    # mapped points, for its basis only (phi's projection makes the others)
    model = case_model("plate-hole-3patch", 0)
    v = np.sin(0.37 * np.arange(2 * model.ndof_full))
    calls, table = [], BoundaryCurve.table

    def spy(curve, xi, nders):
        calls.append((curve, nders, sys._getframe(1).f_code.co_name))
        return table(curve, xi, nders)

    with mock.patch.object(BoundaryCurve, "table", spy):
        jump = interface_jump_norm(model, v)
    assert jump > 0 and len(model.couplings) == 2
    own = [(curve, nders) for curve, nders, caller in calls if caller == "interface_jump_norm"]
    assert own == [pair for c in model.couplings for pair in ((c.trace, 1), (c.phi.master, 0))]


def test_matched_refined_jump_is_tiny():
    case = BenchmarkCase("square-mixed", p=2, dual_refine=1)
    solved = solve_case(case, 0, "mortar")
    j = interface_jump_norm(solved["model"], solved["field"].values)
    assert j < 1e-10


# ------------------------------------------------------------ large rotation


@pytest.mark.parametrize("weak", [True, False], ids=["weak", "conforming"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_largedef_corners_land_on_retained_dofs(level, weak):
    # run_largedef constrains each corner's dof; a trace dof there has none
    grids = largedef_model(level, weak).weak_mesh().grids
    for case_id in ("largedef-case1", "largedef-case2", "largedef-case3"):
        for patch, corner, _ in CASES[case_id].loads(1.0)[2]:
            assert grids[patch][corner] >= 0, (case_id, patch, corner)


def test_largedef_identical_meshes_zero_difference():
    f = run_largedef("largedef-case1", 0, increments=4, tol_factor=1e8, pressure=2e9)
    assert field_difference_l2(f, f) < 1e-14


def test_field_difference_refuses_unequal_component_counts():
    # a 2-component field against a 1-component one would broadcast
    mesh = MultiPatchModel([rect_patch(2, 2, 2)], []).weak_mesh()
    one, two = (SolutionField(mesh, np.ones(mesh.ndof * k), k) for k in (1, 2))
    with pytest.raises(ValueError, match="fields of 2 and 1 components"):
        field_difference_l2(two, one)
    assert field_difference_l2(two, two) < 1e-14


def test_largedef_small_pressure_runs_and_compares():
    fw = run_largedef("largedef-case1", 0, increments=4, tol_factor=1e8, pressure=2e9)
    fc = run_largedef("largedef-case1", 0, increments=4, tol_factor=1e8, pressure=2e9, weak=False)
    er = field_difference_l2(fw, fc)
    assert 0 < er < 1e-2


@pytest.mark.parametrize("settings", [dict(p=0), dict(ratio=(2, 0)), dict(ratio=(-1, 3)),
                                      dict(seed=-5), dict(dual_refine=-1)])
@pytest.mark.parametrize("case_id", ["square-mixed", "annulus", "plate-hole-3patch"])
def test_case_refuses_an_out_of_range_setting(case_id, settings):
    with pytest.raises(ValueError):
        BenchmarkCase(case_id, **settings)


@pytest.mark.parametrize("case_id", ["largedef-case2", "square-demo"])
def test_convergence_study_refuses_a_case_without_a_linear_problem(case_id):
    with pytest.raises(ValueError, match="no linear problem"):
        run_convergence(BenchmarkCase(case_id), levels=1)
