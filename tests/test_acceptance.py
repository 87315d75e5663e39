"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Criterion 10 runs the pinned large-deformation protocol
faithfully; see the project notes for the analysis of its outcome.
"""

import math
import time

import numpy as np
import scipy.sparse.linalg as spla

from bezmortar import (
    InterfaceSpec,
    MultiPatchModel,
    NumericalError,
    assemble_poisson,
    condense,
    dual_extraction,
)
from bezmortar.benchmarks import (
    BenchmarkCase,
    LARGEDEF_PRESSURE,
    PLATE_MATERIAL,
    interface_jump_norm,
    largedef_model,
    run_convergence,
    solve_case,
    weak_vs_conforming_relative_error,
    rect_patch,
)
from bezmortar.fem import assemble_linear_elasticity
from cases import case_model
from test_dualbasis import assembled_gram, random_kv
from test_weakmesh import (
    G_LOCAL,
    PARENT_EXTRACTION,
    REFINED_EXTRACTION,
    TENSOR_9,
    TRANSFORM,
    TRANSVERSE,
    WEAK_1D,
    interface_operator_report,
)

DEMO_COUPLING = np.array(
    [
        [1, 0, 0, 0],
        [1 / 3, 2 / 3, 0, 0],
        [0, 2 / 3, 1 / 3, 0],
        [0, 1 / 3, 2 / 3, 0],
        [0, 0, 2 / 3, 1 / 3],
        [0, 0, 0, 1],
    ]
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def last_two_rate(rep):
    return rep.rows[-1]["rate"]


def three_level_slope(rep):
    """Endpoint slope over the last three levels (pre-asymptotic excluded)."""
    rows = rep.rows[-3:]
    return math.log(rows[0]["l2_error"] / rows[-1]["l2_error"]) / math.log(
        rows[0]["h"] / rows[-1]["h"]
    )


def test_criterion_1_reference_operator_reproduction():
    t0 = time.time()
    model = case_model("square-demo", 0)
    rep = interface_operator_report(model)
    errs = {
        "coupling": np.abs(rep["coupling"] - DEMO_COUPLING).max(),
        "refined_extraction": np.abs(rep["refined_extraction"] - REFINED_EXTRACTION).max(),
        "transform": np.abs(rep["transform"] - TRANSFORM).max(),
        "weak_1d": np.abs(rep["weak_1d"] - WEAK_1D).max(),
        "parent_extraction": np.abs(rep["parent_extraction"] - PARENT_EXTRACTION).max(),
        "transverse_extraction": np.abs(rep["transverse_extraction"] - TRANSVERSE).max(),
        "tensor": np.abs(rep["tensor_operator"] - TENSOR_9).max(),
        "coupling_local": np.abs(rep["coupling_local"] - G_LOCAL).max(),
    }
    elapsed = time.time() - t0
    worst = max(errs.values())
    report(
        1,
        "reference operator reproduction",
        worst <= 1e-14 and elapsed < 1.0,
        f"max abs err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_biorthogonality_suite():
    t0 = time.time()
    worst = 0.0
    for p in range(1, 5):
        for seed in range(10):
            rng = np.random.default_rng(1000 * p + seed)
            kv = random_kv(p, rng=rng)
            dual = dual_extraction(kv, np.ones(kv.n))
            G = assembled_gram(dual, kv)
            worst = max(worst, np.abs(G - np.eye(kv.n)).max())
            w = rng.uniform(0.4, 2.5, kv.n)
            rat = dual_extraction(kv, w)
            Gr = assembled_gram(rat, kv, weights=w)
            worst = max(worst, np.abs(Gr - np.eye(kv.n)).max())
    elapsed = time.time() - t0
    report(
        2,
        "biorthogonality suite",
        worst <= 1e-11 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_optimal_rates_matched_square():
    t0 = time.time()
    rates = {}
    for p in (2, 3):
        for ratio in ((2, 3), (3, 2)):
            rep = run_convergence(
                BenchmarkCase("square-mixed", p=p, ratio=ratio, dual_refine=1),
                levels=4,
            )
            rates[(p, ratio)] = last_two_rate(rep)
    elapsed = time.time() - t0
    ok = all(abs(r - (p + 1)) <= 0.25 for (p, _), r in rates.items())
    detail = ", ".join(f"p={p} {a}:{b} -> {r:.2f}" for (p, (a, b)), r in rates.items())
    report(3, "optimal rates, matched square", ok and elapsed < 120, detail)


def test_criterion_4_crosspoint_robustness():
    t0 = time.time()
    rep = run_convergence(
        BenchmarkCase("square-dirichlet", p=2, dual_refine=1), levels=4
    )
    rate = last_two_rate(rep)
    elapsed = time.time() - t0
    report(4, "crosspoint robustness (full Dirichlet)", rate >= 2.7 and elapsed < 120,
           f"rate {rate:.2f}, {elapsed:.1f} s")


def test_criterion_5_mismatched_parameterizations():
    t0 = time.time()
    rep2 = run_convergence(
        BenchmarkCase("square-mixed", p=2, dual_refine=1, matched=False), levels=4
    )
    r2 = three_level_slope(rep2)
    # finer base counts (same 2:3 element-size ratio) put the fourth-degree
    # study inside its asymptotic window at four levels
    rep4 = run_convergence(
        BenchmarkCase("square-mixed", p=4, ratio=(6, 9), dual_refine=2, matched=False),
        levels=4,
    )
    r4 = three_level_slope(rep4)
    elapsed = time.time() - t0
    ok = abs(r2 - 3) <= 0.3 and abs(r4 - 5) <= 0.3
    report(5, "mismatched parameterizations",
           ok, f"p=2 n=1 -> {r2:.2f}, p=4 n=2 -> {r4:.2f}, {elapsed:.0f} s")


def test_criterion_6_annulus_rational_coupling():
    t0 = time.time()
    rep = run_convergence(
        BenchmarkCase("annulus", p=2, ratio=(2, 3), dual_refine=0), levels=6
    )
    rate = last_two_rate(rep)
    elapsed = time.time() - t0
    report(6, "annulus rational coupling", abs(rate - 3) <= 0.25,
           f"rate {rate:.2f}, {elapsed:.0f} s")


def test_criterion_7_plate_with_hole():
    t0 = time.time()
    case = BenchmarkCase("plate-hole-2patch", p=2, ratio=(4, 6), dual_refine=1)
    rep = run_convergence(case, levels=4)
    rate = last_two_rate(rep)
    solved = solve_case(case, 2, "mortar")
    _, (g,) = solved["field"].evaluate(1, 1e-12, 1.0 - 1e-12, grad=True)
    mat = PLATE_MATERIAL
    sxx = (mat.lam + 2 * mat.mu) * g[0, 0] + mat.lam * g[1, 1]
    crown_err = abs(sxx - 30.0) / 30.0
    elapsed = time.time() - t0
    # optimal L2 rate for a stress component is the polynomial degree
    ok = abs(rate - 2.0) <= 0.3 and crown_err <= 0.02
    report(7, "plate with hole",
           ok, f"sigma_xx rate {rate:.2f}, crown {sxx:.3f} ({100*crown_err:.2f}%), {elapsed:.0f} s")


def test_criterion_8_mortar_weak_equivalence_and_saddle():
    t0 = time.time()
    families = [
        ("demo", case_model("square-demo", 0), 1),
        ("square-matched", case_model("square-mixed", 1), 1),
        ("square-mismatched", case_model("square-mixed", 0, matched=False, p=3, dual_refine=2), 1),
        ("square-3:2", case_model("square-mixed", 0, ratio=(3, 2)), 1),
        ("annulus", case_model("annulus", 0), 1),
        ("plate-2", case_model("plate-hole-2patch", 0), 2),
        ("plate-3", case_model("plate-hole-3patch", 0), 2),
        ("plate-mismatched", case_model("plate-hole-2patch", 0, matched=False), 2),
        ("largedef", largedef_model(0, weak=True), 2),
    ]
    worst = 0.0
    for name, model, ncomp in families:
        mesh = model.mortar_mesh()
        if ncomp == 1:
            full = assemble_poisson(mesh)
            weak = assemble_poisson(model.weak_mesh())
        else:
            full = assemble_linear_elasticity(mesh, PLATE_MATERIAL)
            weak = assemble_linear_elasticity(model.weak_mesh(), PLATE_MATERIAL)
        red = condense(full, mesh)
        rel = spla.norm(red.K - weak.K) / spla.norm(weak.K)
        worst = max(worst, rel)
    # saddle oracle on coarse meshes
    saddle_dev = 0.0
    for case in (
        BenchmarkCase("square-mixed", p=2, dual_refine=1),
        BenchmarkCase("square-mixed", p=2, dual_refine=0, matched=False),
    ):
        sm = solve_case(case, 0, "mortar")
        ss = solve_case(case, 0, "saddle")
        saddle_dev = max(saddle_dev, np.abs(sm["field"].values - ss["field"].values).max())
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and saddle_dev <= 1e-12
    report(8, "mortar/weak equivalence",
           ok, f"max rel Frobenius {worst:.2e}, saddle dev {saddle_dev:.2e}, {elapsed:.0f} s")


def test_criterion_9_dof_invariance_under_dual_refinement():
    t0 = time.time()
    dofs, jumps = [], []
    for n in (0, 1, 2):
        case = BenchmarkCase("square-mixed", p=2, dual_refine=n, matched=False)
        solved = solve_case(case, 1, "mortar")
        dofs.append(solved["dofs"])
        jumps.append(interface_jump_norm(solved["model"], solved["field"].values))
    elapsed = time.time() - t0
    ok = dofs[0] == dofs[1] == dofs[2] and jumps[0] >= jumps[1] >= jumps[2]
    report(9, "dof invariance under dual refinement",
           ok, f"dofs {dofs}, jumps {['%.2e' % j for j in jumps]}, {elapsed:.0f} s")


def test_criterion_10_large_deformation():
    """Faithful protocol: E = 30e9, nu = 0.48, p_max = 100e9, twenty equal
    increments, residual reduction 1e8, three mesh levels, then the cubic
    convergence of the weak-vs-conforming relative error.

    The dead load (p_max = 10 mu, mu = 10.1 GPa) lies past the loads that
    Newton load stepping reaches: level 0 fails in increment 10 (50 GPa,
    residual 5.827e10), so the study ends there, and a separate run of
    level 1 fails at 25 GPa.  The tangent eigenvalues a scratch script took
    along that path are recorded in ROADMAP item 6; no test checks them yet.
    The criterion is executed exactly as stated and reports its outcome;
    the companion test below demonstrates the same pipeline at a stable
    pressure.
    """
    t0 = time.time()
    try:
        rep = weak_vs_conforming_relative_error("largedef-case1", 3,
                                                increments=20, tol_factor=1e8,
                                                pressure=LARGEDEF_PRESSURE)
        failed = rep.failed
        detail = "; ".join(r["status"] for r in rep.rows)
        rate = None if failed else last_two_rate(rep)
    except NumericalError as exc:
        failed, rate, detail = True, None, str(exc)
    elapsed = time.time() - t0
    ok = (not failed) and rate is not None and abs(rate - 3.0) <= 0.4 and elapsed < 600
    report(10, "large deformation (pinned pressure)",
           ok, f"{detail if failed else f'rate {rate:.2f}'}, {elapsed:.0f} s")


def test_criterion_10_companion_reduced_pressure():
    """Capability evidence for the large-deformation pipeline: at a dead
    pressure below the folding limit (12 GPa, deformations near 20% of the
    span) case 1 converges on three levels and the weak-vs-conforming
    relative error approaches the cubic rate.  This is NOT the acceptance
    criterion (which pins p_max = 100e9 and is reported separately)."""
    t0 = time.time()
    rep = weak_vs_conforming_relative_error("largedef-case1", 3,
                                            increments=20, tol_factor=1e8,
                                            pressure=12e9)
    assert not rep.failed, rep.rows
    errs = [r["l2_error"] for r in rep.rows]
    assert errs[0] > errs[1] > errs[2]
    rate = last_two_rate(rep)
    elapsed = time.time() - t0
    print(f"companion largedef at 12 GPa: rate {rate:.2f}, {elapsed:.0f} s")
    assert abs(rate - 3.0) <= 0.4
    assert elapsed < 600


def test_criterion_11_sparsity():
    t0 = time.time()
    # nonconforming 2:3 family refined to the ~14k-node scale
    model = case_model("square-mixed", 5)
    nodes = sum(p.shape[0] * p.shape[1] for p in model.patches)
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    # conforming mesh of comparable size
    m = 82
    master = rect_patch(2, m, m, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, m, m, (0.5, 1.0), (0.0, 1.0))
    conf = MultiPatchModel(
        [master, slave], [InterfaceSpec((0, "east"), (1, "west"))], 0
    )
    confsys = assemble_poisson(conf.weak_mesh())
    ratio = red.K.nnz / confsys.K.nnz
    elapsed = time.time() - t0
    report(11, "sparsity at the 14k-node scale",
           ratio <= 1.5, f"{nodes} nodes, nnz ratio {ratio:.3f}, {elapsed:.0f} s")
