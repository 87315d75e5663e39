import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, reject
from hypothesis import strategies as st

from bezmortar import (
    InterfaceGeometryError,
    InterfaceSpec,
    MaterialModel,
    MultiPatchModel,
    assemble_coupling,
    assemble_linear_elasticity,
    assemble_poisson,
    assemble_saddle,
    build_interface_coupling,
    build_phi,
    condense,
    dual_extraction,
    linear_solve,
    project_master_knots,
    refine_dual_space,
    refinement_operator,
)
from bezmortar.benchmarks import (
    BenchmarkCase,
    annulus_sector_patch,
    build_case,
    rect_patch,
    solve_case,
)
from bezmortar.coupling import _CUT, MAX_DUAL_REFINE
from bezmortar.fem import SolutionField, dirichlet_rows, l2_error
from bezmortar.splines import (
    SIDES,
    BoundaryCurve,
    KnotVector,
    Patch2D,
    bspline_table,
    gauss_on_breaks,
    greville_abscissae,
    rational_table,
    side_index,
    uniform_open_knots,
)
from cases import case_model, two_patch_models
from reference import (
    bspline_basis,
    bspline_derivatives,
    is_affine,
    prolongation_by_rounds,
    symmetry_error,
)

RNG = np.random.default_rng(515)


def line_curve(p, n, y=1.0, speeds=None):
    """Horizontal segment [0,1] x {y} with optional control reparameterization."""
    kv = uniform_open_knots(p, n)
    g = greville_abscissae(kv)
    if speeds is not None:
        g = speeds(g)
    pts = np.column_stack([g, np.full(kv.n, y)])
    return BoundaryCurve(kv, pts, np.ones(kv.n))


# ------------------------------------------------------------------- phi


def test_phi_identity_for_matched_lines():
    phi = build_phi(line_curve(2, 3), line_curve(2, 2))
    for xi in np.linspace(0, 1, 11):
        assert abs(phi(xi) - xi) < 1e-12
    assert is_affine(phi)


def test_phi_residual_for_speed_varying_master():
    # control-point warp: the master parameterization runs faster early on
    def speeds(g):
        out = g.copy()
        inner = slice(1, len(g) - 1)
        out[inner] = g[inner] ** 1.7
        return out

    slave = line_curve(2, 4)
    master = line_curve(2, 3, speeds=speeds)
    phi = build_phi(slave, master)
    assert not is_affine(phi)
    for xi in np.linspace(0, 1, 50):
        r = np.linalg.norm(master.point(phi(xi)) - slave.point(xi))
        assert r < 1e-12


def test_phi_mismatched_benchmark_residual():
    model = case_model("square-mixed", 0, matched=False)
    phi = model.couplings[0].phi
    for xi in np.linspace(0, 1, 25):
        r = np.linalg.norm(phi.master.point(phi(xi)) - phi.slave.point(xi))
        assert r < 1e-10


def test_phi_rejects_noncoincident_curves():
    with pytest.raises(InterfaceGeometryError, match="endpoints do not coincide"):
        build_phi(line_curve(2, 2, y=0.0), line_curve(2, 2, y=1.0))
    # same endpoints, but the master bulges away from the straight slave
    slave = line_curve(2, 2, y=0.0)
    master = BoundaryCurve(slave.kv, slave.points + [[0, 0], [0, 0.3], [0, 0.3], [0, 0]],
                           slave.weights)
    phi = build_phi(slave, master)
    with pytest.raises(InterfaceGeometryError, match="do not coincide at the projected point"):
        phi(0.5)


def test_phi_reversed_orientation():
    kv = uniform_open_knots(2, 2)
    g = greville_abscissae(kv)
    master = BoundaryCurve(kv, np.column_stack([1 - g, np.ones(kv.n)]), np.ones(kv.n))
    phi = build_phi(line_curve(2, 3), master, reversed=True)
    assert abs(phi(0.0) - 1.0) < 1e-12
    assert abs(phi(1.0) - 0.0) < 1e-12
    assert abs(phi(0.25) - 0.75) < 1e-12


def scalar_projection(curve, y, eta0, tol=1e-12, maxiter=50):
    """Closest-point Newton for one point, evaluating the curve pointwise
    through the Cox-de Boor derivatives of its B-spline basis; None when it
    does not converge."""
    kv, p = curve.kv, curve.kv.degree
    hom = np.column_stack([curve.points * curve.weights[:, None], curve.weights])
    lo, hi = kv.domain
    eta = min(max(eta0, lo), hi)
    for _ in range(maxiter):
        first, ders = bspline_derivatives(kv, eta, 2)
        (A0, W0), (A1, W1), (A2, W2) = ((h[:2], h[2]) for h in ders @ hom[first : first + p + 1])
        x0 = A0 / W0
        x1 = (A1 - x0 * W1) / W0
        x2 = (A2 - 2.0 * x1 * W1 - x0 * W2) / W0
        r = x0 - y
        gp = x1 @ x1 + r @ x2
        step = -(r @ x1) / (gp if gp > 0.0 else x1 @ x1)
        eta = min(max(eta + step, lo), hi)
        if abs(step) <= tol * (hi - lo):
            return eta
    return None


@st.composite
def warped_segment(draw):
    """A straight segment as a rational B-spline with tangentially perturbed
    (still monotone) control points and random weights."""
    p = draw(st.integers(1, 4))
    n_el = draw(st.integers(1, 5))
    kv = uniform_open_knots(p, n_el)
    g = greville_abscissae(kv)
    shift = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=kv.n, max_size=kv.n)))
    t = g.copy()
    t[1:-1] += shift[1:-1] * np.diff(g).min()
    w = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=kv.n, max_size=kv.n)))
    return kv, t, w


@pytest.mark.parametrize("reverse", [False, True])
@given(warped_segment(), warped_segment())
def test_batched_phi_equals_scalar_newton(reverse, slave_data, master_data):
    direction = np.array([0.6, 0.8])
    (skv, ts, ws), (mkv, tm, wm) = slave_data, master_data
    if reverse:
        tm = 1.0 - tm
    slave = BoundaryCurve(skv, ts[:, None] * direction, ws)
    master = BoundaryCurve(mkv, tm[:, None] * direction, wm)
    phi = build_phi(slave, master, reversed=reverse)
    xs = np.linspace(0.0, 1.0, 23)
    for source, target, fn in ((slave, master, phi), (master, slave, phi.inverse)):
        want = [scalar_projection(target, source.point(float(x)), 1.0 - x if reverse else x)
                for x in xs]
        # Newton can cycle across a kink of a C0 parameterization; then the
        # batched call fails as the scalar one does, and converged points agree
        if None in want:
            with pytest.raises(InterfaceGeometryError):
                fn(xs)
        else:
            assert np.abs(fn(xs) - want).max() <= 1e-13
            assert fn(xs.reshape(1, -1)).shape == (1, xs.size)
        for x, w in zip(xs, want):
            if w is not None:
                got = fn(float(x))
                assert isinstance(got, float) and abs(got - w) <= 1e-13


# ------------------------------------------------------ generated invariants


@st.composite
def open_knots(draw, degrees=(1, 4)):
    """A random open knot vector with simple interior knots at least 0.02 apart."""
    p = draw(st.integers(*degrees))
    interior = sorted(draw(st.lists(st.floats(0.02, 0.98), max_size=5)))
    if np.any(np.diff(np.concatenate([[0.0], interior, [1.0]])) < 0.02):
        interior = []
    return KnotVector(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p)


def positive_weights(draw, n):
    return np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))


@given(st.data())
def test_generated_stacked_dual_is_biorthogonal(data):
    kv = data.draw(open_knots())
    w = positive_weights(data.draw, kv.n)
    dual = dual_extraction(kv, w)
    # one call over the Gauss points of every element
    x, wq = gauss_on_breaks(kv.breakpoints(), kv.degree + 3)
    rows, dv = dual.evaluate(x)
    cols, N = bspline_table(kv, x)
    N /= np.einsum("qj,qj->q", N, w[cols])[:, None]
    G = np.zeros((kv.n, kv.n))
    np.add.at(G, (rows[:, :, None], cols[:, None, :]),
              wq[:, None, None] * dv[:, :, None] * N[:, None, :])
    assert np.abs(G - np.eye(kv.n)).max() <= 1e-11


@st.composite
def straight_edge(draw):
    """A rational B-spline on random open knots tracing the segment from
    (0, 0) to (0.6, 0.8), with random weights and control points at the
    Greville abscissae."""
    kv = draw(open_knots(degrees=(2, 4)))
    w = positive_weights(draw, kv.n)
    return BoundaryCurve(kv, greville_abscissae(kv)[:, None] * np.array([0.6, 0.8]), w)


@given(straight_edge(), straight_edge(), st.booleans(), st.integers(0, 2))
def test_generated_coupling_rows_sum_to_one(slave, master, reverse, level):
    if reverse:
        master = BoundaryCurve(master.kv, master.points[::-1], master.weights[::-1])
    spec = InterfaceSpec(master=(1, "west"), slave=(0, "east"), reversed=reverse)
    try:
        coup = build_interface_coupling(spec, slave, master, level)
    except InterfaceGeometryError:
        # the phi Newton projection does not converge on some of these edges
        # (an open fault, ROADMAP item 4); the batched and scalar
        # projections fail alike (test_batched_phi_equals_scalar_newton)
        reject()
    # the same bound as the hand-picked row-sum tests: at p=4 on refined
    # elements a few thousandths long the duals reach 1e5 and rows sum to 1
    # within about 2e-11
    assert coup.row_sum_error() < 1e-10


def _tangentially_perturbed(model, seed):
    """The model with every control point moved along its straight interface
    by up to 1e-14."""
    rng = np.random.default_rng(seed)
    curve = model.couplings[0].phi.slave
    t = curve.point(curve.domain[1]) - curve.point(curve.domain[0])
    t /= np.linalg.norm(t)
    patches = [Patch2D(p.kvs, p.points + 1e-14 * rng.uniform(-1, 1, p.weights.shape + (1,)) * t,
                       p.weights) for p in model.patches]
    return MultiPatchModel(patches, model.interfaces, model.dual_refine)


@pytest.mark.parametrize(
    "model_fn",
    [
        lambda: case_model("square-demo", 0),
        lambda: case_model("annulus", 1),
        lambda: case_model("annulus", 0, dual_refine=0),
        lambda: case_model("square-mixed", 2, matched=False),
        lambda: case_model("square-mixed", 1, ratio=(6, 9), matched=False, p=4, dual_refine=2),
        lambda: case_model("plate-hole-2patch", 1),
        lambda: case_model("square-mixed", 1, ratio=(2, 2), dual_refine=0),
        lambda: case_model("square-mixed", 1, p=3, dual_refine=0),
        lambda: case_model("square-mixed", 1, ratio=(2, 2), p=4, dual_refine=0),
    ],
    ids=["demo", "annulus", "annulus-level-0", "square-p2-mismatched",
         "square-p4-mismatched", "plate-2patch", "square-p2-matched", "square-p3-matched",
         "square-p4-matched"],
)
def test_sparsity_stable_under_tangential_perturbation(model_fn):
    # a perturbation at the rounding level does not move entries across the
    # coupling's rounding cut; on the matched models it moves phi off affine
    # by about 1e-14, and the first-order entries it creates stay under the
    # cut with the noise
    def nnz(model):
        return (model.P.nnz,) + tuple(B.nnz for B in model.multiplier_blocks(1))

    model = model_fn()
    want = nnz(model)
    for seed in range(4):
        assert nnz(_tangentially_perturbed(model, seed)) == want


def _one_ulp_up(patch):
    """The patch with every interior knot moved up by one ulp."""
    def up(kv):
        v = kv.values.copy()
        inner = (v > v[0]) & (v < v[-1])
        v[inner] = np.nextafter(v[inner], np.inf)
        return KnotVector(v, kv.degree)

    return Patch2D([up(kv) for kv in patch.kvs], patch.points, patch.weights)


@pytest.mark.parametrize("case", ["square-mixed", "square-dirichlet"])
@pytest.mark.parametrize("ratio", [(2, 3), (3, 2), (2, 2)], ids=["2:3", "3:2", "2:2"])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("level", [1, 2])
def test_sparsity_independent_of_rounding(case, ratio, n, level):
    # at p=4 the matched coupling's cancellation noise reaches 8.4e-13 of its
    # row maximum, and only a cut scaled by each entry's own terms keeps it
    # apart from the true entries: P's pattern must not change when the
    # bisection knots go in level by level, or when every interior knot
    # moves one ulp
    base = case_model(case, 0, p=4, ratio=ratio, dual_refine=n)

    def pattern(patches):
        P = MultiPatchModel(patches, base.interfaces, n).P
        return P.indptr.tolist(), P.indices.tolist()

    stepwise = base.patches
    for _ in range(level):
        stepwise = [q.refined_uniform(1) for q in stepwise]
    at_once = [q.refined_uniform(level) for q in base.patches]
    want = pattern(at_once)
    assert pattern(stepwise) == want
    assert pattern([_one_ulp_up(q) for q in at_once]) == want


def _raw_coupling(coup):
    """The coupling sum G before its rounding cut and A, the sum of its terms'
    magnitudes, formed from the public API the way assemble_coupling forms them."""
    master = coup.phi.master
    dual = dual_extraction(coup.space, coup.weights)
    x, wq = gauss_on_breaks(coup.segments, max(master.kv.degree, dual.space.degree) + 1)
    cols, Rm, _ = rational_table(master.kv, master.weights, coup.phi(x))
    rows, dv = dual.evaluate(x)
    terms = wq[:, None, None] * (dv[:, :, None] * Rm[:, None, :])
    G, A = np.zeros((2, dual.n, master.kv.n))
    np.add.at(G, (rows[:, :, None], cols[:, None, :]), terms)
    np.add.at(A, (rows[:, :, None], cols[:, None, :]), np.abs(terms))
    return G, A


def _cut_models():
    """One model of each interface geometry in the case table over a grid of
    its free settings, at levels 0-1 (the demo has level 0 only)."""
    for level in (0, 1):
        for p in (1, 2, 3, 4):
            for matched in (True, False):
                for ratio in ((2, 3), (3, 2), (2, 2)):
                    for n in (0, 1, 2):
                        yield case_model("square-mixed", level, p=p, matched=matched,
                                         ratio=ratio, dual_refine=n)
        for case in ("annulus", "plate-hole-2patch", "plate-hole-3patch"):
            for matched in (True,) if case == "annulus" else (True, False):
                for n in (0, 1, 2):
                    yield case_model(case, level, matched=matched, dual_refine=n)
        yield case_model("largedef-case1", level)
    for n in (0, 1, 2, 3):
        yield case_model("square-demo", 0, dual_refine=n)


def test_coupling_entries_clear_the_rounding_cut():
    # every raw coupling entry is either noise well under the cut or a true
    # entry well over it (measured: at most 681 and at least 3.6e8 eps A at
    # these levels), so no entry's fate turns on its last bits
    eps = np.finfo(float).eps
    for model in _cut_models():
        for coup in model.couplings:
            G, A = _raw_coupling(coup)
            cut = np.abs(G) <= _CUT * eps * A
            assert np.array_equal(np.where(cut, 0.0, G) / coup.weights[:, None], coup.G)
            r = np.abs(G[A > 0]) / (eps * A[A > 0])
            assert np.all((r <= _CUT / 30) | (r >= 30 * _CUT))


# ------------------------------------------------------- projected knots


def test_merged_breakpoints_matched_ratio():
    phi = build_phi(line_curve(2, 3), line_curve(2, 2))
    merged = project_master_knots(phi)
    assert np.allclose(merged, [0, 1 / 3, 0.5, 2 / 3, 1], atol=1e-12)


def test_merged_breakpoints_demo(demo_model):
    merged = project_master_knots(demo_model.couplings[0].phi)
    assert np.allclose(merged, [0, 1 / 3, 0.5, 2 / 3, 1], atol=1e-12)


def test_projected_knots_satisfy_phi_inverse():
    model = case_model("square-mixed", 0, matched=False)
    coup = model.couplings[0]
    master_bp = coup.phi.master.kv.breakpoints()[1:-1]
    projected = [x for x in project_master_knots(coup.phi)
                 if np.min(np.abs(coup.phi.slave.kv.breakpoints() - x)) > 1e-9]
    assert len(projected) == len(master_bp)
    for xi, eta in zip(projected, master_bp):
        assert abs(coup.phi(float(xi)) - eta) < 1e-12


# ------------------------------------------------------- dual refinement


def inner_breaks(space, lo, hi):
    """The refined breakpoints strictly inside (lo, hi): the subcell cuts there."""
    bp = space.breakpoints()
    return bp[(bp > lo) & (bp < hi)]


def test_refine_level_zero_unchanged():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    merged = np.array([0, 1 / 3, 0.5, 2 / 3, 1.0])
    space, T = refine_dual_space(kv, merged, 0)
    assert space is kv and np.array_equal(T, np.eye(kv.n))
    assert inner_breaks(space, 1 / 3, 2 / 3).size == 0
    # the coupling of this slave space integrates over the merged breakpoints
    spec = InterfaceSpec(master=(1, "west"), slave=(0, "east"))
    coup = build_interface_coupling(spec, line_curve(2, 3), line_curve(2, 2), 0)
    assert np.array_equal(coup.space.values, kv.values)
    assert np.allclose(coup.segments, merged)


def test_refine_level_one_splits_crossed_element():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    merged = np.array([0, 1 / 3, 0.5, 2 / 3, 1.0])
    space, _ = refine_dual_space(kv, merged, 1)
    assert space.n == 6
    assert np.allclose(inner_breaks(space, 1 / 3, 2 / 3), [0.5])


def test_refine_level_two_bisects():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    merged = np.array([0, 1 / 3, 0.5, 2 / 3, 1.0])
    s1, _ = refine_dual_space(kv, merged, 1)
    s2, _ = refine_dual_space(kv, merged, 2)
    assert s2.n == s1.n + len(s1.breakpoints()) - 1
    assert inner_breaks(s2, 1 / 3, 2 / 3).size == 3


def test_one_record_per_interface():
    # on a rational arc (two ring sectors, 3 and 2 elements along it): the
    # record's space, weights and segments are the refinement's knot vector,
    # T @ slave weights and its breakpoints
    inner = annulus_sector_patch(0.0, np.pi / 2, 1.0, 2.0, 2, 3)
    outer = annulus_sector_patch(0.0, np.pi / 2, 2.0, 3.0, 2, 2)
    spec = InterfaceSpec(master=(1, "west"), slave=(0, "east"))
    coup = MultiPatchModel([inner, outer], [spec], 2).couplings[0]
    assert [f.name for f in dataclasses.fields(coup)] == ["spec", "phi", "space", "weights",
                                                          "segments", "G"]
    space, T = refine_dual_space(coup.phi.slave.kv, project_master_knots(coup.phi), 2)
    assert np.array_equal(coup.space.values, space.values)
    assert np.array_equal(coup.weights, T @ coup.phi.slave.weights)
    assert np.ptp(coup.weights) > 0.1
    assert np.array_equal(coup.segments, space.breakpoints())


def test_coupling_of_the_record_dual_is_the_record_g(demo_model):
    coup = demo_model.couplings[0]
    G = assemble_coupling(dual_extraction(coup.space, coup.weights), coup.phi, coup.segments)
    assert np.array_equal(G, coup.G)


def test_negative_dual_refinement_rejected():
    patches = [rect_patch(2, 2, 2, (0.0, 0.5)), rect_patch(2, 3, 3, (0.5, 1.0))]
    with pytest.raises(ValueError, match="refinement level must be non-negative"):
        MultiPatchModel(patches, [InterfaceSpec(master=(0, "east"), slave=(1, "west"))], -1)


def test_dual_refinement_above_the_bound_is_refused():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    merged = np.array([0, 1 / 3, 0.5, 2 / 3, 1.0])
    assert refine_dual_space(kv, merged, MAX_DUAL_REFINE)[0].n > 2**MAX_DUAL_REFINE
    with pytest.raises(ValueError, match=f"non-negative and at most {MAX_DUAL_REFINE}"):
        refine_dual_space(kv, merged, MAX_DUAL_REFINE + 1)


def test_dof_count_invariant_under_dual_refinement():
    counts = []
    for n in (0, 1, 2):
        model = case_model("square-mixed", 1, matched=False, dual_refine=n)
        counts.append(model.n_retained)
    assert counts[0] == counts[1] == counts[2]


# --------------------------------------------------------- coupling matrix


def test_identical_interfaces_give_identity():
    master = rect_patch(2, 3, 3, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 3, 3, (0.5, 1.0), (0.0, 1.0))
    model = MultiPatchModel(
        [master, slave], [InterfaceSpec((0, "east"), (1, "west"))], 0
    )
    G = model.couplings[0].G
    assert np.abs(G - np.eye(G.shape[0])).max() < 1e-13


def test_matched_coupling_is_refinement_operator(demo_model):
    coup = demo_model.couplings[0]
    master_kv = coup.phi.master.kv
    fine, T = refinement_operator(master_kv, [1 / 3, 2 / 3])
    assert np.abs(coup.G - T).max() < 1e-13


def test_demo_coupling_matrix_printed_rationals(demo_model):
    G = demo_model.couplings[0].G
    expected = np.array(
        [
            [1, 0, 0, 0],
            [1 / 3, 2 / 3, 0, 0],
            [0, 2 / 3, 1 / 3, 0],
            [0, 1 / 3, 2 / 3, 0],
            [0, 0, 2 / 3, 1 / 3],
            [0, 0, 0, 1],
        ]
    )
    assert np.abs(G - expected).max() < 1e-14
    assert np.allclose(G[1], [1 / 3, 2 / 3, 0, 0])  # the localized column pattern


def test_row_sums_one():
    for matched in (True, False):
        model = case_model("square-mixed", 0, matched=matched)
        assert model.couplings[0].row_sum_error() < 1e-10


def test_master_basis_reproduced_pointwise(demo_model):
    coup = demo_model.couplings[0]
    G = coup.G
    rkv = coup.space
    mkv = coup.phi.master.kv
    for xi in np.linspace(0.01, 0.99, 30):
        fr, Nr = bspline_basis(rkv, float(xi))
        full = np.zeros(rkv.n)
        full[fr : fr + 3] = Nr
        lhs = G.T @ full
        fm, Nm = bspline_basis(mkv, coup.phi(float(xi)))
        ref = np.zeros(mkv.n)
        ref[fm : fm + 3] = Nm
        assert np.abs(lhs - ref).max() < 1e-10


# ------------------------------------------------------------ condensation


def interface_dofs(model):
    """Master edge dofs and trace dofs of the model's first interface."""
    mp, ms = model.couplings[0].spec.master
    edge = model.grids[mp][side_index(ms)]
    return edge[edge >= 0], model.trace_ids[0]


def _solve_mixed(method):
    """Field and exact solution of square-mixed on the ``side_by_side`` model."""
    solved = solve_case(BenchmarkCase("square-mixed", dual_refine=1), 0, method)
    return solved["field"], solved["exact"]


def test_conforming_condensation_equals_conforming_assembly():
    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 2, 2, (0.5, 1.0), (0.0, 1.0))
    model = MultiPatchModel(
        [master, slave], [InterfaceSpec((0, "east"), (1, "west"))], 0
    )
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(model.weak_mesh())
    diff = spla.norm(red.K - weak.K) / spla.norm(weak.K)
    assert diff < 1e-13
    # identity coupling merges interface dofs exactly
    assert np.abs(model.couplings[0].G - np.eye(4)).max() < 1e-13


def test_condense_reads_the_numbering_of_its_mesh(side_by_side):
    weak, mortar = side_by_side.weak_mesh(), side_by_side.mortar_mesh()
    system = assemble_poisson(weak)
    assert condense(system, weak) is system
    with pytest.raises(ValueError, match="does not match"):
        condense(system, mortar)
    vector = assemble_linear_elasticity(mortar, MaterialModel())
    red = condense(vector, mortar)
    assert red.nrows == 2 * weak.ndof
    with pytest.raises(ValueError, match="does not match"):
        condense(vector, weak)


def test_condense_refuses_a_constraint_on_an_eliminated_dof(side_by_side):
    mortar = side_by_side.mortar_mesh()
    # the trace dofs are numbered after the retained ones, so a constraint on
    # one lies past the condensed system's rows
    trace_row = mortar.ndof - 1
    assert trace_row >= side_by_side.n_retained
    red = condense(assemble_poisson(mortar), mortar)
    assert red.nrows == side_by_side.n_retained
    with pytest.raises(ValueError, match=f"row {trace_row} outside the system's rows"):
        linear_solve(red, [(trace_row, 0.0)])


def test_condensed_block_formula(side_by_side):
    model = side_by_side
    mesh = model.mortar_mesh()
    system = assemble_poisson(mesh)
    red = condense(system, mesh)
    m, s = interface_dofs(model)
    G = model.couplings[0].G
    K = system.K.toarray()
    Kred = red.K.toarray()
    mm = np.ix_(m, m)
    expected_cc = K[mm] + G.T @ K[np.ix_(s, s)] @ G
    assert np.abs(Kred[mm] - expected_cc).max() < 1e-12
    distinct = np.setdiff1d(np.arange(model.n_retained), m)
    expected_cd = K[np.ix_(m, distinct)] + G.T @ K[np.ix_(s, distinct)]
    assert np.abs(Kred[np.ix_(m, distinct)] - expected_cd).max() < 1e-12


def test_condensed_symmetric_positive_definite(side_by_side):
    model = side_by_side
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    assert symmetry_error(red.K) < 1e-12
    u = lambda x, y: 0.0
    rows = dirichlet_rows(model.weak_mesh(), 1, [(0, "west", 0, u), (1, "east", 0, u)])
    free = np.setdiff1d(np.arange(red.nrows), [r for r, _ in rows])
    Kff = red.K[free][:, free]
    ev = spla.eigsh(Kff.tocsc(), k=1, which="SA", return_eigenvectors=False)
    assert ev[0] > 0


def test_post_solve_constraint_residual(side_by_side):
    model = side_by_side
    field, u = _solve_mixed("mortar")
    vals = field.values
    m, s = interface_dofs(model)
    G = model.couplings[0].G
    assert np.abs(vals[s] - G @ vals[m]).max() < 1e-10


def test_saddle_blocks(side_by_side):
    model = side_by_side
    Bm, Bs = model.multiplier_blocks(1)
    m, s = interface_dofs(model)
    # slave block is an identity on the trace dofs
    assert np.abs(Bs[:, s].toarray() - np.eye(len(s))).max() < 1e-14
    # master block carries the coupling matrix
    G = model.couplings[0].G
    assert np.abs(Bm[:, m].toarray() - G).max() < 1e-14


def test_prolongation_and_saddle_blocks_share_one_constraint_product():
    # P's trace rows are (G_i E_i) P and Bm stacks G_i E_i, bit for bit; on
    # this plate every master edge function is retained, so E_i selects them
    model = case_model("plate-hole-3patch", 1, matched=False)
    n, nr = model.ndof_full, model.n_retained
    GE = []
    for coup in model.couplings:
        mp, ms = coup.spec.master
        ids = model.grids[mp][side_index(ms)]
        E = sp.csr_matrix((np.ones(ids.size), (np.arange(ids.size), ids)), shape=(ids.size, n))
        GE.append(sp.csr_matrix(coup.G) @ E)
    ident = sp.identity(nr, format="csr")
    P0 = sp.vstack([ident, sp.csr_matrix((n - nr, nr))], format="csr")
    P = sp.vstack([ident] + [ge @ P0 for ge in GE], format="csr")
    Bm = sp.vstack(GE, format="csr")
    Bs = sp.csr_matrix((np.ones(n - nr), (np.arange(n - nr), np.arange(nr, n))),
                       shape=(n - nr, n))
    P.sort_indices()
    Bm.sort_indices()
    for got, want in zip((model.P, *model.multiplier_blocks(1)), (P, Bm, Bs)):
        assert got.shape == want.shape
        for a in ("indptr", "indices", "data"):
            assert getattr(got, a).tobytes() == getattr(want, a).tobytes()


def test_vector_saddle_blocks_store_no_zeros():
    model = build_case(BenchmarkCase("plate-hole-3patch", dual_refine=2), 1)
    for block in model.multiplier_blocks(2):
        assert block.nnz == np.count_nonzero(block.toarray())
    Bm, _ = model.multiplier_blocks(1)
    Bm2, _ = model.multiplier_blocks(2)
    assert Bm2.nnz == 2 * Bm.nnz


def test_saddle_equals_condensed():
    f1, u = _solve_mixed("mortar")
    f2, _ = _solve_mixed("saddle")
    f3, _ = _solve_mixed("weak")
    assert np.abs(f1.values - f2.values).max() < 1e-9
    assert abs(l2_error(f1, u) - l2_error(f3, u)) < 1e-10


# ---------------------------------------------------------- multi-interface


def test_chained_slave_dof_rejected():
    # middle patch slave on two adjacent sides shares a corner dof
    a = rect_patch(2, 2, 2, (0.0, 1.0), (0.0, 1.0))
    b = rect_patch(2, 2, 2, (1.0, 2.0), (0.0, 1.0))
    c = rect_patch(2, 2, 2, (1.0, 2.0), (1.0, 2.0))
    specs = [
        InterfaceSpec(master=(0, "east"), slave=(1, "west")),
        InterfaceSpec(master=(2, "south"), slave=(1, "north")),
    ]
    with pytest.raises(ValueError, match="chained|two slave"):
        MultiPatchModel([a, b, c], specs, 0)


def test_element_on_two_slave_sides_rejected():
    # a one-element-wide slave patch between two masters: its only element
    # column touches both slave interfaces
    a = rect_patch(2, 2, 2, (0.0, 1.0), (0.0, 1.0))
    b = rect_patch(2, 1, 2, (1.0, 2.0), (0.0, 1.0))
    c = rect_patch(2, 2, 2, (2.0, 3.0), (0.0, 1.0))
    specs = [
        InterfaceSpec(master=(0, "east"), slave=(1, "west")),
        InterfaceSpec(master=(2, "west"), slave=(1, "east")),
    ]
    with pytest.raises(ValueError, match="element adjacent to two slave interfaces"):
        MultiPatchModel([a, b, c], specs, 0)


def test_pinwheel_dependency_cycle_rejected():
    # four patches around the origin, each master on one side and slave on
    # the next: every master edge runs through the previous slave corner
    quads = [((0.0, 1.0), (0.0, 1.0)), ((-1.0, 0.0), (0.0, 1.0)),
             ((-1.0, 0.0), (-1.0, 0.0)), ((0.0, 1.0), (-1.0, 0.0))]
    patches = [rect_patch(2, 2, 2, x, y) for x, y in quads]
    specs = [
        InterfaceSpec(master=(0, "west"), slave=(1, "east")),
        InterfaceSpec(master=(1, "south"), slave=(2, "north")),
        InterfaceSpec(master=(2, "east"), slave=(3, "west")),
        InterfaceSpec(master=(3, "north"), slave=(0, "south")),
    ]
    with pytest.raises(ValueError, match="cyclic"):
        MultiPatchModel(patches, specs, 1)


def test_two_interface_dependency_cycle_rejected():
    # patch 1 wraps the outside of patch 0's corner (1, 1): its south side runs
    # down patch 0's east side and its west side along patch 0's north side, so
    # each master edge runs through the other interface's slave corner
    a = rect_patch(2, 2, 2)
    u, v = a.points[..., :1], a.points[..., 1:]
    c = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    b = Patch2D(a.kvs, (1 - u) * (1 - v) * c[0] + u * (1 - v) * c[1]
                + (1 - u) * v * c[2] + u * v * c[3])
    specs = [
        InterfaceSpec(master=(0, "east"), slave=(1, "south"), reversed=True),
        InterfaceSpec(master=(1, "west"), slave=(0, "north"), reversed=True),
    ]
    with pytest.raises(ValueError, match="cyclic"):
        MultiPatchModel([a, b], specs, 1)


def test_side_both_master_and_slave_rejected():
    # the second interface pairs the same two sides the other way round
    patches = [rect_patch(2, 2, 2, (float(k), k + 1.0)) for k in range(2)]
    specs = [InterfaceSpec(master=(0, "east"), slave=(1, "west")),
             InterfaceSpec(master=(1, "west"), slave=(0, "east"))]
    with pytest.raises(ValueError, match="master of one interface and slave of another"):
        MultiPatchModel(patches, specs, 1)


@pytest.mark.parametrize("end", ["master", "slave"])
@pytest.mark.parametrize("index", [5, -1])
def test_interface_patch_index_out_of_range_rejected(monkeypatch, end, index):
    # -1 would read as the last patch; the check runs before any coupling
    patches = [rect_patch(2, 2, 2, (float(k), k + 1.0)) for k in range(2)]
    good = {"master": (0, "east"), "slave": (1, "west")}
    specs = [InterfaceSpec(**good), InterfaceSpec(**{**good, end: (index, good[end][1])})]
    built = []
    monkeypatch.setattr("bezmortar.model.build_interface_coupling",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"interface .*names a patch outside 0\.\.1"):
        MultiPatchModel(patches, specs, 1)
    assert not built


def _staircase(counts, dual_refine):
    """Unit squares climbing a staircase, patch k with ``counts[k]`` elements:
    each is master on its east (k even) or north (k odd) side of the next, so
    every master edge runs through the previous interface's slave corner."""
    patches, specs, x, y = [], [], 0.0, 0.0
    for k, (n1, n2) in enumerate(counts):
        patches.append(rect_patch(2, n1, n2, (x, x + 1.0), (y, y + 1.0)))
        east = k % 2 == 0
        specs.append(InterfaceSpec(master=(k, "east" if east else "north"),
                                   slave=(k + 1, "west" if east else "south")))
        x, y = (x + 1.0, y) if east else (x, y + 1.0)
    return MultiPatchModel(patches, specs[:-1], dual_refine)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=3, max_size=9),
       st.integers(0, 2))
def test_staircase_dependency_chain(counts, dual_refine):
    model = _staircase(counts, dual_refine)
    # interface k reaches the trace dofs of interface k - 1: a chain of depth n - 2
    for k in range(1, len(model.couplings)):
        assert model._constraints[k][:, model.trace_ids[k - 1]].nnz
    ref = prolongation_by_rounds(model)
    for a in ("indptr", "indices", "data"):
        assert getattr(model.P, a).dtype == getattr(ref, a).dtype
        assert getattr(model.P, a).tobytes() == getattr(ref, a).tobytes()
    # a master edge through a slave corner takes the corner's trace dof only,
    # so the rows of P keep the partition of unity
    assert np.abs(model.P.sum(axis=1) - 1).max() < 1e-12
    mesh, weak_mesh = model.mortar_mesh(), model.weak_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(weak_mesh)
    assert spla.norm(red.K - weak.K) / spla.norm(weak.K) < 1e-12
    # patch test, held on every side off the interfaces: linear fields, or
    # constants on the unrefined dual space, which reproduces no linear field
    # across a slave coarser than its master
    u = (lambda x, y: 3 * x - 2 * y + 1) if dual_refine else (lambda x, y: 0 * x + 2.5)
    inner = {end for spec in model.interfaces for end in (spec.master, spec.slave)}
    sides = [(k, s, 0, u) for k in range(len(counts))
             for s in ("west", "east", "south", "north") if (k, s) not in inner]
    x = linear_solve(weak, dirichlet_rows(weak_mesh, 1, sides))
    assert l2_error(SolutionField(weak_mesh, x, 1), u) < 1e-10


@given(two_patch_models())
def test_generated_mortar_condenses_to_the_weak_system(model):
    # random weights, reversed interfaces and degrees 1-3 on either side
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(model.weak_mesh())
    assert abs(red.K - weak.K).max() <= 1e-12 * abs(weak.K).max()


@given(two_patch_models(unit_weights=True))
def test_generated_linear_patch_test(model):
    # a refined dual reproduces linear fields across a slave of at least the
    # master's degree; with random weights, or a slave of lower degree, the
    # linear patch test fails (ROADMAP item 4)
    assume(model.dual_refine >= 1
           and model.patches[0].degrees[0] >= model.patches[1].degrees[0])
    u = lambda x, y: 3 * x - 2 * y + 1
    inner = {end for spec in model.interfaces for end in (spec.master, spec.slave)}
    sides = [(k, s, 0, u) for k in range(2) for s in SIDES if (k, s) not in inner]
    mesh = model.weak_mesh()
    x = linear_solve(assemble_poisson(mesh), dirichlet_rows(mesh, 1, sides))
    assert l2_error(SolutionField(mesh, x, 1), u) < 1e-10


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=3, max_size=6))
def test_dual_refinement_keeps_the_dof_count(counts):
    # the refined dual functions are never dofs: n = 0, 1 and 2 give one
    # numbering, and no interface's refined space shrinks as n grows
    models = [_staircase(counts, n) for n in (0, 1, 2)]
    base = models[0]
    for model in models[1:]:
        assert model.n_retained == base.n_retained
        assert all(np.array_equal(a, b) for a, b in zip(model.grids, base.grids, strict=True))
        assert model.weak_mesh().ndof == base.weak_mesh().ndof
    for coarse, fine in zip(models, models[1:]):
        assert all(cf.space.n >= cc.space.n for cc, cf in zip(coarse.couplings, fine.couplings))


def _corner_chain_model():
    # patch 1 is slave on its west side and master on its north side; the
    # shared corner dof is substituted through the first interface
    a = rect_patch(2, 2, 2, (0.0, 1.0), (0.0, 1.0))
    b = rect_patch(2, 2, 2, (1.0, 2.0), (0.0, 1.0))
    c = rect_patch(2, 3, 2, (1.0, 2.0), (1.0, 2.0))
    specs = [
        InterfaceSpec(master=(0, "east"), slave=(1, "west")),
        InterfaceSpec(master=(1, "north"), slave=(2, "south")),
    ]
    return MultiPatchModel([a, b, c], specs, 1)


def test_master_edge_through_condensed_corner():
    model = _corner_chain_model()
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(model.weak_mesh())
    assert spla.norm(red.K - weak.K) / spla.norm(weak.K) < 1e-12
    # linear patch test through the chain
    u = lambda x, y: 3 * x - 2 * y + 1
    sides = [(0, "west"), (0, "south"), (0, "north"), (1, "south"), (1, "east"),
             (2, "east"), (2, "north"), (2, "west")]
    rows = dirichlet_rows(model.weak_mesh(), 1, [(p, s, 0, u) for p, s in sides])
    x = linear_solve(weak, rows)
    field = SolutionField(model.weak_mesh(), x, 1)
    assert l2_error(field, u) < 1e-10


def test_saddle_rejects_master_edge_through_condensed_corner():
    model = _corner_chain_model()
    system = assemble_poisson(model.mortar_mesh())
    with pytest.raises(ValueError, match="unreplaced"):
        assemble_saddle(system, model)


def test_sparsity_stays_local(side_by_side):
    model = case_model("square-mixed", 2)
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    conforming = case_model("square-mixed", 2, ratio=(3, 3), dual_refine=0)
    conf = assemble_poisson(conforming.weak_mesh())
    assert red.K.nnz <= 1.5 * conf.K.nnz


def test_reversed_interface_end_to_end():
    # slave parameterization rotated 180 degrees: still right-handed, but the
    # interface edge parameter runs opposite to the master's
    from bezmortar.splines import Patch2D

    master = rect_patch(2, 2, 2, (0.0, 0.5), (0.0, 1.0))
    slave = rect_patch(2, 3, 3, (0.5, 1.0), (0.0, 1.0))
    rot = Patch2D(slave.kvs, slave.points[::-1, ::-1].copy(),
                  slave.weights[::-1, ::-1].copy())
    model = MultiPatchModel(
        [master, rot],
        [InterfaceSpec(master=(0, "east"), slave=(1, "east"), reversed=True)], 1
    )
    mesh = model.mortar_mesh()
    red = condense(assemble_poisson(mesh), mesh)
    weak = assemble_poisson(model.weak_mesh())
    assert spla.norm(red.K - weak.K) / spla.norm(weak.K) < 1e-12
    assert model.couplings[0].row_sum_error() < 1e-10
    u = lambda x, y: 2 * x - 3 * y + 0.5
    sides = [(0, s, 0, u) for s in ("west", "south", "north")] + [
        (1, s, 0, u) for s in ("west", "south", "north")
    ]
    mesh = model.weak_mesh()
    rows = dirichlet_rows(mesh, 1, sides)
    x = linear_solve(weak, rows)
    assert l2_error(SolutionField(mesh, x, 1), u) < 1e-10
