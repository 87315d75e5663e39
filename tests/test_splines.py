from itertools import pairwise

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bezmortar import (
    KnotVector,
    OutOfDomainError,
    Patch2D,
    bernstein_derivatives,
    bernstein_transform,
    bezier_extraction,
    greville_abscissae,
    refinement_operator,
    uniform_open_knots,
)
from bezmortar.benchmarks import annulus_sector_patch, rect_patch
from bezmortar.splines import (
    BoundaryCurve,
    MeshFormatError,
    _bernstein_unit,
    _element_tables,
    bspline_table,
    rational_table,
    side_index,
)
from reference import bspline_basis, bspline_derivatives, find_span, patch_eval

RNG = np.random.default_rng(20240917)


def bernstein_on(p, lo, hi, x):
    """Degree-p Bernstein values on [lo, hi]: the unit basis at (x - lo) / (hi - lo)."""
    return bernstein_derivatives(p, (np.asarray(x, dtype=float) - lo) / (hi - lo), 0)[0]


def transform_between(p, src, tgt):
    """Transformation matrix from the Bernstein basis on ``src`` to that on ``tgt``."""
    (lo, hi), (a, b) = src, tgt
    return bernstein_transform(p, np.array([(a - lo) / (hi - lo)]),
                               np.array([(b - lo) / (hi - lo)]))[0]


# ---------------------------------------------------------------- Bernstein


def test_bernstein_endpoint_interpolation():
    assert np.allclose(bernstein_derivatives(2, 0.0, 0)[0], [1, 0, 0])
    assert np.allclose(bernstein_derivatives(2, 1.0, 0)[0], [0, 0, 1])


def test_bernstein_midpoint_quadratic():
    vals = bernstein_derivatives(2, 0.5, 0)[0]
    assert np.allclose(vals, [0.25, 0.5, 0.25])


def test_bernstein_shifted_interval_midpoint():
    vals = bernstein_on(1, 2.0, 4.0, 3.0)
    assert np.allclose(vals, [0.5, 0.5])


def test_bernstein_partition_of_unity_and_positivity():
    for p in range(1, 5):
        xs = RNG.uniform(-0.3, 1.7, 40)
        vals = bernstein_on(p, -0.3, 1.7, xs)
        assert np.all(vals >= -1e-14)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-13


def test_bernstein_out_of_domain():
    with pytest.raises(OutOfDomainError):
        bspline_table(KnotVector([0, 0, 0, 1, 1, 1], 2), np.array([1.5]))


def test_bernstein_derivatives_match_finite_differences():
    eps = 1e-7
    for x in (0.5, 1.2):
        d = bernstein_derivatives(3, (x - 0.2) / 1.7, 1) / np.array([[1.0], [1.7]])
        fd = (bernstein_on(3, 0.2, 1.9, x + eps) - bernstein_on(3, 0.2, 1.9, x - eps)) / (2 * eps)
        assert np.abs(d[1] - fd).max() < 1e-6


# ------------------------------------------------------------ transformation


def test_transform_identity():
    assert np.allclose(transform_between(3, (0.0, 1.0), (0.0, 1.0)), np.eye(4), atol=1e-14)


def test_transform_first_half_quadratic():
    M = transform_between(2, (0, 1), (0, 0.5))
    expected = np.array([[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.5, 0.25]])
    assert np.abs(M - expected).max() < 1e-15


def test_transform_second_half_by_sampling():
    M = transform_between(1, (0.0, 1.0), (0.5, 1.0))
    for x in np.linspace(0.5, 1.0, 5):
        lhs = bernstein_on(1, 0.5, 1.0, x)
        rhs = np.linalg.solve(M.T, bernstein_on(1, 0.0, 1.0, x))
        assert np.abs(lhs - rhs).max() < 1e-13


def test_transform_pointwise_identity_random():
    for p in range(1, 5):
        M = transform_between(p, (0.1, 1.4), (0.35, 0.9))
        xs = RNG.uniform(0.35, 0.9, 20)
        lhs = bernstein_on(p, 0.35, 0.9, xs)
        rhs = np.linalg.solve(M.T, bernstein_on(p, 0.1, 1.4, xs).T).T
        assert np.abs(lhs - rhs).max() < 1e-12


def _transform_entries(p, a, b):
    """One transform's product sums written out entry by entry, in Python."""
    M = np.zeros((p + 1, p + 1))
    for j in range(1, p + 2):
        Bj = _bernstein_unit(j - 1, np.array([b]))[0]
        Bp = _bernstein_unit(p - j + 1, np.array([a]))[0]
        for k in range(1, p + 2):
            M[j - 1, k - 1] = sum(Bj[l - 1] * Bp[k - l]
                                  for l in range(max(1, j + k - p - 1), min(j, k) + 1))
    return M


def test_subdivision_rows_equal_single_transforms_bitwise():
    rng = np.random.default_rng(11)
    for p in range(6):
        a = rng.uniform(-0.5, 1.0, 40)
        b = a + rng.uniform(1e-6, 1.0, 40)
        M = bernstein_transform(p, a, b)
        assert M.shape == (40, p + 1, p + 1)
        for k in range(40):
            one = bernstein_transform(p, a[k : k + 1], b[k : k + 1])[0]
            assert M[k].tobytes() == one.tobytes()
            assert M[k].tobytes() == _transform_entries(p, a[k], b[k]).tobytes()


# ------------------------------------------------------------------ B-spline


def test_knot_vector_invariants():
    with pytest.raises(ValueError, match="non-decreasing"):
        KnotVector([0, 0, 1, 0.5, 1, 1], 2)
    with pytest.raises(ValueError, match="too few knots"):
        KnotVector([0, 0, 0.5, 1, 1], 2)
    with pytest.raises(ValueError, match="not open"):
        KnotVector([0, 0.5, 0.5, 1, 1, 1], 2)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        KnotVector([0, 0, 1, 1], 0)
    # all knots equal, an end knot p+2 times and an interior knot p+2 times
    for knots in ([0] * 6, [0, 0, 0, 0, 0.5, 1, 1, 1], [0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1]):
        with pytest.raises(MeshFormatError, match="not open") as err:
            KnotVector(knots, 2)
        assert err.value.code == "knots-not-open"
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    assert kv.n == 4
    assert kv.domain == (0.0, 1.0)


def test_linear_hat_functions():
    kv = KnotVector([0, 0, 1, 1], 1)
    first, vals = bspline_basis(kv, 0.5)
    assert first == 0
    assert np.allclose(vals, [0.5, 0.5])


def test_open_knot_endpoint():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    first, vals = bspline_basis(kv, 0.0)
    assert first == 0 and np.allclose(vals, [1, 0, 0])
    first, vals = bspline_basis(kv, 1.0)
    assert np.allclose(vals, [0, 0, 1])


def test_bspline_out_of_domain():
    kv = KnotVector([0, 0, 1, 1], 1)
    with pytest.raises(OutOfDomainError):
        bspline_basis(kv, 1.2)


def test_bspline_matches_extraction_on_element():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    bp, firsts, C = bezier_extraction(kv)
    first, vals = bspline_basis(kv, 0.25)
    assert first == firsts[0]
    B = bernstein_on(2, bp[0], bp[1], 0.25)
    assert np.abs(vals - C[0] @ B).max() < 1e-14


def test_bspline_derivative_partition():
    kv = KnotVector([0, 0, 0, 0.3, 0.7, 1, 1, 1], 2)
    for x in (0.1, 0.5, 0.9):
        _, ders = bspline_derivatives(kv, x, 2)
        assert abs(ders[0].sum() - 1.0) < 1e-14
        assert abs(ders[1].sum()) < 1e-12


# ------------------------------------------------------------ knot insertion


def test_insert_linear_subdivision():
    kv = KnotVector([0, 0, 1, 1], 1)
    kv2, T = refinement_operator(kv, [0.5])
    assert kv2.n == 3
    assert np.allclose(T @ np.array([0.0, 1.0]), [0.0, 0.5, 1.0])


def test_insert_outside_domain_rejected():
    kv = KnotVector([0, 0, 1, 1], 1)
    with pytest.raises(OutOfDomainError):
        refinement_operator(kv, [1.0])


def test_insert_into_demo_interface_gives_six_functions():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    kv2, _ = refinement_operator(kv, [0.5])
    assert kv2.n == 6
    assert np.allclose(
        kv2.values, [0, 0, 0, 1 / 3, 0.5, 2 / 3, 1, 1, 1]
    )


def test_insert_preserves_curve_pointwise():
    for p in range(1, 5):
        vals = np.concatenate([np.zeros(p + 1), np.sort(RNG.uniform(0, 1, 3)), np.ones(p + 1)])
        kv = KnotVector(vals, p)
        coeffs = RNG.normal(size=(kv.n, 2))
        kv2, T = refinement_operator(kv, [float(RNG.uniform(0.1, 0.9))])
        c2 = T @ coeffs
        for x in RNG.uniform(0, 1, 20):
            f1, v1 = bspline_basis(kv, x)
            f2, v2 = bspline_basis(kv2, x)
            y1 = v1 @ coeffs[f1 : f1 + p + 1]
            y2 = v2 @ c2[f2 : f2 + p + 1]
            assert np.abs(y1 - y2).max() < 1e-13


# --------------------------------------------------------------- extraction


def test_single_element_extraction_is_identity():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    bp, first, C = bezier_extraction(kv)
    assert bp.shape == (2,) and first.shape == (1,) and C.shape == (1, 3, 3)
    assert np.allclose(C[0], np.eye(3), atol=1e-14)


def test_extraction_half_split():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    C1, C2 = bezier_extraction(kv)[2]
    assert np.abs(C1 - np.array([[1, 0, 0], [0, 1, 0.5], [0, 0, 0.5]])).max() < 1e-15
    assert np.abs(C2 - np.array([[0.5, 0, 0], [0.5, 1, 0], [0, 0, 1]])).max() < 1e-15


def test_demo_slave_element_operators():
    kv1 = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    mid = bezier_extraction(kv1)[2][1]
    assert np.abs(mid - np.array([[0.5, 0, 0], [0.5, 1, 0.5], [0, 0, 0.5]])).max() < 1e-14
    kv2 = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    top = bezier_extraction(kv2)[2][1]
    assert np.abs(top - np.array([[0.5, 0, 0], [0.5, 1, 0], [0, 0, 1]])).max() < 1e-14


def test_extraction_identity_and_column_sums():
    for p in range(1, 5):
        for _ in range(3):
            vals = np.concatenate(
                [np.zeros(p + 1), np.sort(RNG.uniform(0, 1, 4)), np.ones(p + 1)]
            )
            kv = KnotVector(vals, p)
            bp, firsts, C = bezier_extraction(kv)
            for a, b, f, Ce in zip(bp[:-1], bp[1:], firsts, C, strict=True):
                assert np.abs(Ce.sum(axis=0) - 1.0).max() < 1e-13
                for x in RNG.uniform(a, b, 20):
                    first, v = bspline_basis(kv, x)
                    B = bernstein_on(p, a, b, x)
                    assert first == f
                    assert np.abs(v - Ce @ B).max() < 1e-12


def test_extraction_matches_refinement_operator_oracle():
    # raising every interior multiplicity to p must reproduce the element
    # operators through the global refinement matrix
    kv = KnotVector([0, 0, 0, 0.25, 0.6, 1, 1, 1], 2)
    p = kv.degree
    knots, mult = np.unique(kv.values, return_counts=True)
    c0, T = refinement_operator(kv, np.repeat(knots[1:-1], p - mult[1:-1]))
    _, firsts, C = bezier_extraction(kv)
    for e, (f, Ce) in enumerate(zip(firsts, C)):
        block = T[e * p : e * p + p + 1, f : f + p + 1]
        assert np.abs(Ce - block.T).max() < 1e-14


def dense_c0_extraction(kv):
    """Element operators from the dense global operator that raises every
    interior breakpoint to multiplicity p (the C0 form), one row block per
    element."""
    p = kv.degree
    knots, mult = np.unique(kv.values, return_counts=True)
    c0, T = kv, np.eye(kv.n)
    for xi in np.repeat(knots[1:-1], np.maximum(p - mult[1:-1], 0)):
        T = row_loop_knot_insert(c0, T, xi)
        c0 = KnotVector(np.sort(np.append(c0.values, xi)), p)
    out = []
    for a, b in pairwise(kv.breakpoints()):
        mid = 0.5 * (a + b)
        first, c0_first = find_span(kv, mid) - p, find_span(c0, mid) - p
        out.append((first, T[c0_first : c0_first + p + 1, first : first + p + 1].T))
    return out


@st.composite
def open_knot_values(draw):
    """Open knot values of degree 1-4: interior knots of multiplicity 1..p,
    some of them followed by copies of a knot 1e-13 away (at most p+1 in all)."""
    p = draw(st.integers(1, 4))
    drawn = sorted(draw(st.lists(st.floats(0.02, 0.98), max_size=6, unique=True)))
    # a value within KNOT_TOL of another would be another copy of its knot
    interior = [x for x, prev in zip(drawn, [-1.0] + drawn) if x - prev > 1e-11]
    vals = []
    for x in interior:
        m = draw(st.integers(1, p))
        vals += [x] * m
        if draw(st.booleans()):
            vals += [x + 1e-13] * draw(st.integers(1, p + 1 - m))
    return np.concatenate([np.zeros(p + 1), np.sort(vals), np.ones(p + 1)]), p


@given(open_knot_values())
def test_extraction_equals_dense_c0_insertion(knots):
    vals, p = knots
    kv = KnotVector(vals, p)
    bp, firsts, C = bezier_extraction(kv)
    oracle = dense_c0_extraction(kv)
    assert np.array_equal(bp, kv.breakpoints())
    for f, Ce, (first, block) in zip(firsts, C, oracle, strict=True):
        assert f == first
        assert np.abs(Ce - block).max() <= 1e-14


@given(open_knot_values())
def test_knots_within_tolerance_are_one_knot(knots):
    vals, p = knots
    snapped = vals.copy()
    for i in range(1, len(vals)):
        if vals[i] - snapped[i - 1] <= 1e-12:
            snapped[i] = snapped[i - 1]
    kv, merged = KnotVector(vals, p), KnotVector(snapped, p)
    assert np.array_equal(kv.values, merged.values)
    for a, b in zip(bezier_extraction(kv), bezier_extraction(merged), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def row_loop_knot_insert(kv, coeffs, xi):
    """Boehm insertion of one knot, one output row at a time."""
    p, k, knots = kv.degree, find_span(kv, xi), kv.values
    out = np.empty((kv.n + 1,) + coeffs.shape[1:])
    for i in range(kv.n + 1):
        if i <= k - p:
            out[i] = coeffs[i]
        elif i >= k + 1:
            out[i] = coeffs[i - 1]
        else:
            alpha = (xi - knots[i]) / (knots[i + p] - knots[i])
            out[i] = alpha * coeffs[i] + (1.0 - alpha) * coeffs[i - 1]
    return out


@st.composite
def insertions(draw):
    """An open knot vector and 1-5 knots to insert into it: new values, some of
    them repeated, and copies of its own interior knots, each knot at most
    p+1 times in the refined vector."""
    vals, p = draw(open_knot_values())
    kv = KnotVector(vals, p)
    drawn = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5, unique=True)))
    # a new value within KNOT_TOL of a knot would be another copy of it
    old = kv.values
    new = [x for x, prev in zip(drawn, [-1.0] + drawn) if x - prev > 1e-11
           and np.abs(old - x).min() > 1e-11]
    knots, mult = np.unique(np.concatenate([old[p + 1 : -p - 1], new]), return_counts=True)
    room = p + 1 - mult + np.isin(knots, new)  # a new value is not in kv yet
    xs = [x for x, r in zip(knots, room)
          for _ in range(draw(st.integers(int(x in new), min(r, 2))))]
    assume(xs)
    return kv, draw(st.permutations(xs[:5]))


@given(insertions(), st.sampled_from([(), (2,), (3, 2)]))
def test_refinement_operator_equals_row_loop(insert, trailing):
    # all knots at once through the band against one Boehm row loop per knot
    kv, xs = insert
    coeffs = np.sin(np.arange(kv.n * int(np.prod(trailing))) + 1.0).reshape((kv.n,) + trailing)
    fine, T = refinement_operator(kv, xs)
    step, oracle = kv, coeffs
    for xi in sorted(xs):
        oracle = row_loop_knot_insert(step, oracle, xi)
        step = KnotVector(np.sort(np.append(step.values, xi)), kv.degree)
    assert np.array_equal(fine.values, step.values)
    assert np.abs(np.tensordot(T, coeffs, axes=1) - oracle).max() <= 1e-14


def test_extraction_is_built_once_and_read_only():
    kv = KnotVector([0, 0, 0, 0.25, 0.6, 1, 1, 1], 2)
    tables = bezier_extraction(kv)
    assert bezier_extraction(kv) is tables and _element_tables(kv) is tables
    for t in tables:
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 2
    # an equal but distinct knot vector builds its own
    assert bezier_extraction(KnotVector(kv.values.copy(), 2)) is not tables


def test_refinement_operator_without_knots_keeps_the_knot_vector():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    fine, T = refinement_operator(kv, [])
    assert fine is kv and np.array_equal(T, np.eye(kv.n))
    with pytest.raises(OutOfDomainError):
        refinement_operator(kv, [0.25, 1.0])


# --------------------------------------------------------------------- NURBS


def test_nurbs_reduces_to_bspline_for_unit_weights():
    patch = rect_patch(2, 2, 2)
    _, _, _, vals, _ = patch_eval(patch, 0.3, 0.6)
    f1, b1 = bspline_basis(patch.kvs[0], 0.3)
    f2, b2 = bspline_basis(patch.kvs[1], 0.6)
    assert np.abs(vals - np.outer(b1, b2)).max() < 1e-14


def test_quarter_arc_lies_on_circle():
    # 90-degree arc as two 45-degree exact sectors, evaluated on the hole edge
    patch = annulus_sector_patch(0.0, np.pi / 4, 1.0, 2.0, 2, 2)
    for t in np.linspace(0, 1, 50):
        x = patch_eval(patch, 0.0, t)[0]
        assert abs(np.linalg.norm(x) - 1.0) < 1e-13


def test_rational_partition_of_unity_on_annulus():
    patch = annulus_sector_patch(np.pi / 2, 3 * np.pi / 4, 0.4, 4.0, 3, 3)
    for _ in range(100):
        x1, x2 = RNG.uniform(0, 1, 2)
        vals = patch_eval(patch, x1, x2)[3]
        assert abs(vals.sum() - 1.0) < 1e-13


def test_patch_invariants():
    kv = uniform_open_knots(2, 2)
    pts = np.zeros((4, 4, 2))
    with pytest.raises(ValueError):
        Patch2D((kv, kv), pts[:3])  # wrong net shape
    w = np.ones((4, 4))
    w[1, 1] = -1.0
    with pytest.raises(ValueError):
        Patch2D((kv, kv), pts, w)


@given(open_knot_values(), open_knot_values(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_refined_uniform_equals_successive_bisections(knots1, knots2, levels, seed):
    kvs = [KnotVector(vals, p) for vals, p in (knots1, knots2)]
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (kvs[0].n, kvs[1].n, 2))
    patch = Patch2D(kvs, points, rng.uniform(0.5, 2.0, points.shape[:2]))
    step = patch
    for _ in range(levels):
        bp1, bp2 = (kv.breakpoints() for kv in step.kvs)
        step = step.refined(0.5 * (bp1[:-1] + bp1[1:]), 0.5 * (bp2[:-1] + bp2[1:]))
    fine = patch.refined_uniform(levels)
    for a, b in zip(fine.kvs, step.kvs, strict=True):
        assert np.array_equal(a.values, b.values)
    assert np.abs(fine.points - step.points).max() <= 1e-14
    assert np.abs(fine.weights - step.weights).max() <= 1e-14


def max_diagonal_per_element(patch):
    """Largest element diagonal, four pointwise evaluations per element."""
    h = 0.0
    for a1, b1 in pairwise(patch.kvs[0].breakpoints()):
        for a2, b2 in pairwise(patch.kvs[1].breakpoints()):
            c0 = patch_eval(patch, a1, a2)[0]
            c1 = patch_eval(patch, b1, b2)[0]
            c2 = patch_eval(patch, a1, b2)[0]
            c3 = patch_eval(patch, b1, a2)[0]
            h = max(h, float(np.linalg.norm(c1 - c0)), float(np.linalg.norm(c3 - c2)))
    return h


@given(open_knot_values(), open_knot_values(), st.integers(0, 2**32 - 1))
def test_max_element_diameter_equals_element_loop(knots1, knots2, seed):
    kvs = [KnotVector(vals, p) for vals, p in (knots1, knots2)]
    rng = np.random.default_rng(seed)
    g1, g2 = (greville_abscissae(kv) for kv in kvs)
    points = np.stack(np.meshgrid(g1, 2.0 * g2, indexing="ij"), axis=-1)
    points += 0.05 * rng.uniform(-1.0, 1.0, points.shape)
    patch = Patch2D(kvs, points, rng.uniform(0.3, 3.0, points.shape[:2]))
    ref = max_diagonal_per_element(patch)
    assert abs(patch.max_element_diameter() - ref) <= 1e-14 * ref


@pytest.mark.parametrize("knots", [[0, 0, np.nan, 1, 1], [0, 0, 0.5, 1, np.inf],
                                   [-np.inf, -np.inf, 0, 1, 1], [np.nan] * 4])
def test_knot_vector_rejects_non_finite_knots(knots):
    # NaN passes the non-decreasing check, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        KnotVector(knots, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_patch_rejects_non_finite_control_points(bad):
    kv = uniform_open_knots(2, 2)
    pts = np.zeros((4, 4, 2))
    pts[2, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Patch2D((kv, kv), pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_patch_rejects_non_finite_weights(bad):
    kv = uniform_open_knots(2, 2)
    w = np.ones((4, 4))
    w[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Patch2D((kv, kv), np.zeros((4, 4, 2)), w)


@pytest.mark.parametrize("call, message", [
    (lambda kv: BoundaryCurve(kv, np.zeros((3, 2)), np.ones(3)), "does not match basis size"),
    (lambda kv: BoundaryCurve(kv, np.zeros((4, 2)), np.ones(4)).derivatives(0.5, 3),
     "up to second order"),
    (lambda kv: side_index("up"), "side must be one of"),
    (lambda kv: Patch2D((kv, kv), np.zeros((4, 4, 2)), np.ones((4, 5))), "weight net shape"),
    (lambda kv: Patch2D((kv, kv), np.zeros((4, 4, 2))).refined_uniform(-1), "non-negative"),
], ids=["curve-too-few-points", "third-derivative", "unknown-side", "weight-net-shape",
        "negative-refinement"])
def test_curve_and_patch_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(uniform_open_knots(2, 2))


def test_boundary_curve_rejects_nan_weight():
    with pytest.raises(ValueError, match="strictly positive"):
        BoundaryCurve(uniform_open_knots(2, 2), np.zeros((4, 2)), [1.0, np.nan, 1.0, 1.0])


def test_greville_linear_reproduction():
    kv = uniform_open_knots(3, 4)
    g = greville_abscissae(kv)
    for x in RNG.uniform(0, 1, 10):
        first, vals = bspline_basis(kv, x)
        assert abs(vals @ g[first : first + 4] - x) < 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_out_of_domain(bad):
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    curve = BoundaryCurve(kv, np.column_stack([np.arange(4.0), np.zeros(4)]), np.ones(4))
    calls = [lambda: bspline_table(kv, np.array([0.2, bad])),
             lambda: rational_table(kv, np.ones(kv.n), np.array([0.2, bad])),
             lambda: curve.point(bad), lambda: curve.derivatives(np.array([bad, 0.3]), 2),
             lambda: find_span(kv, bad), lambda: bspline_basis(kv, bad),
             lambda: bspline_derivatives(kv, bad)]
    for call in calls:
        with pytest.raises(OutOfDomainError):
            call()
