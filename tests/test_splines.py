import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bezmortar import (
    BernsteinInterval,
    KnotVector,
    OutOfDomainError,
    Patch2D,
    bernstein_basis,
    bernstein_derivatives,
    bernstein_transform,
    bezier_extraction,
    bspline_basis,
    bspline_derivatives,
    greville_abscissae,
    knot_insert,
    refinement_operator,
    uniform_open_knots,
)
from bezmortar.benchmarks import annulus_sector_patch, rect_patch

RNG = np.random.default_rng(20240917)


# ---------------------------------------------------------------- Bernstein


def test_bernstein_endpoint_interpolation():
    iv = BernsteinInterval(0.0, 1.0, 2)
    assert np.allclose(bernstein_basis(iv, 0.0), [1, 0, 0])
    assert np.allclose(bernstein_basis(iv, 1.0), [0, 0, 1])


def test_bernstein_midpoint_quadratic():
    vals = bernstein_basis(BernsteinInterval(0.0, 1.0, 2), 0.5)
    assert np.allclose(vals, [0.25, 0.5, 0.25])


def test_bernstein_shifted_interval_midpoint():
    vals = bernstein_basis(BernsteinInterval(2.0, 4.0, 1), 3.0)
    assert np.allclose(vals, [0.5, 0.5])


def test_bernstein_partition_of_unity_and_positivity():
    for p in range(1, 5):
        iv = BernsteinInterval(-0.3, 1.7, p)
        xs = RNG.uniform(-0.3, 1.7, 40)
        vals = bernstein_basis(iv, xs)
        assert np.all(vals >= -1e-14)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-13


def test_bernstein_out_of_domain():
    with pytest.raises(OutOfDomainError):
        bernstein_basis(BernsteinInterval(0.0, 1.0, 2), 1.5)


def test_bernstein_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        BernsteinInterval(1.0, 1.0, 2)


def test_bernstein_derivatives_match_finite_differences():
    iv = BernsteinInterval(0.2, 1.9, 3)
    eps = 1e-7
    for x in (0.5, 1.2):
        d = bernstein_derivatives(iv, x, 1)
        fd = (bernstein_basis(iv, x + eps) - bernstein_basis(iv, x - eps)) / (2 * eps)
        assert np.abs(d[1] - fd).max() < 1e-6


# ------------------------------------------------------------ transformation


def test_transform_identity():
    iv = BernsteinInterval(0.0, 1.0, 3)
    assert np.allclose(bernstein_transform(iv, iv), np.eye(4), atol=1e-14)


def test_transform_first_half_quadratic():
    M = bernstein_transform(BernsteinInterval(0, 1, 2), BernsteinInterval(0, 0.5, 2))
    expected = np.array([[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.5, 0.25]])
    assert np.abs(M - expected).max() < 1e-15


def test_transform_second_half_by_sampling():
    src = BernsteinInterval(0.0, 1.0, 1)
    tgt = BernsteinInterval(0.5, 1.0, 1)
    M = bernstein_transform(src, tgt)
    for x in np.linspace(0.5, 1.0, 5):
        lhs = bernstein_basis(tgt, x)
        rhs = np.linalg.solve(M.T, bernstein_basis(src, x))
        assert np.abs(lhs - rhs).max() < 1e-13


def test_transform_pointwise_identity_random():
    for p in range(1, 5):
        src = BernsteinInterval(0.1, 1.4, p)
        tgt = BernsteinInterval(0.35, 0.9, p)
        M = bernstein_transform(src, tgt)
        xs = RNG.uniform(0.35, 0.9, 20)
        lhs = bernstein_basis(tgt, xs)
        rhs = np.linalg.solve(M.T, bernstein_basis(src, xs).T).T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_transform_degree_mismatch():
    with pytest.raises(ValueError):
        bernstein_transform(BernsteinInterval(0, 1, 2), BernsteinInterval(0, 1, 3))


# ------------------------------------------------------------------ B-spline


def test_knot_vector_invariants():
    with pytest.raises(ValueError):
        KnotVector([0, 0, 1, 0.5, 1, 1], 2)  # decreasing
    with pytest.raises(ValueError):
        KnotVector([0, 0, 0.5, 1, 1], 2)  # not open
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
    op = bezier_extraction(kv)[0]
    first, vals = bspline_basis(kv, 0.25)
    assert first == op.first
    B = bernstein_basis(op.interval, 0.25)
    assert np.abs(vals - op.matrix @ B).max() < 1e-14


def test_bspline_derivative_partition():
    kv = KnotVector([0, 0, 0, 0.3, 0.7, 1, 1, 1], 2)
    for x in (0.1, 0.5, 0.9):
        _, ders = bspline_derivatives(kv, x, 2)
        assert abs(ders[0].sum() - 1.0) < 1e-14
        assert abs(ders[1].sum()) < 1e-12


# ------------------------------------------------------------ knot insertion


def test_insert_linear_subdivision():
    kv = KnotVector([0, 0, 1, 1], 1)
    kv2, c2 = knot_insert(kv, np.array([0.0, 1.0]), 0.5)
    assert kv2.n == 3
    assert np.allclose(c2, [0.0, 0.5, 1.0])


def test_insert_outside_domain_rejected():
    kv = KnotVector([0, 0, 1, 1], 1)
    with pytest.raises(OutOfDomainError):
        knot_insert(kv, np.array([0.0, 1.0]), 1.0)


def test_insert_into_demo_interface_gives_six_functions():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    kv2, _ = knot_insert(kv, np.zeros(kv.n), 0.5)
    assert kv2.n == 6
    assert np.allclose(
        kv2.values, [0, 0, 0, 1 / 3, 0.5, 2 / 3, 1, 1, 1]
    )


def test_insert_preserves_curve_pointwise():
    for p in range(1, 5):
        vals = np.concatenate([np.zeros(p + 1), np.sort(RNG.uniform(0, 1, 3)), np.ones(p + 1)])
        kv = KnotVector(vals, p)
        coeffs = RNG.normal(size=(kv.n, 2))
        kv2, c2 = knot_insert(kv, coeffs, float(RNG.uniform(0.1, 0.9)))
        for x in RNG.uniform(0, 1, 20):
            f1, v1 = bspline_basis(kv, x)
            f2, v2 = bspline_basis(kv2, x)
            y1 = v1 @ coeffs[f1 : f1 + p + 1]
            y2 = v2 @ c2[f2 : f2 + p + 1]
            assert np.abs(y1 - y2).max() < 1e-13


# --------------------------------------------------------------- extraction


def test_single_element_extraction_is_identity():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    ops = bezier_extraction(kv)
    assert len(ops) == 1
    assert np.allclose(ops[0].matrix, np.eye(3), atol=1e-14)


def test_extraction_half_split():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    C1, C2 = (op.matrix for op in bezier_extraction(kv))
    assert np.abs(C1 - np.array([[1, 0, 0], [0, 1, 0.5], [0, 0, 0.5]])).max() < 1e-15
    assert np.abs(C2 - np.array([[0.5, 0, 0], [0.5, 1, 0], [0, 0, 1]])).max() < 1e-15


def test_demo_slave_element_operators():
    kv1 = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    mid = bezier_extraction(kv1)[1].matrix
    assert np.abs(mid - np.array([[0.5, 0, 0], [0.5, 1, 0.5], [0, 0, 0.5]])).max() < 1e-14
    kv2 = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    top = bezier_extraction(kv2)[1].matrix
    assert np.abs(top - np.array([[0.5, 0, 0], [0.5, 1, 0], [0, 0, 1]])).max() < 1e-14


def test_extraction_identity_and_column_sums():
    for p in range(1, 5):
        for _ in range(3):
            vals = np.concatenate(
                [np.zeros(p + 1), np.sort(RNG.uniform(0, 1, 4)), np.ones(p + 1)]
            )
            kv = KnotVector(vals, p)
            for op in bezier_extraction(kv):
                assert np.abs(op.matrix.sum(axis=0) - 1.0).max() < 1e-13
                a, b = op.span
                for x in RNG.uniform(a, b, 20):
                    first, v = bspline_basis(kv, x)
                    B = bernstein_basis(op.interval, x)
                    assert first == op.first
                    assert np.abs(v - op.matrix @ B).max() < 1e-12


def test_extraction_matches_refinement_operator_oracle():
    # raising every interior multiplicity to p must reproduce the element
    # operators through the global refinement matrix
    kv = KnotVector([0, 0, 0, 0.25, 0.6, 1, 1, 1], 2)
    p = kv.degree
    extra = []
    for bp in kv.breakpoints()[1:-1]:
        extra.extend([bp] * (p - kv.multiplicity(bp)))
    c0, T = refinement_operator(kv, extra)
    for e, op in enumerate(bezier_extraction(kv)):
        block = T[e * p : e * p + p + 1, op.first : op.first + p + 1]
        assert np.abs(op.matrix - block.T).max() < 1e-14


def dense_c0_extraction(kv):
    """Element operators from the dense global operator that raises every
    interior breakpoint to multiplicity p (the C0 form), one row block per
    element."""
    p = kv.degree
    extra = []
    for bp in kv.breakpoints()[1:-1]:
        extra.extend([bp] * max(p - kv.multiplicity(bp), 0))
    c0, T = refinement_operator(kv, extra)
    out = []
    for a, b in kv.spans():
        mid = 0.5 * (a + b)
        first, c0_first = kv.find_span(mid) - p, c0.find_span(mid) - p
        out.append((first, T[c0_first : c0_first + p + 1, first : first + p + 1].T))
    return out


@st.composite
def open_knot_values(draw):
    """Open knot values of degree 1-4: interior knots of multiplicity 1..p,
    some of them followed by copies of a knot 1e-13 away (at most p+1 in all)."""
    p = draw(st.integers(1, 4))
    interior = draw(st.lists(st.floats(0.02, 0.98), max_size=6, unique=True))
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
    ops = bezier_extraction(kv)
    oracle = dense_c0_extraction(kv)
    assert [op.span for op in ops] == kv.spans()
    for op, (first, block) in zip(ops, oracle, strict=True):
        assert op.first == first
        assert np.abs(op.matrix - block).max() <= 1e-14


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
        assert a.span == b.span and np.array_equal(a.matrix, b.matrix)


def row_loop_knot_insert(kv, coeffs, xi):
    """Boehm insertion of one knot, one output row at a time."""
    p, k, knots = kv.degree, kv.find_span(xi), kv.values
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


@given(open_knot_values(), st.floats(0.01, 0.99), st.sampled_from([(), (2,), (3, 2)]))
def test_knot_insert_equals_row_loop(knots, xi, trailing):
    vals, p = knots
    kv = KnotVector(vals, p)
    coeffs = np.sin(np.arange(kv.n * int(np.prod(trailing))) + 1.0).reshape((kv.n,) + trailing)
    fine, out = knot_insert(kv, coeffs, xi)
    assert np.array_equal(out, row_loop_knot_insert(kv, coeffs, xi))
    assert np.array_equal(fine.values, np.sort(np.append(kv.values, xi)))


def test_extraction_is_built_once_and_read_only():
    kv = KnotVector([0, 0, 0, 0.25, 0.6, 1, 1, 1], 2)
    ops = bezier_extraction(kv)
    assert bezier_extraction(kv) is ops
    with pytest.raises(ValueError):
        ops[0].matrix[0, 0] = 2.0
    # an equal but distinct knot vector builds its own
    assert bezier_extraction(KnotVector(kv.values.copy(), 2)) is not ops


def test_refinement_operator_without_knots_keeps_the_knot_vector():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    fine, T = refinement_operator(kv, [])
    assert fine is kv and np.array_equal(T, np.eye(kv.n))
    with pytest.raises(OutOfDomainError):
        refinement_operator(kv, [0.25, 1.0])


# --------------------------------------------------------------------- NURBS


def test_nurbs_reduces_to_bspline_for_unit_weights():
    patch = rect_patch(2, 2, 2)
    _, _, _, vals, _ = patch.eval(0.3, 0.6)
    f1, b1 = bspline_basis(patch.kvs[0], 0.3)
    f2, b2 = bspline_basis(patch.kvs[1], 0.6)
    assert np.abs(vals - np.outer(b1, b2)).max() < 1e-14


def test_quarter_arc_lies_on_circle():
    # 90-degree arc as two 45-degree exact sectors, evaluated on the hole edge
    patch = annulus_sector_patch(0.0, np.pi / 4, 1.0, 2.0, 2, 2)
    for t in np.linspace(0, 1, 50):
        x = patch.eval(0.0, t)[0]
        assert abs(np.linalg.norm(x) - 1.0) < 1e-13


def test_rational_partition_of_unity_on_annulus():
    patch = annulus_sector_patch(np.pi / 2, 3 * np.pi / 4, 0.4, 4.0, 3, 3)
    for _ in range(100):
        x1, x2 = RNG.uniform(0, 1, 2)
        vals = patch.eval(x1, x2)[3]
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


def max_diagonal_per_element(patch):
    """Largest element diagonal, four pointwise evaluations per element."""
    h = 0.0
    for a1, b1 in patch.kvs[0].spans():
        for a2, b2 in patch.kvs[1].spans():
            c0 = patch.eval(a1, a2)[0]
            c1 = patch.eval(b1, b2)[0]
            c2 = patch.eval(a1, b2)[0]
            c3 = patch.eval(b1, a2)[0]
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


def test_boundary_curve_rejects_nan_weight():
    from bezmortar.splines import BoundaryCurve

    with pytest.raises(ValueError, match="strictly positive"):
        BoundaryCurve(uniform_open_knots(2, 2), np.zeros((4, 2)), [1.0, np.nan, 1.0, 1.0])


def test_greville_linear_reproduction():
    kv = uniform_open_knots(3, 4)
    g = greville_abscissae(kv)
    for x in RNG.uniform(0, 1, 10):
        first, vals = bspline_basis(kv, x)
        assert abs(vals @ g[first : first + 4] - x) < 1e-13
