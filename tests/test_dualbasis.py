from itertools import pairwise
from unittest import mock

import numpy as np
import pytest

from bezmortar import (
    KnotVector,
    bernstein_gramian,
    dual_extraction,
    projection_weights,
    reconstruction_operator,
)
from bezmortar import splines
from bezmortar.splines import bernstein_derivatives, bezier_extraction, gauss_on_breaks
from reference import bspline_basis

RNG = np.random.default_rng(7130)


def assembled_gram(dual, kv, weights=None):
    """Gauss-quadrature oracle for int dual_I * basis_J over the interface.

    The (possibly rational) basis is reconstructed point by point from the
    Cox-de Boor recursion, independent of the element-wise dual storage.
    """
    p = kv.degree
    G = np.zeros((dual.n, kv.n))
    for a, b in pairwise(kv.breakpoints()):
        xs, ws = gauss_on_breaks((a, b), p + 3)
        index, dv = dual.evaluate(xs)
        fd = index[0, 0]
        for x, w, row in zip(xs, ws, dv):
            fs, N = bspline_basis(kv, float(x))
            if weights is not None:
                N = N / (N @ weights[fs : fs + p + 1])
            G[fd : fd + p + 1, fs : fs + p + 1] += w * np.outer(row, N)
    return G


def random_kv(p, n_interior=3, rng=None, min_gap=0.05):
    """Random open knot vector with a sane minimum knot separation."""
    rng = rng or RNG
    while True:
        interior = np.sort(rng.uniform(0.08, 0.92, n_interior))
        if np.diff(np.concatenate([[0.0], interior, [1.0]])).min() >= min_gap:
            break
    return KnotVector(
        np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p
    )


# ------------------------------------------------------------------ Gramian


def test_gramian_linear():
    G = bernstein_gramian(1)
    assert np.abs(G - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])).max() < 1e-15


def test_gramian_quadratic():
    G = bernstein_gramian(2)
    expected = np.array(
        [[1 / 5, 1 / 10, 1 / 30], [1 / 10, 2 / 15, 1 / 10], [1 / 30, 1 / 10, 1 / 5]]
    )
    assert np.abs(G - expected).max() < 1e-15


def interval_gramian(p, lo, hi, n):
    """int B_i B_j over [lo, hi] by an n-point Gauss rule, B the Bernstein basis there."""
    G = np.zeros((p + 1, p + 1))
    xs, ws = gauss_on_breaks((lo, hi), n)
    for x, w in zip(xs, ws):
        B = bernstein_derivatives(p, (x - lo) / (hi - lo), 0)[0]
        G += w * np.outer(B, B)
    return G


def test_gramian_scales_with_length():
    G2 = interval_gramian(2, 0.0, 2.0, 3)
    assert np.abs(G2 - 2 * bernstein_gramian(2)).max() < 1e-15


def test_gramian_matches_quadrature():
    G = interval_gramian(3, 0.3, 1.1, 6)
    assert np.abs(G - 0.8 * bernstein_gramian(3)).max() < 1e-14


def test_gramian_spd():
    for p in range(1, 5):
        G = bernstein_gramian(p)
        assert np.linalg.eigvalsh(G).min() > 0


# ----------------------------------------------------------- reconstruction


def test_reconstruction_identity():
    assert np.allclose(reconstruction_operator(np.eye(3)), np.eye(3))


def test_reconstruction_inverts_extraction():
    kv = KnotVector([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], 2)
    C = bezier_extraction(kv)[2]
    for Ce, R in zip(C, reconstruction_operator(C), strict=True):
        assert np.abs(Ce @ reconstruction_operator(Ce) - np.eye(3)).max() < 1e-13
        assert np.array_equal(R, reconstruction_operator(Ce))


def test_reconstruction_refined_subelement():
    kv = KnotVector([0, 0, 0, 1 / 3, 0.5, 2 / 3, 1, 1, 1], 2)
    C = bezier_extraction(kv)[2][1]  # element [1/3, 1/2]
    assert np.abs(C - np.array([[1 / 3, 0, 0], [2 / 3, 1, 0.5], [0, 0, 0.5]])).max() < 1e-14
    assert np.abs(C @ reconstruction_operator(C) - np.eye(3)).max() < 1e-13


def test_reconstruction_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        reconstruction_operator(np.zeros((3, 3)))
    # LAPACK inverts a NaN matrix without complaint
    with pytest.raises(ValueError, match="singular"):
        reconstruction_operator(np.diag([1.0, np.nan, 1.0]))


# ---------------------------------------------------------------- weights


def test_weights_single_element():
    w = projection_weights(KnotVector([0, 0, 0, 1, 1, 1], 2))
    assert np.allclose(w[0], [1, 1, 1])


def test_weights_half_split_from_integral_ratios():
    # element integrals of N2 on [0,0,0,1/2,1,1,1] are 1/4 and 1/12, so the
    # projection weights are 3/4 and 1/4
    w = projection_weights(KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2))
    assert np.allclose(w[0], [1.0, 0.75, 0.25])
    assert np.allclose(w[1], [0.25, 0.75, 1.0])


def test_weights_quadrature_oracle_and_partition():
    kv = KnotVector([0, 0, 0, 1 / 3, 1, 1, 1], 2)
    bp, firsts, _ = bezier_extraction(kv)
    ints = np.zeros((len(firsts), kv.n))
    for e, (a, b) in enumerate(zip(bp[:-1], bp[1:])):
        xs, ws = gauss_on_breaks((a, b), 4)
        for x, w in zip(xs, ws):
            first, N = bspline_basis(kv, float(x))
            ints[e, first : first + 3] += w * N
    total = ints.sum(axis=0)
    weights = projection_weights(kv)
    for e, f in enumerate(firsts):
        sl = slice(f, f + 3)
        assert np.abs(weights[e] - ints[e, sl] / total[sl]).max() < 1e-13
    # partition per global function
    acc = np.zeros(kv.n)
    for e, f in enumerate(firsts):
        acc[f : f + 3] += weights[e]
    assert np.abs(acc - 1.0).max() < 1e-13
    assert all(np.all(w >= -1e-14) for w in weights)


# -------------------------------------------------------------- dual basis


def test_single_linear_element_dual():
    dual = dual_extraction(KnotVector([0, 0, 1, 1], 1), np.ones(2))
    assert np.abs(dual.matrices[0] - np.array([[4, -2], [-2, 4]])).max() < 1e-13


def test_elementwise_product_is_weight_diagonal():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    dual = dual_extraction(kv, np.ones(kv.n))
    bp = bezier_extraction(kv)[0]
    for w_e, a, b in zip(projection_weights(kv), bp[:-1], bp[1:], strict=True):
        xs, ws = gauss_on_breaks((a, b), 4)
        M = np.zeros((3, 3))
        for x, w in zip(xs, ws):
            _, dv = dual.evaluate(np.array([x]))
            _, N = bspline_basis(kv, float(x))
            M += w * np.outer(dv[0], N)
        assert np.abs(M - np.diag(w_e)).max() < 1e-12


def test_biorthogonality_random_knots():
    for p in range(1, 5):
        for seed in range(10):
            rng = np.random.default_rng(100 * p + seed)
            kv = random_kv(p, rng=rng)
            dual = dual_extraction(kv, np.ones(kv.n))
            G = assembled_gram(dual, kv)
            assert np.abs(G - np.eye(kv.n)).max() < 1e-11


def test_constant_reproduction():
    kv = random_kv(3)
    dual = dual_extraction(kv, np.ones(kv.n))
    G = assembled_gram(dual, kv)
    # integral of each dual function = row sum against partition of unity
    assert np.abs(G.sum(axis=1) - 1.0).max() < 1e-11


# ---------------------------------------------------------------- rational


def test_rational_dual_unit_weights_unchanged():
    # unit weights leave the element operators' values: the parametric dual
    kv = random_kv(2)
    dual = dual_extraction(kv, np.ones(kv.n))
    xs = np.array([0.03, 0.04])
    index, values = dual.evaluate(xs)
    first = bezier_extraction(kv)[1][0]
    B = bernstein_derivatives(2, xs / kv.breakpoints()[1], 0)[0]
    assert np.array_equal(index, first + np.tile(np.arange(3), (2, 1)))
    assert np.abs(values - B @ dual.matrices[0].T).max() < 1e-14


def test_dual_values_and_weights_share_one_bernstein_table():
    kv = KnotVector([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3)
    dual = dual_extraction(kv, np.linspace(0.5, 2.0, kv.n))
    with mock.patch.object(splines, "bernstein_derivatives",
                           wraps=splines.bernstein_derivatives) as tables:
        dual.evaluate(np.linspace(0.0, 1.0, 7))
    assert tables.call_count == 1


def test_rational_dual_quarter_arc_weights():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, np.sqrt(2) / 2, 1.0])
    rat = dual_extraction(kv, w)
    G = assembled_gram(rat, kv, weights=w)
    assert np.abs(G - np.eye(3)).max() < 1e-11


def test_rational_dual_random_weights():
    for p in (1, 2, 3, 4):
        kv = random_kv(p)
        w = RNG.uniform(0.4, 2.5, kv.n)
        rat = dual_extraction(kv, w)
        G = assembled_gram(rat, kv, weights=w)
        assert np.abs(G - np.eye(kv.n)).max() < 1e-11


def test_rational_dual_owns_its_weights():
    # a later write to the caller's array reaches neither the basis nor its values
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    w = np.ones(kv.n)
    rat = dual_extraction(kv, w)
    index, values = rat.evaluate(np.array([0.4]))
    w[2] = 3.0
    assert w.flags.writeable and not rat.weights.flags.writeable
    assert np.array_equal(rat.weights, np.ones(kv.n))
    after = rat.evaluate(np.array([0.4]))
    assert np.array_equal(after[0], index) and np.array_equal(after[1], values)


def test_rational_dual_rejects_bad_weights():
    kv = random_kv(2)
    with pytest.raises(ValueError, match="strictly positive"):
        dual_extraction(kv, np.zeros(kv.n))
    with pytest.raises(ValueError, match="weight count does not match"):
        dual_extraction(kv, np.ones(kv.n + 1))


def test_rational_dual_rejects_nan_weight():
    kv = random_kv(2)
    w = np.ones(kv.n)
    w[1] = np.nan
    with pytest.raises(ValueError, match="strictly positive"):
        dual_extraction(kv, w)

