"""The n = 2 curvature algebra of curvature.py: frozen examples, the
brute-force oracles, and property tests on (V, 2) batches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvspec.curvature import C_R, mean_curvature, shape_norm
from curvspec.errors import CurvaturePositivityError

import oracles
from conftest import (field_of_kappas, newton_eigenvalues, newton_transform,
                      rotation)

kappa = st.floats(min_value=-50, max_value=50, allow_nan=False,
                  allow_infinity=False)
positive = st.floats(min_value=0.01, max_value=50)


def batches(values):
    return st.lists(st.tuples(values, values), min_size=1, max_size=16).map(
        lambda rows: np.array(rows, dtype=float))


pairs = batches(kappa)
positive_pairs = batches(positive)
orders = st.integers(min_value=0, max_value=1)


def s_r(kappas, r):
    """S_r of each row by subset enumeration."""
    return np.array([oracles.elementary_symmetric_bruteforce(row, r)
                     for row in kappas])


def scale(kappas, r):
    """Each row's round-off scale for a degree-r quantity, (V,)."""
    return np.maximum(1.0, np.abs(kappas).sum(axis=1) ** max(r, 1))


class TestElementarySymmetric:
    def test_known_values(self):
        k = np.array([[2.0, 3.0]])
        assert mean_curvature(k, 0) == pytest.approx([1.0])
        assert mean_curvature(k, 1) == pytest.approx([2.5])
        assert mean_curvature(k, 2) == pytest.approx([6.0])

    def test_mean_curvature_normalization(self):
        # a sphere of radius 1/5 has H_r = 5^r
        k = np.array([[5.0, 5.0]])
        for r in range(3):
            assert mean_curvature(k, r) == pytest.approx([5.0**r])

    @given(pairs, st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, kappas, r):
        got = math.comb(2, r) * mean_curvature(kappas, r)
        assert got.shape == (len(kappas),)
        assert np.allclose(got, s_r(kappas, r), rtol=0, atol=1e-10 * scale(kappas, r))

    def test_batched_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(40, 2))
        for r in range(3):
            h = mean_curvature(batch, r)
            for i in range(40):
                assert h[i] == mean_curvature(batch[i], r)
                assert h[i] == pytest.approx(
                    oracles.elementary_symmetric_bruteforce(batch[i], r)
                    / math.comb(2, r), rel=1e-12, abs=1e-12)


class TestNewton:
    def test_example(self):
        eig = newton_eigenvalues(np.array([[1.0, 2.0]]), 1)
        assert eig == pytest.approx(np.array([[2.0, 1.0]]))

    def test_p_n_is_zero(self):
        # the recursion closes past P_1: P_2 = S_2 I - A P_1 is the zero map
        k = np.random.default_rng(1).uniform(-10, 10, size=(200, 2))
        p1 = newton_eigenvalues(k, 1)
        assert np.allclose(s_r(k, 2)[:, None] - k * p1, 0.0, rtol=0,
                           atol=1e-10 * scale(k, 2)[:, None])

    @given(pairs, orders, st.floats(min_value=0.0, max_value=np.pi))
    @settings(max_examples=200, deadline=None)
    def test_delete_one_oracle(self, kappas, r, theta):
        # P_r of a face operator R diag(kappas) R^T is R diag(eig) R^T,
        # eig_i the S_r of the tuple with kappa_i deleted
        field = field_of_kappas(np.ones_like(kappas), r, kappas, theta)
        rot = rotation(np.full(len(kappas), theta))
        eig = np.array([oracles.newton_eigenvalues_deleteone(row, r)
                        for row in kappas])
        want = rot @ (eig[:, :, None] * np.eye(2)) @ rot.transpose(0, 2, 1)
        assert np.allclose(newton_transform(field), want, rtol=0,
                           atol=1e-10 * scale(kappas, r)[:, None, None])

    @given(pairs, orders)
    @settings(max_examples=200, deadline=None)
    def test_trace_identity(self, kappas, r):
        # sum_i eig_i(P_r) = (n - r) S_r
        eig = newton_eigenvalues(kappas, r)
        assert np.allclose(eig.sum(axis=1), (2 - r) * s_r(kappas, r), rtol=0,
                           atol=1e-10 * scale(kappas, r) * 2)

    @given(pairs, orders)
    @settings(max_examples=200, deadline=None)
    def test_weighted_trace_gives_next_symmetric(self, kappas, r):
        # sum_i kappa_i eig_i(P_r) = (r+1) S_{r+1}
        eig = newton_eigenvalues(kappas, r)
        assert np.allclose((kappas * eig).sum(axis=1),
                           (r + 1) * s_r(kappas, r + 1), rtol=0,
                           atol=1e-10 * scale(kappas, r + 1) * 2)

    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_recursion_consistency(self, kappas):
        # eig(P_1) = S_1 - kappa * eig(P_0), elementwise
        prev = newton_eigenvalues(kappas, 0)
        got = newton_eigenvalues(kappas, 1)
        assert np.array_equal(prev, np.ones_like(kappas))
        assert np.allclose(got, s_r(kappas, 1)[:, None] - kappas * prev,
                           rtol=0, atol=1e-10 * scale(kappas, 1)[:, None])


class TestCoefficient:
    def test_values(self):
        # c_r = (n - r) C(n, r) at n = 2
        assert C_R == 2.0
        for r in (0, 1):
            assert C_R == (2 - r) * math.comb(2, r)

    def test_identity_both_forms(self):
        for r in (0, 1):
            assert C_R == 2 * math.comb(1, r)


class TestPotential:
    def test_unit_sphere_values(self):
        # kappas (1, 1): W_0 = W_1 = sqrt(2)
        for r in (0, 1):
            w = field_of_kappas([[1.0, 1.0]], r).w
            assert w == pytest.approx([math.sqrt(2)])

    def test_r0_accepts_any_sign(self):
        # W_0 = sqrt(2) |H_1| has no positivity gate
        w = field_of_kappas([[-1.0, -1.0], [1.0, -1.0]], 0).w
        assert w[0] == pytest.approx(math.sqrt(2))
        assert w[1] == 0.0

    def test_gate_raises_with_location(self):
        batch = np.array([[1.0, 2.0], [1.0, -3.0], [2.0, 2.0]])
        with pytest.raises(CurvaturePositivityError) as err:
            field_of_kappas(batch, 1)
        assert err.value.r == 1
        assert err.value.vertex == 1
        assert err.value.h_value == pytest.approx(-3.0)
        assert "H_2 > 0" in str(err.value)

    def test_inside_out_gate_names_h1(self):
        # both curvatures negative: H_2 > 0 holds, H_1 > 0 does not
        batch = np.array([[1.0, 2.0], [-3.0, -1.0], [-1.0, -0.5]])
        with pytest.raises(CurvaturePositivityError) as err:
            field_of_kappas(batch, 1)
        assert (err.value.r, err.value.j, err.value.vertex) == (1, 1, 1)
        assert err.value.h_value == pytest.approx(-2.0)
        assert "H_1 > 0" in str(err.value)
        # H_2 is gated first, whatever H_1 reads
        with pytest.raises(CurvaturePositivityError) as err:
            field_of_kappas(np.vstack([batch, [[1.0, -3.0]]]), 1)
        assert (err.value.j, err.value.vertex) == (2, 3)
        # r = 0 gates neither
        assert np.all(field_of_kappas(batch, 0).w > 0.0)

    @given(pairs, orders)
    @settings(max_examples=150, deadline=None)
    def test_squares_to_formula(self, kappas, r):
        if r == 1:
            # both curvatures positive, so H_2 > 0 and H_1 > 0
            kappas = np.abs(kappas) + 0.01
        field = field_of_kappas(kappas, r)
        h = s_r(kappas, r + 1) / math.comb(2, r + 1)
        assert np.allclose(field.h_next, h, rtol=1e-12, atol=1e-12)
        want = C_R * np.abs(h) ** ((r + 2) / (r + 1))
        assert np.allclose(field.w**2, want, rtol=1e-10, atol=1e-12)


class TestMaclaurin:
    """Maclaurin's inequality at n = 2, H_1 >= H_2^(1/2), on the package's
    mean_curvature."""

    def test_examples(self):
        # (1 + 4) / 2 - sqrt(4)
        assert oracles.maclaurin_gap([1.0, 4.0]) == pytest.approx(0.5)

    @given(positive_pairs)
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, kappas):
        assert np.all(oracles.maclaurin_gap(kappas) >= -1e-12)

    @given(positive)
    @settings(max_examples=100, deadline=None)
    def test_equality_on_equal_tuples(self, kappa):
        gap = oracles.maclaurin_gap([kappa, kappa])
        assert abs(gap) <= 1e-10 * max(1.0, kappa)

    def test_strict_positivity_when_unequal(self):
        k = np.random.default_rng(42).uniform(0.1, 10.0, size=(200, 2))
        unequal = np.ptp(k, axis=1) >= 1e-3
        assert np.all(oracles.maclaurin_gap(k[unequal]) > 0.0)

    def test_gap_is_quadratic_in_perturbation(self):
        # around an equal pair the gap vanishes to first order, so halving
        # the perturbation should quarter it
        d = np.random.default_rng(7).normal(size=20)[:, None] * [1.0, -1.0]
        g1 = oracles.maclaurin_gap(1.0 + 1e-2 * d)
        g2 = oracles.maclaurin_gap(1.0 + 5e-3 * d)
        assert np.all(g1 > 0.0)
        assert np.all((3.8 < g1 / g2) & (g1 / g2 < 4.2))


class TestShapeNorm:
    def test_example(self):
        assert shape_norm(np.array([[3.0, 4.0]])) == pytest.approx([math.sqrt(12.5)])

    def test_sphere_normalization(self):
        # a sphere of radius R has norm 1/R
        for radius in (0.5, 1.0, 4.0):
            k = np.full((3, 2), 1.0 / radius)
            assert shape_norm(k) == pytest.approx(1.0 / radius)

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_dominates_mean(self, kappas):
        # the quadratic mean bounds the mean of |kappa|, hence |H_1|
        norm = shape_norm(kappas)
        mean_abs = np.abs(kappas).mean(axis=1)
        assert np.all(norm >= mean_abs - 1e-12 * np.maximum(1.0, mean_abs))
        assert np.all(mean_abs >= np.abs(mean_curvature(kappas, 1)))
