"""Curvature algebra: frozen examples, oracles, and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvspec import curvalg
from curvspec.errors import CurvaturePositivityError

import oracles

finite_kappas = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=8,
)

positive_kappas = st.lists(
    st.floats(min_value=0.01, max_value=50), min_size=2, max_size=8,
)


def s_r(kappas, r):
    return curvalg.elementary_symmetric_all(kappas, r)[..., r]


class TestElementarySymmetric:
    def test_known_values(self):
        assert s_r([2.0, 3.0], 2) == pytest.approx(6.0)
        assert s_r([1.0, 2.0, 3.0], 0) == 1.0
        assert s_r([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)

    def test_mean_curvature_normalization(self):
        assert curvalg.mean_curvature([1.0, 2.0, 3.0], 2) == pytest.approx(11.0 / 3.0)
        assert curvalg.mean_curvature([5.0, 5.0], 1) == pytest.approx(5.0)

    @given(finite_kappas, st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, kappas, r):
        if r > len(kappas):
            with pytest.raises(ValueError):
                s_r(kappas, r)
            return
        got = s_r(kappas, r)
        want = oracles.elementary_symmetric_bruteforce(kappas, r)
        scale = max(1.0, sum(abs(k) for k in kappas) ** max(r, 1))
        assert got == pytest.approx(want, abs=1e-10 * scale)

    def test_batched_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(40, 3))
        all_e = curvalg.elementary_symmetric_all(batch, 3)
        for i in range(40):
            for r in range(4):
                assert all_e[i, r] == pytest.approx(
                    oracles.elementary_symmetric_bruteforce(batch[i], r),
                    rel=1e-12, abs=1e-12,
                )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            s_r([np.nan, 1.0], 1)
        with pytest.raises(ValueError):
            s_r(3.0, 0)


class TestNewton:
    def test_example(self):
        assert curvalg.newton_eigenvalues([1.0, 2.0], 1) == pytest.approx([2.0, 1.0])

    def test_p_n_is_zero(self):
        assert curvalg.newton_eigenvalues([3.0, 4.0], 2) == pytest.approx([0.0, 0.0])

    @given(finite_kappas, st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_delete_one_oracle(self, kappas, r):
        if r >= len(kappas):
            return
        got = curvalg.newton_eigenvalues(kappas, r)
        want = oracles.newton_eigenvalues_deleteone(kappas, r)
        scale = max(1.0, sum(abs(k) for k in kappas) ** max(r, 1))
        assert np.allclose(got, want, atol=1e-10 * scale)

    @given(finite_kappas, st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_trace_identity(self, kappas, r):
        # sum_i eig_i(P_r) = (n - r) S_r
        n = len(kappas)
        if r > n:
            return
        eig = curvalg.newton_eigenvalues(kappas, r)
        scale = max(1.0, sum(abs(k) for k in kappas) ** max(r, 1)) * n
        assert float(np.sum(eig)) == pytest.approx(
            (n - r) * s_r(kappas, r), abs=1e-10 * scale
        )

    @given(finite_kappas, st.integers(min_value=0, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_weighted_trace_gives_next_symmetric(self, kappas, r):
        # sum_i kappa_i eig_i(P_r) = (r+1) S_{r+1}
        n = len(kappas)
        if r > n - 1:
            return
        k = np.asarray(kappas)
        eig = curvalg.newton_eigenvalues(kappas, r)
        s_next = s_r(kappas, r + 1)
        scale = max(1.0, sum(abs(v) for v in kappas) ** (r + 1)) * n
        assert float(k @ eig) == pytest.approx((r + 1) * s_next, abs=1e-10 * scale)

    @given(finite_kappas, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_recursion_consistency(self, kappas, r):
        # eig(P_r) = S_r - kappa * eig(P_{r-1}), elementwise
        if r > len(kappas):
            return
        k = np.asarray(kappas)
        prev = curvalg.newton_eigenvalues(kappas, r - 1)
        got = curvalg.newton_eigenvalues(kappas, r)
        scale = max(1.0, sum(abs(v) for v in kappas) ** (r + 1))
        if r == len(kappas):
            want = np.zeros_like(k)
        else:
            want = s_r(kappas, r) - k * prev
        assert np.allclose(got, want, atol=1e-10 * scale)


class TestCoefficient:
    def test_values(self):
        assert curvalg.c_coefficient(2, 0) == 2.0
        assert curvalg.c_coefficient(2, 1) == 2.0
        assert curvalg.c_coefficient(3, 1) == 6.0

    def test_identity_both_forms(self):
        for n in range(1, 9):
            for r in range(n):
                assert curvalg.c_coefficient(n, r) == n * math.comb(n - 1, r)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            curvalg.c_coefficient(2, 2)
        with pytest.raises(ValueError):
            curvalg.c_coefficient(2, -1)
        with pytest.raises(ValueError):
            curvalg.c_coefficient(0, 0)


class TestPotential:
    def test_unit_sphere_values(self):
        # kappas (1, 1): W_0 = W_1 = sqrt(2)
        assert curvalg.potential_W([1.0, 1.0], 0) == pytest.approx(math.sqrt(2))
        assert curvalg.potential_W([1.0, 1.0], 1) == pytest.approx(math.sqrt(2))

    def test_r0_accepts_any_sign(self):
        # W_0 = sqrt(n) |H_1| has no positivity gate
        assert curvalg.potential_W([-1.0, -1.0], 0) == pytest.approx(math.sqrt(2))
        assert curvalg.potential_W([1.0, -1.0], 0) == 0.0

    def test_gate_raises_with_location(self):
        batch = np.array([[1.0, 2.0], [1.0, -3.0], [2.0, 2.0]])
        with pytest.raises(CurvaturePositivityError) as err:
            curvalg.potential_W(batch, 1)
        assert err.value.vertex == 1
        assert err.value.h_value == pytest.approx(-3.0)
        assert "H_2 > 0" in str(err.value)

    @given(positive_kappas, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_squares_to_formula(self, kappas, r):
        n = len(kappas)
        if r > n - 1:
            return
        w = curvalg.potential_W(kappas, r)
        h = curvalg.mean_curvature(kappas, r + 1)
        c = curvalg.c_coefficient(n, r)
        want = c * h ** ((r + 2) / (r + 1))
        assert w * w == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestMaclaurin:
    """Maclaurin's inequality H_r^(1/r) >= H_(r+1)^(1/(r+1)) on the
    package's mean_curvature."""

    def test_examples(self):
        assert oracles.maclaurin_gap([1.0, 4.0], 1) == pytest.approx(0.5)
        # H_2^{1/2} - H_3^{1/3} at (1, 2, 3): sqrt(11/3) - 6^{1/3}
        assert oracles.maclaurin_gap([1.0, 2.0, 3.0], 2) == pytest.approx(
            0.09773362268053654, abs=1e-14
        )

    @given(positive_kappas, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, kappas, r):
        if r > len(kappas) - 1:
            return
        assert oracles.maclaurin_gap(kappas, r) >= -1e-12

    @given(st.floats(min_value=0.01, max_value=50),
           st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_equality_on_equal_tuples(self, kappa, n, r):
        if r > n - 1:
            return
        gap = oracles.maclaurin_gap([kappa] * n, r)
        assert abs(gap) <= 1e-10 * max(1.0, kappa)

    def test_strict_positivity_when_unequal(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = rng.uniform(0.1, 10.0, size=rng.integers(2, 7))
            if np.ptp(k) < 1e-3:
                continue
            assert oracles.maclaurin_gap(k, 1) > 0.0

    def test_gap_is_quadratic_in_perturbation(self):
        # around a constant tuple the gap vanishes to first order, so
        # halving the perturbation should quarter it
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            for r in range(1, n):
                d = rng.normal(size=n)
                d -= d.mean()
                g1 = oracles.maclaurin_gap(1.0 + 1e-2 * d, r)
                g2 = oracles.maclaurin_gap(1.0 + 5e-3 * d, r)
                assert g1 > 0.0
                assert 3.8 < g1 / g2 < 4.2

    def test_domain_errors(self):
        # H_(r+1) needs r + 1 <= n, and every curvature finite
        with pytest.raises(ValueError):
            curvalg.mean_curvature([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            curvalg.mean_curvature([1.0, np.inf], 1)


class TestShapeNorm:
    def test_example(self):
        assert curvalg.shape_norm([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_sphere_normalization(self):
        # radius R sphere has norm 1/R regardless of n
        for n in (2, 3, 5):
            assert curvalg.shape_norm([0.25] * n) == pytest.approx(0.25)

    @given(finite_kappas)
    @settings(max_examples=100, deadline=None)
    def test_dominates_mean(self, kappas):
        # quadratic mean bounds the arithmetic mean of |kappa|
        norm = curvalg.shape_norm(kappas)
        mean_abs = np.mean(np.abs(kappas))
        assert norm >= mean_abs - 1e-12 * max(1.0, mean_abs)
