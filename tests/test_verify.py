"""Verdict layer: theorem, corollary, and lemma checks per surface."""

import logging
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvspec import eigen, verify
from curvspec.assemble import assemble_pencil, shift_ladder, spectral_scale
from curvspec.curvature import C_R, mean_curvature, shape_norm
from curvspec.errors import CurvaturePositivityError, EigenSolveError

from conftest import (floor_shift, get_mesh, get_pipeline, lemma_two_negative,
                      verify_corollary, verify_run, verify_theorem)
from oracles import t_r_spectrum


class TestSphereCase:
    @pytest.mark.parametrize("r", [0, 1])
    def test_unit_sphere_is_sphere_like(self, r):
        done = verify_run(get_mesh("sphere", 3), r)
        rep = done.theorem
        assert rep.verdict == verify.SPHERE_LIKE
        assert rep.lambda_1 == pytest.approx(-2.0, abs=0.05)
        assert abs(rep.lambda_2) <= rep.tol_sphere
        assert rep.multiplicity == 3
        assert rep.sphere_distance < 1e-10
        assert len(done.spectrum.eigenvalues) == 5

    @pytest.mark.parametrize("kind", ["sphere_small", "sphere", "sphere_big"])
    @pytest.mark.parametrize("r", [0, 1])
    def test_cluster_alignment_converges(self, kind, r):
        # the lambda_2 cluster tends to the span of the positions: its
        # misalignment reads 1.96e-6, 9.5e-8, 5.4e-9 at s2-s4 on every
        # radius and order
        gaps = [1.0 - verify_theorem(get_mesh(kind, s), r)
                .cluster_position_alignment for s in (2, 3, 4)]
        assert gaps[0] < 1e-5
        assert gaps[1] <= gaps[0] / 10 and gaps[2] <= gaps[1] / 10

    @pytest.mark.parametrize("radius_kind,radius", [("sphere_small", 0.5), ("sphere_big", 2.0)])
    def test_scaled_spheres_detected(self, radius_kind, radius):
        rep = verify_theorem(get_mesh(radius_kind, 3), 0)
        assert rep.verdict == verify.SPHERE_LIKE
        # lambda_1 scales like 1/R^2 while the verdict stays put
        assert rep.lambda_1 == pytest.approx(-2.0 / radius**2, rel=0.01)

    def test_bumped_sphere_still_sphere_like(self):
        rep = verify_theorem(get_mesh("bumped", 3), 1)
        assert rep.verdict == verify.SPHERE_LIKE
        assert 0.0 < rep.sphere_distance < 0.05
        assert rep.lambda_2 < 0.0          # perturbation pushes down, within tol

    def test_sphere_distance_quadratic_in_bump(self):
        def dist(kind):
            mesh, field, _ = get_pipeline(kind, 3, 0)
            return verify.sphere_distance(mesh, field)

        assert 3.0 < dist("bumped") / dist("bumped_half") < 5.0


class TestStrictCase:
    @pytest.mark.parametrize("r", [0, 1])
    def test_ellipsoid_strictly_negative(self, r):
        rep = verify_theorem(get_mesh("ellipsoid", 3), r)
        assert rep.verdict == verify.STRICTLY_NEGATIVE
        assert rep.lambda_2 < -rep.tol_sphere
        assert rep.sphere_distance > 0.05
        lem = lemma_two_negative(get_mesh("ellipsoid", 3), r)
        assert rep.d_sum >= -lem.thresholds.sum()
        if r == 1:
            # at r = 0 the sum straddles zero at mesh resolution; the r = 1
            # sum is bounded away from it
            assert rep.d_sum > 1.0

    def test_mild_ellipsoid_strictly_negative(self):
        # soundness should not depend on how far from round the input is
        rep = verify_theorem(get_mesh("ellipsoid_mild", 4), 0)
        assert rep.verdict == verify.STRICTLY_NEGATIVE
        assert rep.lambda_2 < -rep.tol_sphere

    def test_headline_inequality_on_convex_meshes(self):
        # lambda_2 <= tol on everything convex we have, both orders; a
        # Violation verdict anywhere is a bug tripwire, never data
        kinds = ("sphere", "sphere_small", "sphere_big",
                 "ellipsoid", "ellipsoid_mild", "bumped")
        for kind in kinds:
            for r in (0, 1):
                rep = verify_theorem(get_mesh(kind, 3), r)
                assert rep.verdict != verify.VIOLATION
                assert rep.lambda_2 <= rep.tol_sphere

    def test_torus_r0_completes(self):
        rep = verify_theorem(get_mesh("torus", 1), 0)
        assert rep.verdict == verify.STRICTLY_NEGATIVE
        assert rep.lambda_2 < 0.0

    def test_torus_r1_gated(self):
        with pytest.raises(CurvaturePositivityError) as err:
            verify_theorem(get_mesh("torus", 1), 1)
        assert err.value.vertex is not None
        assert err.value.h_value <= 0.0


# curvatures of magnitude 1e-50 to 1e50, or zero, so that every power the
# closed forms take stays a normal float
kappa = st.floats(min_value=-1e50, max_value=1e50).filter(
    lambda k: k == 0.0 or abs(k) >= 1e-50)


class TestCorollary:
    @given(kappa, kappa, st.integers(min_value=0, max_value=1))
    @settings(max_examples=500, deadline=None)
    def test_potential_dominates_w_squared(self, k1, k2, r):
        # c_r |A|^(r+2) - W^2 is (k1 - k2)^2 / 2 at r = 0 and
        # 2[((k1^2 + k2^2) / 2)^(3/2) - (k1 k2)^(3/2)] at r = 1, where the
        # gate holds k1 k2 = H_2 > 0: at least 0, and 0 at an umbilic
        # point, where the computed slack is round-off on the potential's
        # scale
        assume(r == 0 or k1 * k2 > 0.0)
        kappas = np.array([[k1, k2]])
        pot = C_R * shape_norm(kappas) ** (r + 2)
        w2 = C_R * np.abs(mean_curvature(kappas, r + 1)) ** ((r + 2) / (r + 1))
        assert pot - w2 >= -8 * np.finfo(float).eps * pot

    @pytest.mark.parametrize("kind", ["sphere", "ellipsoid"])
    @pytest.mark.parametrize("r", [0, 1])
    def test_domination_and_comparison(self, kind, r):
        mesh, field, _ = get_pipeline(kind, 3, r)
        done = verify.run(mesh, field, verify.VerifyConfig(), {})
        t_pot = verify.t_potential(field)
        slack = t_pot - field.w**2
        assert slack.min() >= -8 * np.finfo(float).eps * t_pot.max()
        assert done.corollary.lambda_2_t_upper \
            <= done.theorem.lambda_2 + 1e-12

    def test_sphere_t_eigenvalue_is_zero(self):
        rep = verify_corollary(get_mesh("sphere", 3), 1)
        assert rep.lambda_2_t_upper == pytest.approx(0.0, abs=0.05)


class TestLemma:
    def test_ellipsoid_witness(self):
        rep = lemma_two_negative(get_mesh("ellipsoid", 3), 1)
        assert rep.applicable
        assert rep.negative_count >= 2
        assert rep.d[rep.witness] > rep.thresholds[rep.witness]

    def test_sphere_not_applicable(self):
        rep = lemma_two_negative(get_mesh("sphere", 3), 1)
        assert not rep.applicable
        assert rep.negative_count == 1
        assert np.all(rep.d <= rep.thresholds)

    # the s1 torus's d_0 and d_1, equal up to round-off (0 is the larger by
    # 4.8e-13), over thresholds equal to the last bit
    TORUS_D = (8.86700931342661, 8.867009313426127, -19.60418336604723)

    @staticmethod
    def lemma_of(d):
        # unit mass and f_i = e_i, so every threshold is LEMMA_TOL
        return verify._lemma(np.ones(3), np.array([-3.0, -2.0, -1.0]),
                             np.eye(3), np.asarray(d), 0.1)

    @pytest.mark.parametrize("eps", [-1e-13, 0.0, 1e-13])
    def test_witness_ties_round_off(self, eps):
        # margins within round-off of the largest tie, and the first wins
        rep = self.lemma_of([8.867, 8.867 + eps, -19.6])
        assert rep.applicable and rep.witness == 0
        rep = self.lemma_of([-19.6, 8.867 + eps, 8.867])
        assert rep.applicable and rep.witness == 1

    def test_witness_is_largest_margin_beyond_round_off(self):
        assert self.lemma_of([1.0, 2.0, -1.0]).witness == 1
        assert self.lemma_of([1.0, 1.0 + 1e-6, 0.5]).witness == 1
        assert self.lemma_of([-1.0, -2.0, 0.0]).witness == -1

    def test_torus_witness(self, torus1):
        for d in (self.TORUS_D, self.TORUS_D[1::-1] + self.TORUS_D[2:]):
            assert self.lemma_of(d).witness == 0
        rep = lemma_two_negative(torus1, 0)
        assert rep.d[0] == pytest.approx(rep.d[1], rel=1e-12)
        assert rep.applicable and rep.witness == 0


class TestConfig:
    def test_factor_scales_with_potential(self):
        mesh = get_mesh("sphere", 3)
        loose = verify_theorem(mesh, 0, verify.VerifyConfig(tol_sphere_factor=0.5))
        tight = verify_theorem(mesh, 0, verify.VerifyConfig(tol_sphere_factor=0.01))
        assert loose.tol_sphere == pytest.approx(50 * tight.tol_sphere, rel=1e-9)
        assert loose.spectral_scale == pytest.approx(tight.spectral_scale)

    def test_reports_deterministic(self):
        mesh = get_mesh("ellipsoid", 3)
        a, b = verify_run(mesh, 1), verify_run(mesh, 1)
        assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)
        assert a.theorem.verdict == b.theorem.verdict
        assert a.theorem.d_sum == b.theorem.d_sum


# convex shapes at r = 0 and r = 1; the torus only at r = 0, where no
# curvature sign is assumed
CERTIFIED = [("sphere", 3, 0), ("sphere", 3, 1), ("ellipsoid", 3, 0),
             ("ellipsoid", 3, 1), ("ellipsoid", 4, 0), ("ellipsoid", 4, 1),
             ("bumped", 3, 0), ("bumped", 3, 1), ("torus", 1, 0)]


class TestCorollaryBound:
    @pytest.mark.parametrize("kind,subdiv,r",
                             CERTIFIED + [("ellipsoid", 5, 1)])
    def test_bound_brackets_the_exact_t_eigenvalue(self, kind, subdiv, r):
        # exact lambda_2(T_r) <= its Ritz bound <= lambda_2 up to
        # round-off; where T_r is the pencil (the spheres) the bound and
        # the exact solve agree to the eigensolver's default tol, 1e-10
        mesh, field, _ = get_pipeline(kind, subdiv, r)
        done = verify.run(mesh, field, verify.VerifyConfig(), {})
        rep = done.corollary
        exact = t_r_spectrum(field, done.pencil)[1].eigenvalues[1]
        assert exact <= rep.lambda_2_t_upper + 1e-10 * max(abs(exact), 1.0)
        assert rep.lambda_2_t_upper <= done.theorem.lambda_2 + 1e-12


def full_ladder(pencil):
    """Every rung of shift_ladder before its bound on lambda_1 drops any:
    -2^(j+1) mean W^2, j = 0, 1, ..., while above the floor, then the
    floor."""
    floor = floor_shift(pencil)
    rungs, sigma = [], -2.0 * spectral_scale(pencil.mass, pencil.w)
    while sigma > floor:
        rungs.append(sigma)
        sigma *= 2.0
    return rungs + [floor]


class TestCertifiedShifts:
    """The pencil solve and the tests' exact T_r solve take the first rung
    of their shift ladder that factors; a rung factors iff it lies below
    lambda_1."""

    @staticmethod
    def spectra(kind, subdiv, r):
        """(pencil, its spectrum, the floor-shift oracle solve at the
        spectrum's k) for the pencil and for T_r."""
        mesh, field, _ = get_pipeline(kind, subdiv, r)
        done = verify.run(mesh, field, verify.VerifyConfig(), {})
        return [(pencil, spec, eigen.smallest_eigenpairs(
                    pencil.a_matrix(), pencil.mass, spec.k,
                    sigma=floor_shift(pencil), layout=pencil.layout))
                for pencil, spec in ((done.pencil, done.spectrum),
                                     t_r_spectrum(field, done.pencil))]

    @pytest.mark.parametrize("kind,subdiv,r", CERTIFIED)
    def test_ladder_matches_the_floor_shift(self, kind, subdiv, r):
        for _, spec, floor in self.spectra(kind, subdiv, r):
            want = floor.eigenvalues
            assert np.max(np.abs(spec.eigenvalues - want)) \
                <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind,subdiv,r", CERTIFIED)
    def test_accepted_rung_is_below_lambda_1(self, kind, subdiv, r):
        for pencil, spec, floor in self.spectra(kind, subdiv, r):
            ladder = full_ladder(pencil)
            lam1 = floor.eigenvalues[0]
            assert ladder[-1] == floor.shift == floor_shift(pencil)
            assert ladder[-1] <= spec.shift < lam1
            refused = ladder[:ladder.index(spec.shift)]
            assert all(sigma >= lam1 for sigma in refused)

    def test_a_rung_is_refused_on_the_ellipsoid(self):
        # the subdiv-4 ellipsoid at r = 1 is the case where the first rung
        # of the pencil lies above lambda_1, so the ladder is exercised
        (pencil, spec, _), _ = self.spectra("ellipsoid", 4, 1)
        ladder = full_ladder(pencil)
        assert spec.shift == ladder[1] > ladder[-1]

    def test_each_refused_rung_is_logged(self, caplog):
        # the first rung lies above lambda_1 here, and the Ritz bound drops
        # it before it is factored, so none is refused
        with caplog.at_level(logging.DEBUG, logger="curvspec"):
            done = verify_run(get_mesh("ellipsoid", 4), 1)
        messages = [r.getMessage() for r in caplog.records]
        sigma = full_ladder(done.pencil)[0]
        dropped = [m for m in messages if "dropped" in m]
        assert len(dropped) == 1
        assert dropped[0].startswith(
            f"shift {sigma:.17g} dropped, not below the Ritz bound ")
        assert not [m for m in messages if "refused" in m]

    @pytest.mark.parametrize("kind,subdiv,r,k", [
        *[(*case, 5) for case in CERTIFIED],
        ("ellipsoid_long", 3, 1, 5), ("ellipsoid_long", 4, 0, 5),
        ("ellipsoid_long", 4, 1, 5), ("ellipsoid_long", 5, 1, 5),
        ("sphere", 0, 0, 11)])
    def test_bound_never_costs_a_rung(self, kind, subdiv, r, k):
        # the Ritz bound lies at or above lambda_1, and close enough on
        # these pencils that the bounded ladder drops exactly the rungs of
        # the full one that would be refused
        mesh, field, _ = get_pipeline(kind, subdiv, r)
        done = verify.run(mesh, field, verify.VerifyConfig(k=k), {})
        pencil, a_mat = done.pencil, done.pencil.a_matrix()
        full = full_ladder(pencil)
        refused = 0
        for sigma in full:
            try:
                eigen._shifted_solver(a_mat, pencil.mass, -sigma,
                                      layout=pencil.layout)
                break
            except EigenSolveError:
                refused += 1
        assert done.spectrum.shift == full[refused]
        assert shift_ladder(pencil) == full[refused:]

    def test_nested_stage_time_is_charged_once(self, monkeypatch):
        # verify.run assembles the pencil before the spectrum's stage, and
        # its time is charged to curvature_s alone
        def slow_pencil(*args, **kwargs):
            time.sleep(0.2)
            return assemble_pencil(*args, **kwargs)

        monkeypatch.setattr(verify, "assemble_pencil", slow_pencil)
        mesh, field, _ = get_pipeline("ellipsoid", 2, 1)
        timings = {}
        verify.run(mesh, field, verify.VerifyConfig(), timings)
        assert timings["curvature_s"] >= 0.2
        assert timings["spectrum_s"] < 0.2
