"""Verdict layer: theorem, corollary, and lemma checks per surface."""

import logging
import time

import numpy as np
import pytest

from curvspec import eigen, verify
from curvspec.assemble import assemble_pencil, shift_ladder
from curvspec.errors import BoundViolationError, CurvaturePositivityError

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


class TestCorollary:
    @pytest.mark.parametrize("kind", ["sphere", "ellipsoid"])
    @pytest.mark.parametrize("r", [0, 1])
    def test_domination_and_comparison(self, kind, r):
        done = verify_run(get_mesh(kind, 3), r)
        rep = done.corollary
        assert rep.domination_min_slack >= -1e-10
        assert rep.lambda_2_t_upper <= done.theorem.lambda_2 + 1e-12

    def test_sphere_t_eigenvalue_is_zero(self):
        rep = verify_corollary(get_mesh("sphere", 3), 1)
        assert rep.lambda_2_t_upper == pytest.approx(0.0, abs=0.05)

    def test_domination_gate_refuses_before_any_d_solve(self, monkeypatch):
        # with c_r = 0 the T_r potential cannot dominate W^2, and run must
        # refuse on it before the zero-mean factor of the d_i is made
        def no_d_solve(pencil):
            pytest.fail("zero-mean factor made before the domination gate")

        monkeypatch.setattr(verify, "C_R", 0.0)
        monkeypatch.setattr(verify, "zero_mean_resolvent", no_d_solve)
        with pytest.raises(BoundViolationError,
                           match="potential domination fails at vertex"):
            verify_run(get_mesh("ellipsoid", 2), 1)


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
            ladder = shift_ladder(pencil)
            lam1 = floor.eigenvalues[0]
            assert ladder[-1] == floor.shift == floor_shift(pencil)
            assert ladder[-1] <= spec.shift < lam1
            refused = ladder[:ladder.index(spec.shift)]
            assert all(sigma >= lam1 for sigma in refused)

    def test_a_rung_is_refused_on_the_ellipsoid(self):
        # the subdiv-4 ellipsoid at r = 1 is the case where the first rung
        # of the pencil lies above lambda_1, so the ladder is exercised
        (pencil, spec, _), _ = self.spectra("ellipsoid", 4, 1)
        ladder = shift_ladder(pencil)
        assert spec.shift == ladder[1] > ladder[-1]

    def test_each_refused_rung_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="curvspec.eigen"):
            done = verify_run(get_mesh("ellipsoid", 4), 1)
        refused = [r.getMessage() for r in caplog.records
                   if "refused" in r.getMessage()]
        sigma = shift_ladder(done.pencil)[0]
        assert refused == [
            f"pencil eigensolve: shift {sigma:.17g} refused, not below "
            f"the spectrum"]

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
