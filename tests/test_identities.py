"""Integral and variational identities tying curvature to the pencil."""

import numpy as np
import pytest

from curvspec import curvature, eigen, surfaces, verify
from curvspec import identities as idn
from curvspec.errors import BoundViolationError, CurvaturePositivityError
from curvspec.mesh import TriMesh

import oracles
from conftest import get_mesh, get_pipeline, kernel_shift


def report_of(mesh, field, pencil, f):
    return idn.identity_report(mesh, field, pencil, f,
                               idn.zero_mean_resolvent(pencil))


class TestPositionIdentity:
    def test_sphere_within_tolerance(self):
        mesh, field, pencil = get_pipeline("sphere", 3, 1)
        res = idn.lr_position_residual(mesh, field, pencil)
        assert res.shape == (3,)
        assert np.max(res) < 0.05

    def test_sphere_residual_halves_under_refinement(self):
        worst = []
        for sub in (3, 4):
            mesh, field, pencil = get_pipeline("sphere", sub, 1)
            worst.append(np.max(idn.lr_position_residual(mesh, field, pencil)))
        assert worst[1] < 0.7 * worst[0]

    def test_scale_invariance(self):
        small = get_pipeline("sphere_small", 3, 0)
        big = get_pipeline("sphere_big", 3, 0)
        r_small = np.max(idn.lr_position_residual(*small))
        r_big = np.max(idn.lr_position_residual(*big))
        assert r_small == pytest.approx(r_big, rel=1e-6)

    def test_ellipsoid_r0_ratio_under_refinement(self):
        coarse = idn.lr_position_residual(*get_pipeline("ellipsoid", 3, 0))
        fine = idn.lr_position_residual(*get_pipeline("ellipsoid", 4, 0))
        assert np.max(np.asarray(fine) / np.asarray(coarse)) < 0.6


class TestMinkowski:
    def test_sphere_near_exact(self):
        for r in (0, 1):
            mesh, field, _ = get_pipeline("sphere", 3, r)
            assert abs(idn.minkowski_residual(mesh, field)) < 1e-12
        # scaled sphere: both integrals equal 8 pi in the continuum and the
        # discrete quadratures cancel the same way
        mesh, field, _ = get_pipeline("sphere_big", 3, 1)
        assert abs(idn.minkowski_residual(mesh, field)) < 1e-12

    def test_ellipsoid_decreases(self):
        vals = []
        for sub in (3, 4):
            mesh, field, _ = get_pipeline("ellipsoid", sub, 1)
            vals.append(abs(idn.minkowski_residual(mesh, field)))
        assert vals[0] < 0.05
        assert vals[1] < vals[0]

    @pytest.mark.parametrize("surface", [
        surfaces.Ellipsoid(2.0, 1.0, 1.0), surfaces.BumpedSphere(1.0, 0.05, 3),
    ], ids=["ellipsoid", "bumped"])
    @pytest.mark.parametrize("r", [0, 1])
    def test_falls_under_refinement(self, surface, r):
        # measured, each level divides the residual by 2.5 to 4.8 from
        # subdiv 2 to 5 (the ellipsoid's 2.5 at r = 1 from 2 to 3): a
        # first-order quadrature would halve it at most
        vals = []
        for sub in (2, 3, 4, 5):
            mesh = surfaces.generate(surface, subdiv=sub)
            field = curvature.compute_curvature(mesh, r=r)
            vals.append(abs(idn.minkowski_residual(mesh, field)))
        assert all(coarse >= 2.4 * fine for coarse, fine in zip(vals, vals[1:]))

    def test_flipped_orientation_rejected(self):
        # reversed faces turn the normals inward: both curvatures go
        # negative, so H_2 > 0 still holds and H_1 > 0 refuses the mesh
        mesh = get_mesh("sphere", 3)
        flipped = TriMesh(mesh.vertices, mesh.faces[:, ::-1])
        with pytest.raises(CurvaturePositivityError) as err:
            curvature.compute_curvature(flipped, r=1)
        h1 = curvature.mean_curvature(
            curvature.compute_curvature(flipped, r=0).vertex_kappas, 1)
        assert (err.value.j, err.value.vertex) == (1, int(np.argmin(h1)))
        assert err.value.h_value == h1.min() < 0.0
        assert str(err.value).startswith(
            "order r=1 requires H_1 > 0 everywhere")


class TestTestFunctions:
    def test_shape_and_scaling(self):
        mesh, field, pencil = get_pipeline("sphere", 3, 0)
        f = idn.test_functions(mesh, field)
        assert f.shape == (mesh.n_vertices, 3)
        # on the unit sphere W is constant, so f_i = W x_i exactly
        expect = field.w[:, None] * mesh.vertices
        assert np.allclose(f, expect, atol=1e-10)


class TestDQuantities:
    def test_sphere_d_vanishes(self):
        mesh, field, pencil = get_pipeline("sphere", 3, 0)
        f = idn.test_functions(mesh, field)
        dq = report_of(mesh, field, pencil, f)
        norms = np.einsum("vi,v,vi->i", f, pencil.mass, f)
        assert np.max(np.abs(dq.d) / norms) < 1e-4

    def test_ellipsoid_long_axis_positive(self):
        for r in (0, 1):
            mesh, field, pencil = get_pipeline("ellipsoid", 3, r)
            f = idn.test_functions(mesh, field)
            dq = report_of(mesh, field, pencil, f)
            assert dq.d[0] > 1.0          # stretched axis needs lower energy
            assert dq.d_sum == pytest.approx(np.sum(dq.d))

    def test_projection_beats_raw(self):
        # the bumped sphere has no symmetry to cancel the raw pairing
        mesh, field, pencil = get_pipeline("bumped", 3, 1)
        f = idn.test_functions(mesh, field)
        dq = report_of(mesh, field, pencil, f)
        assert np.max(np.abs(dq.orthogonality_raw)) > 1e-8
        # yet d_i reads only the zero-mean part of W f_i: shifting W f_i by
        # a constant leaves the pairing <R0(W f_i), W f_i>, and moves d_i
        # by exactly the change of ||f_i||^2
        shifted = f + np.array([0.3, -1.0, 2.0]) / pencil.w[:, None]
        a = pencil.mass
        moved = report_of(mesh, field, pencil, shifted)
        np.testing.assert_allclose(moved.d + a @ shifted**2, dq.d + a @ f**2,
                                   rtol=1e-12)

    @pytest.mark.parametrize("r", [0, 1])
    def test_orthogonality_raw_under_refinement(self, r):
        # O(h^2) on the bumped sphere, its largest axis falling at least
        # 3x per level at s2-s4 (about 3.8x, 4.1x at r = 0 and 3.1x, 4.2x
        # at r = 1); zero up to round-off where symmetry cancels it
        def raw(kind, subdiv):
            mesh, field, pencil = get_pipeline(kind, subdiv, r)
            f = idn.test_functions(mesh, field)
            return report_of(mesh, field, pencil, f).orthogonality_raw.max()

        bumped = [raw("bumped", s) for s in (2, 3, 4)]
        assert bumped[1] <= bumped[0] / 3 and bumped[2] <= bumped[1] / 3
        for kind in ("sphere", "ellipsoid"):
            assert max(raw(kind, s) for s in (2, 3, 4)) < 1e-15

    def test_bump_dsum_grows_quadratically(self):
        # r = 1 only: at r = 0 the gap closes identically (H_0 = 1 turns
        # the power-mean step into an equality) so there is nothing to grow
        sums = []
        for kind in ("bumped", "bumped_half"):
            mesh, field, pencil = get_pipeline(kind, 4, 1)
            f = idn.test_functions(mesh, field)
            sums.append(report_of(mesh, field, pencil, f).d_sum)
        assert sums[0] > 0.0 and sums[1] > 0.0
        assert 3.0 < sums[0] / sums[1] < 5.0


class TestResolvent:
    """The zero-mean resolvent and the shifted solves, through eigen's factor."""

    def test_constrained_solve(self):
        # the grounded factor is R0: any load, mean-zero answer
        _, _, pencil = get_pipeline("ellipsoid", 3, 1)
        r0 = idn.zero_mean_resolvent(pencil)
        rng = np.random.default_rng(1)
        g = rng.normal(size=pencil.n_vertices)
        y = r0(pencil.mass * g)
        assert abs(pencil.mass @ y) < 1e-10 * np.linalg.norm(y)
        mean = (pencil.mass @ g) / pencil.mass.sum()
        load = pencil.mass * (g - mean)
        err = np.linalg.norm(pencil.k_stiff @ y - load) / np.linalg.norm(load)
        assert err < 1e-10

    def test_shifted_solve(self):
        _, _, pencil = get_pipeline("sphere", 3, 0)
        solve = eigen._shifted_solver(pencil.k_stiff, pencil.mass, 2.5)
        rng = np.random.default_rng(3)
        g = rng.normal(size=pencil.n_vertices)
        g -= (pencil.mass @ g) / pencil.mass.sum()
        y = solve(pencil.mass * g)
        lhs = pencil.k_stiff @ y + 2.5 * pencil.mass * y
        assert np.allclose(lhs, pencil.mass * g, atol=1e-10)
        assert abs(pencil.mass @ y) < 1e-10 * np.linalg.norm(y)

    def test_bound_check_passes(self):
        _, _, pencil = get_pipeline("ellipsoid", 3, 1)
        margin = oracles.resolvent_bound_check(
            pencil, mu=1.0, lam1=oracles.shifted_lam1(pencil), trials=50, seed=0)
        assert margin >= 0.0

    def test_bound_saturates_on_first_eigenvector(self):
        # g along the lowest nonzero mode is the equality case of the
        # resolvent inequality; any higher mode leaves real slack
        mesh, _, pencil = get_pipeline("sphere", 3, 0)
        spec = eigen.smallest_eigenpairs(pencil.k_stiff, pencil.mass, 5,
                                         sigma=kernel_shift(pencil))
        lam1 = spec.eigenvalues[1]
        solve = eigen._shifted_solver(pencil.k_stiff, pencil.mass, 1.0)

        def margin(g):
            norm = lambda x: float(np.sqrt((pencil.mass * x) @ x))
            return norm(g) / (lam1 + 1.0) - norm(solve(pencil.mass * g))

        assert abs(margin(spec.eigenvectors[:, 1])) < 1e-10
        assert margin(spec.eigenvectors[:, 4]) > 0.1

    def test_bound_check_detects_false_floor(self):
        # feeding a spectral floor that is too optimistic must trip the check
        _, _, pencil = get_pipeline("ellipsoid", 3, 1)
        with pytest.raises(BoundViolationError):
            oracles.resolvent_bound_check(pencil, mu=1.0, lam1=50.0, trials=50,
                                          seed=0)

    def test_pairing_is_k_energy(self):
        # on identity_report's three zero-sum loads b_i = M (W f_i - mean),
        # sum_i <phi_i, b_i> equals the K-energy sum_i phi_i^T K phi_i of
        # the phi_i = R0(b_i) up to round-off (at most 1.4e-14 measured)
        for kind in ("sphere", "ellipsoid", "bumped"):
            for r in (0, 1):
                mesh, field, pencil = get_pipeline(kind, 3, r)
                a = pencil.mass
                wf = pencil.w[:, None] * idn.test_functions(mesh, field)
                load = a[:, None] * (wf - (a @ wf) / a.sum())
                r0 = idn.zero_mean_resolvent(pencil)
                phi = np.column_stack([r0(b) for b in load.T])
                pairing = np.sum(phi * load)
                energy = np.sum(phi * (pencil.k_stiff @ phi))
                assert abs(pairing - energy) <= 1e-12 * abs(pairing)

    def test_r0_discards_constant_shift_of_load(self):
        # R0 b and R0 (b + c M 1) agree: the constant part of a load is
        # what K cannot reach
        mesh, field, pencil = get_pipeline("ellipsoid", 3, 1)
        r0 = idn.zero_mean_resolvent(pencil)
        b = pencil.mass * pencil.w * idn.test_functions(mesh, field)[:, 0]
        y = r0(b)
        np.testing.assert_allclose(r0(b + 2.5 * pencil.mass), y,
                                   rtol=0, atol=1e-12 * np.abs(y).max())


class TestFullReport:
    """verify.run's identities: every check once, and the theorem and the
    lemma read its d quantities."""

    def test_fields_cross_check(self):
        mesh, field, pencil = get_pipeline("ellipsoid", 3, 0)
        done = verify.run(mesh, field, verify.VerifyConfig(), {})
        rep = done.identities
        assert done.lemma.d is rep.d and done.theorem.d_sum == rep.d_sum
        alone = report_of(mesh, field, pencil, idn.test_functions(mesh, field))
        for name in ("lr_position_residual", "orthogonality_raw", "d"):
            np.testing.assert_array_equal(getattr(rep, name),
                                          getattr(alone, name))
        assert rep.minkowski_residual == alone.minkowski_residual

    def test_report_deterministic(self):
        config = verify.VerifyConfig(seed=5)
        mesh, field, _ = get_pipeline("sphere", 2, 0)
        a, b = (verify.run(mesh, field, config, {}).identities
                for _ in range(2))
        np.testing.assert_array_equal(a.d, b.d)
