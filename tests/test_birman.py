"""Birman-Schwinger kernel, crossing scan, and operator bounds."""

import logging
import math
from collections import Counter

import numpy as np
import pytest

from curvspec import birman, cli, eigen

import oracles
from conftest import floor_shift, get_pipeline, kernel_top


@pytest.fixture(scope="module")
def ellipsoid_pencil():
    _, _, pencil = get_pipeline("ellipsoid", 3, 1)
    return pencil


@pytest.fixture(scope="module")
def ellipsoid_scan(ellipsoid_pencil):
    return birman.scan_crossings(ellipsoid_pencil, steps=32, k=3, seed=0)


class TestKernelOperator:
    def test_matches_dense_oracle(self, ellipsoid_pencil):
        for mu in (0.5, 2.0, 20.0):
            ours = kernel_top(ellipsoid_pencil, mu, k=4, seed=0)
            ora, _ = oracles.dense_K_mu_eigenpairs(ellipsoid_pencil, mu, 4)
            assert np.max(np.abs(ours - ora)) < 1e-8

    def test_sphere_closed_forms(self):
        # bare Laplace spectrum 0, 2, 6 with W^2 = 2 turns the kernel top
        # into W^2/(lambda + mu) branch by branch
        _, _, pencil = get_pipeline("sphere", 3, 0)
        top_large = kernel_top(pencil, 100.0, k=1, seed=0)[0]
        assert top_large == pytest.approx(0.02, rel=1e-6)
        top_at_two = kernel_top(pencil, 2.0, k=1, seed=0)[0]
        assert top_at_two == pytest.approx(1.0, abs=1e-6)
        # W is constant here, so W-perp is the mean-zero subspace
        perp = kernel_top(pencil, 2.0, k=1, seed=0, w_perp=True)[0]
        assert perp == pytest.approx(0.5, abs=1e-4)

    def test_small_mu_perp_limit(self):
        # the equality case of the proof: restricted away from the W
        # direction the kernel top tends to exactly 1 from below as mu -> 0+
        _, _, pencil = get_pipeline("sphere", 3, 0)
        top = kernel_top(pencil, 1e-3, k=1, seed=0, w_perp=True)[0]
        assert 0.95 < top <= 1.0 + 1e-8

    def test_positive_mu_required(self, ellipsoid_pencil):
        with pytest.raises(ValueError):
            birman.scan_crossings(ellipsoid_pencil, mu_min=0.0)

    @pytest.mark.parametrize("subdiv", [0, 1])   # V = 12 and V = 42
    @pytest.mark.parametrize("restrict", [{}, {"w_perp": True}])
    def test_small_mesh_matches_dense_kernel(self, subdiv, restrict):
        # ARPACK on the kernel operator, values and vectors, against the
        # kernel built by columns and fully diagonalized
        _, _, p = get_pipeline("ellipsoid", subdiv, 1)
        for mu in (0.5, 2.0):
            solve = eigen._shifted_solver(p.k_stiff, p.mass, mu, p.layout)
            vals, g = eigen._kernel_eigenpairs(solve, p.mass, p.w, 3, 0,
                                               "kernel", **restrict)
            # the three asked for and ARPACK's two padding pairs
            assert len(vals) == g.shape[1] == 5
            ref_vals, ref_g = oracles.dense_K_mu_eigenpairs(
                p, mu, p.n_vertices, **restrict)
            np.testing.assert_allclose(vals, ref_vals[:5], rtol=0, atol=1e-10)
            np.testing.assert_allclose(g.T @ (p.mass[:, None] * g), np.eye(5),
                                       atol=1e-10)
            assert oracles.eigenspace_distance(
                vals, g, ref_vals, ref_g, p.mass, tol=1e-8) < 1e-8

    @pytest.mark.parametrize("subdiv", [1, 3])   # V = 42 and V = 642
    def test_hellmann_feynman_slope(self, subdiv):
        _, _, p = get_pipeline("ellipsoid", subdiv, 1)
        for mu in (0.5, 2.0):
            slopes = birman._kernel_top(p, mu, 3, 0)[1]
            h = 1e-4 * mu
            fd = (kernel_top(p, mu + h, k=3)
                  - kernel_top(p, mu - h, k=3)) / (2 * h)
            np.testing.assert_allclose(slopes, fd, rtol=1e-5)


class TestNewtonRoot:
    @staticmethod
    def recorded(f, slope):
        seen = []

        def fn(x):
            seen.append(x)
            return f(x), slope(x)
        return fn, seen

    def test_quadratic_convergence(self):
        # f = exp(-x) - 1/2 decreases through its root ln 2 in [0.5, 1]
        fn, seen = self.recorded(lambda x: math.exp(-x) - 0.5,
                                 lambda x: -math.exp(-x))
        x, err, n = birman._newton_root(
            fn, 0.5, 1.0, math.exp(-0.5) - 0.5, math.exp(-1.0) - 0.5)
        assert err <= 1e-12 and abs(x - math.log(2)) <= 1e-12
        assert n == len(seen) <= 5
        errs = [abs(v - math.log(2)) for v in seen]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= prev**2 + 1e-15

    # f = 1 - x^3 on [0, 4], with a slope 1e6 times too shallow: every
    # Newton step leaves the bracket
    @classmethod
    def shallow(cls):
        return cls.recorded(lambda x: 1.0 - x**3, lambda x: -1e-6)

    def test_bisection_fallback(self, caplog):
        fn, seen = self.shallow()
        with caplog.at_level(logging.DEBUG, logger="curvspec.birman"):
            x, err, n = birman._newton_root(fn, 0.0, 4.0, 1.0, -63.0,
                                            tol=1e-6, label="cubic")
        assert abs(x - 1.0) <= 1e-6 and err <= 1e-6
        assert seen[0] == 4.0 / 64.0   # regula falsi
        lo, hi = 0.0, 4.0
        for prev, nxt in zip(seen, seen[1:]):
            if prev**3 < 1.0:
                lo = prev
            else:
                hi = prev
            assert nxt == 0.5 * (lo + hi)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == n == len(seen)
        assert lines[0].startswith("cubic mu=")
        assert lines[0].endswith("step=regula-falsi")
        assert all(ln.endswith("step=bisect") for ln in lines[1:])

    def test_maxiter_exit(self):
        fn, seen = self.shallow()
        x, err, n = birman._newton_root(fn, 0.0, 4.0, 1.0, -63.0, maxiter=3)
        assert n == len(seen) == 3
        assert x == seen[-1] and err == abs(1.0 - x**3) > 1e-12

    def test_maxiter_exit_warns_in_scan(self, ellipsoid_pencil, monkeypatch):
        # a basis grown at the window's two ends alone puts the reduced
        # roots far from the true ones, and the full refinement, the Newton
        # run started from a reduced root, is capped at one evaluation
        newton = birman._newton_root

        def capped(*args, start=None, **kwargs):
            if start is not None:
                kwargs["maxiter"] = 1
            return newton(*args, start=start, **kwargs)

        monkeypatch.setattr(birman, "SNAPSHOTS", 2)
        monkeypatch.setattr(birman, "_newton_root", capped)
        res = birman.scan_crossings(ellipsoid_pencil, steps=32, k=3, seed=0)
        # mu_min's k + 2 = 5 kernel vectors and two Krylov blocks at mu_max
        assert res.basis_size == 3 * (3 + 2)
        stopped = [w for w in res.warnings if "stopped at |eig-1|=" in w]
        assert len(stopped) == len(res.crossings) == 2
        assert all("refine the grid" in w for w in stopped)
        assert all(c.evaluations == 1 for c in res.crossings)
        assert all(c.eig_error > 1e-8 for c in res.crossings)


class TestScan:
    def test_default_window(self, ellipsoid_pencil):
        res = birman.scan_crossings(ellipsoid_pencil, steps=8, k=1, seed=0)
        maxw2 = float(np.max(ellipsoid_pencil.w**2))
        assert res.mu_grid[0] == pytest.approx(1e-3 * maxw2)
        assert res.mu_grid[-1] == pytest.approx(10 * maxw2)

    # every grid top is a Ritz value of one reduced pencil whose right-hand
    # side grows with mu, so by Courant-Fischer no branch rises
    @pytest.mark.parametrize("shape,subdiv,r", [
        ("ellipsoid", 3, 1), ("ellipsoid", 4, 0), ("sphere", 3, 0),
        ("torus", 1, 0)])
    def test_branches_decrease(self, shape, subdiv, r):
        _, _, pencil = get_pipeline(shape, subdiv, r)
        tops = birman.scan_crossings(pencil, steps=32, k=3,
                                     seed=0).top_eigenvalues
        assert np.all(np.diff(tops, axis=0) < 0)
        assert np.all(tops > 0)

    def test_crossings_match_pencil_spectrum(self, ellipsoid_pencil, ellipsoid_scan):
        spec = eigen.smallest_eigenpairs(
            ellipsoid_pencil.a_matrix(), ellipsoid_pencil.mass, 6,
            sigma=floor_shift(ellipsoid_pencil),
        )
        negatives = spec.eigenvalues[spec.eigenvalues < 0]
        in_window = [
            v for v in negatives
            if ellipsoid_scan.mu_grid[0] <= -v <= ellipsoid_scan.mu_grid[-1]
        ]
        assert len(ellipsoid_scan.crossings) == len(in_window) == 2
        found = sorted(c.mu0 for c in ellipsoid_scan.crossings)
        for mu0, lam in zip(found, sorted(-v for v in in_window)):
            assert abs(mu0 - lam) / lam < 1e-5

    def test_crossing_quality_fields(self, ellipsoid_scan):
        for c in ellipsoid_scan.crossings:
            assert c.eig_error <= 1e-8
            assert c.match_error <= 1e-5
            assert isinstance(c.branch, int)
            assert c.matched_eigenvalue < 0

    def test_bound_columns_hold(self, ellipsoid_pencil, ellipsoid_scan):
        # at mu_min the full-kernel top is at most max(W^2)/mu, and the
        # W-restricted one at most max(W^2)/(lam1 + mu)
        mu = ellipsoid_scan.mu_grid[0]
        maxw2 = float(np.max(ellipsoid_pencil.w**2))
        bound_full = maxw2 / mu
        bound_w_perp = maxw2 / (oracles.shifted_lam1(ellipsoid_pencil) + mu)
        assert ellipsoid_scan.top_eigenvalues[0][0] <= bound_full + 1e-8
        assert ellipsoid_scan.top_w_perp <= bound_w_perp + 1e-8
        # the perp bound is the sharp one near the bottom of the window
        assert bound_w_perp < bound_full

    def test_deterministic(self, ellipsoid_pencil, ellipsoid_scan):
        again = birman.scan_crossings(ellipsoid_pencil, steps=32, k=3, seed=0)
        assert np.array_equal(again.top_eigenvalues, ellipsoid_scan.top_eigenvalues)
        assert [c.mu0 for c in again.crossings] == [
            c.mu0 for c in ellipsoid_scan.crossings
        ]

    def test_empty_window_rejected(self, ellipsoid_pencil):
        with pytest.raises(ValueError):
            birman.scan_crossings(ellipsoid_pencil, mu_min=5.0, mu_max=1.0)

    def test_one_factorization_per_snapshot(self, ellipsoid_pencil,
                                            monkeypatch):
        # K + mu M is factored at the 8 snapshots and once per full
        # evaluation confirming a crossing, nowhere else on the grid
        shifts = Counter()
        factor = birman._shifted_solver

        def counted(a, mass, mu, **kwargs):
            shifts[float(mu)] += 1
            return factor(a, mass, mu, **kwargs)

        monkeypatch.setattr(birman, "_shifted_solver", counted)
        res = birman.scan_crossings(ellipsoid_pencil, steps=32, k=3, seed=0)
        assert res.snapshots.tolist() == [0, 4, 9, 13, 18, 22, 27, 31]
        on_grid = [shifts[float(mu)] for mu in res.mu_grid]
        assert on_grid == [int(s in res.snapshots) for s in range(32)]
        confirm = sum(shifts.values()) - len(res.snapshots)
        assert confirm == sum(c.evaluations for c in res.crossings)
        assert len(res.crossings) == 2
        for c in res.crossings:
            # the reduced root is already within 1e-12 on the full kernel
            assert c.evaluations == 1
            assert c.eig_error <= 1e-12
        # both crossings share a grid cell, and that needs no note
        assert res.warnings == ()

    def test_restricted_solve_only_at_mu_min(self, ellipsoid_pencil,
                                             monkeypatch):
        # the W-restricted top is read at the bottom of the window alone,
        # on the factor the grid builds there
        restricted, calls = [], []
        kernel = birman._kernel_eigenpairs

        def counted(solve, mass, weight, k, seed, what, w_perp=False):
            calls.append(what)
            if w_perp:
                restricted.append(what)
            return kernel(solve, mass, weight, k, seed, what, w_perp)

        monkeypatch.setattr(birman, "_kernel_eigenpairs", counted)
        res = birman.scan_crossings(ellipsoid_pencil, steps=32, k=3, seed=0)
        assert restricted == [f"kernel eigensolve at mu={res.mu_grid[0]:.6g}"]
        # ARPACK runs at mu_min alone, twice, and once per full evaluation;
        # the later snapshots take Krylov steps on the reduced pencil
        assert len(calls) == 2 + sum(c.evaluations for c in res.crossings)
        assert calls[:2] == restricted * 2
        assert isinstance(res.top_w_perp, float)
        # it lies between the first two full-kernel tops (Cauchy interlacing)
        assert res.top_eigenvalues[0][1] - 1e-8 <= res.top_w_perp \
            <= res.top_eigenvalues[0][0] + 1e-8

    def test_sphere_crossing_at_two(self):
        # the only negative pencil eigenvalue on the unit sphere is -2
        _, _, pencil = get_pipeline("sphere", 3, 0)
        res = birman.scan_crossings(pencil, mu_min=0.5, mu_max=8.0, steps=16, k=2, seed=0)
        assert len(res.crossings) == 1
        assert res.crossings[0].mu0 == pytest.approx(2.0, abs=1e-4)


class TestReducedBasis:
    """The reduced-basis scan against the full ARPACK grid of the oracle."""

    @staticmethod
    def compare(pencil, steps, mu_rtol=1e-12, uncounted=False):
        res = birman.scan_crossings(pencil, steps=steps, k=3, seed=0)
        grid, tops, crossings = oracles.full_grid_scan(pencil, steps=steps,
                                                       k=3, seed=0)
        np.testing.assert_array_equal(res.mu_grid, grid)
        # Courant-Fischer: every Ritz value lies below the true top
        assert np.all(res.top_eigenvalues <= tops * (1.0 + 1e-12))
        # and the basis holds mu_min's own eigenvectors
        np.testing.assert_allclose(res.top_eigenvalues[0], tops[0],
                                   rtol=1e-12, atol=0)
        assert len(res.crossings) == len(crossings)
        # branch by branch: a double eigenvalue's two crossings sit at one
        # mu0 up to round-off, in either order
        for c, (mu0, branch, _, _) in zip(
                sorted(res.crossings, key=lambda x: (x.branch, x.mu0)),
                sorted(crossings, key=lambda x: (x[1], x[0]))):
            assert c.branch == branch
            assert c.mu0 == pytest.approx(mu0, rel=mu_rtol, abs=0)
            assert c.eig_error <= 1e-12
        # the s1 torus has 7 pencil eigenvalues in the window, and its 4th
        # top at mu_min, 2.235, says so
        assert len(res.warnings) == uncounted
        assert all("cross uncounted; raise --scan-k" in w
                   for w in res.warnings)
        return res, tops

    @pytest.mark.parametrize("shape,subdiv,r", [
        ("ellipsoid", 3, 1), ("ellipsoid", 4, 0), ("sphere", 3, 0),
        ("torus", 1, 0)])
    def test_matches_full_grid(self, shape, subdiv, r):
        _, _, pencil = get_pipeline(shape, subdiv, r)
        res, tops = self.compare(pencil, 32, uncounted=shape == "torus")
        np.testing.assert_allclose(res.top_eigenvalues, tops, rtol=1e-6,
                                   atol=0)
        assert len(res.snapshots) == birman.SNAPSHOTS
        assert res.snapshots[0] == 0 and res.snapshots[-1] == 31
        # mu_min's top k + 2 = 5 kernel vectors, then two Krylov blocks of
        # 5 at each of the 7 later snapshots; on the sphere, W is constant
        # and those 5 span an invariant subspace
        if shape == "ellipsoid":
            assert res.basis_size == 5 + 7 * 10
        elif shape == "sphere":
            assert res.basis_size == 5
        else:
            # on the torus some Krylov directions lie in the span up to
            # round-off, so how many are kept is a rank decision at V eps;
            # whatever it keeps, the basis grows past mu_min's 5 columns
            # and stays orthonormal
            reduced = birman._reduced_pencil(
                pencil, res.mu_grid[res.snapshots], 3, 0)[0]
            assert reduced.size == res.basis_size > 5
            np.testing.assert_allclose(reduced.q.T @ reduced.q,
                                       np.eye(reduced.size), rtol=0,
                                       atol=1e-13)

    @pytest.mark.parametrize("steps", [2, 5])
    @pytest.mark.parametrize("shape,subdiv,r", [
        ("ellipsoid", 3, 1), ("torus", 1, 0)])
    def test_short_grid_is_all_snapshots(self, shape, subdiv, r, steps):
        # a grid shorter than SNAPSHOTS grows its basis at the 8 points of
        # the window's 8-point grid, of which it holds only the two ends,
        # so every row is as close to the full grid as a long grid's
        _, _, pencil = get_pipeline(shape, subdiv, r)
        res, tops = self.compare(pencil, steps, uncounted=shape == "torus")
        np.testing.assert_allclose(res.top_eigenvalues, tops, rtol=1e-6,
                                   atol=0)
        assert res.snapshots.tolist() == [0, steps - 1]
        assert all(c.evaluations == 1 for c in res.crossings)
        if shape == "ellipsoid":
            assert res.basis_size == 5 + 7 * 10

    @pytest.mark.parametrize("shape", ["sphere", "ellipsoid"])
    def test_basis_capped_at_vertex_count(self, shape):
        # on the icosahedron the ellipsoid's Krylov blocks fill all of
        # R^V, V = 12, and the sphere's first 5 columns already span an
        # invariant subspace: either way every row is exact.  The
        # ellipsoid's lowest crossing sits at mu = 0.0032 with slope
        # -0.96, where a round-off |top - 1| of 4e-14 moves mu0 by 1e-11
        # relative
        _, _, pencil = get_pipeline(shape, 0, 1 if shape == "ellipsoid" else 0)
        res, tops = self.compare(pencil, 32, mu_rtol=1e-10)
        assert res.basis_size == (pencil.n_vertices if shape == "ellipsoid"
                                  else 5)
        assert pencil.n_vertices == 12
        np.testing.assert_allclose(res.top_eigenvalues, tops, rtol=1e-12,
                                   atol=0)

    def test_uncounted_branches_warn(self):
        # the s1 torus has 7 pencil eigenvalues in [-mu_max, -mu_min]; at
        # k = 3 the 4th top at mu_min says a 4th branch crosses, and at
        # k = 7 every crossing is counted and the 8th top lies below 1
        _, _, pencil = get_pipeline("torus", 1, 0)
        res = birman.scan_crossings(pencil, steps=32, k=3, seed=0)
        assert len(res.crossings) == 3
        warning, = res.warnings
        assert warning.startswith(
            f"top 4 at mu={res.mu_grid[0]:.6g} is 2.2352 > 1")
        res = birman.scan_crossings(pencil, steps=32, k=7, seed=0)
        assert len(res.crossings) == 7 and res.warnings == ()


class TestSerialization:
    def test_write_csv(self, tmp_path, ellipsoid_scan):
        # bs-scan --csv writes mu and the grid tops as %.17g, the values
        # of the scan itself
        path = tmp_path / "scan.csv"
        assert cli.main(["bs-scan", "--shape", "ellipsoid", "--a", "2",
                         "--b", "1", "--c", "1", "--subdiv", "3", "--r", "1",
                         "--steps", "32", "--scan-k", "3", "--seed", "0",
                         "--csv", str(path), "-o",
                         str(tmp_path / "rep.json")]) == 0
        assert path.read_text() == "mu,top_1,top_2,top_3\n" + "".join(
            ",".join("%.17g" % v for v in (mu, *row)) + "\n"
            for mu, row in zip(ellipsoid_scan.mu_grid,
                               ellipsoid_scan.top_eigenvalues))

    def test_json_dict(self, ellipsoid_scan):
        blob = cli._jsonable(ellipsoid_scan)
        assert set(blob) >= {"mu_grid", "top_eigenvalues", "crossings", "top_w_perp", "warnings",
                             "snapshots", "basis_size"}
        assert blob["snapshots"] == [0, 4, 9, 13, 18, 22, 27, 31]
        assert blob["basis_size"] == 75
        assert len(blob["crossings"]) == 2
        assert all(isinstance(c["mu0"], float) for c in blob["crossings"])
        assert [c["evaluations"] for c in blob["crossings"]] == [
            c.evaluations for c in ellipsoid_scan.crossings]
        assert all(isinstance(c["evaluations"], int) for c in blob["crossings"])
