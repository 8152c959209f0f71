"""End-to-end acceptance gate.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single ACCEPTANCE line (visible with -s; the -v test names carry
the same pass/fail information).  Numbers quoted in comments are the frozen
desk-scale measurements these assertions were calibrated against.
"""

import itertools
import json
import time

import numpy as np
import pytest

from curvspec import birman, cli, eigen, identities, verify
from curvspec.errors import CurvaturePositivityError

import oracles
from conftest import (floor_shift, get_mesh, get_pipeline, kernel_top,
                      lemma_two_negative, newton_eigenvalues, verify_corollary,
                      verify_theorem)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_sphere_equality_case():
    # lambda_1 -> -2 and a triple zero cluster, tightening under refinement
    worst = {0: [], 1: []}
    slowest = 0.0
    for r in (0, 1):
        for sub in (3, 4, 5):
            t0 = time.perf_counter()
            mesh = get_mesh("sphere", sub)
            rep = verify_theorem(mesh, r)
            slowest = max(slowest, time.perf_counter() - t0)
            worst[r].append(abs(rep.lambda_2))
            if sub == 4:
                assert rep.lambda_1 == pytest.approx(-2.0, abs=0.05)
                assert abs(rep.lambda_2) <= 0.05
                assert rep.multiplicity == 3
    shrinking = all(
        worst[r][0] > worst[r][1] > worst[r][2] for r in (0, 1)
    )
    ok = shrinking and slowest <= 60.0
    report(
        1, ok,
        "lambda_2 clusters at 0 (x3), |lambda_2| %.1e -> %.1e -> %.1e, "
        "slowest level %.1f s" % (*worst[1], slowest),
    )


def test_criterion_02_ellipsoid_strictly_negative():
    drifts = {}
    for r in (0, 1):
        l2 = {}
        for sub in (4, 5):
            rep = verify_theorem(get_mesh("ellipsoid", sub), r)
            l2[sub] = rep.lambda_2
            assert rep.verdict == verify.STRICTLY_NEGATIVE
        assert l2[4] <= -0.1
        drifts[r] = abs(l2[5] - l2[4]) / abs(l2[4])
        assert drifts[r] <= 0.10
    report(
        2, True,
        "lambda_2 <= -0.1 at subdiv 4, refinement drift r=0: %.1f%%, r=1: %.1f%%"
        % (100 * drifts[0], 100 * drifts[1]),
    )


def test_criterion_03_birman_schwinger_correspondence():
    checked = 0
    worst_err = 0.0
    for r in (0, 1):
        _, _, pencil = get_pipeline("ellipsoid", 3, r)
        scan = birman.scan_crossings(pencil, steps=32, k=3, seed=0)
        spec = eigen.smallest_eigenpairs(pencil.a_matrix(), pencil.mass, 6,
                                         sigma=floor_shift(pencil))
        in_window = [
            v for v in spec.eigenvalues
            if v < 0 and scan.mu_grid[0] <= -v <= scan.mu_grid[-1]
        ]
        assert len(in_window) >= 2
        assert len(scan.crossings) == len(in_window)
        for mu0, lam in zip(
            sorted(c.mu0 for c in scan.crossings), sorted(-v for v in in_window)
        ):
            err = abs(mu0 - lam) / lam
            worst_err = max(worst_err, err)
            assert err <= 1e-5
            checked += 1
    report(
        3, True,
        "%d crossings matched to negative eigenvalues, worst rel error %.1e"
        % (checked, worst_err),
    )


def test_criterion_04_resolvent_and_kernel_bounds():
    worst_resolvent = np.inf
    worst_kernel = np.inf
    for kind, r in itertools.product(("sphere", "ellipsoid"), (0, 1)):
        _, _, pencil = get_pipeline(kind, 3, r)
        lam1 = oracles.shifted_lam1(pencil)
        margin = oracles.resolvent_bound_check(
            pencil, mu=1.0, lam1=lam1, trials=100, seed=0)
        worst_resolvent = min(worst_resolvent, margin)
        assert margin >= -1e-8
        scan = birman.scan_crossings(pencil, steps=16, k=2, seed=0)
        mu, maxw2 = scan.mu_grid[0], float(np.max(pencil.w**2))
        slack = min(maxw2 / mu - scan.top_eigenvalues[0][0],
                    maxw2 / (lam1 + mu) - scan.top_w_perp)
        worst_kernel = min(worst_kernel, slack)
        assert slack >= -1e-8
    report(
        4, True,
        "100-trial resolvent margin >= %.2e, kernel bound slack >= %.2e"
        % (worst_resolvent, worst_kernel),
    )


def test_criterion_05_minkowski_formula():
    worst = {"sphere": 0.0, "ellipsoid": 0.0}
    for kind, cap in (("sphere", 0.01), ("ellipsoid", 0.02)):
        for r in (0, 1):
            vals = []
            for sub in (3, 4):
                mesh, field, _ = get_pipeline(kind, sub, r)
                vals.append(abs(identities.minkowski_residual(mesh, field)))
            assert vals[1] <= cap
            assert vals[1] <= vals[0] + 1e-15
            worst[kind] = max(worst[kind], vals[1])
    report(
        5, True,
        "subdiv-4 residuals: sphere %.1e (cap 0.01), ellipsoid %.1e (cap 0.02), decreasing"
        % (worst["sphere"], worst["ellipsoid"]),
    )


def test_criterion_06_position_identity():
    worst4 = 0.0
    for kind in ("sphere", "sphere_small", "sphere_big"):
        for r in (0, 1):
            res = []
            for sub in (3, 4):
                mesh, field, pencil = get_pipeline(kind, sub, r)
                res.append(
                    float(np.max(identities.lr_position_residual(mesh, field, pencil)))
                )
            assert res[1] <= 0.05
            assert res[1] < res[0]
            worst4 = max(worst4, res[1])
    report(6, True, "sphere position residual at subdiv 4 <= %.4f (cap 0.05), decreasing" % worst4)


def test_criterion_07_lemma_criterion():
    for r in (0, 1):
        lem = lemma_two_negative(get_mesh("ellipsoid", 3), r)
        assert lem.applicable and np.any(lem.d > 0)
        assert lem.negative_count >= 2
        lem_s = lemma_two_negative(get_mesh("sphere", 3), r)
        assert not lem_s.applicable
        assert np.all(np.abs(lem_s.d) <= lem_s.thresholds)
        assert lem_s.negative_count == 1
    report(7, True, "ellipsoid: d_i > 0 with >= 2 negative eigenvalues; sphere: inert with exactly 1")


def test_criterion_08_curvature_algebra_suite():
    # compute_curvature's n = 2 closed forms on 1000 signed curvature pairs
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    k = rng.uniform(-10, 10, size=(1000, 2))
    s = np.array([[oracles.elementary_symmetric_bruteforce(row, r)
                   for r in range(3)] for row in k])
    scale = np.maximum(1.0, np.abs(s).max(axis=1))
    prev = None
    for r in (0, 1):
        newt = newton_eigenvalues(k, r)
        # trace identity
        assert np.all(np.abs(newt.sum(axis=1) - (2 - r) * s[:, r]) <= 1e-10 * scale * 2)
        # recursion P_r = S_r I - A P_{r-1}, eigenvalue by eigenvalue
        if r >= 1:
            gap = np.abs(newt - (s[:, r:r + 1] - k * prev)).max(axis=1)
            assert np.all(gap <= 1e-10 * scale)
        prev = newt
    checked = len(k)
    k = rng.uniform(0.05, 10, size=(1000, 2))
    gap = oracles.maclaurin_gap(k)
    assert np.all(gap >= -1e-10)
    assert np.all(oracles.maclaurin_gap(k[:, [0, 0]]) <= 1e-10)
    unequal = k.max(axis=1) / k.min(axis=1) > 1.01
    assert np.all(gap[unequal] > 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    report(8, True, "%d Newton pairs + 1000 Maclaurin pairs at 1e-10 in %.2f s" % (checked, elapsed))


def test_criterion_09_oracle_equivalence():
    worst_eig = 0.0
    for kind, r in [("sphere", 0), ("sphere", 1), ("ellipsoid", 0), ("ellipsoid", 1), ("torus", 0)]:
        sub = 1 if kind == "torus" else 3
        _, _, pencil = get_pipeline(kind, sub, r)
        dense, _ = oracles.dense_eigenpairs(pencil.a_matrix(), pencil.mass, 6)
        iterative = eigen.smallest_eigenpairs(pencil.a_matrix(), pencil.mass, 6,
                                              sigma=floor_shift(pencil))
        gap = float(np.max(np.abs(dense - iterative.eigenvalues)))
        worst_eig = max(worst_eig, gap)
        assert gap <= 1e-8
    worst_kernel = 0.0
    for r in (0, 1):
        _, _, pencil = get_pipeline("ellipsoid", 3, r)
        assert pencil.n_vertices <= 1000
        for mu in (0.5, 2.0):
            ours = kernel_top(pencil, mu, k=4, seed=0)
            ora, _ = oracles.dense_K_mu_eigenpairs(pencil, mu, 4)
            worst_kernel = max(worst_kernel, float(np.max(np.abs(ours - ora))))
            assert worst_kernel <= 1e-8
    report(
        9, True,
        "ARPACK vs LAPACK spectra within %.1e; operator vs dense kernel within %.1e"
        % (worst_eig, worst_kernel),
    )


def test_criterion_10_corollary_domination():
    # the slack is relative to the T_r potential's largest value: on a
    # sphere it is round-off on the scale of W^2
    worst_slack = np.inf
    for kind in ("sphere", "sphere_small", "sphere_big", "ellipsoid", "ellipsoid_mild", "bumped"):
        for r in (0, 1):
            mesh, field, _ = get_pipeline(kind, 3, r)
            done = verify.run(mesh, field, verify.VerifyConfig(), {})
            t_pot = verify.t_potential(field)
            slack = (t_pot - field.w**2).min() / t_pot.max()
            worst_slack = min(worst_slack, slack)
            assert slack >= -8 * np.finfo(float).eps
            assert done.corollary.lambda_2_t_upper \
                <= done.theorem.lambda_2 + 1e-12
    sphere_t = verify_corollary(get_mesh("sphere", 3), 1).lambda_2_t_upper
    assert sphere_t == pytest.approx(0.0, abs=0.05)
    report(
        10, True,
        "pointwise domination slack >= %.1e of max potential on 6 convex meshes, sphere lambda_2(T) <= %.1e"
        % (worst_slack, sphere_t),
    )


def test_criterion_11_precondition_gate(tmp_path):
    out = tmp_path / "torus.json"
    argv = ["verify", "--shape", "torus", "--subdiv", "1",
            "--major-radius", "2", "--minor-radius", "0.5", "-o", str(out)]
    code = cli.main(argv + ["--r", "1"])
    assert code == 3
    blob = json.loads(out.read_text())
    assert blob["error"]["type"] == "CurvaturePositivityError"
    assert "vertex" in blob["error"]["message"]
    code0 = cli.main(argv + ["--r", "0"])
    assert code0 == 0
    blob0 = json.loads(out.read_text())
    lam2 = blob0["verdicts"]["theorem"]["lambda_2"]
    assert lam2 <= 0.0
    report(
        11, True,
        "torus r=1 exits 3 naming a vertex with H_2 <= 0; r=0 completes with lambda_2 = %.3f" % lam2,
    )
