"""Generalized eigensolvers for the operator pencil."""

import ast
import dataclasses
import glob
import inspect
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from curvspec import eigen, identities
from curvspec.assemble import pencil_floor_shift
from curvspec.errors import EigenSolveError

import oracles
from conftest import floor_shift, get_pipeline, kernel_shift


@pytest.fixture(scope="module")
def sphere_pencil():
    _, _, pencil = get_pipeline("sphere", 3, 0)
    return pencil


@pytest.fixture(scope="module")
def pencil_args(sphere_pencil):
    return sphere_pencil.a_matrix(), sphere_pencil.mass


class TestSolvers:
    def test_dense_matches_oracle(self):
        _, _, pencil = get_pipeline("sphere", 2, 1)
        spec = eigen.smallest_eigenpairs(pencil.a_matrix(), pencil.mass, 6,
                                         sigma=floor_shift(pencil))
        ora, _ = oracles.dense_eigenpairs(pencil.a_matrix(), pencil.mass, 6)
        assert np.max(np.abs(spec.eigenvalues - ora)) < 1e-10

    def test_methods_agree(self, sphere_pencil, pencil_args):
        # ARPACK shift-invert against the LAPACK reference
        it = eigen.smallest_eigenpairs(*pencil_args, 6,
                                       sigma=floor_shift(sphere_pencil))
        d, _ = oracles.dense_eigenpairs(*pencil_args, 6)
        assert np.max(np.abs(d - it.eigenvalues)) < 1e-9

    def test_laplace_beltrami_sphere(self, sphere_pencil):
        # bare stiffness on the unit sphere: 0, then l(l+1) with 2l+1 copies
        spec = eigen.smallest_eigenpairs(sphere_pencil.k_stiff, sphere_pencil.mass, 9,
                                         sigma=kernel_shift(sphere_pencil))
        ev = spec.eigenvalues
        assert abs(ev[0]) < 1e-10
        assert np.allclose(ev[1:4], 2.0, atol=1e-4)
        assert np.allclose(ev[4:9], 6.0, atol=0.05)

    def test_iterative_with_explicit_sigma(self, sphere_pencil):
        spec = eigen.smallest_eigenpairs(
            sphere_pencil.k_stiff, sphere_pencil.mass, 4, sigma=-1.0,
        )
        assert abs(spec.eigenvalues[0]) < 1e-10
        assert np.allclose(spec.eigenvalues[1:4], 2.0, atol=1e-4)

    def test_diagonal_pencil_exact(self):
        spec = eigen.smallest_eigenpairs(
            sp.diags([1.0, 2.0, 3.0]).tocsr(), np.ones(3), 2, sigma=0.0
        )
        assert spec.eigenvalues == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_random_matrix_against_dense(self):
        rng = np.random.default_rng(99)
        raw = rng.normal(size=(50, 50))
        a = sp.csr_matrix(0.5 * (raw + raw.T))
        m = rng.uniform(0.5, 2.0, size=50)
        dense, _ = oracles.dense_eigenpairs(a, m, 5)
        it = eigen.smallest_eigenpairs(a, m, 5, sigma=dense[0] - 1.0)
        assert np.max(np.abs(it.eigenvalues - dense)) < 1e-8

    def test_growing_potential_lowers_spectrum(self, sphere_pencil):
        # min-max: subtracting a nonnegative diagonal can only push every
        # eigenvalue down
        a = sphere_pencil.a_matrix()
        m = sphere_pencil.mass
        # a bump of at most 0.3 lowers the floor by at most 0.3
        sigma = pencil_floor_shift(float(np.max(sphere_pencil.w**2)) + 0.3)
        base = eigen.smallest_eigenpairs(a, m, 5, sigma=sigma).eigenvalues
        rng = np.random.default_rng(5)
        for _ in range(3):
            bump = rng.uniform(0.0, 0.3, size=sphere_pencil.n_vertices)
            shifted = eigen.smallest_eigenpairs(
                a - sp.diags(m * bump).tocsr(), m, 5, sigma=sigma
            ).eigenvalues
            assert np.all(shifted <= base + 1e-10)


class TestSpectrumContract:
    def test_residuals_small_and_ascending(self, sphere_pencil, pencil_args):
        spec = eigen.smallest_eigenpairs(*pencil_args, 5,
                                         sigma=floor_shift(sphere_pencil))
        assert spec.k == 5
        assert np.all(np.diff(spec.eigenvalues) > -1e-12)
        assert spec.residuals.max() < 1e-9

    def test_vectors_m_orthonormal(self, sphere_pencil, pencil_args):
        # ARPACK's standard-mode Ritz vectors come back orthonormal with no
        # cleanup pass, also across K's degenerate l = 1 and l = 2 clusters
        # (k = 9) at the default tol
        p = sphere_pencil
        for a, k, sigma in ((pencil_args[0], 5, floor_shift(p)),
                            (p.k_stiff, 9, kernel_shift(p))):
            spec = eigen.smallest_eigenpairs(a, p.mass, k, sigma=sigma)
            gram = spec.eigenvectors.T @ (p.mass[:, None] * spec.eigenvectors)
            assert np.max(np.abs(gram - np.eye(k))) <= 1e-12

    def test_orthonormalized_per_cluster(self, sphere_pencil):
        # the sphere's stiffness has the clusters 0, the l=1 triple and the
        # l=2 quintuple; ARPACK's vectors are M-orthonormal across and
        # within them, with residuals at round-off.  ARPACK runs at machine
        # precision (tol=0): at 1e-10 it meets the degenerate quintuple
        # only through round-off, and the residual cap below would hold by
        # chance
        p = sphere_pencil
        spec = eigen.smallest_eigenpairs(p.k_stiff, p.mass, 9,
                                         sigma=kernel_shift(p), tol=0)
        vecs = spec.eigenvectors
        gram = vecs.T @ (p.mass[:, None] * vecs)
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-12
        assert spec.residuals.max() <= 5e-13

    def test_rayleigh_quotient_consistent(self, sphere_pencil):
        a = sphere_pencil.a_matrix()
        spec = eigen.smallest_eigenpairs(a, sphere_pencil.mass, 4,
                                         sigma=floor_shift(sphere_pencil))
        for i in range(4):
            rq = oracles.rayleigh_quotient(a, sphere_pencil.mass, spec.eigenvectors[:, i])
            assert rq == pytest.approx(spec.eigenvalues[i], abs=1e-9)

    def test_rayleigh_of_constants_is_minus_mean_w2(self, sphere_pencil):
        # K kills constants, so only the potential survives the quotient
        a = sphere_pencil.a_matrix()
        m = sphere_pencil.mass
        ones = np.ones(sphere_pencil.n_vertices)
        rq = oracles.rayleigh_quotient(a, m, ones)
        want = -float(m @ sphere_pencil.w**2) / float(m.sum())
        assert rq == pytest.approx(want, rel=1e-12)
        assert rq < 0.0
        lam1 = eigen.smallest_eigenpairs(
            a, m, 1, sigma=floor_shift(sphere_pencil)).eigenvalues[0]
        assert lam1 <= rq + 1e-12

    def test_rayleigh_inside_spectrum_bounds(self, sphere_pencil):
        a = sphere_pencil.a_matrix()
        m = sphere_pencil.mass
        nv = sphere_pencil.n_vertices
        full, _ = oracles.dense_eigenpairs(a, m, nv)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.normal(size=nv)
            rq = oracles.rayleigh_quotient(a, m, x)
            assert full[0] - 1e-10 <= rq <= full[-1] + 1e-10

    def test_rayleigh_zero_vector(self, sphere_pencil):
        with pytest.raises(ValueError):
            oracles.rayleigh_quotient(
                sphere_pencil.a_matrix(),
                sphere_pencil.mass,
                np.zeros(sphere_pencil.n_vertices),
            )

    def test_seed_reproducibility(self, sphere_pencil, pencil_args):
        args = (*pencil_args, 5, floor_shift(sphere_pencil))
        one = eigen.smallest_eigenpairs(*args, seed=11)
        two = eigen.smallest_eigenpairs(*args, seed=11)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        other = eigen.smallest_eigenpairs(*args, seed=12)
        assert np.max(np.abs(one.eigenvalues - other.eigenvalues)) < 1e-10


class TestShiftedSolver:
    def test_positive_shift_solves_shifted_system(self, sphere_pencil):
        p = sphere_pencil
        b = np.random.default_rng(5).normal(size=p.n_vertices)
        y = eigen._shifted_solver(p.k_stiff, p.mass, 2.0, p.layout)(b)
        resid = p.k_stiff @ y + 2.0 * p.mass * y - b
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(b)

    def test_zero_shift_returns_mean_zero_solution(self, sphere_pencil):
        # K kills constants: the constant part of b is taken off the load
        # and y comes back with zero M-mean
        p = sphere_pencil
        b = np.random.default_rng(6).normal(size=p.n_vertices) + 3.0
        y = identities.zero_mean_resolvent(p)(b)
        assert abs(p.mass @ y) < 1e-10 * np.linalg.norm(p.mass * y)
        load = b - b.sum() / p.mass.sum() * p.mass
        resid = p.k_stiff @ y - load
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(load)

    def test_pencil_shift_matches_scipy_factor(self, sphere_pencil):
        # the factor ARPACK is handed solves (A - sigma*M) y = b as a dense
        # LAPACK solve does, to round-off
        p = sphere_pencil
        a, sigma = p.a_matrix(), floor_shift(p)
        b = np.random.default_rng(7).normal(size=p.n_vertices)
        own = eigen._shifted_solver(a, p.mass, -sigma, p.layout)(b)
        ref = oracles.dense_shifted_solve(a, p.mass, -sigma, b)
        assert np.linalg.norm(own - ref) <= 1e-12 * np.linalg.norm(ref)
        resid = a @ own - sigma * p.mass * own - b
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)

    def test_zero_shift_factors_the_stored_matrix(self):
        # the torus stiffness stores explicit zeros; the grounded factor of
        # K as assembled gives the bordered system's solution to round-off
        _, _, p = get_pipeline("torus", 1, 0)
        assert np.any(p.k_stiff.data == 0.0)
        b = np.random.default_rng(8).normal(size=p.n_vertices) + 3.0
        own = identities.zero_mean_resolvent(p)(b)
        ref = oracles.dense_shifted_solve(p.k_stiff, p.mass, 0.0, b,
                                          zero_mean=True)
        assert np.linalg.norm(own - ref) <= 1e-12 * np.linalg.norm(ref)
        load = b - b.sum() / p.mass.sum() * p.mass
        resid = p.k_stiff @ own - load
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(load)
        assert abs(p.mass @ own) <= 1e-12 * np.linalg.norm(p.mass * own)

    def test_singular_factor_raises_eigen_solve_error(self):
        # diag(1, 2, 3) - 2*I is exactly singular, for the helper and for
        # the eigensolve that would factor it
        a = sp.diags([1.0, 2.0, 3.0]).tocsr()
        with pytest.raises(EigenSolveError, match="factorization"):
            eigen._shifted_solver(a, np.ones(3), -2.0, eigen.band_layout(a))
        with pytest.raises(EigenSolveError, match="factorization"):
            eigen.smallest_eigenpairs(a, np.ones(3), 1, sigma=2.0)

    def test_shift_not_below_spectrum_is_refused(self, sphere_pencil):
        # a shift-invert target above lam1 makes A - sigma*M indefinite, as
        # does any negative shift of the PSD stiffness; both are refused
        # before a solve instead of factored
        p = sphere_pencil
        a = p.a_matrix()
        lam1 = oracles.dense_eigenpairs(a, p.mass, 1)[0][0]
        with pytest.raises(EigenSolveError, match="not positive definite"):
            eigen.smallest_eigenpairs(a, p.mass, 3, sigma=lam1 + 0.5)
        with pytest.raises(EigenSolveError, match="not positive definite"):
            eigen._shifted_solver(p.k_stiff, p.mass, -1.0, p.layout)

    def test_band_factor_is_made_without_a_copy(self):
        # the (bw+1, V) band is the one large allocation: it is factored in
        # place, and a solve makes no copy of it either
        _, _, p = get_pipeline("ellipsoid", 5, 0)
        nv = p.n_vertices
        mat = sp.csr_matrix(p.k_stiff + sp.diags(p.mass))
        perm = reverse_cuthill_mckee(mat, symmetric_mode=True)
        ordered = mat[perm][:, perm].tocoo()
        band_bytes = (int(np.max(ordered.col - ordered.row)) + 1) * nv * 8
        b = np.random.default_rng(9).normal(size=nv)
        tracemalloc.start()
        try:
            solve = eigen._shifted_solver(p.k_stiff, p.mass, 1.0,
                                          layout=p.layout)
            factor_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve(b)
            solve_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert nv == 10242
        assert factor_peak < 1.5 * band_bytes
        assert solve_peak < 8 * nv * 8

    def test_band_layout_holds_small_index_arrays_only(self):
        # the layout kept on the pencil for the whole command is index
        # arrays and integers, far below the band each factorization fills
        _, _, p = get_pipeline("ellipsoid", 5, 0)
        lay = p.layout
        mat = sp.csr_matrix(p.k_stiff + sp.diags(p.mass))
        perm = reverse_cuthill_mckee(mat, symmetric_mode=True)
        ordered = mat[perm][:, perm].tocoo()
        bw = int(np.max(ordered.col - ordered.row))
        assert (len(lay.order), lay.bw) == (10242, bw)
        assert lay.band_bytes == (bw + 1) * 10242 * 8
        arrays = [getattr(lay, f.name) for f in dataclasses.fields(lay)]
        assert all(isinstance(v, int) or v.dtype.kind == "i" for v in arrays)
        held = sum(v.nbytes for v in arrays if not isinstance(v, int))
        assert held < 0.5 * lay.band_bytes

    def test_matrix_off_the_layout_pattern_is_refused(self, sphere_pencil):
        # the band is filled by position, so a matrix with another pattern
        # must not be factored on the layout
        p = sphere_pencil
        other = sp.csr_matrix(p.k_stiff + sp.eye(p.n_vertices, k=3))
        with pytest.raises(ValueError, match="pattern"):
            eigen._shifted_solver(other, p.mass, 1.0, layout=p.layout)


class TestValidation:
    def test_bad_k(self, sphere_pencil):
        # ARPACK returns at most V - 1 pairs; k = V is refused, not truncated
        a, m = sphere_pencil.a_matrix(), sphere_pencil.mass
        sigma = floor_shift(sphere_pencil)
        nv = sphere_pencil.n_vertices
        for k in (0, nv, nv + 1):
            with pytest.raises(EigenSolveError,
                               match=f"k={k} .* V={nv} .* \\[1, {nv - 1}\\]"):
                eigen.smallest_eigenpairs(a, m, k, sigma=sigma)

    def test_bad_mass(self, sphere_pencil):
        a = sphere_pencil.a_matrix()
        sigma = floor_shift(sphere_pencil)
        with pytest.raises(ValueError):
            eigen.smallest_eigenpairs(a, sphere_pencil.mass[:-1], 3, sigma=sigma)
        bad = sphere_pencil.mass.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError):
            eigen.smallest_eigenpairs(a, bad, 3, sigma=sigma)

    def test_tiny_mesh_iterative_clamp(self):
        # k + 2 padding must clamp below n for very small problems
        _, _, pencil = get_pipeline("sphere", 0, 0)
        spec = eigen.smallest_eigenpairs(
            pencil.k_stiff, pencil.mass, pencil.n_vertices - 2,
            sigma=kernel_shift(pencil),
        )
        assert spec.k == pencil.n_vertices - 2


@pytest.mark.parametrize("subdiv", [0, 1])   # V = 12 and V = 42
class TestSmallMeshes:
    """ARPACK on meshes small enough to check against the full LAPACK spectrum."""

    @staticmethod
    def check(a_mat, mass, k, sigma):
        spec = eigen.smallest_eigenpairs(a_mat, mass, k, sigma=sigma)
        ref_vals, ref_vecs = oracles.dense_eigenpairs(a_mat, mass, len(mass))
        np.testing.assert_allclose(spec.eigenvalues, ref_vals[:k],
                                   rtol=0, atol=1e-10)
        dist = oracles.eigenspace_distance(spec.eigenvalues, spec.eigenvectors,
                                           ref_vals, ref_vecs, mass, tol=1e-8)
        assert dist < 1e-8
        assert spec.residuals.max() < 1e-9

    def test_pencil_matches_lapack(self, subdiv):
        for r in (0, 1):
            _, _, p = get_pipeline("ellipsoid", subdiv, r)
            self.check(p.a_matrix(), p.mass, 5, floor_shift(p))

    def test_stiffness_matches_lapack(self, subdiv):
        _, _, p = get_pipeline("ellipsoid", subdiv, 1)
        self.check(p.k_stiff, p.mass, 5, kernel_shift(p))


class TestReducedPencil:
    """The incrementally grown reduced basis of the Birman-Schwinger scan."""

    @staticmethod
    def grown(pencil, blocks):
        reduced = eigen._ReducedPencil(pencil.k_stiff, pencil.potential,
                                       pencil.mass)
        for block in blocks:
            reduced.extend(block)
        return reduced

    def test_projections_grow_by_borders(self):
        # three blocks, the last half made of combinations of the first
        # two: the basis stays orthonormal, drops what it already spans,
        # and its bordered projections equal the ones formed at once
        _, _, p = get_pipeline("ellipsoid", 2, 1)
        rng = np.random.default_rng(0)
        one, two = rng.standard_normal((2, p.n_vertices, 4))
        mixed = np.hstack((one @ rng.standard_normal((4, 2))
                           + two @ rng.standard_normal((4, 2)),
                           rng.standard_normal((p.n_vertices, 2))))
        reduced = self.grown(p, [one, two, mixed])
        q = reduced.q
        assert reduced.size == q.shape[1] == 4 + 4 + 2
        np.testing.assert_allclose(q.T @ q, np.eye(10), rtol=0, atol=1e-14)
        for held, full in zip(reduced._proj,
                              (q.T @ (p.potential[:, None] * q),
                               q.T @ (p.k_stiff @ q),
                               q.T @ (p.mass[:, None] * q))):
            np.testing.assert_allclose(held, full, rtol=0, atol=1e-12)

    def test_zero_columns_span_nothing(self):
        # a Krylov step at a huge mu can underflow to a zero column: it is
        # dropped, not normalized to NaN, and a block of them adds nothing
        _, _, p = get_pipeline("ellipsoid", 2, 1)
        rng = np.random.default_rng(2)
        block = rng.standard_normal((p.n_vertices, 3))
        block[:, 1] = 0.0
        reduced = self.grown(p, [block, np.zeros((p.n_vertices, 2))])
        assert reduced.size == 2
        assert all(np.all(np.isfinite(m)) for m in (reduced.q, *reduced._proj))

    def test_capped_at_vertex_count(self):
        # on the icosahedron, 3 blocks of 5 fill R^12 and stop there; every
        # Ritz value is then the pencil's own
        _, _, p = get_pipeline("ellipsoid", 0, 1)
        rng = np.random.default_rng(1)
        reduced = self.grown(p, rng.standard_normal((3, 12, 5)))
        assert reduced.size == 12
        mu = 0.5
        ref = oracles.dense_K_mu_eigenpairs(p, mu, 3)[0]
        np.testing.assert_allclose(reduced.top(mu, 3)[0], ref, rtol=1e-12)


def test_one_factor_and_one_arpack_call_site():
    # every ordering, factorization, banded solve, ARPACK run and dense
    # eigensolve goes through eigen's helpers; a second
    # reverse_cuthill_mckee, cholesky_banded, pbtrs, eigsh or eigh call
    # anywhere in the package, or any scipy band solve wrapper, sparse LU
    # or bordered matrix, fails here.  The one eigh is the generalized
    # scipy.linalg call of the reduced Birman-Schwinger pencil.
    # The eigsh call runs ARPACK's standard mode: the operator is its one
    # positional argument, and no M, sigma, OPinv or **kwargs follow it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "curvspec")
    calls = {"cholesky_banded": [], "pbtrs": [], "reverse_cuthill_mckee": [],
             "eigsh": [], "cho_solve_banded": [], "splu": [], "spilu": [],
             "factorized": [], "bmat": [], "eigh": []}
    eigsh_args, eigsh_keywords, eigh_calls = [], [], []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in calls:
                    calls[name].append(os.path.basename(path))
                if name == "eigsh":
                    eigsh_args.append(len(node.args))
                    eigsh_keywords += [kw.arg for kw in node.keywords]
                if name == "eigh":
                    eigh_calls.append((ast.unparse(fn), len(node.args)))
    assert calls == {"cholesky_banded": ["eigen.py"], "pbtrs": ["eigen.py"],
                     "reverse_cuthill_mckee": ["eigen.py"],
                     "eigsh": ["eigen.py"], "cho_solve_banded": [],
                     "splu": [], "spilu": [], "factorized": [], "bmat": [],
                     "eigh": ["eigen.py"]}
    assert eigsh_args == [1] and None not in eigsh_keywords
    # scipy.linalg's eigh, given both matrices of the pencil
    assert eigh_calls == [("sla.eigh", 2)]
    assert not {"M", "sigma", "OPinv", "mode"} & set(eigsh_keywords)


def test_shifted_solver_has_one_mode():
    # every factor, R0's grounded K included, is a + shift*diag(d) on the
    # band: no mode switch, and no connectivity count in eigen, whose
    # meshes have all passed the mesh gate
    assert list(inspect.signature(eigen._shifted_solver).parameters) == [
        "a", "d", "shift", "layout"]
    with open(eigen.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "connected_components" not in names


def test_every_exported_name_is_used_in_src():
    # a name some module lists in __all__ must be read somewhere in the
    # package (as a name, an attribute or an import), or only the tests
    # run it; the package __init__'s re-exports are not a use
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "curvspec")
    exported, used = set(), set()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
    assert exported and sorted(exported - used) == []
