"""Symmetric generalized eigensolves and shifted solves against a lumped mass.

One path for every mesh: ARPACK in shift-invert mode at a shift the caller
states, strictly below the bottom of the spectrum, so the smallest pencil
eigenvalues come back first.  How fast it converges is set by how well
1/(lambda - sigma) separates the wanted eigenvalues (ARPACK Users' Guide,
Lehoucq-Sorensen-Yang 1998), so the shift is the caller's to derive from
what it knows of the spectrum.  Vectors come back M-orthonormal with
per-pair residuals so callers can check convergence instead of trusting it.

This module is the only one that factors a matrix or calls ARPACK.  One
helper factors a + s*M for every symmetric matrix the package uses (K,
K - M_W, K - M_T): each is positive definite at the shifts the package
takes, so the factor is one banded Cholesky (LAPACK pbtrf) in reverse
Cuthill-McKee order (Cuthill-McKee 1969; George-Liu, Computer Solution of
Large Sparse Positive Definite Systems, 1981), and a shift that does not lie
below the spectrum is refused instead of factored.  The zero-mean resolvent
factors K grounded at one vertex.  ARPACK gets that factor as its
shift-invert operator and makes none of its own.  One wrapper around eigsh
serves the pencil, T_r and lam1(K, M) solves and the Birman-Schwinger kernel
alike, so the k range, the padding, the seeded start vector and the
non-convergence error are set in one place.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import EigenSolveError

__all__ = ["Spectrum", "smallest_eigenpairs"]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of (A, M), ascending, with M-orthonormal vectors."""

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (V, k), columns
    residuals: np.ndarray     # (k,) of ||A x - lambda M x|| / ||M x||
    seed: int

    @property
    def k(self):
        return len(self.eigenvalues)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,eigenvalue,residual\n")
            for i, (lam, res) in enumerate(zip(self.eigenvalues, self.residuals)):
                fh.write("%d,%.17g,%.17g\n" % (i, lam, res))


def _shifted_solver(a, mass, shift, zero_mean=False):
    """Factor a + shift*M once; return ``solve(b)`` for load vectors b.

    The package's one factorization: the a - sigma*M of every shift-invert
    eigensolve (a = K, K - M_W or K - M_T) and the K + mu*M of the resolvent
    bound and the Birman-Schwinger kernel.  The matrix is put in reverse
    Cuthill-McKee order, its upper band copied into a Fortran-ordered
    (bw+1, V) array and Cholesky-factored there in place, so the band is
    the only dense copy made.  A matrix that is not positive definite (a shift
    not below the spectrum, a singular a) raises EigenSolveError.

    ``zero_mean`` (a = K, shift 0) gives the zero-mean resolvent: y with
    M-mean zero and K y = b - c m, m = M 1 and c = sum(b) / sum(m) the
    constant part of b, which K cannot reach.  K with the last vertex of
    the ordering removed is positive definite on a connected mesh, and a
    mesh that is not connected is refused; y is solved with 0 at that
    vertex, then its M-mean is subtracted.
    """
    mat = sp.csr_matrix(a + shift * sp.diags(mass))
    if zero_mean and connected_components(mat, directed=False)[0] > 1:
        raise EigenSolveError(
            "zero-mean resolvent: the mesh is not connected, so K has more "
            "than the constants in its kernel")
    order = reverse_cuthill_mckee(mat, symmetric_mode=True)
    if zero_mean:
        order = order[:-1]
    upper = sp.triu(mat[order][:, order], format="coo")
    bw = int((upper.col - upper.row).max())
    band = np.zeros((bw + 1, len(order)), order="F")
    band[bw + upper.row - upper.col, upper.col] = upper.data
    try:
        factor = sla.cholesky_banded(band, overwrite_ab=True,
                                     check_finite=False)
    except sla.LinAlgError as exc:
        raise EigenSolveError(
            f"factorization of a + {shift:.6g}*M failed: not positive "
            f"definite, so the shift does not lie below the spectrum") from exc
    area = float(mass.sum())

    def solve(b):
        if zero_mean:
            b = b - float(b.sum()) / area * mass
        y = np.zeros(b.shape)
        y[order] = sla.cho_solve_banded((factor, False), b[order],
                                        overwrite_b=True, check_finite=False)
        if zero_mean:
            y -= float(mass @ y) / area
        return y
    return solve


def _eigsh(op, k, which, seed, what, tol=0.0, vectors=True, **shift_invert):
    """The package's one ARPACK call: k eigenpairs of ``op`` by ``which``.

    ``op`` is V x V.  ARPACK returns at most V - 1 pairs, so ``k`` must lie
    in [1, V - 1]; a couple of padding pairs help it separate clustered
    targets, and the start vector is seeded.  ``shift_invert`` carries M,
    sigma and OPinv through to eigsh.  Returns (values, vectors or None),
    ascending, or descending for which="LA".  Raises EigenSolveError on a
    refused k or when ARPACK fails to converge, naming ``what``.
    """
    nv = op.shape[0]
    if not 1 <= k <= nv - 1:
        raise EigenSolveError(
            f"k={k} eigenpairs requested on a mesh with V={nv} vertices; "
            f"k must lie in [1, {nv - 1}]"
        )
    kk = min(k + 2, nv - 1)
    v0 = np.random.default_rng(seed).standard_normal(nv)
    try:
        out = spla.eigsh(op, k=kk, which=which, v0=v0, tol=tol,
                         return_eigenvectors=vectors, **shift_invert)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(
            f"{what}: ARPACK converged {len(exc.eigenvalues)}/{kk} pairs"
        ) from exc
    vals, vecs = out if vectors else (out, None)
    order = np.argsort(vals)
    order = (order[::-1] if which == "LA" else order)[:k]
    return vals[order], None if vecs is None else vecs[:, order]


def smallest_eigenpairs(a_mat, mass, k, sigma, tol=1e-10, seed=0):
    """k smallest eigenpairs of A x = lambda M x with M = diag(mass).

    ``a_mat`` is a symmetric sparse matrix, ``mass`` a strictly positive
    vector and ``sigma`` the shift-invert target, which must lie below the
    smallest eigenvalue (assemble.pencil_floor_shift for the pencil, a
    small negative multiple of its scale for the PSD stiffness).  ARPACK
    runs on this module's own factor of A - sigma*M.  ``k`` must lie in
    [1, V - 1].  Raises EigenSolveError when ARPACK fails to converge.
    """
    mass = np.asarray(mass, dtype=float)
    nv = mass.shape[0]
    if mass.ndim != 1 or a_mat.shape != (nv, nv):
        raise ValueError("matrix and mass vector sizes disagree")
    if np.any(mass <= 0.0):
        raise ValueError("mass diagonal must be strictly positive")

    solve = _shifted_solver(a_mat, mass, -sigma)
    vals, vecs = _eigsh(
        a_mat, k, "LM", seed, "shift-invert eigensolve", tol=tol,
        M=sp.diags(mass).tocsc(), sigma=sigma,
        OPinv=spla.LinearOperator((nv, nv), matvec=solve, dtype=float),
    )
    vecs = _m_orthonormalize(vecs, mass)
    return Spectrum(
        eigenvalues=vals, eigenvectors=vecs,
        residuals=_residuals(a_mat, mass, vals, vecs), seed=seed,
    )


def _m_orthonormalize(vecs, mass):
    # Cholesky of the M-Gram; within clusters ARPACK's vectors can drift
    # from orthogonality, and downstream identities assume it exactly.
    gram = vecs.T @ (mass[:, None] * vecs)
    try:
        chol = sla.cholesky(gram, lower=False)
    except sla.LinAlgError as exc:
        raise EigenSolveError("eigenvector block is numerically dependent") from exc
    return sla.solve_triangular(chol, vecs.T, lower=False, trans="T").T


def _residuals(a_mat, mass, vals, vecs):
    r = a_mat @ vecs - mass[:, None] * vecs * vals[None, :]
    denom = np.linalg.norm(mass[:, None] * vecs, axis=0)
    return np.linalg.norm(r, axis=0) / denom
