"""Symmetric generalized eigensolves and shifted solves against a lumped mass.

One path for every mesh: ARPACK in shift-invert mode at a shift the caller
states, strictly below the bottom of the spectrum, so the smallest pencil
eigenvalues come back first.  How fast it converges is set by how well
1/(lambda - sigma) separates the wanted eigenvalues (ARPACK Users' Guide,
Lehoucq-Sorensen-Yang 1998), so the shift is the caller's to derive from
what it knows of the spectrum.  Vectors come back M-orthonormal with
per-pair residuals so callers can check convergence instead of trusting it.

Every solve with K + s*M in the package, the resolvent of the identities,
the resolvent bound and the Birman-Schwinger kernel, goes through one
factorization helper here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def _shifted_solver(pencil, shift):
    """Factor K + shift*M once; return ``solve(b)`` for load vectors b.

    K is positive semidefinite with the constants as its kernel, so any
    shift > 0 gives a positive definite matrix, factored as it stands.  At
    shift 0 the bordered system [[K, m], [m^T, 0]] with m = M 1 is factored
    instead: the solve returns the mean-zero y with K y = b - c m, the
    constant part c of b going into the multiplier.
    """
    if shift < 0.0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    nv = pencil.n_vertices
    if shift > 0.0:
        a = (pencil.k_stiff + shift * sp.diags(pencil.mass)).tocsc()
    else:
        m_col = sp.csc_matrix(pencil.mass.reshape(nv, 1))
        a = sp.bmat([[pencil.k_stiff, m_col], [m_col.T, None]], format="csc")
    n = a.shape[0]
    lu = spla.splu(a)

    def solve(b):
        rhs = np.zeros(n)
        rhs[:nv] = b
        return lu.solve(rhs)[:nv]
    return solve


def smallest_eigenpairs(a_mat, mass, k, sigma, tol=1e-10, seed=0):
    """k smallest eigenpairs of A x = lambda M x with M = diag(mass).

    ``a_mat`` is a symmetric sparse matrix, ``mass`` a strictly positive
    vector and ``sigma`` the shift-invert target, which must lie below the
    smallest eigenvalue (assemble.pencil_floor_shift for the pencil, a
    small negative multiple of its scale for the PSD stiffness).  ARPACK
    returns at most V - 1 pairs, so ``k`` must lie in [1, V - 1].  Raises
    EigenSolveError when ARPACK fails to converge.
    """
    mass = np.asarray(mass, dtype=float)
    nv = mass.shape[0]
    if mass.ndim != 1 or a_mat.shape != (nv, nv):
        raise ValueError("matrix and mass vector sizes disagree")
    if np.any(mass <= 0.0):
        raise ValueError("mass diagonal must be strictly positive")
    if not 1 <= k <= nv - 1:
        raise ValueError(f"need 1 <= k <= {nv - 1}, got k={k}")

    # a couple of padding pairs helps ARPACK separate clustered targets
    kk = min(k + 2, nv - 1)
    v0 = np.random.default_rng(seed).standard_normal(nv)
    try:
        vals, vecs = spla.eigsh(
            sp.csc_matrix(a_mat), k=kk, M=sp.diags(mass).tocsc(),
            sigma=sigma, which="LM", v0=v0, tol=tol,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(
            f"ARPACK converged {len(exc.eigenvalues)}/{kk} pairs"
        ) from exc
    except RuntimeError as exc:
        raise EigenSolveError(f"shift-invert factorization failed: {exc}") from exc
    order = np.argsort(vals)[:k]
    vals, vecs = vals[order], _m_orthonormalize(vecs[:, order], mass)
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
