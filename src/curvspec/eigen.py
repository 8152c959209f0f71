"""Symmetric generalized eigensolves and shifted solves against a lumped mass.

Two paths behind one entry point.  Small problems are symmetrized with
M^(-1/2) and sent through LAPACK, which is exact and needs no tuning.
Larger ones go to ARPACK in shift-invert mode with a shift strictly below
the bottom of the spectrum, so the smallest pencil eigenvalues come back
first.  Both paths return M-orthonormal vectors and per-pair residuals
so callers can check convergence instead of trusting it.

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

__all__ = ["Spectrum", "smallest_eigenpairs", "DENSE_LIMIT"]

# crossover between the LAPACK and ARPACK paths, in vertices
DENSE_LIMIT = 2000


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of (A, M), ascending, with M-orthonormal vectors."""

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (V, k), columns
    residuals: np.ndarray     # (k,) of ||A x - lambda M x|| / ||M x||
    method: str               # "dense" or "iterative"
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


def _gershgorin_floor(a_mat, mass):
    # row bounds of the similarity-transformed S = M^(-1/2) A M^(-1/2):
    # S_ij = A_ij / sqrt(m_i m_j), so |row sums| follow from |A| acting on
    # the inverse sqrt weights.  Crude but always below lambda_1.
    s = 1.0 / np.sqrt(mass)
    a_abs = abs(a_mat) if sp.issparse(a_mat) else np.abs(a_mat)
    row_abs = s * np.asarray(a_abs @ s).ravel()
    diag = a_mat.diagonal() * s * s
    return float(np.min(2.0 * diag - row_abs))


def smallest_eigenpairs(a_mat, mass, k, tol=1e-10, seed=0, method="auto",
                        sigma=None, maxiter=None):
    """k smallest eigenpairs of A x = lambda M x with M = diag(mass).

    ``a_mat`` is a symmetric sparse or dense matrix, ``mass`` a strictly
    positive vector.  ``method`` is "auto", "dense", or "iterative"; auto
    picks dense for problems up to DENSE_LIMIT vertices.  ``sigma``
    optionally supplies the shift-invert target; callers that know a bound
    on the spectrum bottom should pass one, otherwise a Gershgorin floor
    is used.  Raises EigenSolveError when ARPACK fails to converge.
    """
    mass = np.asarray(mass, dtype=float)
    nv = mass.shape[0]
    if mass.ndim != 1 or a_mat.shape != (nv, nv):
        raise ValueError("matrix and mass vector sizes disagree")
    if np.any(mass <= 0.0):
        raise ValueError("mass diagonal must be strictly positive")
    if not 1 <= k <= nv:
        raise ValueError(f"need 1 <= k <= {nv}, got k={k}")
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if nv <= DENSE_LIMIT else "iterative"

    if method == "dense":
        vals, vecs = _dense_path(a_mat, mass, k)
    else:
        vals, vecs = _iterative_path(a_mat, mass, k, tol, seed, sigma, maxiter)

    vecs = _m_orthonormalize(vecs, mass)
    residuals = _residuals(a_mat, mass, vals, vecs)
    return Spectrum(
        eigenvalues=vals, eigenvectors=vecs, residuals=residuals,
        method=method, seed=seed,
    )


def _dense_path(a_mat, mass, k):
    dense = a_mat.toarray() if sp.issparse(a_mat) else np.asarray(a_mat, dtype=float)
    s = 1.0 / np.sqrt(mass)
    sym = dense * s[:, None] * s[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, y = sla.eigh(sym, subset_by_index=[0, k - 1])
    return vals, s[:, None] * y


def _iterative_path(a_mat, mass, k, tol, seed, sigma, maxiter):
    nv = mass.shape[0]
    if sigma is None:
        floor = _gershgorin_floor(a_mat, mass)
        sigma = floor - 0.01 * (abs(floor) + 1.0)
    # a couple of padding pairs helps ARPACK separate clustered targets
    kk = min(k + 2, nv - 1)
    v0 = np.random.default_rng(seed).standard_normal(nv)
    a_csc = sp.csc_matrix(a_mat)
    try:
        vals, vecs = spla.eigsh(
            a_csc, k=kk, M=sp.diags(mass).tocsc(), sigma=sigma,
            which="LM", v0=v0, tol=tol, maxiter=maxiter,
        )
    except spla.ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        raise EigenSolveError(
            f"ARPACK converged {got}/{kk} pairs; raise maxiter or loosen tol"
        ) from exc
    except RuntimeError as exc:
        raise EigenSolveError(f"shift-invert factorization failed: {exc}") from exc
    order = np.argsort(vals)[:k]
    return vals[order], vecs[:, order]


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
