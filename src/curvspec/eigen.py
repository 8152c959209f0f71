"""Symmetric generalized eigensolves and shifted solves against a lumped mass.

One path for every mesh: ARPACK in standard symmetric mode on the
shift-inverted S (A - sigma*M)^(-1) S, S = sqrt(M), at a shift sigma
strictly below the bottom of the spectrum, so the smallest pencil
eigenvalues come back first.  How fast it converges is set by how well
1/(lambda - sigma) separates the wanted eigenvalues (ARPACK Users' Guide,
Lehoucq-Sorensen-Yang 1998), so the caller derives shifts from what it
knows of the spectrum, nearest first, and the first that factors is used;
an upper bound on lambda_1 drops beforehand the shifts that could not
factor (assemble.shift_ladder).
The operator is symmetric, so ARPACK's Ritz vectors z are orthonormal by
construction and x = z / sqrt(M) is M-orthonormal to round-off with no
cleanup pass (|X^T M X - I| below 1e-14 on the test surfaces, degenerate
clusters included); each pair comes with its residual so callers can
check convergence instead of trusting it.

This module is the only one that orders, factors or solves with a matrix,
calls ARPACK or runs a dense eigensolve.  Every symmetric matrix the
package factors (K - M_W or K plus s*M, and K plus one diagonal term) is
positive definite at the shifts it takes and has K's sparsity pattern,
so the factorization is split as George-Liu (Computer Solution of Large
Sparse Positive Definite Systems, 1981) split it.  The symbolic half, a
BandLayout of K's pattern in reverse Cuthill-McKee order (Cuthill-McKee
1969), is built once per mesh and held on the pencil.
The numeric half fills a fresh band from the matrix's entries and the
shifted diagonal and factors it by LAPACK pbtrf; solves call pbtrs.  A
shift that does not lie below the spectrum is refused instead of factored.
The zero-mean resolvent R0 (identities.zero_mean_resolvent) is one more
such matrix, K grounded at the last vertex of the band order, and needs
no handling here: the TriMesh constructor has already refused a mesh
that is not connected, where K would have more than the constants in its
kernel.  ARPACK makes no factorization and gets no OPinv or mass
matrix: the pencil solve and the Birman-Schwinger kernel are both the
symmetric operator z -> S A^(-1) S z (A factored here, S = sqrt(M) times
a diagonal weight) applied in the band's order, through one ARPACK call,
_kernel_eigenpairs, that sets the k range, the padding, the seeded start
vector and the non-convergence error, and that both call directly.
Every dense eigensolve is one generalized LAPACK eigh (_ritz), a
Rayleigh-Ritz problem on a few columns: the Birman-Schwinger scan on its
incrementally grown basis (_ReducedPencil, of size at most V), and
ritz_values: the corollary's bound on T_r from the pencil's own
eigenvectors, and assemble.shift_ladder's bound on lambda_1 from the
powers 1, W, W^2, W^4, which _new_directions orthonormalizes.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import EigenSolveError

__all__ = ["BandLayout", "Spectrum", "band_layout", "ritz_values",
           "smallest_eigenpairs"]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of (A, M), ascending, with M-orthonormal vectors."""

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (V, k), columns
    residuals: np.ndarray     # (k,) of ||A x - lambda M x|| / ||M x||
    shift: float              # the shift-invert target the solve used

    @property
    def k(self):
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class BandLayout:
    """Where K's sparsity pattern sits in its banded Cholesky, once per mesh.

    ``order`` is the reverse Cuthill-McKee order and inverse[order] = 0..V-1;
    ``src`` picks the stored entries of the strict upper triangle in that
    order and ``dst`` their flat positions in the Fortran (bw+1, V) upper
    band.  Index arrays only: each factorization fills its own band.
    """

    order: np.ndarray
    inverse: np.ndarray
    bw: int
    src: np.ndarray
    dst: np.ndarray
    nnz: int          # stored entries of the pattern

    @property
    def band_bytes(self):
        return (self.bw + 1) * len(self.order) * 8


def band_layout(a):
    """The BandLayout of a square sparse matrix with symmetric pattern.

    ``a`` must be in canonical CSR form (sorted, no duplicate entries), as
    the assembled stiffness is; the layout then addresses ``a.data`` and
    that of every matrix sharing its pattern, such as pencil.a_matrix().
    """
    a = sp.csr_matrix(a)
    if not a.has_canonical_format:
        raise ValueError("band layout needs a CSR matrix in canonical form")
    nv = a.shape[0]
    order = reverse_cuthill_mckee(a, symmetric_mode=True)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(nv, dtype=order.dtype)
    row = inverse[np.repeat(np.arange(nv), np.diff(a.indptr))]
    col = inverse[a.indices]
    src = np.flatnonzero(row < col)
    row, col = row[src].astype(np.int64), col[src].astype(np.int64)
    bw = int((col - row).max(initial=0))
    layout = BandLayout(
        order=order, inverse=inverse, bw=bw, src=src,
        dst=bw + row - col + (bw + 1) * col, nnz=a.nnz,
    )
    log.debug("band layout: V=%d bw=%d band=%d bytes", nv, bw,
              layout.band_bytes)
    return layout


class _BandSolver:
    """One banded Cholesky factor: call it to solve in vertex order."""

    def __init__(self, factor, layout):
        self.layout = layout
        self._factor = factor
        self.pbtrs, = sla.get_lapack_funcs(("pbtrs",), (factor,))

    def in_band_order(self, b):
        """Solve for b in the layout's order, by one pbtrs; overwrites b."""
        x, info = self.pbtrs(self._factor, b, overwrite_b=True)
        if info != 0:
            raise EigenSolveError(f"banded solve failed: pbtrs info={info}")
        return x

    def __call__(self, b):
        order = self.layout.order
        y = np.empty(b.shape)
        y[order] = self.in_band_order(b[order])
        return y


def _shifted_solver(a, d, shift, layout):
    """Factor a + shift*diag(d) once; return a _BandSolver, ``solve(b)``
    for loads b.

    The package's one factorization: the a - sigma*M of every shift-invert
    eigensolve (a = K - M_W, d the mass), the K + mu*M of the
    Birman-Schwinger kernel and the grounded K of the zero-mean resolvent
    (identities.zero_mean_resolvent, d one diagonal term).  ``layout`` is
    the mesh's one BandLayout (pencil.layout), and ``a`` must have the
    pattern it was built from.  A fresh Fortran-ordered (bw+1, V) band is
    filled from a's strict upper entries and the diagonal a_ii + shift*d_i,
    then Cholesky-factored in place by pbtrf, so the band is the only dense
    copy made and no factor outlives the returned solver.  A matrix that is
    not positive definite (a shift not below the spectrum, a singular a)
    raises EigenSolveError.
    """
    a = sp.csr_matrix(a)
    if a.shape != (len(layout.order),) * 2 or a.nnz != layout.nnz:
        raise ValueError("matrix does not have the band layout's pattern")
    log.debug("factor a + %.17g*D", shift)
    bw = layout.bw
    band = np.zeros((bw + 1, len(layout.order)), order="F")
    band.reshape(-1, order="F")[layout.dst] = a.data[layout.src]
    band[bw] = (a.diagonal() + shift * d)[layout.order]
    try:
        factor = sla.cholesky_banded(band, overwrite_ab=True,
                                     check_finite=False)
    except sla.LinAlgError as exc:
        raise EigenSolveError(
            f"factorization of a + {shift:.6g}*M failed: not positive "
            f"definite, so the shift does not lie below the spectrum") from exc
    return _BandSolver(factor, layout)


def _kernel_eigenpairs(solve, mass, weight, k, seed, what, w_perp=False,
                       tol=0.0):
    """The package's one ARPACK call: the top eigenpairs of
    z -> Q S A^(-1) S Q z, S = sqrt(M) diag(``weight``).

    ``solve`` is a _shifted_solver factor of A, ``mass`` the diagonal of M
    and ``weight`` 1 for the pencil or W for the Birman-Schwinger kernel;
    ``w_perp`` restricts to the complement of S (Q = I - s s^T for the unit
    s along S), else Q = I.  The operator is symmetric, so ARPACK runs in
    its standard mode, in the factor's band order: S and s are permuted
    once, each application is one pbtrs between two diagonal products and
    the seeded start vector is the same in every order.  ARPACK returns at
    most V - 1 pairs, so ``k`` must lie in [1, V - 1]; a couple of padding
    pairs help it separate clustered targets.  Returns all
    min(k + 2, V - 1) pairs, descending: (values, x) with x = z / sqrt(M)
    as columns in vertex order, M-orthonormal since the z are orthonormal.
    Raises EigenSolveError on a refused k or when ARPACK fails to converge,
    naming ``what``.
    """
    layout = solve.layout
    nv = len(layout.order)
    if not 1 <= k <= nv - 1:
        raise EigenSolveError(
            f"k={k} eigenpairs requested on a mesh with V={nv} vertices; "
            f"k must lie in [1, {nv - 1}]"
        )
    sqm = np.sqrt(mass)
    s = sqm * weight
    q = np.linalg.qr(s[:, None])[0][layout.order] if w_perp else None
    s = s[layout.order]

    def apply(z):
        if q is not None:
            z = z - q @ (q.T @ z)
        out = s * solve.in_band_order(s * z)
        if q is not None:
            out = out - q @ (q.T @ out)
        return out

    kk = min(k + 2, nv - 1)
    v0 = np.random.default_rng(seed).standard_normal(nv)[layout.order]
    try:
        vals, z = spla.eigsh(
            spla.LinearOperator((nv, nv), matvec=apply, dtype=float),
            k=kk, which="LA", v0=v0, tol=tol)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(
            f"{what}: ARPACK converged {len(exc.eigenvalues)}/{kk} pairs"
        ) from exc
    top = np.argsort(vals)[::-1]
    return vals[top], z[:, top][layout.inverse] / sqm[:, None]


def _ritz(a, b, lo, hi):
    """Eigenpairs lo..hi, ascending, of the dense symmetric pencil
    a c = theta b c, b positive definite: the one dense eigensolve."""
    return sla.eigh(a, b, subset_by_index=[lo, hi], check_finite=False)


def ritz_values(a_mat, mass, basis):
    """Ascending Ritz values of A x = lambda M x, M = diag(mass), on the
    span of the columns of ``basis``.  By Courant-Fischer the j-th is an
    upper bound on the j-th eigenvalue, exact when the basis spans the
    first j eigenvectors (Parlett 1980, ch. 11)."""
    return _ritz(basis.T @ (a_mat @ basis), basis.T @ (mass[:, None] * basis),
                 0, basis.shape[1] - 1)[0]


def _new_directions(block, q=None):
    """Orthonormal columns for the directions of ``block``'s columns that
    the orthonormal columns of ``q`` (none if None) lack, by one pass.

    A column of zero norm spans nothing and is dropped.  Each other
    column is scaled to unit norm and, given q, orthogonalized against it
    by classical Gram-Schmidt; a pivoted QR then orthonormalizes the
    block and drops each direction it leaves at most V eps long (numpy's
    matrix_rank tolerance), which q or the other columns span up to
    round-off.
    """
    norm = np.linalg.norm(block, axis=0)
    x = block[:, norm > 0.0] / norm[norm > 0.0]
    if q is not None:
        x -= q @ (q.T @ x)
    x, r = sla.qr(x, mode="economic", pivoting=True)[:2]
    eps = np.finfo(float).eps
    return x[:, :np.count_nonzero(np.abs(np.diag(r)) > len(x) * eps)]


class _ReducedPencil:
    """The pencil D y = beta (A + mu M) y on a growing span of columns.

    D = diag(``d``) >= 0, M = diag(``mass``) > 0 and A symmetric positive
    semidefinite; mu > 0.  The span starts empty and extend() appends
    blocks to it.  Its orthonormal basis ``q`` (Q, V x p, p capped at V)
    is the one copy kept, with the three p x p projections Q^T D Q,
    Q^T A Q and Q^T M Q, each grown by the new rows only, which its new
    columns mirror.  Each value of mu is one dense generalized eigh.
    Q^T (A + mu M) Q is positive definite, so by Courant-Fischer each Ritz
    value is a lower bound on the pencil eigenvalue of the same rank, and
    it is exact at a mu whose eigenvectors Q spans (Rayleigh-Ritz; Parlett,
    The Symmetric Eigenvalue Problem, 1980, ch. 11).
    """

    def __init__(self, a, d, mass):
        self._full = a, d, mass
        self.q = np.empty((len(mass), 0))
        self._proj = [np.empty((0, 0))] * 3    # Q^T D Q, Q^T A Q, Q^T M Q

    @property
    def size(self):
        return len(self._proj[0])

    def extend(self, block):
        """Append the directions of ``block``'s columns that Q lacks.

        _new_directions takes them by one pass of block classical
        Gram-Schmidt against Q and a pivoted QR (a Krylov step at a huge
        mu can underflow to a zero column, which it drops); any beyond V
        columns are dropped, and the rest are orthogonalized against Q a
        second time, which is enough (Giraud-Langou-Rozloznik, Comput.
        Math. Appl. 2005), and orthonormalized again.
        """
        a, d, mass = self._full
        q = self.q
        x = _new_directions(block, q)[:, :len(mass) - q.shape[1]]
        x = sla.qr(x - q @ (q.T @ x), mode="economic")[0]
        proj = []
        for old, image in zip(self._proj, (d[:, None] * x, a @ x,
                                           mass[:, None] * x)):
            low = image.T @ q   # the new rows; the new columns mirror them
            proj.append(np.block([[old, low.T], [low, x.T @ image]]))
        self._proj = proj
        self.q = np.hstack((q, x))

    def _pairs(self, mu, k):
        """The k largest Ritz values at mu, descending, and their
        (Q^T (A + mu M) Q)-normalized vectors c."""
        d_r, a_r, m_r = self._proj
        p = self.size
        vals, c = _ritz(d_r, a_r + mu * m_r, p - k, p - 1)
        return vals[::-1], c[:, ::-1]

    def top(self, mu, k):
        """The k largest Ritz values at mu, descending, and the d/dmu of
        each: -beta c^T (Q^T M Q) c (Hellmann-Feynman on the reduced
        pencil)."""
        vals, c = self._pairs(mu, k)
        return vals, -vals * np.einsum("ij,ij->j", c, self._proj[2] @ c)

    def vectors(self, mu, k):
        """The Ritz vectors Q c of the k largest Ritz values at mu."""
        return self.q @ self._pairs(mu, k)[1]


def smallest_eigenpairs(a_mat, mass, k, sigma, tol=1e-10, seed=0,
                        layout=None, what="shift-invert eigensolve"):
    """k smallest eigenpairs of A x = lambda M x with M = diag(mass).

    ``a_mat`` is a symmetric sparse matrix, ``mass`` a strictly positive
    vector and ``sigma`` the shift-invert target, or a ladder of targets
    (assemble.shift_ladder) tried in order.  The factor of A - sigma*M
    exists iff sigma lies below the smallest eigenvalue, so the first
    target that factors is certified and its factor is used; each refused
    one is logged, and a refused last one raises EigenSolveError.  With
    S = sqrt(M), ARPACK finds the largest nu of the symmetric
    z -> S (A - sigma M)^(-1) S z on that factor, made on ``layout`` (the
    pencil's, for a matrix with K's pattern; by default one built for this
    call) as _shifted_solver describes; then lambda = sigma + 1/nu and
    x = z / sqrt(M).  ``k`` must lie in [1, V - 1].  ``what`` names the
    solve in the log and in errors.
    Raises EigenSolveError when ARPACK fails to converge.
    """
    mass = np.asarray(mass, dtype=float)
    nv = mass.shape[0]
    if mass.ndim != 1 or a_mat.shape != (nv, nv):
        raise ValueError("matrix and mass vector sizes disagree")
    if np.any(mass <= 0.0):
        raise ValueError("mass diagonal must be strictly positive")
    if layout is None:
        layout = band_layout(a_mat)

    ladder = np.atleast_1d(sigma)
    for j, sigma in enumerate(ladder):
        try:
            solve = _shifted_solver(a_mat, mass, -sigma, layout=layout)
            break
        except EigenSolveError:
            if j == len(ladder) - 1:
                raise
            log.debug("%s: shift %.17g refused, not below the spectrum",
                      what, sigma)
    nu, vecs = _kernel_eigenpairs(solve, mass, 1.0, k, seed, what, tol=tol)
    vals, vecs = sigma + 1.0 / nu[:k], vecs[:, :k]
    return Spectrum(
        eigenvalues=vals, eigenvectors=vecs,
        residuals=_residuals(a_mat, mass, vals, vecs), shift=float(sigma),
    )


def _residuals(a_mat, mass, vals, vecs):
    r = a_mat @ vecs - mass[:, None] * vecs * vals[None, :]
    denom = np.linalg.norm(mass[:, None] * vecs, axis=0)
    return np.linalg.norm(r, axis=0) / denom
