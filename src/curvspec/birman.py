"""Discrete Birman-Schwinger kernel and its unit crossings.

K_mu g = W (K + mu M)^(-1) M (W g), symmetric and positive in the M-inner
product.  Its top eigenvalue decreases in mu, and -mu is an eigenvalue of
the penalized pencil exactly when 1 is an eigenvalue of K_mu; in finite
dimensions this correspondence is an algebraic identity, so scanning mu
and locating the unit crossings recovers the negative spectrum from
resolvent applications alone.

K_mu g = beta g is the pencil M_W y = beta (K + mu M) y with
y = (K + mu M)^(-1) M W g.  The scan factors K + mu M only at a few
snapshot values of mu and keeps the y of the top kernel eigenvectors
there; every grid point is then a dense Rayleigh-Ritz problem on their
span (Ruhe's rational Krylov, 1984 and 1994; the reduced-basis eigenvalue
method of Machiels-Maday-Oliveira-Patera-Rovas, C. R. Acad. Sci. Paris
2000).  The grid tops are therefore Ritz values: lower bounds on the true
tops by Courant-Fischer, exact at the snapshots.  Each crossing is located
by safeguarded Newton on the reduced pencil inside its grid cell, then
confirmed on the full operator: one factorization at the reduced root, and
full Newton steps while |top - 1| exceeds 1e-12.  The slope of a branch
comes from Hellmann-Feynman, one extra solve with the factor already built
at mu.

top_w_perp is the top eigenvalue at mu_min of the kernel restricted to the
g with <g, W>_M = 0 (Harrell-Loss 1998).  It is the one number the proof
needs as mu -> 0+: below 1 on the sphere, above 1 when lambda_2 < 0;
elsewhere it only lies between top_2 and top_1 (Cauchy interlacing).  The
norm bounds max(W^2)/mu on the full kernel and max(W^2)/(lam1 + mu) on the
restricted one hold for any positive semidefinite K, so the scan does not
compute them.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .assemble import shift_ladder
from .eigen import (_kernel_eigenpairs, _ReducedPencil, _shifted_solver,
                    smallest_eigenpairs)

__all__ = [
    "Crossing",
    "BSScanResult",
    "mu_window",
    "scan_crossings",
]

log = logging.getLogger(__name__)

# grid points at which K + mu M is factored to build the reduced basis; with
# 6 the (2, 1, 1) ellipsoid's grid tops were off by 5e-5 and its crossings
# needed a second full evaluation
SNAPSHOTS = 8


@dataclass(frozen=True, eq=False)
class Crossing:
    mu0: float
    branch: int
    eig_error: float            # |top_branch(mu0) - 1| actually achieved
    matched_eigenvalue: float   # pencil eigenvalue nearest to -mu0
    match_error: float          # |lambda + mu0| / mu0
    evaluations: int            # K + mu M factorizations confirming mu0


@dataclass(frozen=True, eq=False)
class BSScanResult:
    mu_grid: np.ndarray          # (S,) ascending
    top_eigenvalues: np.ndarray  # (S, k) Ritz values, descending per row
    snapshots: np.ndarray        # grid indices whose rows are exact
    basis_size: int              # columns of the reduced basis
    crossings: tuple
    top_w_perp: float            # W-restricted top eigenvalue at mu_min
    warnings: tuple

    def write_csv(self, path):
        k = self.top_eigenvalues.shape[1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("mu," + ",".join(f"top_{j+1}" for j in range(k)) + "\n")
            for mu, row in zip(self.mu_grid, self.top_eigenvalues):
                fh.write(",".join("%.17g" % v for v in (mu, *row)) + "\n")


def _top_k(pencil, mu, solve, k, seed, w_perp=False, vectors=False,
           padded=False):
    """k largest eigenvalues of K_mu, descending.

    ``solve`` applies (K + mu M)^(-1), factored once by the caller on the
    pencil's band layout.  In z = sqrt(M) g the kernel is the symmetric
    S (K + mu M)^(-1) S with S = sqrt(M) W, and eigen runs it in the
    layout's reverse Cuthill-McKee order: one pbtrs per application, the
    restriction basis and S permuted once per call, the vectors put back in
    vertex order once.  ``w_perp`` restricts the kernel to the g with
    <g, W>_M = 0: in z that is the complement of S.  With ``vectors``
    the pair (values, g) is returned instead, g holding the M-orthonormal
    eigenvectors as columns in the same order.  ``padded`` adds ARPACK's
    padding pairs, min(k + 2, V - 1) in all.
    """
    sqm = np.sqrt(pencil.mass)
    s = sqm * pencil.w
    basis = np.linalg.qr(s[:, None])[0] if w_perp else None
    vals, z = _kernel_eigenpairs(
        solve, s, basis, k, seed, f"kernel eigensolve at mu={mu:.6g}",
        vectors=vectors, padded=padded)
    if not vectors:
        return vals
    return vals, z / sqm[:, None]


def _hf_slope(pencil, solve, g):
    """d/dmu of the K_mu eigenvalue whose M-normalized eigenvector is g.

    Hellmann-Feynman: with y = (K + mu M)^(-1) M W g the derivative is
    -y^T M y, one solve with the factor already built at mu.
    """
    y = solve(pencil.mass * (pencil.w * g))
    return -float(y @ (pencil.mass * y))


def _newton_root(fn, lo, hi, f_lo, f_hi, tol=1e-12, maxiter=50, label="",
                 start=None):
    """Root of a decreasing f in [lo, hi], given f(lo) > 0 >= f(hi).

    ``fn(mu)`` returns (f(mu), f'(mu)).  The first iterate is ``start`` if
    given, else the regula-falsi point of the two endpoint values; each
    later one is the Newton step from the last, or the bracket midpoint
    when that step leaves the shrinking bracket (or the slope is not
    negative), so every iterate stays inside it.  Stops once |f| <= tol or after ``maxiter``
    evaluations; returns (mu, |f(mu)|, evaluations) for the last iterate.
    """
    if start is None:
        mu, kind = lo - f_lo * (hi - lo) / (f_hi - f_lo), "regula-falsi"
    else:
        mu, kind = start, "start"
    for n in range(1, maxiter + 1):
        f, slope = fn(mu)
        log.debug("%s mu=%.17g f=%.3e step=%s", label, mu, f, kind)
        if abs(f) <= tol or n == maxiter:
            return mu, abs(f), n
        if f > 0.0:
            lo = mu
        else:
            hi = mu
        if slope < 0.0 and lo < mu - f / slope < hi:
            mu, kind = mu - f / slope, "newton"
        else:
            mu, kind = 0.5 * (lo + hi), "bisect"


def mu_window(w, mu_min=None, mu_max=None):
    """The scan's (mu_min, mu_max) for the potential samples ``w``.

    A bound left as None defaults to 1e-3 or 10 times max(W^2), where
    crossings concentrate for near-spherical shapes.  Raises ValueError
    unless 0 < mu_min < mu_max.  It reads W alone, so a bad window is
    refused before the pencil is assembled.
    """
    maxw2 = float(np.max(w**2))
    if mu_min is None:
        mu_min = 1e-3 * maxw2
    if mu_max is None:
        mu_max = 10.0 * maxw2
    if not 0.0 < mu_min < mu_max:
        raise ValueError(f"need 0 < mu_min < mu_max, got [{mu_min}, {mu_max}]")
    return mu_min, mu_max


def scan_crossings(pencil, mu_min=None, mu_max=None, steps=32, k=3, seed=0):
    """Scan the top-k K_mu eigenvalues on a geometric grid, locate crossings.

    The window is mu_window's, by default [1e-3, 10] times max(W^2).  The
    SNAPSHOTS grid points at indices round(linspace(0, steps - 1, n)),
    mu_min and mu_max among them (every point when steps is smaller), each
    factor K + mu M once and keep y for the top min(k + 2, V - 1) kernel
    eigenvectors; mu_min's factor also serves the W-restricted top,
    top_w_perp, and no factor outlives its snapshot.  Each grid row is the
    top k Ritz values on the span of all the y.  A branch that crosses 1
    inside a cell is followed by safeguarded Newton on the reduced pencil,
    and the root is confirmed on the full operator, one factorization per
    evaluation: its |top_j - 1| is the crossing's eig_error.  Several
    branches may cross 1 inside one cell: K_mu falls in the Loewner order
    as mu grows, so by Courant-Fischer its j-th largest eigenvalue
    decreases, and Newton on branch j finds that branch's own crossing.
    Every detected unit crossing is matched against the directly computed
    pencil spectrum (match_error); a Newton run that stops short and a
    branch that rises surface in the warnings list.
    """
    mu_min, mu_max = mu_window(pencil.w, mu_min, mu_max)
    if steps < 2:
        raise ValueError("need at least 2 grid points")

    grid = np.geomspace(mu_min, mu_max, steps)
    snapshots = np.round(
        np.linspace(0, steps - 1, min(SNAPSHOTS, steps))).astype(int)

    def factor(mu):
        return _shifted_solver(pencil.k_stiff, pencil.mass, mu,
                               layout=pencil.layout)

    columns = []
    for s in snapshots:
        solve = factor(grid[s])
        _, g = _top_k(pencil, grid[s], solve, k, seed, vectors=True,
                      padded=True)
        columns.append(solve(pencil.mass[:, None] * pencil.w[:, None] * g))
        if s == 0:
            top_w_perp = float(
                _top_k(pencil, grid[s], solve, 1, seed, w_perp=True)[0])
    del solve   # no factor outlives its mu
    reduced = _ReducedPencil(np.hstack(columns), pencil.k_stiff,
                             pencil.potential, pencil.mass)
    del columns
    tops = np.array([reduced.top(mu, k)[0] for mu in grid])

    def ritz(j):
        def f_and_slope(mu):
            vals, slopes = reduced.top(mu, k)
            return vals[j] - 1.0, slopes[j]
        return f_and_slope

    def full(j):
        def f_and_slope(mu):
            solve = factor(mu)
            vals, g = _top_k(pencil, mu, solve, k, seed, vectors=True)
            return vals[j] - 1.0, _hf_slope(pencil, solve, g[:, j])
        return f_and_slope

    warnings = []
    for j in range(k):
        rises = np.nonzero(np.diff(tops[:, j]) > 1e-9 * np.maximum(
            1.0, np.abs(tops[:-1, j])))[0]
        for s in rises:
            warnings.append(
                f"branch {j} increases from mu={grid[s]:.6g} to "
                f"mu={grid[s+1]:.6g}; resolvent monotonicity violated"
            )

    crossings = []
    for j in range(k):
        f = tops[:, j] - 1.0
        if f[0] == 0.0:
            # grid edge sitting exactly on a crossing; no cell to search
            crossings.append((float(grid[0]), j, 0.0, 0))
        for s in range(steps - 1):
            # a zero endpoint belongs to the cell on its left, never both
            if not (f[s] > 0.0 >= f[s + 1]):
                continue
            cell = (grid[s], grid[s + 1], f[s], f[s + 1])
            mu_r = _newton_root(ritz(j), *cell,
                                label=f"reduced branch {j}")[0]
            mu0, err, evals = _newton_root(full(j), *cell, start=mu_r,
                                           label=f"branch {j}")
            # Newton aims at 1e-12; a crossing only counts as unresolved
            # above the 1e-8 the crossing quality has always been held to
            if err > 1e-8:
                warnings.append(
                    f"crossing on branch {j} near mu={mu0:.6g} stopped at "
                    f"|eig-1|={err:.3g}; refine the grid"
                )
            crossings.append((mu0, j, err, evals))

    matched = []
    if crossings:
        want = min(pencil.n_vertices - 1, len(crossings) + 3)
        pencil_eigs = smallest_eigenpairs(
            pencil.a_matrix(), pencil.mass, k=want, seed=seed,
            sigma=shift_ladder(pencil), layout=pencil.layout,
            what="crossing-match eigensolve",
        ).eigenvalues
        for mu0, j, err, evals in sorted(crossings):
            lam = pencil_eigs[np.argmin(np.abs(pencil_eigs + mu0))]
            matched.append(Crossing(
                mu0=float(mu0), branch=int(j), eig_error=float(err),
                matched_eigenvalue=float(lam),
                match_error=float(abs(lam + mu0) / mu0),
                evaluations=int(evals),
            ))

    return BSScanResult(
        mu_grid=grid, top_eigenvalues=tops, snapshots=snapshots,
        basis_size=reduced.size, crossings=tuple(matched),
        top_w_perp=top_w_perp, warnings=tuple(warnings),
    )
