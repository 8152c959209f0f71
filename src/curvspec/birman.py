"""Discrete Birman-Schwinger kernel and its unit crossings.

K_mu g = W (K + mu M)^(-1) M (W g), symmetric and positive in the M-inner
product.  Its top eigenvalue decreases in mu, and -mu is an eigenvalue of
the penalized pencil exactly when 1 is an eigenvalue of K_mu; in finite
dimensions this correspondence is an algebraic identity, so scanning mu
and locating the unit crossings recovers the negative spectrum from
resolvent applications alone.

K_mu g = beta g is the pencil M_W y = beta (K + mu M) y with
y = (K + mu M)^(-1) M W g.  The scan factors K + mu M only at a few
snapshot values of mu.  At mu_min, ARPACK gives the top kernel
eigenvectors and their y start a basis; at each later snapshot the top
Ritz vectors of that basis take two rational Krylov steps
y <- (K + mu M)^(-1) M_W y on the snapshot's factor, and both blocks join
it (Ruhe, Linear Algebra Appl. 1984 and 1994).  Every grid point is then
a dense Rayleigh-Ritz problem on the basis (the reduced-basis eigenvalue
method of Machiels-Maday-Oliveira-Patera-Rovas, C. R. Acad. Sci. Paris
2000).  The grid tops are therefore Ritz values: lower bounds on the true
tops by Courant-Fischer, exact at mu_min.  Each crossing is located
by safeguarded Newton on the reduced pencil inside its grid cell, then
confirmed on the full operator: one factorization at the reduced root, and
full Newton steps while |top - 1| exceeds 1e-12.  Both operators answer
top(mu, k) with the top values and their slopes, which come from
Hellmann-Feynman; on the full operator that is one extra solve with the
factor already built at mu.  Every grid top is a Ritz value of one fixed
reduced pencil whose right-hand side grows with mu in the Loewner order,
so by Courant-Fischer no branch rises along the grid.

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
    top_eigenvalues: np.ndarray  # (S, k) Ritz values, descending; row 0 exact
    snapshots: np.ndarray        # grid indices where K + mu M is factored
    basis_size: int              # columns of the reduced basis
    crossings: tuple
    top_w_perp: float            # W-restricted top eigenvalue at mu_min
    warnings: tuple


def _kernel_top(pencil, mu, k, seed):
    """The k largest eigenvalues of K_mu, descending, and the d/dmu of each.

    K + mu M is factored once on the pencil's band layout and the kernel
    eigensolve runs on it; in z = sqrt(M) g the kernel is the symmetric
    S (K + mu M)^(-1) S with S = sqrt(M) W.  Each slope is Hellmann-Feynman's
    -y^T M y, y = (K + mu M)^(-1) M W g for the M-normalized eigenvector g,
    one more solve with that factor for all k.
    """
    solve = _shifted_solver(pencil.k_stiff, pencil.mass, mu,
                            layout=pencil.layout)
    vals, g = _kernel_eigenpairs(solve, pencil.mass, pencil.w, k, seed,
                                 f"kernel eigensolve at mu={mu:.6g}")
    y = solve(pencil.mass[:, None] * (pencil.w[:, None] * g[:, :k]))
    return vals[:k], -np.einsum("ij,ij->j", y, pencil.mass[:, None] * y)


def _branch(top, k, j):
    """f(mu) = top_j(mu) - 1 and its slope for _newton_root, read from
    ``top(mu, k)``: _kernel_top's or _ReducedPencil.top's pairs."""
    def f_and_slope(mu):
        vals, slopes = top(mu, k)
        return vals[j] - 1.0, slopes[j]
    return f_and_slope


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


def _reduced_pencil(pencil, snapshots, k, seed):
    """The scan's reduced pencil, grown at the snapshot values of mu.

    At mu_min, ARPACK gives the top min(k + 2, V - 1) kernel pairs and the
    basis starts as their y; the same factor gives top_w_perp.  At each
    later snapshot mu_s, the top min(k + 2, p) Ritz vectors of the current
    basis (p columns) take two rational Krylov steps
    y <- (K + mu_s M)^(-1) M_W y on that snapshot's factor, and both blocks
    join the basis.  Returns (reduced pencil, top_w_perp, warnings), the
    warning when ARPACK's (k + 1)-th top at mu_min already exceeds 1, so
    a branch the scan does not follow crosses inside the window.
    """
    mass, w = pencil.mass, pencil.w
    mu = snapshots[0]
    solve = _shifted_solver(pencil.k_stiff, mass, mu, layout=pencil.layout)
    what = f"kernel eigensolve at mu={mu:.6g}"
    vals, g = _kernel_eigenpairs(solve, mass, w, k, seed, what)
    top_w_perp = float(_kernel_eigenpairs(
        solve, mass, w, 1, seed, what, w_perp=True)[0][0])
    warnings = []
    if len(vals) > k and vals[k] > 1.0:
        warnings.append(
            f"top {k + 1} at mu={mu:.6g} is {vals[k]:.6g} > 1: branches "
            f"beyond the top {k} cross uncounted; raise --scan-k")
    reduced = _ReducedPencil(pencil.k_stiff, pencil.potential, mass)
    reduced.extend(solve(mass[:, None] * w[:, None] * g))
    del solve   # no factor outlives its mu
    for mu in snapshots[1:]:
        solve = _shifted_solver(pencil.k_stiff, mass, mu,
                                layout=pencil.layout)
        y = [reduced.vectors(mu, min(k + 2, reduced.size))]
        for _ in range(2):
            y.append(solve(pencil.potential[:, None] * y[-1]))
        del solve
        reduced.extend(np.hstack(y[1:]))
    return reduced, top_w_perp, warnings


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
    SNAPSHOTS grid points at indices round(linspace(0, steps - 1,
    SNAPSHOTS)), mu_min and mu_max among them, each factor K + mu M once
    and grow the reduced basis as _reduced_pencil describes; no factor
    outlives its snapshot.  A grid of fewer points takes the SNAPSHOTS-point
    grid's points instead, of which it holds only its two ends, so its rows
    are as close to the true tops as a long grid's.  Each grid row is the top
    k Ritz values on that basis.  A branch that crosses 1 inside a cell is
    followed by safeguarded Newton on the reduced pencil, and the root is
    confirmed on the full operator, one factorization per evaluation: its
    |top_j - 1| is the crossing's eig_error.  Several branches may cross 1
    inside one cell: K_mu falls in the Loewner order as mu grows, so by
    Courant-Fischer its j-th largest eigenvalue decreases, and Newton on
    branch j finds that branch's own crossing.  Every detected unit
    crossing is matched against the directly computed pencil spectrum
    (match_error).  A Newton run that stops short, and a (k + 1)-th top
    above 1 at mu_min, surface in the warnings list.
    """
    mu_min, mu_max = mu_window(pencil.w, mu_min, mu_max)
    if steps < 2:
        raise ValueError("need at least 2 grid points")

    grid = np.geomspace(mu_min, mu_max, steps)
    # a grid shorter than SNAPSHOTS still grows the basis at SNAPSHOTS
    # points, those of the SNAPSHOTS-point grid, which shares its two ends
    basis_mu = np.geomspace(mu_min, mu_max, max(steps, SNAPSHOTS))
    basis_mu = basis_mu[np.round(
        np.linspace(0, len(basis_mu) - 1, SNAPSHOTS)).astype(int)]
    snapshots = np.flatnonzero(np.isin(grid, basis_mu))

    reduced, top_w_perp, warnings = _reduced_pencil(pencil, basis_mu, k,
                                                    seed)
    tops = np.array([reduced.top(mu, k)[0] for mu in grid])

    def full(mu, k):
        return _kernel_top(pencil, mu, k, seed)

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
            mu_r = _newton_root(_branch(reduced.top, k, j), *cell,
                                label=f"reduced branch {j}")[0]
            mu0, err, evals = _newton_root(_branch(full, k, j), *cell,
                                           start=mu_r, label=f"branch {j}")
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
