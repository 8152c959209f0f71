"""Pointwise algebra of principal curvatures.

All functions act on plain arrays of principal curvature values and are valid
for any dimension n >= 1.  The last axis indexes the curvatures; leading axes
broadcast, so a single tuple, a batch of mesh faces, or a batch of vertices
all take the same code path.  Scalar (1-d) input gives scalar output.

Conventions baked in here and relied on everywhere else:

* S_r is the r-th elementary symmetric function of the kappas, S_0 = 1.
* H_r = S_r / C(n, r), so H_0 = 1 and H_1 is the arithmetic mean.
* The r-th Newton transformation has eigenvalue S_r(all kappas except
  kappa_i) along the i-th principal direction; P_n is the zero map.
* c_r = (n - r) * C(n, r), which equals n * C(n-1, r).
* W_r = sqrt(c_r * H_{r+1}^{(r+2)/(r+1)}), demanding H_{r+1} > 0 for r >= 1.
  For r = 0 the exponent is 2 and W_0 = sqrt(n * H_1^2) needs no sign
  assumption.
"""

import math

import numpy as np

from .errors import CurvaturePositivityError

__all__ = [
    "elementary_symmetric_all",
    "mean_curvature",
    "newton_eigenvalues",
    "c_coefficient",
    "potential_W",
    "shape_norm",
]


def _as_batch(kappas):
    k = np.asarray(kappas, dtype=float)
    if k.ndim == 0 or k.shape[-1] < 1:
        raise ValueError("expected at least one principal curvature")
    if not np.all(np.isfinite(k)):
        raise ValueError("principal curvatures must be finite")
    return k


def _ret(value, scalar):
    return float(value) if scalar else value


def elementary_symmetric_all(kappas, rmax):
    """All of S_0 .. S_rmax in one stable pass.

    Runs the characteristic-polynomial coefficient recurrence (multiply the
    monic polynomial by (x + kappa_i) one root at a time), which is the
    numerically stable way to get elementary symmetric functions.  Returns an
    array whose last axis has length rmax + 1; entry [..., s] is S_s.
    """
    k = _as_batch(kappas)
    n = k.shape[-1]
    if not 0 <= rmax <= n:
        raise ValueError(f"order {rmax} out of range for n={n} curvatures")
    e = np.zeros(k.shape[:-1] + (rmax + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        top = min(i + 1, rmax)
        for s in range(top, 0, -1):
            e[..., s] += k[..., i] * e[..., s - 1]
    return e


def mean_curvature(kappas, r):
    """Normalized curvature H_r = S_r / C(n, r)."""
    k = _as_batch(kappas)
    n = k.shape[-1]
    if not 0 <= r <= n:
        raise ValueError(f"order {r} out of range for n={n} curvatures")
    e = elementary_symmetric_all(k, r)
    return _ret(e[..., r] / math.comb(n, r), np.ndim(kappas) == 1)


def newton_eigenvalues(kappas, r):
    """Eigenvalues of P_r along each principal direction.

    Returns an array shaped like ``kappas``: entry [..., i] belongs to the
    i-th principal direction and equals S_r of the other n-1 curvatures.
    Uses the recursion eig_i(P_r) = S_r - kappa_i * eig_i(P_s-1) starting
    from eig_i(P_0) = 1, which is synthetic division of the characteristic
    coefficients and therefore identical to deleting entry i from the tuple.
    P_n is the zero map by convention.
    """
    k = _as_batch(kappas)
    n = k.shape[-1]
    if not 0 <= r <= n:
        raise ValueError(f"order {r} out of range for n={n} curvatures")
    if r == n:
        return np.zeros_like(k)
    e = elementary_symmetric_all(k, r)
    eig = np.ones_like(k)
    for s in range(1, r + 1):
        eig = e[..., s : s + 1] - k * eig
    return eig


def c_coefficient(n, r):
    """c_r = (n - r) * C(n, r) = n * C(n-1, r)."""
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if not 0 <= r <= n - 1:
        raise ValueError(f"c_r needs 0 <= r <= n-1, got r={r}, n={n}")
    return float((n - r) * math.comb(n, r))


def potential_W(kappas, r):
    """Schroedinger potential W_r = sqrt(c_r * H_{r+1}^{(r+2)/(r+1)}).

    For r >= 1 every H_{r+1} sample must be strictly positive; the error
    carries the worst offending value (and its position for batched input).
    """
    k = _as_batch(kappas)
    n = k.shape[-1]
    c = c_coefficient(n, r)  # also enforces 0 <= r <= n-1
    e = elementary_symmetric_all(k, r + 1)
    h = e[..., r + 1] / math.comb(n, r + 1)
    if r == 0:
        w2 = n * h * h
    else:
        hmin = np.min(h)
        if hmin <= 0.0:
            idx = None if np.ndim(h) == 0 else int(np.argmin(h))
            raise CurvaturePositivityError(r=r, h_value=hmin, vertex=idx)
        w2 = c * h ** ((r + 2) / (r + 1))
    return _ret(np.sqrt(w2), np.ndim(kappas) == 1)


def shape_norm(kappas):
    """Normalized curvature norm ((1/n) * sum kappa_i^2)^{1/2}.

    The normalization is chosen so that a sphere of radius R has norm 1/R;
    without it the corollary operator would not vanish on round spheres.
    """
    k = _as_batch(kappas)
    return _ret(np.sqrt(np.mean(k * k, axis=-1)), np.ndim(kappas) == 1)
