"""Integral identities tying position, curvature, and the potential together.

Everything here is a consistency check, not new machinery: the weak position
identity K x_i = M (c_r H_{r+1} N_i), the Minkowski formula, the canonical
test functions f_i with their integrals against W, and the quantities
d_i = <R0(W f_i), W f_i> - ||f_i||^2.  All inner products are M-weighted
vertex sums so the continuum equalities close discretely where they should.

The position residual compares the assembled operator against geometric
curvature samples, so it carries the discretization's consistency error:
O(h) at r = 0, while at r = 1 it does not fall with refinement (the
README gives both series).  No threshold judges it.  The chain residual,
computed in the same pass as the d_i, compares the pairing
<R0(W f_i), W f_i> with the K-energy of R0(W f_i); the two are equal in
exact arithmetic, so the gap measures the constrained solve, not the
geometry.

The checks take what they share as arguments and compute none of it
again.  Each reads the order r, H_{r+1} and W_r from the one curvature
field, which curvature.compute_curvature builds whole and which already
holds H_{r+1} > 0 and H_1 > 0 for r >= 1, so no check gates them again.
c_r and H_r come from curvature's n = 2 closed forms, C_R and
mean_curvature.  identity_report runs every check once into the
IdentityReport that verify.run reports and whose d_i its theorem and
lemma read.  The zero-mean resolvent R0 is K grounded at one vertex,
Cholesky-factored once; its answer is shifted to zero M-mean.  That one
factor serves the three d_i solves.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import C_R, mean_curvature
from .eigen import _shifted_solver

__all__ = [
    "IdentityReport",
    "lr_position_residual",
    "minkowski_residual",
    "test_functions",
    "zero_mean_resolvent",
    "identity_report",
]


@dataclass(frozen=True, eq=False)
class IdentityReport:
    lr_position_residual: np.ndarray   # (3,) relative, per coordinate
    minkowski_residual: float
    orthogonality_raw: np.ndarray      # (3,) before projection, O(h^2) diagnostic
    d: np.ndarray                      # (3,)
    d_sum: float
    chain_residual: float


def lr_position_residual(mesh, field, pencil):
    """Relative M^(-1)-norm residual of K x_i = M (c_r H_{r+1} N_i), per axis.

    This is the weak form of the classical identity moving the position
    vector through the operator; with the outward normal and positive
    sphere curvature the sign on the right-hand side is positive.  The
    residual is O(h) at r = 0; at r = 1 it does not fall with refinement.
    """
    load = (pencil.mass * C_R * field.h_next)[:, None] * mesh.vertex_normals
    resid = pencil.k_stiff @ mesh.vertices - load
    inv_m = 1.0 / pencil.mass
    return np.sqrt(inv_m @ resid**2) / np.sqrt(inv_m @ load**2)


def minkowski_residual(mesh, field):
    """Relative gap in int H_r = int H_{r+1} <x - xbar, N>, vertex quadrature."""
    r = field.r
    h_r = mean_curvature(field.vertex_kappas, r)
    a = mesh.vertex_areas
    total_hr = float(a @ h_r)
    xbar = (a[:, None] * mesh.vertices).sum(axis=0) / a.sum()
    support = np.einsum("vi,vi->v", mesh.vertices - xbar, mesh.vertex_normals)
    other = float(a @ (field.h_next * support))
    return abs(total_hr - other) / total_hr


def test_functions(mesh, field):
    """Canonical test functions f_i = sqrt(c_r H_{r+1}^(r/(r+1))) N_i, (V, 3).

    Chosen so that W_r f_i = c_r H_{r+1} N_i pointwise, which is exactly
    the right-hand side of the position identity.  The power needs
    H_{r+1} > 0 when r >= 1, which the field holds by construction; at
    r = 0 the exponent vanishes and any sign is fine.
    """
    r, h = field.r, field.h_next
    amp = np.sqrt(C_R * h ** (r / (r + 1.0)))
    return amp[:, None] * mesh.vertex_normals


def zero_mean_resolvent(pencil):
    """R0 b: the y of zero M-mean with K y = b - c m, c the constant part
    of b, which K cannot reach (eigen._shifted_solver with zero_mean)."""
    return _shifted_solver(pencil.k_stiff, pencil.mass, 0.0, zero_mean=True,
                           layout=pencil.layout)


def identity_report(mesh, field, pencil, f, r0):
    """Every identity check once: the position and Minkowski residuals,
    d_i = <R0(W f_i), W f_i>_M - ||f_i||_M^2, orthogonality_raw and the
    chain residual.

    ``f`` holds the test functions as columns and ``r0`` is
    zero_mean_resolvent(pencil).  The resolvent argument W f_i is
    projected to zero M-mean before the solve; the raw integral int f_i W
    (identical to <f_i, W>_M since the weight is shared) is reported before
    projection, where it decays like O(h^2) under refinement.  The chain
    residual is the relative gap between sum_i <phi_i, W f_i>_M and the
    K-energy sum_i phi_i^T K phi_i of the phi_i = R0(W f_i): equal in exact
    arithmetic, so it measures solver and projection quality only and
    should sit at round-off level.
    """
    f = np.asarray(f, dtype=float)
    a = pencil.mass
    area = float(a.sum())
    wf = pencil.w[:, None] * f
    scale = area * np.maximum(np.abs(wf).max(axis=0), 1e-300)
    load = a[:, None] * (wf - (a @ wf) / area)
    phi = np.array([r0(load[:, i]) for i in range(3)])
    pairing = np.sum(phi.T * load, axis=0)
    d = pairing - a @ f**2
    total = float(pairing.sum())
    energy = float(np.sum(phi.T * (pencil.k_stiff @ phi.T)))
    chain = abs(total - energy) / max(abs(total), 1e-300)
    return IdentityReport(
        lr_position_residual=lr_position_residual(mesh, field, pencil),
        minkowski_residual=minkowski_residual(mesh, field),
        orthogonality_raw=np.abs(a @ wf) / scale,
        d=d, d_sum=float(d.sum()), chain_residual=chain)
