"""Integral identities tying position, curvature, and the potential together.

Everything here is a consistency check, not new machinery: the weak position
identity K x_i = M (c_r H_{r+1} N_i), the Minkowski formula, the canonical
test functions f_i with their integrals against W, and the quantities
d_i = <R0(W f_i), W f_i> - ||f_i||^2.  All inner products are M-weighted
vertex sums so the continuum equalities close discretely where they should.

The position residual compares the assembled operator against geometric
curvature samples, so it carries the discretization's consistency error:
O(h) at r = 0, while at r = 1 it does not fall with refinement (the
README gives both series).  No threshold judges it.  The pairing
<R0(W f_i), W f_i> in d_i equals the K-energy of R0(W f_i) in exact
arithmetic; their gap is round-off, so it is a test of R0
(tests/test_identities.py), not a reported number.

The checks take what they share as arguments and compute none of it
again.  Each reads the order r, H_{r+1} and W_r from the one curvature
field, which curvature.compute_curvature builds whole and which already
holds H_{r+1} > 0 and H_1 > 0 for r >= 1, so no check gates them again.
c_r and H_r come from curvature's n = 2 closed forms, C_R and
mean_curvature.  identity_report runs every check once into the
IdentityReport that verify.run reports and whose d_i its theorem and
lemma read.  The zero-mean resolvent R0 is K grounded at one vertex,
defined because a TriMesh is connected (its constructor refuses one that is not),
and factored once by eigen._shifted_solver like every other matrix; that
one factor serves the three d_i solves.
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
    """R0 as a function of loads b: the y of zero M-mean with K y = b - c m,
    m = M 1 and c = sum(b) / sum(m), the constant part K cannot reach.

    The mesh is connected, so K + k_gg e_g e_g^T, g the last vertex of the
    band order, is definite; on a zero-sum load it solves K y = b with
    y_g = 0 (Bochev-Lehoucq, SIAM Rev. 2005).
    """
    mass, k = pencil.mass, pencil.k_stiff
    area = float(mass.sum())
    g = pencil.layout.order[-1]
    ground = np.zeros(len(mass))
    ground[g] = k[g, g]
    solve = _shifted_solver(k, ground, 1.0, pencil.layout)

    def r0(b):
        y = solve(b - float(b.sum()) / area * mass)
        return y - float(mass @ y) / area
    return r0


def identity_report(mesh, field, pencil, f, r0):
    """Every identity check once: the position and Minkowski residuals,
    d_i = <R0(W f_i), W f_i>_M - ||f_i||_M^2 and orthogonality_raw.

    ``f`` holds the test functions as columns and ``r0`` is
    zero_mean_resolvent(pencil).  The resolvent argument W f_i is
    projected to zero M-mean before the solve; the raw integral int f_i W
    (identical to <f_i, W>_M since the weight is shared) is reported before
    projection, where it decays like O(h^2) under refinement.
    """
    f = np.asarray(f, dtype=float)
    a = pencil.mass
    area = float(a.sum())
    wf = pencil.w[:, None] * f
    scale = area * np.maximum(np.abs(wf).max(axis=0), 1e-300)
    load = a[:, None] * (wf - (a @ wf) / area)
    phi = np.array([r0(load[:, i]) for i in range(3)])
    d = np.sum(phi.T * load, axis=0) - a @ f**2
    return IdentityReport(
        lr_position_residual=lr_position_residual(mesh, field, pencil),
        minkowski_residual=minkowski_residual(mesh, field),
        orthogonality_raw=np.abs(a @ wf) / scale,
        d=d, d_sum=float(d.sum()))
