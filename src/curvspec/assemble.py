"""P1 finite-element assembly of the penalized-operator pencil.

The weak form of the divergence operator with a face-constant anisotropy is
u^T K v = sum_f area_f * <P(f) grad u|_f, grad v|_f> over piecewise-linear
hat functions; K is symmetric and kills constants.  The mass matrix is the
lumped (diagonal) barycentric one and the potential enters as the diagonal
M_W = diag(area_v * W(v)^2), so multiplication by W stays an exact diagonal
operation downstream.  The eigenproblem of the penalized operator is the
symmetric pencil (K - M_W) x = lambda M x, eigenvalues ascending.  Every
matrix factored downstream has K's sparsity pattern, so the pencil carries
the one band layout of that pattern (eigen.band_layout), built once at
assembly.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigen import BandLayout, band_layout

__all__ = [
    "OperatorPencil",
    "assemble_pencil",
    "spectral_scale",
    "pencil_floor_shift",
    "shift_ladder",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class OperatorPencil:
    """Stiffness K, lumped mass diagonal, and potential diagonal for one r."""

    k_stiff: sp.csr_matrix
    mass: np.ndarray        # diagonal of M (barycentric vertex areas)
    w: np.ndarray           # vertex samples of W_r
    potential: np.ndarray   # diagonal of M_W = mass * w^2
    layout: BandLayout      # band layout of K's sparsity pattern
    r: int

    @property
    def n_vertices(self):
        return len(self.mass)

    def a_matrix(self):
        """K - M_W, the left-hand side of the pencil, with K's pattern."""
        a = self.k_stiff.copy()
        a.setdiag(self.k_stiff.diagonal() - self.potential)
        return a


def assemble_pencil(mesh, field):
    """Assemble (K_r, M, M_W) from an order-r curvature field."""
    grads = mesh.hat_gradients()
    local = mesh.face_areas[:, None, None] * (
        grads @ field.p_r_face @ grads.transpose(0, 2, 1))
    local = 0.5 * (local + local.transpose(0, 2, 1))
    rows = np.broadcast_to(mesh.faces[:, :, None], local.shape)
    cols = np.broadcast_to(mesh.faces[:, None, :], local.shape)
    nv = mesh.n_vertices
    k = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)
    ).tocsr()
    k.sum_duplicates()
    mass = np.array(mesh.vertex_areas)
    w = np.array(field.w)
    return OperatorPencil(
        k_stiff=k, mass=mass, w=w, potential=mass * w * w,
        layout=band_layout(k), r=field.r,
    )


def spectral_scale(mass, w):
    """Mass-weighted mean of W^2; sets the unit for verdict thresholds."""
    return float(mass @ w**2) / float(mass.sum())


def pencil_floor_shift(max_w2):
    """Shift-invert target strictly below the pencil spectrum.

    K is positive semidefinite, so (K - M_W) x = lambda M x has no
    eigenvalue below -max(W^2); this lies a margin under that floor, and
    is the last rung of shift_ladder, the one known to lie below lambda_1.
    """
    return -1.1 * max_w2 - 0.1 * (max_w2 + 1.0)


def shift_ladder(pencil, lambda_1_upper=None):
    """Shift-invert targets for the pencil, nearest first.

    lambda_1 lies in [-max W^2, -mean W^2] (the constants have Rayleigh
    quotient -mean W^2), and the floor can lie far below it, where
    shift-invert separates the wanted eigenvalues poorly (Ericsson-Ruhe
    1980).  So the rungs are -2^(j+1) mean W^2, j = 0, 1, ..., while they
    lie above the floor, and then the floor; eigen.smallest_eigenpairs
    takes the first that factors.  With W constant it is the floor alone.
    ``lambda_1_upper``, an upper bound on lambda_1 such as a Ritz value
    (Courant-Fischer), drops each rung at or above it, which would not
    factor, and logs it; the floor lies below lambda_1 and always stays.
    """
    floor = pencil_floor_shift(float(np.max(pencil.w**2)))
    rungs = [-2.0 * spectral_scale(pencil.mass, pencil.w)]
    while floor < rungs[-1] < 0.0:
        rungs.append(2.0 * rungs[-1])
    rungs = rungs[:-1]
    if lambda_1_upper is not None:
        # the rungs descend, so the dropped ones lead
        dropped = [sigma for sigma in rungs if sigma >= lambda_1_upper]
        for sigma in dropped:
            log.debug("shift %.17g dropped, not below the Ritz bound "
                      "%.17g on lambda_1", sigma, lambda_1_upper)
        rungs = rungs[len(dropped):]
    return rungs + [floor]
