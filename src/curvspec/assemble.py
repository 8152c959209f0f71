"""P1 finite-element assembly of the penalized-operator pencil.

The weak form of the divergence operator with a face-constant anisotropy is
u^T K v = sum_f area_f * <P(f) grad u|_f, grad v|_f> over piecewise-linear
hat functions; K is symmetric and kills constants.  A hat gradient is the
opposite side e_a turned a quarter turn J in the face plane over 2 area_f,
and J^T P J = adj(P), so K_ab = e_a^T adj(P_r) e_b / (4 area_f) in the face
fit's basis, with adj(P_0) = I and adj(tr(S) I - S) = S.  The mesh's edge
table gives K's canonical CSR pattern.  The mass matrix is the
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

from .eigen import BandLayout, _new_directions, band_layout, ritz_values
from .mesh import _dot, _edge_vectors

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
    q = _newton_adjugate(field)
    vt, f = np.ascontiguousarray(mesh.vertices.T), mesh.faces
    t1, t2 = np.ascontiguousarray(field.face_basis.transpose(1, 2, 0))
    # e_a = x_c - x_b, the side opposite corner a, in the face basis (3, F)
    sides = [_edge_vectors(vt, f, b, c) for b, c in ((1, 2), (2, 0), (0, 1))]
    u, v = (np.array([_dot(e, t) for e in sides]) for t in (t1, t2))
    # e_a^T q e_b / (4 area) for b = a, then for b = a + 1 mod 3, whose
    # corner pairs lie on the sides 01, 12, 20 that face_edges lists
    diag, off = ((q[:, 0, 0] * u * u[b] + q[:, 0, 1] * (u * v[b] + v * u[b])
                  + q[:, 1, 1] * v * v[b]) / (4.0 * mesh.face_areas)
                 for b in ([0, 1, 2], [1, 2, 0]))
    off = np.bincount(mesh.face_edges.T.ravel(), weights=off.ravel(),
                      minlength=mesh.n_edges)
    nv = mesh.n_vertices
    diag = np.bincount(f.T.ravel(), weights=diag.ravel(), minlength=nv)
    # K's entries (j, i), (i, i), (i, j) for the edges (i, j), i < j, of the
    # lexicographic table: each row's columns already ascend, so a stable
    # sort by row alone gives the canonical CSR
    lo, hi, at = mesh.edges[:, 0], mesh.edges[:, 1], np.arange(nv)
    rows = np.concatenate([hi, at, lo])
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))])
    k = sp.csr_matrix((np.concatenate([off, diag, off])[order],
                       np.concatenate([lo, at, hi])[order], indptr),
                      shape=(nv, nv))
    mass = np.array(mesh.vertex_areas)
    w = np.array(field.w)
    return OperatorPencil(
        k_stiff=k, mass=mass, w=w, potential=mass * w * w,
        layout=band_layout(k), r=field.r,
    )


def _newton_adjugate(field):
    """adj(P_r) of each face in its fit's basis, (F, 2, 2): adj(I) = I
    at r = 0 and adj(tr(S) I - S) = S, the face operator, at r = 1."""
    return field.face_ops if field.r else np.broadcast_to(
        np.eye(2), field.face_ops.shape)


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


def shift_ladder(pencil):
    """Shift-invert targets for the pencil, nearest first.

    lambda_1 lies in [-max W^2, -mean W^2] (the constants have Rayleigh
    quotient -mean W^2), and the floor can lie far below it, where
    shift-invert separates the wanted eigenvalues poorly (Ericsson-Ruhe
    1980).  So the rungs are -2^(j+1) mean W^2, j = 0, 1, ..., while they
    lie above the floor, and then the floor; eigen.smallest_eigenpairs
    takes the first that factors.  With W constant it is the floor alone.
    A rung at or above lambda_1 would not factor, so each rung at or above
    the smallest Ritz value of (K - M_W, M) on span{1, W, W^2, W^4}, by
    Courant-Fischer an upper bound on lambda_1 (Parlett 1980, ch. 11), is
    dropped and logged; it takes no solve.  _new_directions drops the
    dependent columns: on a sphere W is constant, so the span is the
    constants up to round-off, and a round-off direction that stays does
    no harm, since any subspace gives an upper bound.  The floor lies
    below lambda_1 and always stays.
    """
    w = pencil.w
    floor = pencil_floor_shift(float(np.max(w**2)))
    rungs = [-2.0 * spectral_scale(pencil.mass, w)]
    while floor < rungs[-1] < 0.0:
        rungs.append(2.0 * rungs[-1])
    rungs = rungs[:-1]
    basis = _new_directions(np.column_stack((np.ones_like(w), w, w**2,
                                             w**4)))
    bound = float(ritz_values(pencil.a_matrix(), pencil.mass, basis)[0])
    # the rungs descend, so the dropped ones lead
    dropped = [sigma for sigma in rungs if sigma >= bound]
    for sigma in dropped:
        log.debug("shift %.17g dropped, not below the Ritz bound "
                  "%.17g on lambda_1", sigma, bound)
    return rungs[len(dropped):] + [floor]
