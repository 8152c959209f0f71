"""Discrete shape operators and derived curvature fields on a TriMesh.

The estimator is a per-face finite-difference fit: along each edge of a face
the difference of the vertex unit normals (Max's weighting, see
mesh.vertex_measures) approximates the shape operator applied to the edge
vector, both projected into the face tangent plane.  Three edges give six
equations for the three unknowns of a symmetric 2x2 matrix, solved in
least squares face by face.  Per-vertex operators are the area-weighted
average of incident face operators after rotating each face tangent plane
onto the vertex tangent plane.

Sign convention throughout: a sphere of radius R with outward normals gets
the operator +(1/R) I.

The surfaces are two-dimensional (n = 2), so the curvature algebra of a
pair kappa_1 <= kappa_2 is written in closed form:

* H_0 = 1, H_1 = (kappa_1 + kappa_2) / 2 and H_2 = kappa_1 kappa_2
  (mean_curvature).
* The Newton transform P_r has eigenvalue S_r of the other curvature
  along each principal direction: 1 for r = 0, and S_1 - kappa_i, the
  other kappa, for r = 1.
* c_r = (n - r) C(n, r) is 2 for both r = 0 and r = 1 (C_R).
* W_r = sqrt(c_r H_{r+1}^{(r+2)/(r+1)}): W_0 = sqrt(2 H_1^2) needs no sign
  assumption, W_1 = sqrt(2 H_2^{3/2}) needs H_2 > 0.

compute_curvature(mesh, r) is the one way to build a CurvatureField, and it
builds every field at once: the vertex principal curvatures, the Newton
transform P_r per face, and the vertex samples of H_{r+1} and W_r.  For
r >= 1 it is also the one gate of the standing assumption H_{r+1} > 0 and
of the outward orientation H_1 > 0, so every consumer reads a field that
already holds both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CurvaturePositivityError, DegenerateGeometryError
from .mesh import vertex_measures

__all__ = ["C_R", "CurvatureField", "compute_curvature", "mean_curvature",
           "shape_norm"]

# c_r = (n - r) * C(n, r) at n = 2, the same for r = 0 and r = 1
C_R = 2.0


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """The per-vertex curvatures and the order-r fields built on them.

    vertex_kappas are the sorted principal curvatures (V, 2); p_r_face is
    the Newton transform P_r per face as a world-frame 3x3 tangential
    matrix; h_next and w hold the vertex samples of H_{r+1} and W_r.
    """

    vertex_kappas: np.ndarray
    r: int
    p_r_face: np.ndarray
    h_next: np.ndarray
    w: np.ndarray


def mean_curvature(kappas, r):
    """H_r = S_r / C(2, r) of principal curvature pairs (..., 2), r in
    {0, 1, 2}: 1, the mean curvature and the Gauss curvature."""
    if r == 0:
        return np.ones(np.shape(kappas)[:-1])
    k1, k2 = kappas[..., 0], kappas[..., 1]
    return (k1 + k2) / 2.0 if r == 1 else k2 * k1


def shape_norm(kappas):
    """Normalized curvature norm ((kappa_1^2 + kappa_2^2) / 2)^{1/2}.

    The normalization is chosen so that a sphere of radius R has norm 1/R;
    without it the corollary operator would not vanish on round spheres.
    """
    return np.sqrt(np.mean(kappas * kappas, axis=-1))


def estimate_shape_operators(mesh):
    """Per-face symmetric shape operators as (ops, basis).

    ops are 2x2 symmetric matrices (F, 2, 2) in the orthonormal face basis
    ``basis`` (F, 2, 3), whose rows are t1, t2.
    """
    vertex_measures(mesh)  # raises on degenerate geometry
    v, f = mesh.vertices, mesh.faces
    vn = mesh.vertex_normals
    fn = mesh.face_normals
    t1 = v[f[:, 1]] - v[f[:, 0]]
    t1 = t1 / np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(fn, t1)
    basis = np.stack([t1, t2], axis=1)  # (F, 2, 3)

    gram = np.zeros((len(f), 3, 3))
    rhs = np.zeros((len(f), 3))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        e = v[f[:, b]] - v[f[:, a]]
        dn = vn[f[:, b]] - vn[f[:, a]]
        eu = np.einsum("ij,ij->i", e, t1)
        ev = np.einsum("ij,ij->i", e, t2)
        du = np.einsum("ij,ij->i", dn, t1)
        dv = np.einsum("ij,ij->i", dn, t2)
        # rows (eu, ev, 0) and (0, eu, ev) for unknowns (s11, s12, s22)
        gram[:, 0, 0] += eu * eu
        gram[:, 0, 1] += eu * ev
        gram[:, 1, 0] += eu * ev
        gram[:, 1, 1] += eu * eu + ev * ev
        gram[:, 1, 2] += eu * ev
        gram[:, 2, 1] += eu * ev
        gram[:, 2, 2] += ev * ev
        rhs[:, 0] += eu * du
        rhs[:, 1] += ev * du + eu * dv
        rhs[:, 2] += ev * dv
    det = np.linalg.det(gram)
    scale = (np.trace(gram, axis1=1, axis2=2) / 3.0) ** 3
    bad = det <= 1e-20 * scale
    if np.any(bad):
        raise DegenerateGeometryError(
            f"rank-deficient shape-operator fit on face {int(np.argmax(bad))}",
            face=int(np.argmax(bad)),
        )
    s = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    ops = np.empty((len(f), 2, 2))
    ops[:, 0, 0] = s[:, 0]
    ops[:, 0, 1] = ops[:, 1, 0] = s[:, 1]
    ops[:, 1, 1] = s[:, 2]
    return ops, basis


def _to_world(ops, basis):
    """Face-basis 2x2 operators as world-frame 3x3 ones, basis^T ops basis."""
    return basis.transpose(0, 2, 1) @ ops @ basis


def _rotation_between(a, b):
    """Batched minimal rotation taking unit vectors a to unit vectors b."""
    w = np.cross(a, b)
    c = np.einsum("ij,ij->i", a, b)
    eye = np.eye(3)
    wx = np.zeros((len(a), 3, 3))
    wx[:, 0, 1] = -w[:, 2]
    wx[:, 0, 2] = w[:, 1]
    wx[:, 1, 0] = w[:, 2]
    wx[:, 1, 2] = -w[:, 0]
    wx[:, 2, 0] = -w[:, 1]
    wx[:, 2, 1] = w[:, 0]
    denom = 1.0 + c
    # nearly antiparallel normals cannot occur between a face and one of its
    # vertices on a sane closed mesh; fall back to the identity there
    safe = denom > 1e-8
    factor = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
    rot = eye[None, :, :] + wx + factor[:, None, None] * (wx @ wx)
    rot[~safe] = eye
    return rot


def vertex_principal_curvatures(ops, basis, mesh):
    """Sorted per-vertex principal curvatures (V, 2).

    Incident face operators are parallel-transported into the vertex tangent
    plane (rotation aligning the face normal with the vertex normal) and
    averaged with face-area weights.
    """
    nv = mesh.n_vertices
    ops3 = _to_world(ops, basis)
    acc = np.zeros(9 * nv)
    for vid in mesh.faces.T:
        rot = _rotation_between(mesh.face_normals, mesh.vertex_normals[vid])
        moved = rot @ ops3 @ rot.transpose(0, 2, 1)
        acc += np.bincount((9 * vid[:, None] + np.arange(9)).ravel(),
                           weights=(mesh.face_areas[:, None, None] * moved).ravel(),
                           minlength=9 * nv)
    # the incident face areas sum to three barycentric vertex areas
    acc = acc.reshape(nv, 3, 3) / (3.0 * mesh.vertex_areas)[:, None, None]
    n = mesh.vertex_normals
    helper = np.zeros_like(n)
    helper[np.arange(nv), np.argmin(np.abs(n), axis=1)] = 1.0
    u1 = np.cross(n, helper)
    u1 /= np.linalg.norm(u1, axis=1)[:, None]
    u = np.stack([u1, np.cross(n, u1)], axis=1)   # (V, 2, 3) tangent frame
    t = u @ acc @ u.transpose(0, 2, 1)
    a, d = t[:, 0, 0], t[:, 1, 1]
    b = 0.5 * (t[:, 0, 1] + t[:, 1, 0])
    mean = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return np.stack([mean - disc, mean + disc], axis=1)


def compute_curvature(mesh, r):
    """The whole order-r CurvatureField of a mesh, r in {0, 1}.

    The Newton transform is evaluated in the eigenbasis of each face
    operator.  For r = 1 a nonpositive vertex H_2 violates the standing
    curvature assumption and raises, naming the worst vertex; then so does
    a nonpositive H_1, which with H_2 > 0 means the faces run inside out.
    """
    if r not in (0, 1):
        raise ValueError("the mesh pipeline supports r in {0, 1}")
    ops, basis = estimate_shape_operators(mesh)
    kappas = vertex_principal_curvatures(ops, basis, mesh)
    evals, evecs = np.linalg.eigh(ops)
    newt = np.ones_like(evals) if r == 0 else evals.sum(axis=1, keepdims=True) - evals
    p2 = (evecs * newt[:, None, :]) @ evecs.transpose(0, 2, 1)
    h = mean_curvature(kappas, r + 1)
    if r == 1:
        for j, h_j in ((2, h), (1, mean_curvature(kappas, 1))):
            if h_j.min() <= 0.0:
                raise CurvaturePositivityError(r, j, h_value=h_j.min(),
                                               vertex=int(np.argmin(h_j)))
    w = np.sqrt(C_R * h * h) if r == 0 else np.sqrt(C_R * h**1.5)
    return CurvatureField(vertex_kappas=kappas, r=r,
                          p_r_face=_to_world(p2, basis), h_next=h, w=w)
