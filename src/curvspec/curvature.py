"""Discrete shape operators and derived curvature fields on a TriMesh.

The estimator is a per-face finite-difference fit: along each edge of a face
the difference of the vertex unit normals (Max's weighting, see the
mesh module) approximates the shape operator applied to the edge
vector, both projected into the face tangent plane.  Three edges give six
equations for the three unknowns of a symmetric 2x2 matrix, solved in
least squares face by face, in closed form.  Per-vertex operators are the
area-weighted average of incident face operators after rotating each face
tangent plane onto the vertex tangent plane.

Sign convention throughout: a sphere of radius R with outward normals gets
the operator +(1/R) I.

The surfaces are two-dimensional (n = 2), so the curvature algebra of a
pair kappa_1 <= kappa_2 is written in closed form:

* H_0 = 1, H_1 = (kappa_1 + kappa_2) / 2 and H_2 = kappa_1 kappa_2
  (mean_curvature).
* The Newton transform P_r has eigenvalue S_r of the other curvature
  along each principal direction: 1 for r = 0, and S_1 - kappa_i, the
  other kappa, for r = 1.  Of a face operator S that is P_0 = I and
  P_1 = tr(S) I - S, with no eigendecomposition.
* c_r = (n - r) C(n, r) is 2 for both r = 0 and r = 1 (C_R).
* W_r = sqrt(c_r H_{r+1}^{(r+2)/(r+1)}): W_0 = sqrt(2 H_1^2) needs no sign
  assumption, W_1 = sqrt(2 H_2^{3/2}) needs H_2 > 0.

compute_curvature(mesh, r) is the one way to build a CurvatureField, and it
builds every field at once: the vertex principal curvatures, the Newton
transform P_r per face, and the vertex samples of H_{r+1} and W_r.  For
r >= 1 it is also the one gate of the standing assumption H_{r+1} > 0 and
of the outward orientation H_1 > 0, so every consumer reads a field that
already holds both.  The mesh needs no gate here: a TriMesh is closed,
manifold, oriented, nondegenerate and connected, or it was never built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CurvaturePositivityError, DegenerateGeometryError

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
    v, f = mesh.vertices, mesh.faces
    vn = mesh.vertex_normals
    fn = mesh.face_normals
    t1 = v[f[:, 1]] - v[f[:, 0]]
    t1 = t1 / np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(fn, t1)
    basis = np.stack([t1, t2], axis=1)  # (F, 2, 3)

    # rows (eu, ev, 0) and (0, eu, ev) for unknowns (s11, s12, s22) give
    # the normal matrix [[a, b, 0], [b, a + c, b], [0, b, c]] with
    # a = sum eu^2, b = sum eu ev, c = sum ev^2
    a = b = c = r0 = r1 = r2 = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        e = v[f[:, j]] - v[f[:, i]]
        dn = vn[f[:, j]] - vn[f[:, i]]
        eu = np.einsum("ij,ij->i", e, t1)
        ev = np.einsum("ij,ij->i", e, t2)
        du = np.einsum("ij,ij->i", dn, t1)
        dv = np.einsum("ij,ij->i", dn, t2)
        a += eu * eu
        b += eu * ev
        c += ev * ev
        r0 += eu * du
        r1 += ev * du + eu * dv
        r2 += ev * dv
    # its trace is 2(a + c) and its determinant (a + c)(ac - b^2), with
    # ac - b^2 = 12 area^2 by Lagrange's identity: the rank test below,
    # det <= 1e-20 (trace / 3)^3, refuses needle faces
    t = a + c
    det = t * (a * c - b * b)
    bad = det <= 1e-20 * (2.0 * t / 3.0) ** 3
    if np.any(bad):
        raise DegenerateGeometryError(
            f"rank-deficient shape-operator fit on face {int(np.argmax(bad))}",
            face=int(np.argmax(bad)),
        )
    # the adjugate of the symmetric normal matrix, over its determinant
    ab, bc, bb = a * b, b * c, b * b
    s = ((t * c - bb) * r0 - bc * r1 + bb * r2,
         -bc * r0 + a * c * r1 - ab * r2,
         bb * r0 - ab * r1 + (a * t - bb) * r2)
    ops = np.empty((len(f), 2, 2))
    ops[:, 0, 0] = s[0] / det
    ops[:, 0, 1] = ops[:, 1, 0] = s[1] / det
    ops[:, 1, 1] = s[2] / det
    return ops, basis


def _to_world(ops, basis):
    """Face-basis symmetric 2x2 forms as world-frame 3x3 ones,
    basis^T ops basis, written out entry by entry as
    sum_ab ops_ab t_a t_b^T over the basis rows t_1, t_2."""
    t1, t2 = np.ascontiguousarray(basis.transpose(1, 2, 0))   # (3, F) each
    n11, n12, n22 = ops[:, 0, 0], ops[:, 0, 1], ops[:, 1, 1]
    out = np.empty((len(ops), 3, 3))
    for i in range(3):
        for j in range(i, 3):
            out[:, i, j] = out[:, j, i] = (
                n11 * (t1[i] * t1[j]) + n12 * (t1[i] * t2[j] + t2[i] * t1[j])
                + n22 * (t2[i] * t2[j]))
    return out


def _cross(a, b):
    """Cross product of vectors stored component-first, (3, N) or triples."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """Row-wise dot product of vectors stored component-first."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vertex_principal_curvatures(ops, basis, mesh):
    """Sorted per-vertex principal curvatures (V, 2).

    Incident face operators are parallel-transported into the vertex tangent
    plane (the minimal rotation taking the face normal to the vertex normal)
    and averaged with face-area weights.  Only the two face-basis vectors
    are rotated, by Rodrigues' formula: with w = a x b and c = a . b for
    unit normals a, b, a vector x goes to x + w x x + w x (w x x) / (1 + c).
    With C the 2x2 matrix of the rotated basis in the vertex frame, the
    moved operator there is C ops C^T, so each vertex accumulates the three
    entries of a symmetric 2x2 form.
    """
    nv = mesh.n_vertices
    n = mesh.vertex_normals
    helper = np.zeros_like(n)
    helper[np.arange(nv), np.argmin(np.abs(n), axis=1)] = 1.0
    u1 = np.cross(n, helper)
    u1 /= np.linalg.norm(u1, axis=1)[:, None]
    u2 = np.cross(n, u1)                          # (u1, u2) tangent frame
    # vectors component-first, so each product runs on contiguous rows
    n, u1, u2, fn, t1, t2 = (np.ascontiguousarray(x.T) for x in (
        n, u1, u2, mesh.face_normals, basis[:, 0], basis[:, 1]))
    s11, s12, s22 = ops[:, 0, 0], ops[:, 0, 1], ops[:, 1, 1]
    forms = np.empty((3, 3, mesh.n_faces))   # (entry, corner, face)
    for corner, vid in enumerate(mesh.faces.T):
        vn, e1, e2 = ([x[vid] for x in y] for y in (n, u1, u2))
        # nearly antiparallel normals cannot occur between a face and one of
        # its vertices on a sane closed mesh; w = 0 keeps the identity there
        denom = 1.0 + _dot(fn, vn)
        safe = denom > 1e-8
        w = [np.where(safe, wk, 0.0) for wk in _cross(fn, vn)]
        factor = 1.0 / np.where(safe, denom, 1.0)
        moved = []
        for t in (t1, t2):
            wt = _cross(w, t)
            moved.append([tk + wtk + factor * wwtk
                          for tk, wtk, wwtk in zip(t, wt, _cross(w, wt))])
        # row i of C: u_i against R t_1 and R t_2
        (p1, p2), (q1, q2) = ((_dot(e, moved[0]), _dot(e, moved[1]))
                              for e in (e1, e2))
        forms[0, corner] = s11 * p1 * p1 + 2.0 * s12 * p1 * p2 + s22 * p2 * p2
        forms[1, corner] = (s11 * p1 * q1 + s12 * (p1 * q2 + p2 * q1)
                            + s22 * p2 * q2)
        forms[2, corner] = s11 * q1 * q1 + 2.0 * s12 * q1 * q2 + s22 * q2 * q2
    forms *= mesh.face_areas
    # the incident face areas sum to three barycentric vertex areas
    a, b, d = (np.bincount(mesh.faces.T.ravel(), weights=form.ravel(),
                           minlength=nv) / (3.0 * mesh.vertex_areas)
               for form in forms)
    mean = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return np.stack([mean - disc, mean + disc], axis=1)


def compute_curvature(mesh, r):
    """The whole order-r CurvatureField of a mesh, r in {0, 1}.

    The Newton transform of a face operator S is written out: P_0 = I and
    P_1 = tr(S) I - S, each taken to the world frame as basis^T P basis.
    For r = 1 a nonpositive vertex H_2 violates the standing
    curvature assumption and raises, naming the worst vertex; then so does
    a nonpositive H_1, which with H_2 > 0 means the faces run inside out.
    """
    if r not in (0, 1):
        raise ValueError("the mesh pipeline supports r in {0, 1}")
    ops, basis = estimate_shape_operators(mesh)
    kappas = vertex_principal_curvatures(ops, basis, mesh)
    if r == 0:
        p2 = np.broadcast_to(np.eye(2), ops.shape)
    else:
        p2 = np.trace(ops, axis1=1, axis2=2)[:, None, None] * np.eye(2) - ops
    h = mean_curvature(kappas, r + 1)
    if r == 1:
        for j, h_j in ((2, h), (1, mean_curvature(kappas, 1))):
            if h_j.min() <= 0.0:
                raise CurvaturePositivityError(r, j, h_value=h_j.min(),
                                               vertex=int(np.argmin(h_j)))
    w = np.sqrt(C_R * h * h) if r == 0 else np.sqrt(C_R * h**1.5)
    return CurvatureField(vertex_kappas=kappas, r=r,
                          p_r_face=_to_world(p2, basis), h_next=h, w=w)
