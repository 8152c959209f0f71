"""Shared fixtures: cached meshes, curvature fields, and pencils.

Building a subdiv-4 pipeline takes a noticeable fraction of a second and
many tests want the same few objects, so everything is memoized at module
scope by (shape, subdiv, r).  Tests must treat the returned objects as
read-only; TriMesh arrays are frozen, reports are frozen dataclasses.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from curvspec import assemble, curvature, eigen, surfaces, verify
from oracles import kernel_shift  # noqa: F401  (re-exported to the tests)


def make_surface(kind):
    return {
        "sphere": lambda: surfaces.Sphere(1.0),
        "sphere_small": lambda: surfaces.Sphere(0.5),
        "sphere_big": lambda: surfaces.Sphere(2.0),
        "ellipsoid": lambda: surfaces.Ellipsoid(2.0, 1.0, 1.0),
        "ellipsoid_mild": lambda: surfaces.Ellipsoid(1.2, 1.0, 1.0),
        "ellipsoid_long": lambda: surfaces.Ellipsoid(5.0, 1.0, 1.0),
        "bumped": lambda: surfaces.BumpedSphere(1.0, 0.04, 3),
        "bumped_half": lambda: surfaces.BumpedSphere(1.0, 0.02, 3),
        "torus": lambda: surfaces.Torus(2.0, 0.5),
    }[kind]()


@lru_cache(maxsize=None)
def get_mesh(kind, subdiv):
    return surfaces.generate(make_surface(kind), subdiv=subdiv)


@lru_cache(maxsize=None)
def get_pipeline(kind, subdiv, r):
    """(mesh, field, pencil) for a cached shape at one order."""
    mesh = get_mesh(kind, subdiv)
    field = curvature.compute_curvature(mesh, r=r)
    pencil = assemble.assemble_pencil(mesh, field)
    return mesh, field, pencil


def raw_off(vertices, faces):
    """OFF text of vertex and face arrays that need not make a TriMesh, so
    a mesh the constructor refuses can still be written as a file."""
    return ("OFF\n%d %d 0\n" % (len(vertices), len(faces))
            + "".join("%.17g %.17g %.17g\n" % tuple(p) for p in vertices)
            + "".join("3 %d %d %d\n" % tuple(f) for f in faces))


def rotation(theta):
    """2x2 rotations by the angles theta (...,), shape (..., 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def field_of_kappas(kappas, r, face_kappas=None, theta=0.0):
    """compute_curvature's order-r field with the estimators replaced.

    Vertex v reads the curvature pair kappas[v] (V, 2) and owns face v,
    whose operator has the curvatures face_kappas[v] (default kappas[v])
    along the x and y axes turned by theta.  The face basis is the x and
    y axes, so newton_transform(field) is P_r in that frame.  H_{r+1}, W_r
    and the r = 1 gate read the vertex pairs only, P_r the face operators
    only.
    """
    kappas = np.asarray(kappas, dtype=float)
    face = kappas if face_kappas is None else np.asarray(face_kappas, dtype=float)
    rot = rotation(np.full(len(face), theta))
    ops = rot @ (face[:, :, None] * np.eye(2)) @ rot.transpose(0, 2, 1)
    basis = np.broadcast_to(np.eye(2, 3), (len(ops), 2, 3))
    with mock.patch.object(curvature, "estimate_shape_operators",
                           lambda mesh: (ops, basis)), \
            mock.patch.object(curvature, "vertex_principal_curvatures",
                              lambda o, b, mesh: kappas):
        return curvature.compute_curvature(None, r)


def newton_transform(field):
    """P_r per face in its fit's basis, (F, 2, 2): the adjugate of the
    form assemble_pencil puts between the face sides, adj(adj(P)) = P for
    a 2x2 P."""
    q = assemble._newton_adjugate(field)
    p = np.empty(q.shape)
    p[:, 0, 0], p[:, 1, 1] = q[:, 1, 1], q[:, 0, 0]
    p[:, 0, 1] = p[:, 1, 0] = -q[:, 0, 1]
    return p


def newton_transform_world(field):
    """P_r per face as a world-frame 3x3 matrix, basis^T P_r basis."""
    basis = field.face_basis
    return np.einsum("fai,fab,fbj->fij", basis, newton_transform(field), basis)


def newton_eigenvalues(face_kappas, r):
    """P_r's eigenvalue along each principal direction of each face, in
    the order of face_kappas (F, 2), from compute_curvature."""
    field = field_of_kappas(np.ones_like(face_kappas), r, face_kappas)
    return np.diagonal(newton_transform(field), axis1=1, axis2=2)


def floor_shift(pencil):
    """The pipeline's shift-invert target for the pencil: below -max(W^2)."""
    return assemble.pencil_floor_shift(float(np.max(pencil.w**2)))


def kernel_top(pencil, mu, k=3, seed=0, w_perp=False):
    """k largest eigenvalues of the Birman-Schwinger kernel K_mu: one
    factor of K + mu M, then the kernel eigensolve on it."""
    solve = eigen._shifted_solver(pencil.k_stiff, pencil.mass, mu,
                                  layout=pencil.layout)
    return eigen._kernel_eigenpairs(solve, pencil.mass, pencil.w, k, seed,
                                    f"kernel eigensolve at mu={mu:.6g}",
                                    w_perp=w_perp)[0][:k]


def verify_run(mesh, r, config=None):
    """verify.run on a fresh order-r field of ``mesh``, at the default
    VerifyConfig unless one is given."""
    field = curvature.compute_curvature(mesh, r=r)
    return verify.run(mesh, field, config or verify.VerifyConfig(), {})


def verify_theorem(mesh, r, config=None):
    """TheoremReport of a fresh verify_run."""
    return verify_run(mesh, r, config).theorem


def verify_corollary(mesh, r, config=None):
    """CorollaryReport of a fresh verify_run."""
    return verify_run(mesh, r, config).corollary


def lemma_two_negative(mesh, r, config=None):
    """LemmaReport of a fresh verify_run."""
    return verify_run(mesh, r, config).lemma


@pytest.fixture(scope="session")
def sphere3():
    return get_mesh("sphere", 3)


@pytest.fixture(scope="session")
def sphere4():
    return get_mesh("sphere", 4)


@pytest.fixture(scope="session")
def ellipsoid3():
    return get_mesh("ellipsoid", 3)


@pytest.fixture(scope="session")
def torus1():
    return get_mesh("torus", 1)
