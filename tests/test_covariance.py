"""Covariance: what verify and bs-scan report follows the mesh's geometry,
not its placement, its labels or its units.

A rigid motion and a relabeling of vertices and faces (each face's corners
rotated, so its orientation stays) leave the geometry as it is; scaling
the surface by s multiplies every curvature by 1/s and every eigenvalue
of the pencil, and so every unit crossing -mu0, by s^-(r+2).  No oracle
is needed: each case is compared with the untransformed mesh.  The
lemma's witness and the d_i one by one are not compared, since they name
axes, which a rotation moves; d_sum is a trace, which it does not.
"""

from functools import lru_cache

import numpy as np
import pytest

from curvspec import birman, verify
from curvspec.assemble import assemble_pencil
from curvspec.curvature import compute_curvature
from curvspec.mesh import TriMesh

from conftest import get_mesh

# the meshes at every order the curvature gate admits: the torus has
# H_2 <= 0 on its inner side, so it runs at r = 0 only
CASES = [("ellipsoid", 3, 0), ("ellipsoid", 3, 1), ("bumped", 3, 0),
         ("bumped", 3, 1), ("torus", 1, 0), ("sphere", 3, 0),
         ("sphere", 3, 1)]

# relative agreement after the change of units.  Measured on these
# meshes: the eigenvalues moved by at most 6.3e-15 of the largest |lambda|,
# each crossing by at most 4.4e-13 of itself (Newton stops at
# |top - 1| <= 1e-12), and d_sum by at most 9.1e-15 of sum ||f_i||_M^2,
# the size of the two terms whose difference it is (on a sphere d_sum is
# 4e-6 of that)
REL = 1e-12


def rigid_motion(mesh, seed=0):
    """The mesh under a seeded rotation (det +1) and translation."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return TriMesh(mesh.vertices @ q.T + rng.standard_normal(3), mesh.faces)


def relabel(mesh, seed=0):
    """The mesh with its vertices and faces in a seeded order and each
    face's corners rotated by a seeded 0, 1 or 2 places."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    faces = np.argsort(perm)[mesh.faces][rng.permutation(mesh.n_faces)]
    shift = rng.integers(0, 3, size=len(faces))
    corners = (np.arange(3) + shift[:, None]) % 3
    return TriMesh(mesh.vertices[perm],
                   np.take_along_axis(faces, corners, axis=1))


def scaled(mesh, s):
    return TriMesh(s * mesh.vertices, mesh.faces)


TRANSFORMS = {
    "rigid": (rigid_motion, 1.0),
    "relabel": (relabel, 1.0),
    "scale-1e-3": (lambda mesh: scaled(mesh, 1e-3), 1e-3),
    "scale-1e3": (lambda mesh: scaled(mesh, 1e3), 1e3),
}


def analysis(mesh, r):
    """verify.run's Verification and bs-scan's crossings (mu0 ascending)
    on the order-r field of ``mesh``."""
    field = compute_curvature(mesh, r)
    done = verify.run(mesh, field, verify.VerifyConfig(), {})
    scan = birman.scan_crossings(assemble_pencil(mesh, field))
    return done, np.array([c.mu0 for c in scan.crossings])


@lru_cache(maxsize=None)
def reference(kind, subdiv, r):
    """The untransformed analysis of each case, made once."""
    return analysis(get_mesh(kind, subdiv), r)


def assert_close(got, want, scale):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= REL * scale)


@pytest.mark.parametrize("name", TRANSFORMS)
@pytest.mark.parametrize("kind,subdiv,r", CASES)
def test_reports_follow_the_geometry(kind, subdiv, r, name):
    transform, s = TRANSFORMS[name]
    want, want_mu = reference(kind, subdiv, r)
    got, got_mu = analysis(transform(get_mesh(kind, subdiv)), r)
    # eigenvalues and crossings scale as s^-(r+2), ||f_i||_M^2 and the
    # d_i as s^(2-r)
    unit, ev = s ** (r + 2), want.spectrum.eigenvalues
    assert_close(got.spectrum.eigenvalues * unit, ev, np.abs(ev).max())
    assert_close(got_mu * unit, want_mu, np.abs(want_mu))
    assert_close(got.theorem.d_sum * s ** (r - 2), want.theorem.d_sum,
                 want.lemma.thresholds.sum() / verify.LEMMA_TOL)
    for key in ("verdict", "multiplicity"):
        assert getattr(got.theorem, key) == getattr(want.theorem, key)
    assert got.lemma.applicable == want.lemma.applicable
