"""Discrete curvature estimation on triangulated surfaces."""

import dataclasses

import numpy as np
import pytest

from curvspec import assemble, curvature, surfaces
from curvspec.errors import CurvaturePositivityError, DegenerateGeometryError
from curvspec.mesh import TriMesh

import oracles
from conftest import get_mesh, get_pipeline, newton_transform_world


class TestShapeOperators:
    def test_face_basis_orthonormal(self, sphere3):
        _, b = curvature.estimate_shape_operators(sphere3)
        gram = np.einsum("fai,fbi->fab", b, b)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_face_operators_symmetric(self, sphere3):
        a, _ = curvature.estimate_shape_operators(sphere3)
        assert np.max(np.abs(a - a.transpose(0, 2, 1))) < 1e-12

    def test_sphere_face_operators_are_identity(self, sphere3):
        ops, _ = curvature.estimate_shape_operators(sphere3)
        assert np.max(np.abs(ops - np.eye(2))) < 0.05

    def test_flat_faces_have_zero_operator(self):
        box = oracles.box_mesh(4)
        ops, _ = curvature.estimate_shape_operators(box)
        nrm = box.vertex_normals[box.faces]
        flat = np.max(np.abs(nrm - nrm[:, :1, :]), axis=(1, 2)) < 1e-12
        assert flat.sum() >= 40     # interior of each side stays planar
        assert np.max(np.abs(ops[flat])) < 1e-12

    def test_needle_face_refused(self):
        # the third vertex of face 0 moved to 1e-12 off the midpoint of its
        # opposite edge: the face keeps an area above the mesh's floor, but
        # its fit's normal matrix is singular to working precision
        ico = get_mesh("sphere", 2)
        v = ico.vertices.copy()
        i, j, k = ico.faces[0]
        mid = 0.5 * (v[i] + v[j])
        v[k] = mid + 1e-12 * (v[k] - mid) / np.linalg.norm(v[k] - mid)
        with pytest.raises(DegenerateGeometryError,
                           match="rank-deficient shape-operator fit on face 0"):
            curvature.estimate_shape_operators(TriMesh(v, ico.faces))

    def test_ellipsoid_pole_face(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)
        mesh = surfaces.generate(e, subdiv=4)
        ops, _ = curvature.estimate_shape_operators(mesh)
        cent = mesh.vertices[mesh.faces].mean(axis=1)
        idx = int(np.argmin(np.linalg.norm(cent - [2.0, 0, 0], axis=1)))
        ev = np.linalg.eigvalsh(ops[idx])
        assert np.max(np.abs(ev - 2.0)) < 0.2


class TestVertexCurvatures:
    def test_sphere_exact(self):
        # the estimator reproduces umbilic surfaces to rounding error
        mesh = surfaces.generate(surfaces.Sphere(2.0), subdiv=3)
        field = curvature.compute_curvature(mesh, r=0)
        assert np.max(np.abs(field.vertex_kappas - 0.5)) < 1e-12

    def test_torus_pointwise(self):
        t = surfaces.Torus(2.0, 0.5)
        mesh = surfaces.generate(t, nu=64, nv=32)
        field = curvature.compute_curvature(mesh, r=0)
        exact = oracles.fd_principal_curvatures(t, mesh.vertices)
        err = np.max(np.abs(np.sort(field.vertex_kappas, axis=1) - exact))
        assert err < 0.01

    def test_torus_second_order(self):
        t = surfaces.Torus(2.0, 0.5)

        def worst(nu, nv):
            mesh = surfaces.generate(t, nu=nu, nv=nv)
            field = curvature.compute_curvature(mesh, r=0)
            exact = oracles.fd_principal_curvatures(t, mesh.vertices)
            return np.max(np.abs(np.sort(field.vertex_kappas, axis=1) - exact))

        ratio = worst(64, 32) / worst(128, 64)
        assert 3.0 < ratio < 5.0

    def test_torus_sign_pattern(self):
        t = surfaces.Torus(2.0, 0.5)
        mesh = surfaces.generate(t, nu=64, nv=32)
        field = curvature.compute_curvature(mesh, r=0)
        exact = oracles.fd_principal_curvatures(t, mesh.vertices)
        got = np.sort(field.vertex_kappas, axis=1)
        agree = np.sign(got[:, 0]) == np.sign(exact[:, 0])
        assert agree.mean() >= 0.99

    def test_sphere_error_stays_flat(self):
        # umbilic case: the estimator is exact at every level, so there is
        # no convergence story to tell, just a rounding floor
        for sub in (2, 3, 4):
            mesh = surfaces.generate(surfaces.Sphere(1.0), subdiv=sub)
            field = curvature.compute_curvature(mesh, r=0)
            assert np.max(np.abs(field.vertex_kappas - 1.0)) < 1e-12

    def test_ellipsoid_errors_shrink(self):
        # sup-norm error concentrates at the sharp poles; the area-weighted
        # rms is the cleaner signal, but both must fall monotonically
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)

        def errs(subdiv):
            mesh = surfaces.generate(e, subdiv=subdiv)
            field = curvature.compute_curvature(mesh, r=0)
            exact = oracles.fd_principal_curvatures(e, mesh.vertices)
            diff = np.sort(field.vertex_kappas, axis=1) - exact
            w = mesh.vertex_areas / mesh.total_area
            return np.sqrt((w[:, None] * diff**2).sum()), np.max(np.abs(diff))

        rms, sup = zip(*[errs(s) for s in (3, 4, 5)])
        assert rms[1] < 0.025
        assert rms[2] < rms[1] / 2.0
        assert sup[0] > sup[1] > sup[2]
        assert rms[0] > rms[1] > rms[2]


class TestBuildFields:
    # P_r enters K only through adj(P_r) in each face's fit basis
    # (assemble._newton_adjugate); these read P_r back from it

    def test_p0_is_tangential_projector(self, sphere3):
        field = curvature.compute_curvature(sphere3, r=0)
        n = sphere3.face_normals
        proj = np.eye(3) - np.einsum("fi,fj->fij", n, n)
        assert np.max(np.abs(newton_transform_world(field) - proj)) < 1e-12

    def test_p1_trace_is_s1(self, sphere3):
        # tr adj(Q) = tr Q for a 2x2 Q, and adj(P_1) = S
        field = curvature.compute_curvature(sphere3, r=1)
        ops, _ = curvature.estimate_shape_operators(sphere3)
        s1 = np.trace(ops, axis1=1, axis2=2)
        for p in (newton_transform_world(field),
                  assemble._newton_adjugate(field)):
            assert np.max(np.abs(np.trace(p, axis1=1, axis2=2) - s1)) < 1e-12

    def test_p_r_kills_normal(self, sphere3):
        field = curvature.compute_curvature(sphere3, r=1)
        corners = sphere3.vertices[sphere3.faces]
        n = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        n /= np.linalg.norm(n, axis=1)[:, None]
        p_r = newton_transform_world(field)
        assert np.max(np.abs(np.einsum("fij,fj->fi", p_r, n))) < 1e-12

    def test_sphere_potential(self):
        # Sphere(2): H_1 = 0.5 and H_2 = 0.25, so W_0^2 = 2 H_1^2 = 0.5
        # and W_1^2 = 2 H_2^(3/2) = 0.25
        mesh = surfaces.generate(surfaces.Sphere(2.0), subdiv=3)
        for r, h, w2 in [(0, 0.5, 0.5), (1, 0.25, 0.25)]:
            field = curvature.compute_curvature(mesh, r=r)
            assert field.r == r
            assert np.allclose(field.h_next, h, atol=1e-12)
            assert np.allclose(field.w**2, w2, atol=1e-10)

    def test_torus_gate(self, torus1):
        field = curvature.compute_curvature(torus1, r=0)
        assert field.h_next.min() > 0.0     # H_1 > 0 for minor/major = 1/4
        with pytest.raises(CurvaturePositivityError) as err:
            curvature.compute_curvature(torus1, r=1)
        h2 = curvature.mean_curvature(field.vertex_kappas, 2)
        assert err.value.vertex == int(np.argmin(h2))
        assert err.value.h_value == pytest.approx(h2.min())

    def test_p_r_elliptic_on_convex_meshes(self, sphere3):
        # P_r must be positive definite on the tangent plane wherever every
        # H_r stays positive, or L_r loses ellipticity; a 2x2 P is positive
        # definite exactly when adj(P), the form K reads, is
        ell = surfaces.generate(surfaces.Ellipsoid(2.0, 1.0, 1.0), subdiv=3)
        for mesh in (sphere3, ell):
            for r in (0, 1):
                field = curvature.compute_curvature(mesh, r=r)
                q = assemble._newton_adjugate(field)
                assert np.min(np.linalg.eigvalsh(q)) > 0.0

    def test_unsupported_order(self, sphere3):
        with pytest.raises(ValueError):
            curvature.compute_curvature(sphere3, r=2)

    def test_field_has_no_defaults(self):
        # a field is built whole by compute_curvature, never in stages
        for f in dataclasses.fields(curvature.CurvatureField):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name



@pytest.mark.parametrize("kind,subdiv,r", [
    ("ellipsoid", 3, 1), ("bumped", 3, 1), ("torus", 1, 0),
    ("ellipsoid", 3, 0), ("sphere", 3, 1), ("bumped", 3, 0),
])
def test_batched_kernels_match_einsum(kind, subdiv, r):
    # the closed-form fit against least squares face by face, the
    # transported vertex forms against the einsum and np.add.at ones,
    # which sum in another order, and P_r read back from the adjugate K
    # takes against the Newton transform by eigendecomposition
    mesh, field, _ = get_pipeline(kind, subdiv, r)
    ops, basis = curvature.estimate_shape_operators(mesh)
    assert np.array_equal(field.face_ops, ops)
    assert np.array_equal(field.face_basis, basis)
    for got, want in (
        (ops, oracles.shape_operators_lstsq(mesh, basis)),
        (field.vertex_kappas, oracles.vertex_kappas_einsum(ops, basis, mesh)),
        (newton_transform_world(field),
         oracles.newton_transform_einsum(ops, basis, r)),
    ):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
