"""Analytic surface families, their curvature oracle, and mesh generation."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import make_surface
from curvspec import surfaces
from curvspec.errors import ProjectionError
from curvspec.mesh import TriMesh, subdivide_project, validate

# the finite-difference oracle at h = 1e-4 is good to about 1e-7
FD_TOL = 1e-6


def unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestSphere:
    def test_projection_and_curvature(self):
        s = surfaces.Sphere(2.0)
        pts = s.project(3.0 * unit_dirs(50))
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-14)
        k = oracles.fd_principal_curvatures(s, pts)
        assert np.allclose(k, 0.5, atol=FD_TOL)

    def test_center_has_no_projection(self):
        with pytest.raises(ProjectionError):
            surfaces.Sphere(1.0).project(np.zeros(3))

    def test_outward_normal(self):
        # g < 0 inside, so grad g and the curvature sign point outward
        s = surfaces.Sphere(1.5)
        p = 1.5 * unit_dirs(10, seed=3)
        assert np.all(s.implicit(0.99 * p) < 0.0) and np.all(s.implicit(1.01 * p) > 0.0)


class TestEllipsoid:
    def test_pole_curvatures(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)
        # at (a,0,0) the sections curve like a/b^2 and a/c^2
        k = oracles.fd_principal_curvatures(e, [[2.0, 0, 0], [0.0, 1.0, 0]])
        assert np.allclose(k, [[2.0, 2.0], [0.25, 1.0]], rtol=0, atol=FD_TOL)

    def test_degenerates_to_sphere(self):
        e = surfaces.Ellipsoid(1.3, 1.3, 1.3)
        pts = e.project(unit_dirs(40, seed=1))
        assert np.allclose(oracles.fd_principal_curvatures(e, pts), 1 / 1.3, atol=FD_TOL)

    def test_projection_lands_on_surface(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 0.7)
        pts = e.project(2.5 * unit_dirs(200, seed=2))
        assert np.max(np.abs(e.implicit(pts))) < 1e-10


class TestTorus:
    def test_curvatures_on_named_circles(self):
        t = surfaces.Torus(2.0, 0.5)
        # outer equator, inner equator, top circle
        k = oracles.fd_principal_curvatures(
            t, [[2.5, 0, 0], [1.5, 0, 0], [2.0, 0, 0.5]])
        want = [[1 / 2.5, 2.0], [-1 / 1.5, 2.0], [0.0, 2.0]]
        assert np.allclose(k, want, rtol=0, atol=FD_TOL)

    def test_axis_has_no_projection(self):
        with pytest.raises(ProjectionError):
            surfaces.Torus(2.0, 0.5).project(np.array([0.0, 0, 3.0]))

    def test_grid_mesh(self):
        mesh = surfaces.generate(surfaces.Torus(2.0, 0.5), nu=24, nv=12)
        assert mesh.n_vertices == 24 * 12
        assert mesh.n_faces == 2 * 24 * 12
        rep = validate(mesh)
        assert rep.euler_characteristic == 0


class TestBumpedSphere:
    def test_zero_amplitude_is_round(self):
        b = surfaces.BumpedSphere(1.0, 0.0, 3)
        pts = b.project(unit_dirs(30, seed=4))
        assert np.allclose(oracles.fd_principal_curvatures(b, pts), 1.0, atol=FD_TOL)

    def test_amplitude_perturbs_curvature(self):
        b = surfaces.BumpedSphere(1.0, 0.04, 3)
        pts = b.project(unit_dirs(200, seed=5))
        k = oracles.fd_principal_curvatures(b, pts)
        spread = np.max(np.abs(k - 1.0))
        assert 0.01 < spread < 1.0

    def test_stays_convex_at_default_amplitude(self):
        # H_2 = k1*k2 must stay positive or the r=1 pipeline would gate
        b = surfaces.BumpedSphere(1.0, 0.04, 3)
        k = oracles.fd_principal_curvatures(b, b.project(unit_dirs(500, seed=6)))
        assert np.min(k[:, 0] * k[:, 1]) > 0.0


class TestCurvaturesAgainstFiniteDifferences:
    """The oracle reads the surface, not its defining function: (2 + |p|^2) g
    has the same zero set and outward side, so it must give the same
    curvatures, and the Gaussian curvature must match the closed forms
    where they exist."""

    SURFACES = [
        surfaces.Sphere(1.0),
        surfaces.Ellipsoid(2.0, 1.0, 1.0),
        surfaces.BumpedSphere(1.0, 0.04, 3),
        surfaces.Torus(2.0, 0.5),
    ]

    @staticmethod
    def gaussian_curvature(surf, p):
        if isinstance(surf, surfaces.Sphere):
            return np.full(len(p), surf.radius**-2)
        if isinstance(surf, surfaces.Ellipsoid):
            axes = np.array([surf.a, surf.b, surf.c])
            return 1.0 / (np.prod(axes) ** 2 * np.sum(p**2 / axes**4, axis=1) ** 2)
        if isinstance(surf, surfaces.Torus):
            rho = np.hypot(p[:, 0], p[:, 1])
            return (rho - surf.major_radius) / (surf.minor_radius**2 * rho)
        return None

    @pytest.mark.parametrize("surf", SURFACES, ids=lambda s: type(s).__name__)
    def test_matches_fd_oracle(self, surf):
        rng = np.random.default_rng(11)
        if isinstance(surf, surfaces.Torus):
            # quotient projection is only reliable near the tube, so take
            # grid vertices, which sit on the surface by construction
            pts = surfaces.generate(surf, nu=20, nv=10).vertices
            pts = pts[rng.choice(len(pts), 100, replace=False)]
        else:
            pts = surf.project(1.1 * unit_dirs(100, seed=11))
        k = oracles.fd_principal_curvatures(surf, pts)
        rescaled = SimpleNamespace(
            implicit=lambda q: (2.0 + np.sum(q * q, axis=1)) * surf.implicit(q))
        assert np.max(np.abs(oracles.fd_principal_curvatures(rescaled, pts) - k)) < FD_TOL
        gauss = self.gaussian_curvature(surf, pts)
        if gauss is not None:
            assert np.max(np.abs(k[:, 0] * k[:, 1] - gauss)) < FD_TOL


class TestGenerate:
    def test_icosahedron_refinement_counts(self):
        for s in range(3):
            mesh = surfaces.generate(surfaces.Sphere(1.0), subdiv=s)
            assert mesh.n_vertices == 10 * 4**s + 2

    def test_vertices_on_surface(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)
        mesh = surfaces.generate(e, subdiv=3)
        assert np.max(np.abs(e.implicit(mesh.vertices))) < 1e-10

    def test_sphere_area_converges_quadratically(self):
        target = 4.0 * np.pi
        errs = [
            target - surfaces.generate(surfaces.Sphere(1.0), subdiv=s).total_area
            for s in (1, 2, 3, 4)
        ]
        # inscribed meshes underestimate, and halving h quarters the error
        for e in errs:
            assert e > 0.0
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 < coarse / fine < 4.5
        assert errs[2] / target < 0.005
        assert errs[3] / target < 0.002
        assert abs((target - errs[3]) - 12.55) < 0.01

    def test_icosahedron_normals_are_radial(self):
        mesh = surfaces.icosahedron()
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
        assert np.max(np.abs(mesh.vertex_normals - radial)) < 1e-12

    def test_builds_one_mesh(self, monkeypatch):
        # the finest level only: the icosahedron and the levels in between
        # are refined as arrays, with no geometry or connectivity built
        built = []
        init = TriMesh.__init__

        def counted(mesh, *args):
            built.append(args)
            init(mesh, *args)

        monkeypatch.setattr(TriMesh, "__init__", counted)
        surfaces.generate(surfaces.Sphere(1.0), subdiv=4)
        assert len(built) == 1

    @pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "bumped"])
    def test_matches_subdivide_project_chain(self, kind):
        surface = make_surface(kind)
        ico = surfaces.icosahedron()
        chain = TriMesh(surface.project(ico.vertices), ico.faces)
        for subdiv in range(5):
            mesh = surfaces.generate(surface, subdiv=subdiv)
            assert np.array_equal(mesh.vertices, chain.vertices)
            assert np.array_equal(mesh.faces, chain.faces)
            chain = subdivide_project(chain, target=surface)

    def test_projection_error_names_chain_vertex(self):
        class FailsOnCall:
            """The unit sphere, whose projection on its third call leaves
            the middle point non-finite."""

            def __init__(self):
                self.calls = 0

            def project(self, points):
                self.calls += 1
                q = surfaces.Sphere(1.0).project(points)
                if self.calls == 3:
                    q[len(q) // 2] = np.nan
                return q

        with pytest.raises(ProjectionError) as got:
            surfaces.generate(FailsOnCall(), subdiv=3)
        target = FailsOnCall()
        ico = surfaces.icosahedron()
        chain = TriMesh(target.project(ico.vertices), ico.faces)
        with pytest.raises(ProjectionError) as want:
            for _ in range(3):
                chain = subdivide_project(chain, target=target)
        # the middle one of the 120 midpoints of the 42-vertex level
        assert got.value.vertex == want.value.vertex == 42 + 60

    def test_negative_subdiv(self):
        with pytest.raises(ValueError):
            surfaces.generate(surfaces.Sphere(1.0), subdiv=-1)

    def test_from_params(self):
        t = surfaces.from_params("torus", major_radius=3.0, minor_radius=1.0)
        assert isinstance(t, surfaces.Torus) and t.major_radius == 3.0
        s = surfaces.from_params("sphere", radius=0.5)
        assert isinstance(s, surfaces.Sphere)
        with pytest.raises(ValueError):
            surfaces.from_params("moebius")

    def test_surface_class(self):
        # the one kind lookup, read by from_params and by the CLI
        assert surfaces.surface_class("Torus") is surfaces.Torus
        with pytest.raises(ValueError, match="moebius"):
            surfaces.surface_class("moebius")

    def test_fields_round_trip_through_from_params(self):
        # a descriptor's own fields are the parameters from_params takes
        e = surfaces.Ellipsoid(2.0, 1.0, 0.5)
        assert surfaces.from_params("ellipsoid", **dataclasses.asdict(e)) == e

    def test_box_mesh_valid(self):
        rep = validate(oracles.box_mesh(3))
        assert rep.euler_characteristic == 2
