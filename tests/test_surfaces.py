"""Analytic surface families and mesh generation."""

import numpy as np
import pytest

import oracles
from curvspec import surfaces
from curvspec.errors import ProjectionError
from curvspec.mesh import validate


def unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestSphere:
    def test_projection_and_curvature(self):
        s = surfaces.Sphere(2.0)
        pts = s.project(3.0 * unit_dirs(50))
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-14)
        k = s.principal_curvatures(pts)
        assert np.allclose(k, 0.5, atol=1e-12)

    def test_center_has_no_projection(self):
        with pytest.raises(ProjectionError):
            surfaces.Sphere(1.0).project(np.zeros(3))

    def test_outward_normal(self):
        s = surfaces.Sphere(1.5)
        p = 1.5 * unit_dirs(10, seed=3)
        assert np.allclose(s.normal(p), p / 1.5, atol=1e-14)


class TestEllipsoid:
    def test_pole_curvatures(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)
        # at (a,0,0) the sections curve like a/b^2 and a/c^2
        assert np.allclose(e.principal_curvatures(np.array([2.0, 0, 0])), [2, 2])
        assert np.allclose(
            e.principal_curvatures(np.array([0.0, 1.0, 0])), [0.25, 1.0]
        )

    def test_degenerates_to_sphere(self):
        e = surfaces.Ellipsoid(1.3, 1.3, 1.3)
        pts = e.project(unit_dirs(40, seed=1))
        assert np.allclose(e.principal_curvatures(pts), 1 / 1.3, atol=1e-10)

    def test_projection_lands_on_surface(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 0.7)
        pts = e.project(2.5 * unit_dirs(200, seed=2))
        assert np.max(e.surface_distance(pts)) < 1e-10


class TestTorus:
    def test_curvatures_on_named_circles(self):
        t = surfaces.Torus(2.0, 0.5)
        outer = t.principal_curvatures(np.array([2.5, 0, 0]))
        inner = t.principal_curvatures(np.array([1.5, 0, 0]))
        top = t.principal_curvatures(np.array([2.0, 0, 0.5]))
        assert np.allclose(outer, [1 / 2.5, 2.0], atol=1e-12)
        assert np.allclose(inner, [-1 / 1.5, 2.0], atol=1e-12)
        assert np.allclose(top, [0.0, 2.0], atol=1e-12)

    def test_axis_has_no_projection(self):
        with pytest.raises(ProjectionError):
            surfaces.Torus(2.0, 0.5).project(np.array([0.0, 0, 3.0]))

    def test_grid_mesh(self):
        mesh = surfaces.generate(surfaces.Torus(2.0, 0.5), nu=24, nv=12)
        assert mesh.n_vertices == 24 * 12
        assert mesh.n_faces == 2 * 24 * 12
        rep = validate(mesh)
        assert rep.passed and rep.euler_characteristic == 0


class TestBumpedSphere:
    def test_zero_amplitude_is_round(self):
        b = surfaces.BumpedSphere(1.0, 0.0, 3)
        pts = b.project(unit_dirs(30, seed=4))
        assert np.allclose(b.principal_curvatures(pts), 1.0, atol=1e-10)

    def test_amplitude_perturbs_curvature(self):
        b = surfaces.BumpedSphere(1.0, 0.04, 3)
        pts = b.project(unit_dirs(200, seed=5))
        k = b.principal_curvatures(pts)
        spread = np.max(np.abs(k - 1.0))
        assert 0.01 < spread < 1.0

    def test_stays_convex_at_default_amplitude(self):
        # H_2 = k1*k2 must stay positive or the r=1 pipeline would gate
        b = surfaces.BumpedSphere(1.0, 0.04, 3)
        k = b.principal_curvatures(b.project(unit_dirs(500, seed=6)))
        assert np.min(k[:, 0] * k[:, 1]) > 0.0


class TestCurvaturesAgainstFiniteDifferences:
    """Cross-check the hand-coded derivatives against a numeric route."""

    SURFACES = [
        surfaces.Sphere(1.0),
        surfaces.Ellipsoid(2.0, 1.0, 1.0),
        surfaces.BumpedSphere(1.0, 0.04, 3),
        surfaces.Torus(2.0, 0.5),
    ]

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
        for p in pts:
            exact = surf.principal_curvatures(p)
            fd = oracles.fd_principal_curvatures(surf, p)
            assert np.max(np.abs(exact - fd)) < 1e-6


class TestGenerate:
    def test_icosahedron_refinement_counts(self):
        for s in range(3):
            mesh = surfaces.generate(surfaces.Sphere(1.0), subdiv=s)
            assert mesh.n_vertices == 10 * 4**s + 2

    def test_vertices_on_surface(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 1.0)
        mesh = surfaces.generate(e, subdiv=3)
        assert np.max(e.surface_distance(mesh.vertices)) < 1e-10

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

    def test_describe_round_trips(self):
        e = surfaces.Ellipsoid(2.0, 1.0, 0.5)
        d = e.describe()
        kind = d.pop("kind")
        again = surfaces.from_params(kind, **d)
        assert again == e

    def test_box_mesh_valid(self):
        rep = validate(oracles.box_mesh(3))
        assert rep.passed and rep.euler_characteristic == 2
