"""Stiffness and mass assembly for the operator pencil."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from curvspec.assemble import assemble_pencil
from curvspec.curvature import C_R, compute_curvature, mean_curvature
from curvspec.mesh import TriMesh

import oracles
from oracles import (apply_operator, box_mesh, export_coo,
                     with_potential_squared)
from conftest import get_mesh, get_pipeline


def dense(a):
    return np.asarray(a.todense())


class TestStiffness:
    def test_matches_cotan_oracle(self):
        # r = 0 reduces to the classical cotan stiffness matrix
        for kind in ("sphere", "torus"):
            mesh = get_mesh(kind, 1)
            field = compute_curvature(mesh, r=0)
            pencil = assemble_pencil(mesh, field)
            ora = oracles.cotan_stiffness(mesh)
            scale = np.abs(ora.data).max()
            assert np.max(np.abs(dense(pencil.k_stiff) - dense(ora))) < 1e-13 * scale

    @pytest.mark.parametrize("kind,subdiv,r", [("ellipsoid", 3, 1),
                                               ("bumped", 3, 1), ("torus", 1, 0)])
    def test_matches_einsum_assembly(self, kind, subdiv, r):
        mesh, field, pencil = get_pipeline(kind, subdiv, r)
        ora = oracles.stiffness_einsum(mesh, field.p_r_face)
        scale = np.abs(ora.data).max()
        assert np.max(np.abs(dense(pencil.k_stiff - ora))) <= 1e-13 * scale

    def test_symmetric_psd_constants_in_kernel(self, sphere3):
        _, _, pencil = get_pipeline("sphere", 3, 1)
        k = pencil.k_stiff
        assert np.max(np.abs(dense(k - k.T))) < 1e-14
        ones = np.ones(pencil.n_vertices)
        assert np.max(np.abs(k @ ones)) < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=pencil.n_vertices)
            assert v @ (k @ v) > -1e-12 * (v @ v)

    def test_coordinate_energy_is_twice_area(self, sphere3):
        # sum_i x_i^T K_0 x_i integrates |tangential projector|^2 = 2
        field = compute_curvature(sphere3, r=0)
        pencil = assemble_pencil(sphere3, field)
        energy = sum(
            sphere3.vertices[:, i] @ (pencil.k_stiff @ sphere3.vertices[:, i])
            for i in range(3)
        )
        assert energy == pytest.approx(2.0 * sphere3.total_area, rel=1e-12)

    @pytest.mark.parametrize("kind,subdiv,r,jitter", [
        ("sphere", 3, 0, 0.0), ("sphere", 3, 1, 0.0),
        ("ellipsoid", 3, 0, 0.0), ("ellipsoid", 3, 1, 0.0),
        ("bumped", 3, 0, 0.0), ("bumped", 3, 1, 0.0),
        ("torus", 1, 0, 0.0),
        ("sphere", 3, 0, 0.03), ("ellipsoid", 3, 0, 0.03),
        ("bumped", 3, 0, 0.03), ("torus", 1, 0, 0.03),
        # 3% jitter breaks H_2 > 0, so r = 1 runs on a 0.1% jitter
        ("sphere", 3, 1, 0.001), ("ellipsoid", 3, 1, 0.001),
        ("bumped", 3, 1, 0.001),
    ])
    def test_coordinate_energy_is_c_r_total_h_r(self, kind, subdiv, r, jitter):
        # sum_i x_i^T K x_i = c_r sum_v m_v H_r holds on every mesh for
        # r <= 1, not only in the limit: H_r is linear in the shape
        # operator and the vertex operators are area-weighted by 3 m_v
        mesh = get_mesh(kind, subdiv)
        rng = np.random.default_rng(7)
        radial = 1.0 + jitter * rng.uniform(-1.0, 1.0, (mesh.n_vertices, 1))
        mesh = TriMesh(mesh.vertices * radial, mesh.faces)
        field = compute_curvature(mesh, r=r)
        k = assemble_pencil(mesh, field).k_stiff
        energy = np.einsum("vi,vi->", mesh.vertices, k @ mesh.vertices)
        h_r = mean_curvature(field.vertex_kappas, r)
        want = C_R * (mesh.vertex_areas @ h_r)
        assert abs(energy - want) <= 1e-13 * abs(want)

    def test_sphere_k1_proportional_to_k0(self):
        # on a radius-R sphere P_1 = (1/R) P_0, exactly at the face level
        mesh = get_mesh("sphere_big", 2)
        f0 = compute_curvature(mesh, r=0)
        f1 = compute_curvature(mesh, r=1)
        k0 = assemble_pencil(mesh, f0).k_stiff
        k1 = assemble_pencil(mesh, f1).k_stiff
        scale = np.abs(k0.data).max()
        assert np.max(np.abs(dense(k1 - 0.5 * k0))) < 1e-13 * scale

    def test_energy_against_face_loop(self):
        # same quadratic form assembled twice: sparse matrix vs a plain
        # python loop over faces with explicit hat gradients
        mesh, field, pencil = get_pipeline("ellipsoid", 2, 1)
        grads = mesh.hat_gradients()
        rng = np.random.default_rng(3)
        x = rng.normal(size=pencil.n_vertices)
        loop = 0.0
        for f in range(mesh.n_faces):
            gx = sum(x[mesh.faces[f, c]] * grads[f, c] for c in range(3))
            loop += mesh.face_areas[f] * (gx @ field.p_r_face[f] @ gx)
        loop -= float((pencil.mass * pencil.w**2) @ (x * x))
        direct = float(x @ apply_operator(pencil, x))
        assert direct == pytest.approx(loop, rel=1e-10)

    def test_box_linear_dirichlet_energy(self):
        # for u = a.x, v = b.x on a closed box of side L the tangential
        # Dirichlet energy has the closed form 4 L^2 (a.b)
        box = box_mesh(4)
        field = compute_curvature(box, r=0)
        pencil = assemble_pencil(box, field)
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 3))
        u = box.vertices @ a
        v = box.vertices @ b
        want = 4.0 * 2.0**2 * (a @ b)
        assert u @ (pencil.k_stiff @ v) == pytest.approx(want, rel=1e-10)


class TestMassAndPotential:
    def test_mass_is_lumped_area(self, sphere3):
        _, _, pencil = get_pipeline("sphere", 3, 0)
        assert np.allclose(pencil.mass, sphere3.vertex_areas)
        m = sp.diags(pencil.mass)
        assert sp.issparse(m)
        assert np.allclose(m.diagonal(), pencil.mass)
        assert pencil.mass.sum() == pytest.approx(sphere3.total_area, rel=1e-12)
        # unit icosphere at this depth: total area within half a percent
        # of the smooth 4 pi
        assert abs(pencil.mass.sum() - 4.0 * np.pi) < 0.005 * 4.0 * np.pi

    def test_potential_attaches(self, sphere3):
        field = compute_curvature(sphere3, r=1)
        bare = assemble_pencil(sphere3, field)
        loaded = with_potential_squared(bare, field.w**2)
        assert loaded.layout is bare.layout
        assert np.allclose(loaded.w, field.w)
        assert np.allclose(sp.diags(loaded.potential).diagonal(), loaded.mass * field.w**2)

    def test_a_matrix_is_k_minus_mw(self, sphere3):
        _, field, pencil = get_pipeline("sphere", 3, 1)
        a = pencil.a_matrix()
        expect = pencil.k_stiff - sp.diags(pencil.potential)
        assert np.max(np.abs(dense(a - expect))) == 0.0
        # K's pattern, so the pencil's band layout addresses it
        assert np.array_equal(a.indices, pencil.k_stiff.indices)
        assert np.array_equal(a.indptr, pencil.k_stiff.indptr)

    def test_bad_potential_rejected(self, sphere3):
        field = compute_curvature(sphere3, r=1)
        bare = assemble_pencil(sphere3, field)
        with pytest.raises(ValueError):
            with_potential_squared(bare, field.w[: 10] ** 2)
        with pytest.raises(ValueError):
            with_potential_squared(bare, -np.ones(bare.n_vertices))

    def test_pencil_frozen(self, sphere3):
        _, _, pencil = get_pipeline("sphere", 3, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pencil.r = 5


class TestApplyAndExport:
    def test_apply_operator_matches_matvec(self):
        _, _, pencil = get_pipeline("sphere", 2, 1)
        rng = np.random.default_rng(7)
        a = dense(pencil.a_matrix())
        v = rng.normal(size=pencil.n_vertices)
        assert np.allclose(apply_operator(pencil, v), a @ v, atol=1e-12)
        block = rng.normal(size=(pencil.n_vertices, 3))
        assert np.allclose(apply_operator(pencil, block), a @ block, atol=1e-12)
        assert np.max(np.abs(apply_operator(pencil, np.zeros_like(v)))) == 0.0

    def test_apply_to_constants_is_minus_potential(self):
        # K kills constants; on the unit sphere W_0^2 = 2, so the entries
        # reduce to -2 area_v
        mesh, _, pencil = get_pipeline("sphere", 3, 0)
        out = apply_operator(pencil, np.ones(pencil.n_vertices))
        assert np.allclose(out, -2.0 * mesh.vertex_areas, atol=1e-10)

    def test_export_coo_round_trip(self, tmp_path):
        _, _, pencil = get_pipeline("sphere", 2, 1)
        path = tmp_path / "pencil.txt"
        export_coo(pencil, path)
        rows, cols, vals = [], [], []
        for line in path.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            tag, i, j, v = line.split()
            if tag == "K":
                rows.append(int(i)), cols.append(int(j)), vals.append(float(v))
        back = sp.coo_matrix(
            (vals, (rows, cols)), shape=(pencil.n_vertices,) * 2
        ).tocsr()
        assert np.max(np.abs(dense(back - pencil.k_stiff))) < 1e-15
