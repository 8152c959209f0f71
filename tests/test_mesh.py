"""Mesh carrier, validation, file formats, subdivision."""

from unittest import mock

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvspec import mesh as mesh_mod, surfaces
from curvspec.errors import (
    CurvSpecError,
    DegenerateGeometryError,
    DisconnectedMeshError,
    MeshLoadError,
    NonManifoldEdgeError,
    OpenBoundaryError,
    OrientationError,
)
from curvspec.mesh import (
    TriMesh,
    load_mesh,
    subdivide_project,
    validate,
    write_off,
)

import oracles
from conftest import get_mesh, make_surface, raw_off

# oriented tetrahedron over the standard simplex corners
TETRA_V = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
TETRA_F = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])


def _half_flipped(subdiv):
    """Vertices and faces of the unit sphere with a seeded half of its
    faces reversed: arrays, since the TriMesh constructor refuses them."""
    sphere = surfaces.generate(surfaces.Sphere(1.0), subdiv=subdiv)
    faces = sphere.faces.copy()
    flip = np.random.default_rng(0).permutation(len(faces))[: len(faces) // 2]
    faces[flip] = faces[flip][:, ::-1]
    return sphere.vertices, faces


def _jittered_sphere():
    """The subdiv-3 unit sphere with every coordinate moved by up to 3%."""
    v = get_mesh("sphere", 3).vertices
    v = v * (1.0 + 0.03 * np.random.default_rng(0).uniform(-1, 1, v.shape))
    return TriMesh(v, get_mesh("sphere", 3).faces)


class TestTriMesh:
    def test_icosahedron_counts(self):
        mesh = surfaces.icosahedron()
        assert (mesh.n_vertices, mesh.n_faces, mesh.n_edges) == (12, 20, 30)
        assert mesh.euler_characteristic == 2
        # every face is equilateral
        assert validate(mesh).max_aspect_ratio == pytest.approx(2 / np.sqrt(3))

    def test_tetra_is_valid(self):
        rep = validate(TriMesh(TETRA_V, TETRA_F))
        assert rep.euler_characteristic == 2
        # three right triangles of legs 1 and the equilateral sqrt(2) face
        assert rep.total_area == pytest.approx(1.5 + np.sqrt(3) / 2)

    def test_area_partition(self):
        mesh = surfaces.generate(surfaces.Sphere(1.0), subdiv=2)
        assert mesh.vertex_areas.sum() == pytest.approx(mesh.total_area, rel=1e-12)
        assert np.allclose(
            mesh.vertex_areas, oracles.lumped_vertex_areas(mesh), rtol=1e-12
        )

    @pytest.mark.parametrize("build", [
        lambda: get_mesh("sphere", 3),
        lambda: get_mesh("ellipsoid", 3),
        lambda: get_mesh("bumped", 3),
        lambda: get_mesh("torus", 1),
        _jittered_sphere,
    ], ids=["sphere", "ellipsoid", "bumped", "torus", "jittered"])
    def test_vertex_measures_match_add_at_oracle(self, build):
        # the bincount sums add what np.add.at added, in its order
        mesh = build()
        areas, normals = oracles.vertex_measures_add_at(mesh)
        assert np.array_equal(mesh.vertex_areas, areas)
        assert np.array_equal(mesh.vertex_normals, normals)

    def test_arrays_read_only(self, sphere3):
        with pytest.raises(ValueError):
            sphere3.vertices[0, 0] = 99.0

    def test_repeated_vertex_face_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            TriMesh(TETRA_V, [[0, 1, 1], [0, 2, 1], [1, 2, 3], [0, 3, 2]])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            TriMesh(TETRA_V[:, :2], TETRA_F)
        with pytest.raises(ValueError):
            TriMesh(TETRA_V, TETRA_F[:, :2])
        with pytest.raises(ValueError):
            TriMesh(TETRA_V, [[0, 1, 7], [0, 2, 1]])

    def test_open_boundary_reported(self):
        # of the two faces' edges only (0, 1) is shared; (0, 2) is the
        # first of the others in edge order
        with pytest.raises(OpenBoundaryError) as err:
            TriMesh(TETRA_V, TETRA_F[:2])
        assert err.value.edge == (0, 2)

    def test_nonmanifold_reported(self):
        v = np.vstack([TETRA_V, [[1.0, 1, 1]]])
        f = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
        with pytest.raises(NonManifoldEdgeError) as err:
            TriMesh(v, f)
        assert (err.value.edge, err.value.count) == ((0, 1), 3)
        assert all(type(i) is int for i in (*err.value.edge, err.value.count))

    def test_misorientation_reported(self):
        f = TETRA_F.copy()
        f[3] = f[3][::-1]
        with pytest.raises(OrientationError) as err:
            TriMesh(TETRA_V, f)
        assert 3 in err.value.faces

    def test_misoriented_edges_match_loop_oracle(self):
        # the refusal names the first misoriented edge in edge order, with
        # its two faces in face order
        v, f = _half_flipped(3)
        expected = oracles.misoriented_edges_loop(f)
        assert len(expected) > 100
        with pytest.raises(OrientationError) as err:
            TriMesh(v, f)
        assert (err.value.edge, err.value.faces) == expected[0]
        assert all(type(i) is int for i in err.value.edge + err.value.faces)

    def test_refusal_names_first_misoriented_edge(self, tmp_path):
        # the file and the arrays are refused alike
        v, f = _half_flipped(3)
        path = tmp_path / "flip.off"
        path.write_text(raw_off(v, f))
        with pytest.raises(OrientationError) as loaded:
            load_mesh(path)
        with pytest.raises(OrientationError) as built:
            TriMesh(v, f)
        assert str(loaded.value) == str(built.value)
        assert ((loaded.value.edge, loaded.value.faces)
                == oracles.misoriented_edges_loop(f)[0])

    def test_degenerate_face_reported(self):
        # a closed, oriented tetrahedron whose face 0 is collinear, so the
        # gate gets past its edge refusals to the degenerate face
        v = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
        with pytest.raises(DegenerateGeometryError,
                           match=r"^face 0 has \(near-\)zero area$") as err:
            TriMesh(v, TETRA_F)
        assert err.value.face == 0

    def test_overflowing_area_is_degenerate(self):
        # a vertex whose coordinates make cross products overflow leaves
        # NaN or inf areas on some of its faces; the refusal names the
        # first of them, and numpy warns of none of it
        sphere = surfaces.generate(surfaces.Sphere(1.0), subdiv=1)
        v, f = sphere.vertices.copy(), sphere.faces
        v[-1] *= 1e155
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
            bad = np.flatnonzero(~np.isfinite(np.linalg.norm(cross, axis=1)))
        assert 0 < len(bad) < len(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError,
                               match="non-finite") as err:
                TriMesh(v, f)
        assert err.value.face == bad[0]


class TestHatGradients:
    def test_partition_of_unity(self, sphere3):
        grads = sphere3.hat_gradients()
        assert np.abs(grads.sum(axis=1)).max() < 1e-12

    def test_reproduces_linear_functions(self):
        mesh = TriMesh(TETRA_V, TETRA_F)
        grads = mesh.hat_gradients()
        corners = mesh.vertices[mesh.faces]        # (F, 3, 3)
        for f in range(mesh.n_faces):
            n = np.cross(corners[f, 1] - corners[f, 0],
                         corners[f, 2] - corners[f, 0])
            n /= np.linalg.norm(n)
            g = np.array([0.3, -1.2, 0.7])
            g_t = g - (g @ n) * n                  # tangential part
            u = corners[f] @ g
            assert np.allclose(u @ grads[f], g_t, atol=1e-12)


class TestFileFormats:
    def test_off_roundtrip(self, tmp_path, sphere3):
        path = tmp_path / "m.off"
        write_off(sphere3, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, sphere3.vertices)
        assert np.array_equal(back.faces, sphere3.faces)

    @pytest.mark.parametrize("shape,subdiv", [("ellipsoid", 3), ("torus", 1)])
    def test_write_off_matches_per_row_layout(self, tmp_path, shape, subdiv):
        mesh = get_mesh(shape, subdiv)
        path = tmp_path / "m.off"
        write_off(mesh, path)
        assert path.read_bytes() == oracles.off_text_rows(mesh).encode("utf-8")

    def test_off_header_on_one_line(self, tmp_path):
        path = tmp_path / "t.off"
        rows = ["OFF 4 4 6"]
        rows += [" ".join("%.17g" % c for c in p) for p in TETRA_V]
        rows += ["3 " + " ".join(str(i) for i in f) for f in TETRA_F]
        path.write_text("\n".join(rows) + "\n")
        mesh = load_mesh(path)
        assert mesh.n_faces == 4

    def test_off_comments_and_quads(self, tmp_path):
        # square pyramid with a quad base, fan-triangulated on load
        path = tmp_path / "pyr.off"
        path.write_text(
            "OFF\n"
            "# apex on top\n"
            "5 5 8\n"
            "1 1 0\n-1 1 0\n-1 -1 0\n1 -1 0\n0 0 1\n"
            "4 3 2 1 0\n"
            "3 0 1 4\n3 1 2 4\n3 2 3 4\n3 3 0 4\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_faces == 6
        assert mesh.euler_characteristic == 2

    def test_off_bad_face_names_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n")
        with pytest.raises(MeshLoadError) as err:
            load_mesh(path)
        assert err.value.line == 6

    def test_off_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(MeshLoadError, match="out of range"):
            load_mesh(path)

    def test_off_truncated(self, tmp_path):
        path = tmp_path / "cut.off"
        path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n")
        with pytest.raises(MeshLoadError):
            load_mesh(path)

    def test_obj_one_based_and_attributes(self, tmp_path):
        path = tmp_path / "t.obj"
        path.write_text(
            "# tetra\n"
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "f 1 3 2\n"
            "f 1//1 2/2/2 4\n"
            "f 2 3 4\n"
            "f 1 4 3\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_vertices == 4 and mesh.n_faces == 4
        assert np.array_equal(mesh.faces[0], [0, 2, 1])

    def test_obj_cube_with_quads(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(
            "v -1 -1 -1\nv 1 -1 -1\nv 1 1 -1\nv -1 1 -1\n"
            "v -1 -1 1\nv 1 -1 1\nv 1 1 1\nv -1 1 1\n"
            "f 1 4 3 2\n"
            "f 5 6 7 8\n"
            "f 1 2 6 5\n"
            "f 2 3 7 6\n"
            "f 3 4 8 7\n"
            "f 4 1 5 8\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_vertices == 8
        assert mesh.n_faces == 12
        assert abs(mesh.total_area - 24.0) < 1e-12

    def test_obj_negative_index_rejected(self, tmp_path):
        path = tmp_path / "neg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1\n")
        with pytest.raises(MeshLoadError):
            load_mesh(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "m.stl"
        path.write_text("whatever\n")
        with pytest.raises(MeshLoadError):
            load_mesh(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeshLoadError):
            load_mesh(tmp_path / "nope.off")

    def test_load_rejects_open_mesh(self, tmp_path):
        path = tmp_path / "open.off"
        path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(OpenBoundaryError) as err:
            load_mesh(path)
        assert tuple(sorted(err.value.edge)) in {(0, 1), (0, 2), (1, 2)}

    def test_load_rejects_nonmanifold(self, tmp_path):
        path = tmp_path / "nm.off"
        path.write_text(
            "OFF\n5 3 7\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
            "3 0 1 2\n3 1 0 3\n3 0 1 4\n"
        )
        with pytest.raises(NonManifoldEdgeError):
            load_mesh(path)

    def test_two_components_refused(self, tmp_path):
        # disjoint union of two icosahedra: closed and oriented with chi 4,
        # but K's kernel would hold one constant per component
        ico = surfaces.icosahedron()
        v = np.vstack([ico.vertices, ico.vertices + [5.0, 0, 0]])
        f = np.vstack([ico.faces, ico.faces + ico.n_vertices])
        path = tmp_path / "pair.off"
        path.write_text(raw_off(v, f))
        with pytest.raises(DisconnectedMeshError,
                           match="2 connected components"):
            load_mesh(path)
        # the earlier refusals win: flip one face of the second copy
        f[-1] = f[-1][::-1]
        path.write_text(raw_off(v, f))
        with pytest.raises(OrientationError):
            load_mesh(path)

    def test_load_rejects_misoriented(self, tmp_path):
        f = TETRA_F.copy()
        f[3] = f[3][::-1]
        rows = ["OFF", "4 4 6"]
        rows += [" ".join("%.17g" % c for c in p) for p in TETRA_V]
        rows += ["3 " + " ".join(str(i) for i in face) for face in f]
        path = tmp_path / "flip.off"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(OrientationError) as err:
            load_mesh(path)
        assert 3 in err.value.faces


def _icosphere_faults():
    """Name -> (vertices, faces, error type) of meshes the gate refuses,
    each built from the subdivision-1 icosphere or a flat triangle."""
    ico = get_mesh("sphere", 1)
    v, f = ico.vertices, ico.faces
    flipped = f.copy()
    flipped[0] = flipped[0][::-1]
    a, b = f[0, :2]
    fin = np.vstack([v, 2.0 * (v[a] + v[b])])   # a third face on edge (a, b)
    return {
        "open": (v, f[1:], OpenBoundaryError),
        "nonmanifold": (fin, np.vstack([f, [[b, a, len(v)]]]),
                        NonManifoldEdgeError),
        "misoriented": (v, flipped, OrientationError),
        # closed and oriented, but K's kernel holds one constant per
        # component, so the zero-mean resolvent would not be defined
        "disconnected": (np.vstack([v, v + [3.0, 0.0, 0.0]]),
                         np.vstack([f, f + len(v)]), DisconnectedMeshError),
        # a flat triangle, front and back: each vertex's two weighted face
        # normals cancel exactly
        "zero-normal": (TETRA_V[:3], np.array([[0, 1, 2], [0, 2, 1]]),
                        DegenerateGeometryError),
    }


class TestCheck:
    """The TriMesh constructor, the one gate, on arrays built in memory."""

    @pytest.mark.parametrize("fault", ["open", "nonmanifold", "misoriented",
                                       "disconnected", "zero-normal"])
    def test_in_memory_mesh_refused_as_loaded(self, tmp_path, fault):
        # the arrays make no TriMesh, so no field or pencil can exist, and
        # the refusal is the one load_mesh gives them as a file
        v, f, error = _icosphere_faults()[fault]
        path = tmp_path / "bad.off"
        path.write_text(raw_off(v, f))
        with pytest.raises(error) as loaded:
            load_mesh(path)
        with pytest.raises(error) as built:
            TriMesh(v, f)
        assert str(built.value) == str(loaded.value)


def _token_lines(fmt):
    """The icosahedron as token lists, one list per line of an OFF/OBJ file."""
    ico = surfaces.icosahedron()
    coords = [["%.17g" % c for c in p] for p in ico.vertices]
    if fmt == "off":
        return ([["OFF"], [str(ico.n_vertices), str(ico.n_faces), "30"]]
                + coords + [["3", *map(str, f)] for f in ico.faces])
    return ([["v", *c] for c in coords]
            + [["f", *(str(i + 1) for i in f)] for f in ico.faces])


@st.composite
def _corrupted(draw, fmt):
    """Bytes of a valid icosahedron file with one to three corruptions."""
    lines = _token_lines(fmt)
    off = 2 if fmt == "off" else 0   # first vertex line
    base = 0 if fmt == "off" else 1  # index of the first vertex
    nv = 12
    vert_rows = range(off, off + nv)
    face_rows = range(off + nv, len(lines))
    kinds = draw(st.lists(st.sampled_from(
        ["truncate", "coordinate", "index", "flip", "bytes"]),
        min_size=1, max_size=3))
    for kind in kinds:
        if kind == "coordinate":
            row = draw(st.sampled_from(vert_rows))
            col = draw(st.integers(len(lines[row]) - 3, len(lines[row]) - 1))
            lines[row][col] = draw(st.sampled_from(
                ["nan", "inf", "-inf", "1e400", "NaN"]))
        elif kind == "index":
            row = draw(st.sampled_from(face_rows))
            col = draw(st.integers(1, 3))
            lines[row][col] = str(draw(st.one_of(
                st.integers(base + nv, 10**30), st.integers(-10**30, base - 1))))
        elif kind == "flip":
            row = draw(st.sampled_from(face_rows))
            lines[row][1:] = lines[row][1:][::-1]
    data = "".join(" ".join(t) + "\n" for t in lines).encode("ascii")
    for kind in kinds:
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "bytes":
            # a lone continuation byte never starts valid UTF-8
            junk = bytes([draw(st.integers(0x80, 0xBF))]) + draw(
                st.binary(max_size=3))
            at = draw(st.integers(0, len(data)))
            data = data[:at] + junk + data[at:]
    return data


@st.composite
def _off_variant(draw):
    """Bytes of a well-formed OFF icosahedron in one of the layouts the
    format allows: the header on one line, comment and blank lines, a
    quad, extra tokens in a row, CRLF, trailing lines or F = 0."""
    lines = _token_lines("off")
    if draw(st.booleans()):
        # faces (0 11 5) and (0 5 1) are the fan of the quad (0 11 5 1)
        lines[2 + 12: 2 + 14] = [["4", "0", "11", "5", "1"]]
        lines[1][1] = "19"
    if draw(st.booleans()):
        lines[1][1] = "0"
    if draw(st.booleans()):
        row = draw(st.integers(2, len(lines) - 1))
        lines[row] += draw(st.lists(st.sampled_from(["7", "0.5", "255"]),
                                    min_size=1, max_size=3))
    if draw(st.booleans()):
        lines += draw(st.lists(st.sampled_from(
            [["3", "0", "1", "2"], ["junk"], ["1", "2", "3"]]), min_size=1,
            max_size=3))
    if draw(st.booleans()):
        lines[0:2] = [lines[0] + lines[1]]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(
            [["#", "a", "comment"], [], [" \t"], ["#"]])))
    if draw(st.booleans()):
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] = lines[row] + ["#", "trailing"]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(" ".join(t) + newline for t in lines).encode("ascii")


def _outcome(path):
    """A loaded mesh's vertex and face bytes, or the refusal's type,
    message and line."""
    try:
        mesh = load_mesh(path)
    except CurvSpecError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return mesh.vertices.tobytes(), mesh.faces.tobytes()


def _outcome_by_walk(path):
    """_outcome with the line walk reading every OFF and OBJ file."""
    with mock.patch.object(mesh_mod, "_read_off_arrays", lambda p: None), \
            mock.patch.object(mesh_mod, "_read_obj_arrays", lambda p: None):
        return _outcome(path)


def _obj_text(mesh):
    """The mesh as plain OBJ v and f records, one-based."""
    return ("".join("v %.17g %.17g %.17g\n" % tuple(p) for p in mesh.vertices)
            + "".join("f %d %d %d\n" % tuple(f + 1) for f in mesh.faces))


class TestOffReader:
    """The OFF array read gives what the line walk gives, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.one_of(_corrupted("off"), _off_variant()))
    def test_array_read_matches_line_walk(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "either.off"
        path.write_bytes(data)
        assert _outcome(path) == _outcome_by_walk(path)

    HEAD = "OFF\n4 4 6\n"
    VERTS = "".join("%g %g %g\n" % tuple(p) for p in TETRA_V)
    FACES = "".join("3 %d %d %d\n" % tuple(f) for f in TETRA_F)

    @pytest.mark.parametrize("text,taken", [
        (HEAD + VERTS + FACES, True),
        ("# by hand\nOFF 4 4 6\n\n" + VERTS + "# faces\n" + FACES + "x\n", True),
        ((HEAD + VERTS + FACES).replace("\n", "\r\n"), True),
        (HEAD + VERTS + FACES.replace("3 0 2 1", "3 0 2 1 255 0 0 # red"), True),
        (HEAD + VERTS.replace("\n", "\n\n", 1) + FACES, False),
        (HEAD + VERTS + FACES.replace("\n", "\n# c\n", 1), False),
        # a face-like last vertex row: the short vertex block must decline,
        # not shift the face block onto that row
        (HEAD + "0 0 0\n\n1 0 0\n0 1 0\n3 0 1 2\n" + FACES, False),
        (HEAD + VERTS + FACES.replace("3 0 2 1", "4 0 2 1 3"), False),
        (HEAD + VERTS + FACES.replace("3 0 2 1", "3 0 2 1.0"), False),
        ("OFF # \u00e9\n4 4 6\n" + VERTS + FACES, False),
        # numpy's integer reader takes U+01FE for a digit; int() does not
        (HEAD + VERTS + FACES.replace("3 0 2 1", "3 0 2 1\u01fe"), False),
    ], ids=["plain", "comments-around-blocks", "crlf", "colour", "blank-in-block",
            "comment-in-block", "face-like-vertex", "quad", "float-index", "non-ascii",
            "non-ascii-digit"])
    def test_array_read_takes_plain_blocks(self, tmp_path, text, taken):
        path = tmp_path / "tetra.off"
        path.write_bytes(text.encode("utf-8"))
        arrays = mesh_mod._read_off_arrays(path)
        assert (arrays is not None) == taken
        if taken:
            assert np.array_equal(arrays[0], TETRA_V)
            assert np.array_equal(arrays[1], TETRA_F)
        assert _outcome(path) == _outcome_by_walk(path)


class TestObjReader:
    """The OBJ array read gives what the line walk gives, bit for bit."""

    @pytest.mark.parametrize("kind,subdiv", [("ellipsoid", 3), ("torus", 1)])
    def test_arrays_equal_the_walk(self, tmp_path, kind, subdiv):
        path = tmp_path / "mesh.obj"
        path.write_text(_obj_text(get_mesh(kind, subdiv)))
        verts, faces = mesh_mod._read_obj_arrays(path)
        walk_v, walk_f = mesh_mod._walk_obj(path)
        assert np.array_equal(verts, np.array(walk_v))
        assert np.array_equal(faces, np.array(walk_f))
        assert verts.dtype == np.float64 and faces.dtype == np.int64

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=_corrupted("obj"))
    def test_array_read_matches_line_walk(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "either.obj"
        path.write_bytes(data)
        assert _outcome(path) == _outcome_by_walk(path)

    VERTS = "".join("v %g %g %g\n" % tuple(p) for p in TETRA_V)
    FACES = "".join("f %d %d %d\n" % tuple(f + 1) for f in TETRA_F)

    @pytest.mark.parametrize("text,taken", [
        (VERTS + FACES, True),
        ("# by hand\n\n" + VERTS + "# faces\n" + FACES.replace("\n", " # c\n", 1), True),
        ((VERTS + FACES).replace("\n", "\r\n"), True),
        (VERTS.replace("\n", " 0.5 0.5 0.5\n", 1) + FACES, True),
        ("o tetra\n" + VERTS + FACES, False),
        (VERTS + "vn 0 0 1\n" + FACES, False),
        (VERTS + FACES.replace("f 1 3 2", "f 1//1 3//1 2//1"), False),
        (VERTS + FACES.replace("f 1 3 2", " f 1 3 2"), False),
        (VERTS + FACES.replace("f 1 3 2", "f\t1 3 2"), False),
        (VERTS + FACES.replace("f 1 3 2", "f 1 3 2 4"), False),
        (VERTS + FACES.replace("f 1 3 2", "f 1 3 -2"), False),
        (VERTS + FACES.replace("f 1 3 2", "f 1 3 2.0"), False),
        (VERTS.replace("v 0 0 0", "v 0 0"), False),
        (VERTS.replace("v 0 0 0", "v # none"), False),
        (VERTS, False),
        (VERTS + FACES.replace("f 1 3 2", "f 1 3 2\u01fe"), False),
    ], ids=["plain", "comments", "crlf", "vertex-colour", "object-name",
            "normal", "slashes", "indented", "tab", "quad", "negative",
            "float-index", "short-vertex", "empty-vertex", "no-faces",
            "non-ascii-digit"])
    def test_array_read_takes_plain_records(self, tmp_path, text, taken):
        path = tmp_path / "tetra.obj"
        path.write_bytes(text.encode("utf-8"))
        arrays = mesh_mod._read_obj_arrays(path)
        assert (arrays is not None) == taken
        if taken:
            assert np.array_equal(arrays[0], TETRA_V)
            assert np.array_equal(arrays[1], TETRA_F)
        assert _outcome(path) == _outcome_by_walk(path)


class TestAdversarialInput:
    """A corrupted file yields a mesh or a CurvSpecError, nothing else."""

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_valid_file_loads(self, tmp_path, fmt):
        path = tmp_path / f"ico.{fmt}"
        path.write_text("".join(" ".join(t) + "\n" for t in _token_lines(fmt)))
        assert load_mesh(path).n_vertices == 12

    @staticmethod
    def load(tmp_dir, fmt, data):
        path = tmp_dir / f"corrupt.{fmt}"
        path.write_bytes(data)
        try:
            mesh = load_mesh(path)
        except CurvSpecError:
            return
        assert isinstance(mesh, TriMesh)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=_corrupted("off"))
    def test_corrupted_off(self, tmp_path_factory, data):
        self.load(tmp_path_factory.getbasetemp(), "off", data)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=_corrupted("obj"))
    def test_corrupted_obj(self, tmp_path_factory, data):
        self.load(tmp_path_factory.getbasetemp(), "obj", data)


class TestSubdivision:
    def test_counts(self):
        ico = surfaces.icosahedron()
        fine = subdivide_project(ico)
        assert fine.n_vertices == ico.n_vertices + ico.n_edges
        assert fine.n_faces == 4 * ico.n_faces
        assert fine.euler_characteristic == 2

    def test_projection_target(self):
        ico = surfaces.icosahedron()
        fine = subdivide_project(ico, target=surfaces.Sphere(1.0))
        radii = np.linalg.norm(fine.vertices, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_planar_split_preserves_area(self):
        # without a projection target each flat face splits in place
        ico = surfaces.icosahedron()
        fine = subdivide_project(ico)
        assert abs(fine.total_area - ico.total_area) < 1e-12
        assert fine.euler_characteristic == 2

    @pytest.mark.parametrize("kind,subdiv", [("ellipsoid", 3), ("bumped", 2),
                                             ("torus", 1)])
    def test_edge_table_matches_row_unique(self, kind, subdiv):
        # the 1-D edge keys give the row-wise unique's edges, inverse and
        # counts exactly, so the edge order, and every mesh, is unchanged
        m = get_mesh(kind, subdiv)
        own = mesh_mod._edge_table(m.faces, m.n_vertices)
        for got, want in zip(own, oracles.edge_table_rows(m.faces)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(m.edges, own[0])

    @pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "bumped"])
    def test_subdivision_matches_row_unique(self, kind):
        coarse = get_mesh(kind, 2)
        target = make_surface(kind)
        fine = subdivide_project(coarse, target)
        verts, faces = oracles.subdivide_rows(coarse, target)
        assert np.array_equal(fine.vertices, verts)
        assert np.array_equal(fine.faces, faces)

    def test_torus_euler(self, torus1):
        assert torus1.euler_characteristic == 0
