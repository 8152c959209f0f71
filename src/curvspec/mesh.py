"""Closed oriented triangle meshes.

The TriMesh type is the single geometry carrier for the whole package.  It is
immutable after construction.  The constructor builds the face and vertex
geometry (areas, normals), the edge table and the connectivity diagnostics
as arrays, and marks them read-only, so instances can be shared freely
between threads.  The one diagnostic built on first read is the tuple of
misoriented edges: construction keeps them as an array of rows, which
is_oriented and the orientation refusal read, so a refusal converts one
row instead of every misoriented edge.

Vertex area is the barycentric third of the incident face areas.  The vertex
normal is a weighted average of incident face normals, each weighted by the
reciprocal product of the squared adjacent edge lengths (Max, J. Graphics
Tools, 1999).  That reproduces the exact sphere normal whenever a vertex and
its neighbors lie on a common sphere; the classical corner-angle weighting
is only first order accurate on projected subdivision meshes, which would
stall the curvature estimator.
Faces are counter-clockwise as seen from outside, which makes a round
sphere carry principal curvature +1/R downstream.

A TriMesh may be open, degenerate or in pieces; check is the one gate
that refuses such a mesh, with a typed error.  load_mesh runs it on every
file and the curvature estimator on every mesh, so no solve ever sees a
mesh that failed it.
"""

import itertools
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateGeometryError,
    DisconnectedMeshError,
    MeshLoadError,
    NonManifoldEdgeError,
    OpenBoundaryError,
    OrientationError,
    ProjectionError,
)

__all__ = [
    "TriMesh",
    "ValidationReport",
    "validate",
    "load_mesh",
    "write_off",
    "check",
    "refine",
]

_AREA_FLOOR_REL = 1e-14  # faces at or below this share of the mean area are degenerate


def _edge_table(faces, nv):
    """Undirected edges in lexicographic order, (E, 2), the edge of each
    directed face edge (01, 12, 20 of face 0, then face 1, ...) and each
    edge's face count.  Edge (i, j), i < j, is keyed as i*nv + j, so one
    1-D unique sorts the edges as a row-wise unique would."""
    fe = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys, inv, counts = np.unique(fe.min(axis=1) * nv + fe.max(axis=1),
                                  return_inverse=True, return_counts=True)
    return np.stack([keys // nv, keys % nv], axis=1), inv, counts


class TriMesh:
    """Indexed triangle surface with cached derived geometry."""

    def __init__(self, vertices, faces):
        v = np.array(vertices, dtype=float)
        f = np.array(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be a (V, 3) array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be a (F, 3) array of vertex indices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face indices out of range")
        same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if np.any(same):
            raise DegenerateGeometryError(
                f"face {int(np.argmax(same))} repeats a vertex index",
                face=int(np.argmax(same)),
            )
        self.vertices = v
        self.faces = f
        # coordinates whose products overflow give NaN or inf areas, which
        # degenerate_faces names; numpy need not warn about them as well
        with np.errstate(over="ignore", invalid="ignore"):
            self._build_face_geometry()
            self._build_vertex_geometry()
        self._scan_connectivity()
        for arr in (
            self.vertices,
            self.faces,
            self.face_areas,
            self.face_normals,
            self.vertex_areas,
            self.vertex_normals,
            self.edges,
            self._misoriented,
        ):
            arr.flags.writeable = False

    def _build_face_geometry(self):
        v, f = self.vertices, self.faces
        e1 = v[f[:, 1]] - v[f[:, 0]]
        e2 = v[f[:, 2]] - v[f[:, 0]]
        cr = np.cross(e1, e2)
        nn = np.linalg.norm(cr, axis=1)
        self.face_areas = 0.5 * nn
        ok = nn > 0.0
        normals = np.zeros_like(cr)
        normals[ok] = cr[ok] / nn[ok, None]
        self.face_normals = normals
        # a NaN or inf area (coordinates whose products overflow) is
        # degenerate too; the floor is a share of the finite areas' mean
        finite = np.isfinite(self.face_areas)
        mean_area = self.face_areas[finite].mean() if finite.any() else 0.0
        self.degenerate_faces = tuple(
            int(i) for i in np.nonzero(~finite | (self.face_areas <= _AREA_FLOOR_REL * mean_area))[0]
        )

    def _build_vertex_geometry(self):
        # bincount adds the weights in input order, starting from zero, as
        # np.add.at would: the same sums, bit for bit
        v, f = self.vertices, self.faces
        nv = len(v)
        self.vertex_areas = np.bincount(
            f.ravel(), weights=np.repeat(self.face_areas / 3.0, 3), minlength=nv)
        # each face's weighted normal at corner a, corner-major, so each
        # vertex sums its corner-0 faces, then corner 1, then corner 2
        corner = np.empty((3, len(f), 3))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            u = v[f[:, b]] - v[f[:, a]]
            w = v[f[:, c]] - v[f[:, a]]
            # cross(u, w) = 2 * area * face normal; dividing by the
            # squared edge lengths gives the sphere-exact weighting
            d1 = np.einsum("ij,ij->i", u, u)
            d2 = np.einsum("ij,ij->i", w, w)
            good = (d1 > 0.0) & (d2 > 0.0)
            wt = np.zeros(len(f))
            wt[good] = 1.0 / (d1[good] * d2[good])
            corner[a] = wt[:, None] * np.cross(u, w)
        at = f.T.ravel()
        vn = np.stack([np.bincount(at, weights=corner[..., k].ravel(), minlength=nv)
                       for k in range(3)], axis=1)
        norms = np.linalg.norm(vn, axis=1)
        ok = norms > 0.0
        vn[ok] /= norms[ok, None]
        self.vertex_normals = vn
        self._unnormalizable_vertices = tuple(int(i) for i in np.nonzero(~ok)[0])

    def _scan_connectivity(self):
        f = self.faces
        edges, inv, counts = _edge_table(f, len(self.vertices))
        self.edges = edges
        # +1 where directed edge j runs from its lower to its higher vertex
        direction = np.where(f < f[:, [1, 2, 0]], 1, -1).ravel()
        osum = np.bincount(inv, weights=direction, minlength=len(edges))
        self.boundary_edges = tuple(map(tuple, edges[counts == 1].tolist()))
        many = counts > 2
        self.nonmanifold_edges = tuple(
            (tuple(e), c)
            for e, c in zip(edges[many].tolist(), counts[many].tolist())
        )
        # directed edges of misoriented edges, grouped by edge in one stable
        # sort: each group is a pair in face order, directed edge j on face j//3
        mis = (counts == 2) & (np.abs(osum) == 2)
        on_mis = np.nonzero(mis[inv])[0]
        on_mis = on_mis[np.argsort(inv[on_mis], kind="stable")]
        # one row (a, b, face, face) per misoriented edge, in edge order
        self._misoriented = np.hstack([edges[mis], (on_mis // 3).reshape(-1, 2)])

    @cached_property
    def misoriented_edges(self):
        """((a, b), (face, face)) per misoriented edge, built on first read
        from one flat list of Python ints, read four at a time."""
        flat = iter(self._misoriented.ravel().tolist())
        return tuple(((a, b), (c, d)) for a, b, c, d in zip(flat, flat, flat, flat))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def total_area(self):
        return float(self.face_areas.sum())

    @property
    def is_closed(self):
        return not self.boundary_edges and not self.nonmanifold_edges

    @property
    def is_oriented(self):
        return not len(self._misoriented)

    def hat_gradients(self):
        """Per-face constant gradients of the three hat functions, (F, 3, 3).

        grad phi_a = n x (x_c - x_b) / (2 area) for the corner opposite edge
        (b, c); the three gradients of a face sum to zero and live in the
        face plane.
        """
        v, f = self.vertices, self.faces
        g = np.empty((len(f), 3, 3))
        n = self.face_normals
        inv2a = 1.0 / (2.0 * self.face_areas)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            g[:, a, :] = np.cross(n, v[f[:, c]] - v[f[:, b]]) * inv2a[:, None]
        return g

    def __repr__(self):
        return (
            f"TriMesh(V={self.n_vertices}, F={self.n_faces}, E={self.n_edges}, "
            f"chi={self.euler_characteristic})"
        )


@dataclass(frozen=True)
class ValidationReport:
    n_vertices: int
    n_edges: int
    n_faces: int
    euler_characteristic: int
    closed: bool
    oriented: bool
    total_area: float
    min_face_area: float
    max_face_area: float
    mean_face_area: float
    max_aspect_ratio: float
    passed: bool


def validate(mesh):
    """Structural report for a TriMesh; never raises, failures are flags.

    Its fields are the mesh_stats block of a CLI report.  The offending
    edges and faces themselves stay on the mesh (boundary_edges,
    nonmanifold_edges, misoriented_edges, degenerate_faces).

    Aspect ratio is the longest edge over the triangle height on that edge,
    so an equilateral triangle scores 2/sqrt(3).
    """
    v, f = mesh.vertices, mesh.faces
    emax = np.linalg.norm(v[f[:, [1, 2, 0]]] - v[f], axis=2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        aspect = np.where(mesh.face_areas > 0, emax**2 / (2.0 * mesh.face_areas), np.inf)
    passed = mesh.is_closed and mesh.is_oriented and not mesh.degenerate_faces
    return ValidationReport(
        n_vertices=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_faces=mesh.n_faces,
        euler_characteristic=mesh.euler_characteristic,
        closed=mesh.is_closed,
        oriented=mesh.is_oriented,
        total_area=mesh.total_area,
        min_face_area=float(mesh.face_areas.min()),
        max_face_area=float(mesh.face_areas.max()),
        mean_face_area=float(mesh.face_areas.mean()),
        max_aspect_ratio=float(aspect.max()),
        passed=passed,
    )


def check(mesh):
    """The mesh gate: raise unless ``mesh`` is closed, manifold, oriented,
    nondegenerate and connected.

    The first fault found is named, in this order: a non-manifold, a
    boundary or a misoriented edge, a face of zero or non-finite area, a
    vertex whose weighted normal cancelled to zero, and last more than one
    connected component, which would put more than the constants in K's
    kernel.
    """
    if mesh.nonmanifold_edges:
        edge, count = mesh.nonmanifold_edges[0]
        raise NonManifoldEdgeError(edge, count)
    if mesh.boundary_edges:
        raise OpenBoundaryError(mesh.boundary_edges[0])
    if not mesh.is_oriented:
        row = mesh._misoriented[0]   # misoriented_edges[0], and only it
        raise OrientationError(row[:2], row[2:])
    if mesh.degenerate_faces:
        face = mesh.degenerate_faces[0]
        kind = ("(near-)zero" if np.isfinite(mesh.face_areas[face])
                else "non-finite")
        raise DegenerateGeometryError(f"face {face} has {kind} area",
                                      face=face)
    if mesh._unnormalizable_vertices:
        vertex = mesh._unnormalizable_vertices[0]
        raise DegenerateGeometryError(
            f"vertex {vertex} has a zero weighted normal", vertex=vertex)
    nv, e = mesh.n_vertices, mesh.edges
    graph = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(nv, nv))
    components = connected_components(graph, directed=False)[0]
    if components > 1:
        raise DisconnectedMeshError(f"mesh has {components} connected "
                                    f"components; a single connected "
                                    f"surface is required")


def load_mesh(path):
    """Read an OFF or OBJ file, told apart by extension, into a validated
    TriMesh.

    Polygonal faces are fan-triangulated.  OFF indices are zero-based, OBJ
    one-based.  An OFF file's vertex and face blocks are read as arrays by
    np.loadtxt; a file that read does not take (polygon faces, a comment
    or blank line inside a block, a row numpy refuses, a bad header or a
    byte outside ASCII) is read again line by line, which gives the same
    arrays or the error with its line.  An OBJ file of plain ``v x y z``
    and ``f i j k`` records is read as arrays too, and any other OBJ file
    line by line.  Raises MeshLoadError on parse problems (with the line
    number) and the specific connectivity error otherwise; a mesh with
    more than one connected component is refused last.
    """
    ext = os.path.splitext(str(path))[1].lower()
    parse = {".off": _parse_off, ".obj": _parse_obj}.get(ext)
    if parse is None:
        raise MeshLoadError(f"cannot infer format from extension {ext!r}", path=path)
    v, f = parse(path)
    try:
        mesh = TriMesh(v, f)
    except (ValueError, OverflowError) as exc:   # an index beyond int64
        raise MeshLoadError(str(exc), path=path) from exc
    check(mesh)
    return mesh


def _meaningful(lines):
    """(line number, body) of each of ``lines`` that holds more than a
    comment; the body is the line without its comment and outer space."""
    for i, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield i, body


def _meaningful_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshLoadError(str(exc), path=path) from exc
    return list(_meaningful(raw))


def _off_counts(lines, path):
    """V and F from the OFF header, taken from the iterator of meaningful
    lines: the OFF line, then the counts line unless the OFF line holds
    the counts."""
    lineno, head = next(lines, (None, None))
    if head is None:
        raise MeshLoadError("empty file", path=path)
    if head == "OFF":
        cline, counts = next(lines, (lineno, None))
        if counts is None:
            raise MeshLoadError("missing counts line", path=path, line=lineno)
    elif head.startswith("OFF"):
        cline, counts = lineno, head[3:]
    else:
        raise MeshLoadError("missing OFF header", path=path, line=lineno)
    tok = counts.split()
    if len(tok) < 3:
        raise MeshLoadError("counts line must read 'V F E'", path=path, line=cline)
    try:
        return int(tok[0]), int(tok[1])
    except ValueError as exc:
        raise MeshLoadError("counts line must be integers", path=path, line=cline) from exc


def _parse_off(path):
    return _read_off_arrays(path) or _walk_off(path)


def _read_off_arrays(path):
    """The OFF vertex (V, 3) and triangle (F, 3) arrays by numpy's reader,
    or None where the line walk has to read the file.

    A block starts at its first line with more than a comment and goes to
    np.loadtxt as exactly V (F) lines, so a comment or blank line inside
    it shows as a short row count.  A face that is not a triangle, any
    refusal (of a row, of the header, of the file) and any numpy warning
    (an empty block warns "input contained no data") give None too.  The
    file is read as ASCII, to its end: numpy's integer reader takes some
    non-ASCII characters for digits, and the line walk refuses bytes that
    are not UTF-8 anywhere in the file.
    """
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _meaningful(fh)
            nv, nf = _off_counts(rows, path)
            verts = np.loadtxt(_block(rows, fh, nv), usecols=(0, 1, 2), ndmin=2)
            faces = np.loadtxt(_block(rows, fh, nf), dtype=np.int64,
                               usecols=(0, 1, 2, 3), ndmin=2)
            fh.read()
    except (OSError, ValueError, Warning, MeshLoadError):
        return None
    if len(verts) != nv or len(faces) != nf or np.any(faces[:, 0] != 3):
        return None
    return verts, faces[:, 1:]


def _block(rows, fh, n):
    """The next line of ``rows`` (the meaningful lines of ``fh``), then the
    n - 1 lines of ``fh`` after it as they stand; ValueError if n < 1."""
    return itertools.chain(itertools.islice((body for _, body in rows), 1),
                           itertools.islice(fh, n - 1))


def _walk_off(path):
    """The OFF file line by line, polygons fan-triangulated; the reader
    that names the line of a MeshLoadError."""
    lines = _meaningful_lines(path)
    rest = iter(lines)
    nv, nf = _off_counts(rest, path)
    verts = []
    for _ in range(nv):
        lineno, body = next(rest, (None, None))
        if body is None:
            raise MeshLoadError(f"expected {nv} vertex lines", path=path, line=lines[-1][0])
        tok = body.split()
        if len(tok) < 3:
            raise MeshLoadError("vertex line needs 3 coordinates", path=path, line=lineno)
        try:
            verts.append([float(tok[0]), float(tok[1]), float(tok[2])])
        except ValueError as exc:
            raise MeshLoadError("bad vertex coordinate", path=path, line=lineno) from exc
    faces = []
    for _ in range(nf):
        lineno, body = next(rest, (None, None))
        if body is None:
            raise MeshLoadError(f"expected {nf} face lines", path=path, line=lines[-1][0])
        tok = body.split()
        try:
            k = int(tok[0])
            idx = [int(t) for t in tok[1 : 1 + k]]
        except (ValueError, IndexError) as exc:
            raise MeshLoadError("bad face line", path=path, line=lineno) from exc
        if k < 3 or len(idx) != k:
            raise MeshLoadError("face needs at least 3 indices", path=path, line=lineno)
        for t in range(1, k - 1):
            faces.append([idx[0], idx[t], idx[t + 1]])
    return verts, faces


def _parse_obj(path):
    return _read_obj_arrays(path) or _walk_obj(path)


def _read_obj_arrays(path):
    """_read_off_arrays for an OBJ file whose lines are all blank, a
    comment, ``v x y z`` or ``f i j k`` (tag, one space, record): the v
    and the f lines each go to np.loadtxt as one block.  Any other line,
    a polygon, an index below 1, a refusal or a warning gives None."""
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = fh.read().split("\n")
            if any(line.split("#", 1)[0].strip() for line in lines
                   if not line.startswith(("v ", "f "))):
                return None
            vrows = [line[2:] for line in lines if line.startswith("v ")]
            frows = [line[2:] for line in lines if line.startswith("f ")]
            verts = np.loadtxt(vrows, usecols=(0, 1, 2), ndmin=2)
            faces = np.loadtxt(frows, dtype=np.int64, ndmin=2)
    except (OSError, ValueError, OverflowError, Warning):
        return None
    if (len(verts) != len(vrows) or faces.shape != (len(frows), 3)
            or np.any(faces < 1)):
        return None
    return verts, faces - 1


def _walk_obj(path):
    """The OBJ file line by line, polygons fan-triangulated; the reader
    that names the line of a MeshLoadError."""
    verts = []
    faces = []
    for lineno, body in _meaningful_lines(path):
        tok = body.split()
        if tok[0] == "v":
            if len(tok) < 4:
                raise MeshLoadError("vertex line needs 3 coordinates", path=path, line=lineno)
            try:
                verts.append([float(tok[1]), float(tok[2]), float(tok[3])])
            except ValueError as exc:
                raise MeshLoadError("bad vertex coordinate", path=path, line=lineno) from exc
        elif tok[0] == "f":
            idx = []
            for entry in tok[1:]:
                head = entry.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise MeshLoadError(f"bad face index {entry!r}", path=path, line=lineno) from exc
                if i < 0:
                    raise MeshLoadError("negative OBJ indices unsupported", path=path, line=lineno)
                idx.append(i - 1)
            if len(idx) < 3:
                raise MeshLoadError("face needs at least 3 indices", path=path, line=lineno)
            for t in range(1, len(idx) - 1):
                faces.append([idx[0], idx[t], idx[t + 1]])
    if not verts or not faces:
        raise MeshLoadError("no usable v/f records found", path=path)
    return verts, faces


def write_off(mesh, path):
    """Write the mesh as ASCII OFF (deterministic %.17g coordinates).

    Each block is one % format over the flattened array, one row per line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}\n")
        fh.write("%.17g %.17g %.17g\n" * mesh.n_vertices
                 % tuple(mesh.vertices.ravel().tolist()))
        fh.write("3 %d %d %d\n" * mesh.n_faces
                 % tuple(mesh.faces.ravel().tolist()))


def subdivide_project(mesh, target=None):
    """One 1-to-4 midpoint refinement; V' = V + E.

    If an analytic target surface is given, the new midpoint vertices are
    projected onto it (existing vertices are assumed to lie on the surface
    already).  Child faces inherit the parent orientation.
    """
    return TriMesh(*refine(mesh.vertices, mesh.faces, target))


def refine(v, f, target=None):
    """subdivide_project on the arrays: the refined (vertices, faces)."""
    edges, inv, _ = _edge_table(f, len(v))
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    if target is not None:
        projected = target.project(mids)
        bad = ~np.all(np.isfinite(projected), axis=1)
        if np.any(bad):
            raise ProjectionError(
                "projection onto the target surface did not converge",
                vertex=len(v) + int(np.argmax(bad)),
            )
        mids = projected
    mid_id = len(v) + inv.reshape(-1, 3)  # midpoint of edges 01, 12, 20 per face
    m01, m12, m20 = mid_id[:, 0], mid_id[:, 1], mid_id[:, 2]
    children = np.empty((4 * len(f), 3), dtype=np.int64)
    children[0::4] = np.stack([f[:, 0], m01, m20], axis=1)
    children[1::4] = np.stack([f[:, 1], m12, m01], axis=1)
    children[2::4] = np.stack([f[:, 2], m20, m12], axis=1)
    children[3::4] = np.stack([m01, m12, m20], axis=1)
    return np.vstack([v, mids]), children
