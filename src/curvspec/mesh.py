"""Closed oriented triangle meshes.

The TriMesh type is the single geometry carrier for the whole package.  It
is immutable after construction: the constructor builds the edge table and
the face and vertex geometry (areas, normals) as arrays and marks them
read-only, so instances can be shared freely between threads.

Vertex area is the barycentric third of the incident face areas.  The vertex
normal is a weighted average of incident face normals, each weighted by the
reciprocal product of the squared adjacent edge lengths (Max, J. Graphics
Tools, 1999).  That reproduces the exact sphere normal whenever a vertex and
its neighbors lie on a common sphere; the classical corner-angle weighting
is only first order accurate on projected subdivision meshes, which would
stall the curvature estimator.
Faces are counter-clockwise as seen from outside, which makes a round
sphere carry principal curvature +1/R downstream.

The constructor is the one mesh gate: a TriMesh exists only if it is
closed, manifold, oriented, nondegenerate and connected, so no solve ever
sees a mesh that is not, whether it was generated or read by load_mesh.
The first fault found is raised as a typed error, in this order: a
non-manifold, a boundary or a misoriented edge (found from the edge table
alone, before any geometry is built), a face of zero or non-finite area,
a vertex whose weighted normal cancelled to zero, and last more than one
connected component, which would put more than the constants in K's
kernel.
"""

import itertools
import os
import warnings
from dataclasses import dataclass

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
    "refine",
]

_AREA_FLOOR_REL = 1e-14  # faces at or below this share of the mean area are degenerate


def _edge_table(faces, nv):
    """Undirected edges in lexicographic order, (E, 2), the edge of each
    directed face edge (01, 12, 20 of face 0, then face 1, ...) and each
    edge's face count.  Edge (i, j), i < j, is keyed as i*nv + j, so one
    1-D unique sorts the edges as a row-wise unique would."""
    fe = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = fe[:, 0], fe[:, 1]
    keys, inv, counts = np.unique(np.minimum(lo, hi) * nv + np.maximum(lo, hi),
                                  return_inverse=True, return_counts=True)
    return np.stack([keys // nv, keys % nv], axis=1), inv, counts


def _cross(a, b):
    """Cross product of vectors stored component-first, (3, N) or triples:
    the products and differences np.cross forms, so the same bits."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """Row-wise dot product of vectors stored component-first, summed in
    np.linalg.norm's order: sqrt(_dot(x, x)) is its row norm, bit for
    bit."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _edge_vectors(vt, f, i, j):
    """x_j - x_i of every face's corners i and j, (3, F), from the
    component-first coordinates ``vt`` (3, V).  take gathers the same
    entries as fancy indexing, a few times faster."""
    return vt.take(f[:, j], axis=1) - vt.take(f[:, i], axis=1)


def _refuse_edge_faults(faces, edges, inv, counts):
    """Raise on the first non-manifold edge, else the first boundary edge,
    else the first misoriented edge, in edge order.  An edge is misoriented
    when its two faces traverse it in the same direction; the refusal
    names them in face order."""
    if np.any(counts > 2):
        e = int(np.argmax(counts > 2))
        raise NonManifoldEdgeError(edges[e], counts[e])
    if np.any(counts == 1):
        raise OpenBoundaryError(edges[int(np.argmax(counts == 1))])
    # +1 where directed edge j runs from its lower to its higher vertex
    direction = np.where(faces < faces[:, [1, 2, 0]], 1, -1).ravel()
    osum = np.bincount(inv, weights=direction, minlength=len(edges))
    if np.any(osum != 0):
        e = int(np.argmax(osum != 0))
        # directed edge j lies on face j // 3
        raise OrientationError(edges[e], np.flatnonzero(inv == e) // 3)


class TriMesh:
    """Indexed closed oriented triangle surface with its derived geometry;
    the constructor refuses any other (see the module docstring)."""

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
        self.edges, inv, counts = _edge_table(f, len(v))
        _refuse_edge_faults(f, self.edges, inv, counts)
        self.face_edges = inv.reshape(-1, 3)   # the edges of sides 01, 12, 20
        # coordinates whose products overflow give NaN or inf areas, which
        # the degenerate-face refusal names; numpy need not warn as well
        with np.errstate(over="ignore", invalid="ignore"):
            self._build_face_geometry()
            self._build_vertex_geometry()
        e = self.edges
        graph = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                              shape=(len(v), len(v)))
        components = connected_components(graph, directed=False)[0]
        if components > 1:
            raise DisconnectedMeshError(f"mesh has {components} connected "
                                        f"components; a single connected "
                                        f"surface is required")
        for arr in (
            self.vertices,
            self.faces,
            self.face_areas,
            self.face_normals,
            self.vertex_areas,
            self.vertex_normals,
            self.edges,
            self.face_edges,
        ):
            arr.flags.writeable = False

    def _build_face_geometry(self):
        # component-first, so each product runs on contiguous rows
        vt, f = np.ascontiguousarray(self.vertices.T), self.faces
        cr = _cross(_edge_vectors(vt, f, 0, 1), _edge_vectors(vt, f, 0, 2))
        nn = np.sqrt(_dot(cr, cr))
        self.face_areas = 0.5 * nn
        # a NaN or inf area (coordinates whose products overflow) is
        # degenerate too; the floor is a share of the finite areas' mean
        finite = np.isfinite(self.face_areas)
        mean_area = self.face_areas[finite].mean() if finite.any() else 0.0
        bad = ~finite | (self.face_areas <= _AREA_FLOOR_REL * mean_area)
        if np.any(bad):
            face = int(np.argmax(bad))
            kind = "(near-)zero" if finite[face] else "non-finite"
            raise DegenerateGeometryError(f"face {face} has {kind} area",
                                          face=face)
        self.face_normals = np.stack([c / nn for c in cr], axis=1)

    def _build_vertex_geometry(self):
        # bincount adds the weights in input order, starting from zero, as
        # np.add.at would: the same sums, bit for bit
        v, f = self.vertices, self.faces
        nv = len(v)
        self.vertex_areas = np.bincount(
            f.ravel(), weights=np.repeat(self.face_areas / 3.0, 3), minlength=nv)
        # each face's weighted normal at corner a, corner-major, so each
        # vertex sums its corner-0 faces, then corner 1, then corner 2
        corner = np.empty((3, 3, len(f)))   # (corner, component, face)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            u = v.take(f[:, b], axis=0) - v.take(f[:, a], axis=0)
            w = v.take(f[:, c], axis=0) - v.take(f[:, a], axis=0)
            # cross(u, w) = 2 * area * face normal; dividing by the
            # squared edge lengths gives the sphere-exact weighting
            d1 = np.einsum("ij,ij->i", u, u)
            d2 = np.einsum("ij,ij->i", w, w)
            good = (d1 > 0.0) & (d2 > 0.0)
            wt = np.zeros(len(f))
            wt[good] = 1.0 / (d1[good] * d2[good])
            # the rows stay (F, 3) for einsum's sums; the cross product
            # reads them component-first, as np.cross does
            for k, cr in enumerate(_cross(u.T, w.T)):
                corner[a, k] = wt * cr
        at = f.T.ravel()
        vn = [np.bincount(at, weights=corner[:, k].ravel(), minlength=nv)
              for k in range(3)]
        norms = np.sqrt(_dot(vn, vn))
        ok = norms > 0.0
        if not np.all(ok):
            vertex = int(np.argmin(ok))
            raise DegenerateGeometryError(
                f"vertex {vertex} has a zero weighted normal", vertex=vertex)
        self.vertex_normals = np.stack([c / norms for c in vn], axis=1)

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
    total_area: float
    min_face_area: float
    max_face_area: float
    mean_face_area: float
    max_aspect_ratio: float


def validate(mesh):
    """Size and shape statistics of a TriMesh, the mesh_stats block of a
    CLI report.  Being a TriMesh, the mesh is closed, oriented and
    nondegenerate, so the statistics report nothing to refuse.

    Aspect ratio is the longest edge over the triangle height on that edge,
    so an equilateral triangle scores 2/sqrt(3).
    """
    vt, f = np.ascontiguousarray(mesh.vertices.T), mesh.faces
    emax = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        e = _edge_vectors(vt, f, i, j)
        emax = np.maximum(emax, np.sqrt(_dot(e, e)))
    return ValidationReport(
        n_vertices=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_faces=mesh.n_faces,
        euler_characteristic=mesh.euler_characteristic,
        total_area=mesh.total_area,
        min_face_area=float(mesh.face_areas.min()),
        max_face_area=float(mesh.face_areas.max()),
        mean_face_area=float(mesh.face_areas.mean()),
        max_aspect_ratio=float((emax**2 / (2.0 * mesh.face_areas)).max()),
    )


def load_mesh(path):
    """Read an OFF or OBJ file, told apart by extension, into a TriMesh.

    Polygonal faces are fan-triangulated.  OFF indices are zero-based, OBJ
    one-based.  An OFF file's vertex and face blocks are read as arrays by
    np.loadtxt; a file that read does not take (polygon faces, a comment
    or blank line inside a block, a row numpy refuses, a bad header or a
    byte outside ASCII) is read again line by line, which gives the same
    arrays or the error with its line.  An OBJ file of plain ``v x y z``
    and ``f i j k`` records is read as arrays too, and any other OBJ file
    line by line.  Raises MeshLoadError on parse problems (with the line
    number) and otherwise the TriMesh constructor's typed refusal of a
    mesh that is not a closed surface.
    """
    ext = os.path.splitext(str(path))[1].lower()
    parse = {".off": _parse_off, ".obj": _parse_obj}.get(ext)
    if parse is None:
        raise MeshLoadError(f"cannot infer format from extension {ext!r}", path=path)
    v, f = parse(path)
    try:
        return TriMesh(v, f)
    except (ValueError, OverflowError) as exc:   # an index beyond int64
        raise MeshLoadError(str(exc), path=path) from exc


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
