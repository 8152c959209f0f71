"""Exception types shared across the package."""


class CurvSpecError(Exception):
    """Base class for every error raised by this package."""


class MeshLoadError(CurvSpecError):
    """A mesh file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        if path is not None:
            where = str(path) if line is None else f"{path}:{line}"
            message = f"{where}: {message}"
        super().__init__(message)


class NonManifoldEdgeError(CurvSpecError):
    """An undirected edge is incident to more than two faces."""

    def __init__(self, edge, count):
        self.edge = (int(edge[0]), int(edge[1]))
        self.count = int(count)
        super().__init__(
            f"non-manifold edge {self.edge}: incident to {self.count} faces, expected 2"
        )


class OpenBoundaryError(CurvSpecError):
    """An edge belongs to exactly one face, so the surface is not closed."""

    def __init__(self, edge):
        self.edge = (int(edge[0]), int(edge[1]))
        super().__init__(f"open boundary at edge {self.edge}: only one incident face")


class OrientationError(CurvSpecError):
    """Two incident faces induce the same direction on a shared edge."""

    def __init__(self, edge, faces):
        self.edge = (int(edge[0]), int(edge[1]))
        self.faces = tuple(int(f) for f in faces)
        super().__init__(
            f"inconsistent orientation across edge {self.edge}: "
            f"faces {self.faces} traverse it in the same direction"
        )


class DisconnectedMeshError(CurvSpecError):
    """The surface has several connected components: K's kernel is more
    than the constants every spectral check assumes."""


class DegenerateGeometryError(CurvSpecError):
    """A face or vertex stencil is too degenerate to carry geometry."""

    def __init__(self, message, face=None, vertex=None):
        self.face = None if face is None else int(face)
        self.vertex = None if vertex is None else int(vertex)
        super().__init__(message)


class CurvaturePositivityError(CurvSpecError):
    """A curvature positivity assumption H_j > 0 of order r fails: H_2 > 0,
    or H_1 > 0 (the outward orientation), for r = 1.

    Carries the offending (most negative) H_j sample and, when the check
    ran on a mesh, the vertex where it was attained.
    """

    def __init__(self, r, j, h_value, vertex=None):
        self.r = int(r)
        self.j = int(j)
        self.h_value = float(h_value)
        self.vertex = None if vertex is None else int(vertex)
        msg = (
            f"order r={self.r} requires H_{self.j} > 0 everywhere, "
            f"but min H_{self.j} = {self.h_value:.6g}"
        )
        if self.vertex is not None:
            msg += f" at vertex {self.vertex}"
        super().__init__(msg)


class ProjectionError(CurvSpecError):
    """Projection of a point onto an analytic surface failed."""

    def __init__(self, message, vertex=None):
        self.vertex = None if vertex is None else int(vertex)
        if self.vertex is not None:
            message = f"{message} (vertex {self.vertex})"
        super().__init__(message)


class EigenSolveError(CurvSpecError):
    """An eigenvalue solve did not converge or a factorization broke down."""


class BoundViolationError(CurvSpecError):
    """A proven inequality failed numerically; carries the offending seed."""

    def __init__(self, message, seed=None, margin=None):
        self.seed = seed
        self.margin = margin
        super().__init__(message)
