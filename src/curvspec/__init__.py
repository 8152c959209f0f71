"""Spectral checks for curvature-penalized operators on closed surfaces.

The pipeline: triangulated closed surface -> per-vertex principal
curvatures -> Newton-transformed stiffness K_r, lumped mass M, potential
diagonal M_W -> pencil (K_r - M_W) x = lambda M x -> classification of
lambda_2 (zero on round spheres, strictly negative otherwise), with the
supporting integral identities and the Birman-Schwinger crossing scan as
independent routes to the same spectrum.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    assemble,
    birman,
    curvature,
    eigen,
    errors,
    identities,
    mesh,
    surfaces,
    verify,
)
from .assemble import OperatorPencil, assemble_pencil
from .curvature import compute_curvature
from .eigen import Spectrum, smallest_eigenpairs
from .errors import CurvSpecError
from .mesh import TriMesh, load_mesh, subdivide_project, validate, write_off
from .surfaces import BumpedSphere, Ellipsoid, Sphere, Torus, from_params, generate
from .verify import VerifyConfig

__all__ = [
    "__version__",
    "OperatorPencil",
    "assemble_pencil",
    "compute_curvature",
    "Spectrum",
    "smallest_eigenpairs",
    "CurvSpecError",
    "TriMesh",
    "load_mesh",
    "subdivide_project",
    "validate",
    "write_off",
    "BumpedSphere",
    "Ellipsoid",
    "Sphere",
    "Torus",
    "from_params",
    "generate",
    "VerifyConfig",
]
