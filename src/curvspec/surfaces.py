"""Analytic surfaces that place the vertices of generated meshes.

Each surface is a frozen descriptor of its parameters with a closed-form
projection onto the surface, which generate() applies to every new vertex,
and the smooth implicit function g that defines it (negative inside,
positive outside).  The package reads curvature from meshes only; g is
there so that tests can derive exact curvatures of the surface from it.

All point-valued methods are vectorized over a leading batch axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError
from .mesh import TriMesh, refine

__all__ = [
    "Sphere",
    "Ellipsoid",
    "BumpedSphere",
    "Torus",
    "from_params",
    "generate",
    "surface_class",
]


def _batch(points):
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    return np.atleast_2d(p), single


@dataclass(frozen=True)
class Sphere:
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def implicit(self, points):
        p, single = _batch(points)
        g = np.einsum("ij,ij->i", p, p) - self.radius**2
        return float(g[0]) if single else g

    def project(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        if np.any(r == 0.0):
            raise ProjectionError("cannot project the center of the sphere")
        q = self.radius * p / r[:, None]
        return q[0] if single else q


@dataclass(frozen=True)
class Ellipsoid:
    a: float = 2.0
    b: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise ValueError("semi-axes must be positive")

    @property
    def _axes2(self):
        return np.array([self.a, self.b, self.c]) ** 2

    def implicit(self, points):
        p, single = _batch(points)
        g = np.einsum("ij,ij->i", p, p / self._axes2) - 1.0
        return float(g[0]) if single else g

    def project(self, points):
        # radial (star-shaped) projection from the origin, exact on rays
        p, single = _batch(points)
        s = np.einsum("ij,ij->i", p, p / self._axes2)
        if np.any(s == 0.0):
            raise ProjectionError("cannot project the center of the ellipsoid")
        q = p / np.sqrt(s)[:, None]
        return q[0] if single else q


@dataclass(frozen=True)
class BumpedSphere:
    """Radial graph rho(u) = R * (1 + amplitude * s(u)) over the unit sphere.

    The bump s is the degree-m sectoral harmonic Re[(x+iy)^m] / |p|^m, which
    is smooth away from the origin.  Small amplitudes keep the surface
    strictly convex; for radius 1 and frequency 3, amplitudes up to about
    0.05 keep H_2 > 0 everywhere (checked numerically in the test suite).
    """

    radius: float = 1.0
    amplitude: float = 0.04
    frequency: int = 3

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if int(self.frequency) != self.frequency or self.frequency < 2:
            raise ValueError("frequency must be an integer >= 2")

    def implicit(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        pm = ((p[:, 0] + 1j * p[:, 1]) ** self.frequency).real
        g = r - self.radius * (1.0 + self.amplitude * pm / r**self.frequency)
        return float(g[0]) if single else g

    def project(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        if np.any(r == 0.0):
            raise ProjectionError("cannot project the center of the bumped sphere")
        u = p / r[:, None]
        s = ((u[:, 0] + 1j * u[:, 1]) ** self.frequency).real
        q = self.radius * (1.0 + self.amplitude * s)[:, None] * u
        return q[0] if single else q


@dataclass(frozen=True)
class Torus:
    major_radius: float = 2.0
    minor_radius: float = 0.5

    def __post_init__(self):
        if self.minor_radius <= 0 or self.major_radius <= self.minor_radius:
            raise ValueError("need major_radius > minor_radius > 0")

    def implicit(self, points):
        p, single = _batch(points)
        rho = np.hypot(p[:, 0], p[:, 1])
        g = (rho - self.major_radius) ** 2 + p[:, 2] ** 2 - self.minor_radius**2
        return float(g[0]) if single else g

    def project(self, points):
        p, single = _batch(points)
        rho = np.hypot(p[:, 0], p[:, 1])
        if np.any(rho == 0.0):
            raise ProjectionError("cannot project points on the torus axis")
        center = np.zeros_like(p)
        center[:, 0] = self.major_radius * p[:, 0] / rho
        center[:, 1] = self.major_radius * p[:, 1] / rho
        d = p - center
        dn = np.linalg.norm(d, axis=1)
        if np.any(dn == 0.0):
            raise ProjectionError("cannot project points on the core circle")
        q = center + self.minor_radius * d / dn[:, None]
        return q[0] if single else q


_KINDS = {
    "sphere": Sphere,
    "ellipsoid": Ellipsoid,
    "bumped": BumpedSphere,
    "torus": Torus,
}


def surface_class(kind):
    """The descriptor class of a CLI-style kind string; ValueError if none."""
    try:
        return _KINDS[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown surface kind {kind!r}") from None


def from_params(kind, **params):
    """Build a surface descriptor from a CLI-style kind string and parameters."""
    return surface_class(kind)(**params)


def _icosahedron_arrays():
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _torus_grid(surface, nu, nv):
    if nu < 3 or nv < 3:
        raise ValueError("torus grid needs nu >= 3 and nv >= 3")
    R, r = surface.major_radius, surface.minor_radius
    u = 2.0 * np.pi * np.arange(nu) / nu
    # half-cell offset in the tube angle keeps grid vertices off the two
    # parabolic circles, where the exact smaller curvature is identically 0
    v = 2.0 * np.pi * (np.arange(nv) + 0.5) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = R + r * np.cos(vv)
    pts = np.stack([ring * np.cos(uu), ring * np.sin(uu), r * np.sin(vv)], axis=-1)
    pts = pts.reshape(-1, 3)
    idx = np.arange(nu * nv).reshape(nu, nv)
    a = idx
    b = np.roll(idx, -1, axis=0)
    c = np.roll(np.roll(idx, -1, axis=0), -1, axis=1)
    d = np.roll(idx, -1, axis=1)
    tri1 = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1)
    tri2 = np.stack([a.ravel(), c.ravel(), d.ravel()], axis=1)
    return TriMesh(pts, np.vstack([tri1, tri2]))


def generate(surface, subdiv=0, nu=None, nv=None):
    """Sample an analytic surface as a closed oriented TriMesh.

    Sphere-topology surfaces start from the icosahedron (vertices projected
    onto the surface) and refine with projected midpoint subdivision, giving
    10 * 4^subdiv + 2 vertices.  The torus uses a structured periodic grid,
    nu x nv = (16 x 8) * 2^subdiv unless overridden.
    """
    if subdiv < 0:
        raise ValueError("subdiv must be >= 0")
    if isinstance(surface, Torus):
        scale = 2**subdiv
        return _torus_grid(surface, 16 * scale if nu is None else nu,
                           8 * scale if nv is None else nv)
    # refine the arrays and build one TriMesh, for the finest level only,
    # so a generated mesh passes the TriMesh gate once
    v, f = _icosahedron_arrays()
    v = surface.project(v)
    for _ in range(subdiv):
        v, f = refine(v, f, target=surface)
    return TriMesh(v, f)
