"""Analytic test surfaces with exact normals, curvatures, and projections.

Each surface is a frozen descriptor exposing a smooth implicit function g
(negative inside, so the gradient points outward), its derivatives, and a
closed-form projection.  Principal curvatures come from the tangential
Hessian of g divided by |grad g|, which under the outward-gradient sign
convention gives +1/R on a sphere of radius R.

All point-valued methods are vectorized over a leading batch axis.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ProjectionError
from .mesh import TriMesh, subdivide_project

__all__ = [
    "AnalyticSurface",
    "Sphere",
    "Ellipsoid",
    "BumpedSphere",
    "Torus",
    "from_params",
    "generate",
    "icosahedron",
]


def _batch(points):
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    return np.atleast_2d(p), single


def _tangent_basis(n):
    # per-row unit vectors orthogonal to n, chosen from the least-aligned axis
    helper = np.zeros_like(n)
    helper[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    t1 = np.cross(n, helper)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    return t1, t2


def _sym2_eigvals(a, b, d):
    mean = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return mean - disc, mean + disc


class AnalyticSurface:
    """Shared implicit-surface machinery; subclasses fill in g and friends."""

    def implicit(self, points):
        raise NotImplementedError

    def gradient(self, points):
        raise NotImplementedError

    def hessian(self, points):
        raise NotImplementedError

    def project(self, points):
        raise NotImplementedError

    @property
    def characteristic_size(self):
        raise NotImplementedError

    def describe(self):
        d = {"kind": type(self).__name__.lower()}
        d.update(asdict(self))
        return d

    def normal(self, points):
        p, single = _batch(points)
        g = self.gradient(p)
        n = g / np.linalg.norm(g, axis=1)[:, None]
        return n[0] if single else n

    def surface_distance(self, points):
        """First-order distance estimate |g| / |grad g|."""
        p, single = _batch(points)
        d = np.abs(self.implicit(p)) / np.linalg.norm(self.gradient(p), axis=1)
        return float(d[0]) if single else d

    def principal_curvatures(self, points):
        """Ascending (kappa_1, kappa_2) at surface points, outward convention."""
        p, single = _batch(points)
        g = self.gradient(p)
        gn = np.linalg.norm(g, axis=1)
        n = g / gn[:, None]
        hess = self.hessian(p)
        t1, t2 = _tangent_basis(n)
        b11 = np.einsum("ni,nij,nj->n", t1, hess, t1) / gn
        b12 = np.einsum("ni,nij,nj->n", t1, hess, t2) / gn
        b22 = np.einsum("ni,nij,nj->n", t2, hess, t2) / gn
        k1, k2 = _sym2_eigvals(b11, b12, b22)
        out = np.stack([k1, k2], axis=-1)
        return out[0] if single else out


@dataclass(frozen=True)
class Sphere(AnalyticSurface):
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def implicit(self, points):
        p, single = _batch(points)
        g = np.einsum("ij,ij->i", p, p) - self.radius**2
        return float(g[0]) if single else g

    def gradient(self, points):
        p, single = _batch(points)
        return 2.0 * (p[0] if single else p)

    def hessian(self, points):
        p, single = _batch(points)
        h = np.broadcast_to(2.0 * np.eye(3), (len(p), 3, 3)).copy()
        return h[0] if single else h

    def project(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        if np.any(r == 0.0):
            raise ProjectionError("cannot project the center of the sphere")
        q = self.radius * p / r[:, None]
        return q[0] if single else q

    @property
    def characteristic_size(self):
        return self.radius


@dataclass(frozen=True)
class Ellipsoid(AnalyticSurface):
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

    def gradient(self, points):
        p, single = _batch(points)
        g = 2.0 * p / self._axes2
        return g[0] if single else g

    def hessian(self, points):
        p, single = _batch(points)
        h = np.broadcast_to(np.diag(2.0 / self._axes2), (len(p), 3, 3)).copy()
        return h[0] if single else h

    def project(self, points):
        # radial (star-shaped) projection from the origin, exact on rays
        p, single = _batch(points)
        s = np.einsum("ij,ij->i", p, p / self._axes2)
        if np.any(s == 0.0):
            raise ProjectionError("cannot project the center of the ellipsoid")
        q = p / np.sqrt(s)[:, None]
        return q[0] if single else q

    @property
    def characteristic_size(self):
        return max(self.a, self.b, self.c)


@dataclass(frozen=True)
class BumpedSphere(AnalyticSurface):
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

    def _poly(self, p):
        """Re[w^m] with its xy gradient and Hessian blocks, w = x + iy."""
        m = self.frequency
        w = p[:, 0] + 1j * p[:, 1]
        pm = (w**m).real
        wm1 = w ** (m - 1)
        grad = np.zeros_like(p)
        grad[:, 0] = m * wm1.real
        grad[:, 1] = -m * wm1.imag
        wm2 = w ** (m - 2)
        hxx = m * (m - 1) * wm2.real
        hxy = -m * (m - 1) * wm2.imag
        hess = np.zeros((len(p), 3, 3))
        hess[:, 0, 0] = hxx
        hess[:, 0, 1] = hess[:, 1, 0] = hxy
        hess[:, 1, 1] = -hxx
        return pm, grad, hess

    def implicit(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        pm, _, _ = self._poly(p)
        g = r - self.radius * (1.0 + self.amplitude * pm / r**self.frequency)
        return float(g[0]) if single else g

    def gradient(self, points):
        p, single = _batch(points)
        m = self.frequency
        r = np.linalg.norm(p, axis=1)
        pm, gp, _ = self._poly(p)
        u = p / r[:, None]
        grad_q = gp / r[:, None] ** m - m * (pm / r ** (m + 2))[:, None] * p
        g = u - self.radius * self.amplitude * grad_q
        return g[0] if single else g

    def hessian(self, points):
        p, single = _batch(points)
        m = self.frequency
        r = np.linalg.norm(p, axis=1)
        pm, gp, hp = self._poly(p)
        u = p / r[:, None]
        eye = np.eye(3)
        uut = u[:, :, None] * u[:, None, :]
        hess_r = (eye[None, :, :] - uut) / r[:, None, None]
        ppt = p[:, :, None] * p[:, None, :]
        gpt = gp[:, :, None] * p[:, None, :] + p[:, :, None] * gp[:, None, :]
        hess_q = (
            hp / r[:, None, None] ** m
            - m * gpt / r[:, None, None] ** (m + 2)
            - m * (pm / r ** (m + 2))[:, None, None] * eye[None, :, :]
            + m * (m + 2) * (pm / r ** (m + 4))[:, None, None] * ppt
        )
        h = hess_r - self.radius * self.amplitude * hess_q
        return h[0] if single else h

    def project(self, points):
        p, single = _batch(points)
        r = np.linalg.norm(p, axis=1)
        if np.any(r == 0.0):
            raise ProjectionError("cannot project the center of the bumped sphere")
        u = p / r[:, None]
        s = ((u[:, 0] + 1j * u[:, 1]) ** self.frequency).real
        q = self.radius * (1.0 + self.amplitude * s)[:, None] * u
        return q[0] if single else q

    @property
    def characteristic_size(self):
        return self.radius * (1.0 + abs(self.amplitude))


@dataclass(frozen=True)
class Torus(AnalyticSurface):
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

    def gradient(self, points):
        p, single = _batch(points)
        rho = np.hypot(p[:, 0], p[:, 1])
        q = rho - self.major_radius
        g = np.empty_like(p)
        g[:, 0] = 2.0 * q * p[:, 0] / rho
        g[:, 1] = 2.0 * q * p[:, 1] / rho
        g[:, 2] = 2.0 * p[:, 2]
        return g[0] if single else g

    def hessian(self, points):
        p, single = _batch(points)
        x, y = p[:, 0], p[:, 1]
        rho2 = x * x + y * y
        rho = np.sqrt(rho2)
        q = rho - self.major_radius
        h = np.zeros((len(p), 3, 3))
        h[:, 0, 0] = 2.0 * (x * x / rho2 + q / rho - q * x * x / (rho * rho2))
        h[:, 1, 1] = 2.0 * (y * y / rho2 + q / rho - q * y * y / (rho * rho2))
        h[:, 0, 1] = h[:, 1, 0] = 2.0 * (x * y / rho2 - q * x * y / (rho * rho2))
        h[:, 2, 2] = 2.0
        return h[0] if single else h

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

    @property
    def characteristic_size(self):
        return self.major_radius + self.minor_radius


_KINDS = {
    "sphere": Sphere,
    "ellipsoid": Ellipsoid,
    "bumped": BumpedSphere,
    "bumpedsphere": BumpedSphere,
    "torus": Torus,
}


def from_params(kind, **params):
    """Build a surface descriptor from a CLI-style kind string and parameters."""
    try:
        cls = _KINDS[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown surface kind {kind!r}") from None
    return cls(**params)


def icosahedron():
    """Regular icosahedron with unit circumradius, outward orientation."""
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
    return TriMesh(verts, faces)


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
        return _torus_grid(surface, nu or 16 * scale, nv or 8 * scale)
    base = icosahedron()
    m = TriMesh(surface.project(base.vertices), base.faces)
    for _ in range(subdiv):
        m = subdivide_project(m, target=surface)
    return m
