"""Orchestration: classify the second eigenvalue of the penalized operator.

The headline statement being exercised: on a closed strictly convex
surface the penalized operator has lambda_2 <= 0, with equality exactly on
round spheres.  Discretely a sphere never lands on zero, so the
classification is threshold based: |lambda_2| within tol_sphere reads
SphereLike, below -tol_sphere reads StrictlyNegative, and above tol_sphere
reads Violation.  Violation is a tripwire, not an outcome: it never fires
on valid convex input unless the discretization or the implementation is
broken.  Thresholds travel inside every report; nothing is judged against
an undisclosed constant.

All checks read one Analysis per (mesh, r, config), which computes each
shared object (curvature field, pencil, spectrum, the test functions and
the d quantities with their chain residual) at most once, on first use,
and nothing that no check reads.  The spectrum takes the first target of
assemble.shift_ladder that factors; the d quantities take one zero-mean
factor.  T_r is never solved: the corollary bounds lambda_2(T_r) by a
Ritz value on the pencil's own eigenvectors.  The curvature field comes
whole from curvature.compute_curvature, the one gate of H_{r+1} > 0 and
H_1 > 0 for r >= 1, so a refused mesh stops there, before any solve.
H_1, c_r and the shape norm of T_r's potential are curvature's n = 2
closed forms (mean_curvature, C_R, shape_norm).
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assemble import assemble_pencil, shift_ladder, spectral_scale
from .curvature import C_R, compute_curvature, mean_curvature, shape_norm
from .eigen import ritz_values, smallest_eigenpairs
from .errors import BoundViolationError
from .identities import (IdentityReport, d_quantities, lr_position_residual,
                         minkowski_residual, test_functions,
                         zero_mean_resolvent)

__all__ = [
    "Analysis",
    "VerifyConfig",
    "TheoremReport",
    "CorollaryReport",
    "LemmaReport",
    "sphere_distance",
    "eigenspace_position_alignment",
]

SPHERE_LIKE = "SphereLike"
STRICTLY_NEGATIVE = "StrictlyNegative"
VIOLATION = "Violation"

# documented ceiling for sphere_distance on meshes classified SphereLike;
# round spheres sit at round-off, gentle bumps stay well under it
SPHERE_DISTANCE_CEILING = 0.05

# the bound on lambda_2(T_r) may exceed lambda_2 of the pencil by this much
# and still satisfy the corollary's comparison
COROLLARY_TOL = 1e-8

# least c_r |A|^(r+2) - W^2 accepted at a vertex: below it the T_r
# potential does not dominate and t_potential refuses
DOMINATION_FLOOR = -1e-10


@dataclass(frozen=True)
class VerifyConfig:
    """Solver and threshold knobs; defaults match the reported experiments."""

    k: int = 5
    seed: int = 0
    eig_tol: float = 1e-10
    tol_sphere: float = None          # absolute override; None -> factor*scale
    tol_sphere_factor: float = 0.05
    tol_identity: float = 0.05

    def resolve_tol_sphere(self, spectral_scale):
        if self.tol_sphere is not None:
            return float(self.tol_sphere)
        return self.tol_sphere_factor * spectral_scale


# Each report's fields are the keys of its block under "verdicts" in a
# CLI report, thresholds included.

@dataclass(frozen=True, eq=False)
class TheoremReport:
    lambda_1: float
    lambda_2: float
    multiplicity: int
    d_sum: float
    verdict: str
    sphere_distance: float
    spectral_scale: float
    tol_sphere: float
    cluster_position_alignment: float
    sphere_distance_ceiling: float = SPHERE_DISTANCE_CEILING


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    """lambda_2_t_upper is T_r's second Ritz value on the pencil's
    eigenvectors, an upper bound on lambda_2(T_r); comparison_ok holds
    when it lies below lambda_2_pencil + tol."""

    lambda_2_t_upper: float
    lambda_2_pencil: float
    domination_min_slack: float
    comparison_ok: bool
    tol: float
    domination_floor: float = DOMINATION_FLOOR


@dataclass(frozen=True, eq=False)
class LemmaReport:
    applicable: bool
    witness: int            # -1 when not applicable
    d: np.ndarray
    thresholds: np.ndarray  # tol_identity * ||f_i||_M^2, per i
    negative_count: int
    tol_negative: float


def _stage(name):
    """Charge a method's wall time, less nested stages, to timings[name]."""
    def decorate(fn):
        @functools.wraps(fn)
        def timed(self, *args, **kwargs):
            outer, self._nested = self._nested, 0.0
            t0 = time.perf_counter()
            try:
                return fn(self, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                own = dt - self._nested
                self.timings[name] = self.timings.get(name, 0.0) + own
                self._nested = outer + dt
        return timed
    return decorate


def sphere_distance(mesh, field):
    """Umbilicity deficit plus H_1 variance, area-averaged, scale-free.

    Zero exactly on a round sphere sampled exactly; grows with either the
    pointwise spread kappa_1 - kappa_2 or spatial variation of the mean
    curvature.  Normalized by the squared mean of H_1 so geometric scaling
    of the surface cancels.
    """
    a = mesh.vertex_areas
    area = float(a.sum())
    k1 = field.vertex_kappas[:, 0]
    k2 = field.vertex_kappas[:, 1]
    h1 = mean_curvature(field.vertex_kappas, 1)
    h1_bar = float(a @ h1) / area
    spread = float(a @ (k1 - k2) ** 2) / area
    var = float(a @ (h1 - h1_bar) ** 2) / area
    return (spread + var) / max(h1_bar**2, 1e-300)


def eigenspace_position_alignment(mesh, pencil, spectrum, cluster):
    """Mean squared M-projection of cluster eigenvectors onto positions.

    ``cluster`` is an index range into the spectrum.  The reference space
    is span of the three mean-removed coordinate functions; on a sphere
    the lambda_2 cluster should live there almost entirely.
    """
    a = pencil.mass
    basis = mesh.vertices - (a[:, None] * mesh.vertices).sum(0) / a.sum()
    gram = basis.T @ (a[:, None] * basis)
    chol = np.linalg.cholesky(gram)
    ortho = np.linalg.solve(chol, basis.T).T   # M-orthonormal columns
    u = spectrum.eigenvectors[:, list(cluster)]
    u = u / np.sqrt(np.sum(a[:, None] * u * u, axis=0))
    coeffs = ortho.T @ (a[:, None] * u)
    return float(np.sum(coeffs**2)) / max(len(cluster), 1)


class Analysis:
    """The objects every check shares, each computed once, on first use.

    ``timings`` maps a stage (curvature_s, spectrum_s, corollary_s,
    lemma_s, identities_s) to the wall time spent in it so far.
    """

    def __init__(self, mesh, r, config=None):
        self.mesh = mesh
        self.r = r
        self.config = VerifyConfig() if config is None else config
        self.timings = {}
        self._nested = 0.0

    @functools.cached_property
    @_stage("curvature_s")
    def field(self):
        return compute_curvature(self.mesh, r=self.r)

    @functools.cached_property
    @_stage("curvature_s")
    def pencil(self):
        return assemble_pencil(self.mesh, self.field)

    @functools.cached_property
    @_stage("spectrum_s")
    def spectrum(self):
        pencil, config = self.pencil, self.config
        return smallest_eigenpairs(
            pencil.a_matrix(), pencil.mass, k=config.k, tol=config.eig_tol,
            seed=config.seed, sigma=shift_ladder(pencil), layout=pencil.layout,
            what="pencil eigensolve")

    @functools.cached_property
    @_stage("corollary_s")
    def t_potential(self):
        """C_R |A|^(r+2), |A| the shape norm, the T_r potential; raises
        unless it dominates W^2.

        A domination failure on a convex mesh means the norm convention is
        wrong, which must not produce a silently weaker operator.
        """
        pot2 = C_R * shape_norm(self.field.vertex_kappas) ** (self.r + 2)
        slack = pot2 - self.pencil.w**2
        if slack.min() < DOMINATION_FLOOR:
            v = int(np.argmin(slack))
            raise BoundViolationError(
                f"potential domination fails at vertex {v}: "
                f"c_r*|A|^(r+2) - W^2 = {slack[v]:.3e}",
                margin=float(slack[v]),
            )
        return pot2

    @functools.cached_property
    def f(self):
        return test_functions(self.mesh, self.field)

    @functools.cached_property
    @_stage("identities_s")
    def dq(self):
        """The d quantities on one zero-mean factor R0, made here and
        dropped on return, before any other band."""
        return d_quantities(self.pencil, self.f,
                            zero_mean_resolvent(self.pencil))

    @_stage("spectrum_s")
    def theorem(self):
        """Classify lambda_2; returns the filled TheoremReport."""
        ev = self.spectrum.eigenvalues
        scale = spectral_scale(self.pencil)
        tol = self.config.resolve_tol_sphere(scale)
        lam2 = float(ev[1])
        if abs(lam2) <= tol:
            verdict = SPHERE_LIKE
        elif lam2 < -tol:
            verdict = STRICTLY_NEGATIVE
        else:
            verdict = VIOLATION
        cluster = [j for j in range(1, len(ev)) if abs(ev[j] - lam2) <= tol]
        self.t_potential   # the T_r domination gate runs before any d solve
        return TheoremReport(
            lambda_1=float(ev[0]),
            lambda_2=lam2,
            multiplicity=len(cluster),
            d_sum=self.dq.d_sum,
            verdict=verdict,
            sphere_distance=sphere_distance(self.mesh, self.field),
            spectral_scale=scale,
            tol_sphere=tol,
            cluster_position_alignment=eigenspace_position_alignment(
                self.mesh, self.pencil, self.spectrum, cluster
            ),
        )

    @_stage("corollary_s")
    def corollary(self):
        """Bound the second eigenvalue of the shape-norm-penalized T_r.

        T_r replaces W_r^2 by c_r * shape_norm^(r+2), which dominates it,
        so the min-max principle forces lambda_2(T_r) <= lambda_2.  On the
        span of the pencil's eigenvectors X, X^T (K - M_T) X lies below
        X^T (K - M_W) X with the same M-Gram, so T_r's second Ritz value
        there lies below the pencil's, which is lambda_2 up to round-off,
        and above lambda_2(T_r).  No T_r solve is needed.
        """
        pencil = self.pencil
        t_mat = pencil.k_stiff - sp.diags(pencil.mass * self.t_potential)
        lam2_t = float(ritz_values(t_mat, pencil.mass,
                                   self.spectrum.eigenvectors)[1])
        lam2 = float(self.spectrum.eigenvalues[1])
        tol = COROLLARY_TOL
        return CorollaryReport(
            lambda_2_t_upper=lam2_t,
            lambda_2_pencil=lam2,
            domination_min_slack=float((self.t_potential - pencil.w**2).min()),
            comparison_ok=bool(lam2_t <= lam2 + tol),
            tol=tol,
        )

    @_stage("lemma_s")
    def lemma(self):
        """Two-negative-eigenvalue criterion from the canonical test functions.

        Conditions: each W f_i integrates to zero (arranged by projection,
        the raw gap is reported by the identity checks), and some d_i
        exceeds its scale tol_identity * ||f_i||^2.  When a witness exists
        the pencil must show at least two negative eigenvalues; on a sphere
        no witness exists and the report comes back not-applicable with a
        single negative mode.
        """
        f, dq, mass = self.f, self.dq, self.pencil.mass
        norms2 = np.array([float(f[:, i] @ (mass * f[:, i])) for i in range(3)])
        thresholds = self.config.tol_identity * norms2
        over = dq.d > thresholds
        applicable = bool(over.any())
        witness = int(np.argmax(dq.d - thresholds)) if applicable else -1
        tol_neg = self.config.resolve_tol_sphere(spectral_scale(self.pencil))
        negative_count = int(np.sum(self.spectrum.eigenvalues < -tol_neg))
        if applicable and negative_count < 2:
            raise BoundViolationError(
                f"d_{witness} = {dq.d[witness]:.6g} exceeds its threshold but "
                f"the pencil shows {negative_count} eigenvalue(s) below "
                f"{-tol_neg:.3g}",
                margin=float(dq.d[witness]),
            )
        return LemmaReport(
            applicable=applicable,
            witness=witness,
            d=dq.d,
            thresholds=thresholds,
            negative_count=negative_count,
            tol_negative=tol_neg,
        )

    @_stage("identities_s")
    def identities(self):
        """Every identity check once: the d quantities and their chain
        residual come from the one d pass."""
        mesh, field, pencil, dq = self.mesh, self.field, self.pencil, self.dq
        return IdentityReport(
            lr_position_residual=lr_position_residual(mesh, field, pencil),
            minkowski_residual=minkowski_residual(mesh, field),
            orthogonality_raw=dq.orthogonality_raw,
            d=dq.d,
            d_sum=dq.d_sum,
            chain_residual=dq.chain_residual,
        )

