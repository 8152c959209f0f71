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

run makes every check on one curvature field in one written order, each
shared object once: the pencil, the test functions with the identity
checks, whose zero-mean factor R0 serves the d_i alone, the spectrum (on
the first rung of assemble.shift_ladder that factors), and then the
theorem, lemma and corollary reports.  T_r is never solved: the
corollary bounds lambda_2(T_r) by a Ritz value on the pencil's own
eigenvectors, which min-max puts at or below lambda_2, so the bound is
reported and nothing compares it.  T_r's potential dominates W^2 at
every vertex by an inequality of means, so nothing checks that at run
time; the tests do.  The field comes whole from
curvature.compute_curvature, the one gate of H_{r+1} > 0 and H_1 > 0 for
r >= 1, which the caller runs, so a refused mesh stops before any solve.
H_1, c_r and the shape norm of T_r's potential are curvature's n = 2
closed forms (mean_curvature, C_R, shape_norm).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assemble import (OperatorPencil, assemble_pencil, shift_ladder,
                       spectral_scale)
from .curvature import C_R, mean_curvature, shape_norm
from .eigen import Spectrum, ritz_values, smallest_eigenpairs
from .errors import BoundViolationError
from .identities import IdentityReport, identity_report, test_functions

__all__ = [
    "run",
    "Verification",
    "VerifyConfig",
    "TheoremReport",
    "CorollaryReport",
    "LemmaReport",
    "t_potential",
    "sphere_distance",
    "eigenspace_position_alignment",
]

SPHERE_LIKE = "SphereLike"
STRICTLY_NEGATIVE = "StrictlyNegative"
VIOLATION = "Violation"

# the lemma's d_i threshold over ||f_i||_M^2
LEMMA_TOL = 0.05

# margins within this share of max |d_i| of the largest tie with it, so
# round-off cannot pick the witness between equal d_i (the torus's d_0, d_1)
WITNESS_TIE_REL = 1e-9


@dataclass(frozen=True)
class VerifyConfig:
    """The pencil solve's eigenpair count and seed, and the verdict's
    threshold; defaults match the reported experiments."""

    k: int = 5
    seed: int = 0
    tol_sphere_factor: float = 0.05   # tol_sphere over the spectral scale


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


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    """lambda_2_t_upper is T_r's second Ritz value on the pencil's
    eigenvectors, an upper bound on lambda_2(T_r) that lies at or below
    the theorem's lambda_2 by min-max."""

    lambda_2_t_upper: float


@dataclass(frozen=True, eq=False)
class LemmaReport:
    applicable: bool
    witness: int            # -1 when not applicable
    d: np.ndarray
    thresholds: np.ndarray  # LEMMA_TOL * ||f_i||_M^2, per i
    negative_count: int
    tol_negative: float


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


@dataclass(frozen=True, eq=False)
class Verification:
    """What run computed: the pencil, its spectrum and the four report
    blocks."""

    pencil: OperatorPencil
    spectrum: Spectrum
    theorem: TheoremReport
    corollary: CorollaryReport
    lemma: LemmaReport
    identities: IdentityReport


@contextmanager
def _stopwatch(timings, key):
    """Add the wall time of the with-block to timings[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def run(mesh, field, config, timings):
    """Every check on the pencil of the order-r ``field``, in this order,
    each shared object made once; returns the Verification.

    Adds each stage's wall time to ``timings``: the assembly to
    curvature_s, then identities_s, spectrum_s, lemma_s and corollary_s.
    A refusal raises at its stage: the zero-mean factor R0, the pencil
    eigensolve, then the lemma.  identity_report frees R0 before the
    pencil's band is filled, so one band is live at a time.
    """
    with _stopwatch(timings, "curvature_s"):
        pencil = assemble_pencil(mesh, field)
    with _stopwatch(timings, "identities_s"):
        f = test_functions(mesh, field)
        identities = identity_report(mesh, field, pencil, f)
    with _stopwatch(timings, "spectrum_s"):
        spectrum = smallest_eigenpairs(
            pencil.a_matrix(), pencil.mass, k=config.k, seed=config.seed,
            sigma=shift_ladder(pencil), layout=pencil.layout,
            what="pencil eigensolve")
        scale = spectral_scale(pencil.mass, pencil.w)
        tol = config.tol_sphere_factor * scale
        theorem = _theorem(mesh, field, pencil, spectrum, identities.d_sum,
                           scale, tol)
    with _stopwatch(timings, "lemma_s"):
        lemma = _lemma(pencil.mass, spectrum.eigenvalues, f, identities.d, tol)
    with _stopwatch(timings, "corollary_s"):
        corollary = _corollary(pencil, spectrum, t_potential(field))
    return Verification(pencil=pencil, spectrum=spectrum, theorem=theorem,
                        corollary=corollary, lemma=lemma,
                        identities=identities)


def t_potential(field):
    """C_R |A|^(r+2), |A| the shape norm, the T_r potential of the order-r
    ``field``.

    It dominates W^2 at every vertex, by an inequality of means: at
    r = 0, 2|A|^2 - 2 H_1^2 = (kappa_1 - kappa_2)^2 / 2, and at r = 1,
    |A|^2 = (kappa_1^2 + kappa_2^2) / 2 >= kappa_1 kappa_2 = H_2 > 0, which
    the field holds, so 2|A|^3 >= 2 H_2^(3/2) = W^2.  The slack vanishes
    at umbilic points, so on a sphere the computed slack is round-off on
    the scale of W^2; no run-time check judges it.
    """
    return C_R * shape_norm(field.vertex_kappas) ** (field.r + 2)


def _theorem(mesh, field, pencil, spectrum, d_sum, scale, tol):
    """Classify lambda_2 against tol = tol_sphere; the TheoremReport."""
    ev = spectrum.eigenvalues
    lam2 = float(ev[1])
    if abs(lam2) <= tol:
        verdict = SPHERE_LIKE
    elif lam2 < -tol:
        verdict = STRICTLY_NEGATIVE
    else:
        verdict = VIOLATION
    cluster = [j for j in range(1, len(ev)) if abs(ev[j] - lam2) <= tol]
    return TheoremReport(
        lambda_1=float(ev[0]),
        lambda_2=lam2,
        multiplicity=len(cluster),
        d_sum=d_sum,
        verdict=verdict,
        sphere_distance=sphere_distance(mesh, field),
        spectral_scale=scale,
        tol_sphere=tol,
        cluster_position_alignment=eigenspace_position_alignment(
            mesh, pencil, spectrum, cluster
        ),
    )


def _lemma(mass, eigenvalues, f, d, tol_neg):
    """Two-negative-eigenvalue criterion from the canonical test functions.

    Conditions: each W f_i integrates to zero (arranged by projection,
    the raw gap is reported by the identity checks), and some d_i
    exceeds its scale LEMMA_TOL * ||f_i||^2.  The witness is the first
    i whose margin d_i - LEMMA_TOL * ||f_i||^2 ties the largest (within
    WITNESS_TIE_REL * max |d_i|).  When a witness exists the pencil must
    show at least two eigenvalues below -tol_neg; on a sphere no witness
    exists and the report comes back not-applicable with a single
    negative mode.
    """
    norms2 = np.array([float(f[:, i] @ (mass * f[:, i])) for i in range(3)])
    thresholds = LEMMA_TOL * norms2
    margin = d - thresholds
    applicable = bool(margin.max() > 0.0)
    tied = (margin > 0.0) & (
        margin >= margin.max() - WITNESS_TIE_REL * np.abs(d).max())
    witness = int(np.argmax(tied)) if applicable else -1
    negative_count = int(np.sum(eigenvalues < -tol_neg))
    if applicable and negative_count < 2:
        raise BoundViolationError(
            f"d_{witness} = {d[witness]:.6g} exceeds its threshold but "
            f"the pencil shows {negative_count} eigenvalue(s) below "
            f"{-tol_neg:.3g}",
            margin=float(d[witness]),
        )
    return LemmaReport(
        applicable=applicable,
        witness=witness,
        d=d,
        thresholds=thresholds,
        negative_count=negative_count,
        tol_negative=tol_neg,
    )


def _corollary(pencil, spectrum, t_pot):
    """Bound the second eigenvalue of the shape-norm-penalized T_r.

    T_r replaces W_r^2 by c_r * shape_norm^(r+2), which dominates it,
    so the min-max principle forces lambda_2(T_r) <= lambda_2.  On the
    span of the pencil's eigenvectors X, X^T (K - M_T) X lies below
    X^T (K - M_W) X with the same M-Gram, so T_r's second Ritz value
    there lies below the pencil's, which is lambda_2 up to round-off,
    and above lambda_2(T_r).  No T_r solve is needed, and no comparison
    with lambda_2 is reported: on the same eigenvectors it cannot fail.
    """
    t_mat = pencil.k_stiff - sp.diags(pencil.mass * t_pot)
    return CorollaryReport(lambda_2_t_upper=float(
        ritz_values(t_mat, pencil.mass, spectrum.eigenvectors)[1]))
