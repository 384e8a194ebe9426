"""Best weighted-L2 approximation of the constant 1 by constrained sums.

For a dilation set l_1 < ... < l_N the squared distance of 1 to the
constrained span of b_k(t) = {t / l_k} is

    d^2(h) = 1 - 2 g.h + h.G h,        subject to  c.h = 0,

with G, g, c from the Gram system (the weight has total mass 1, so
|1|^2 = 1).  The constraint is eliminated through an orthonormal basis Z of
the hyperplane c-perp (a fixed Householder reflector, so the solve order is
deterministic and results are reproducible bit for bit at one BLAS thread
count; the BLAS products, ``eigvalsh`` and the solve may round differently
under another, within ``certified_error``).  The reduced Gram
R = Z^T G Z must be positive definite: its eigenvalues give
``gram_condition`` = lambda_max / lambda_min, one LU solve of R y = Z^T g
gives h = Z y, and an R with lambda_min <= 0 or a non-finite eigenvalue
raises SingularSystem.

``certified_error`` bounds the error of d^2(h) at the computed h by
|h|^T (E + 4 n u |G|) |h| from ``GramSystem.quadratic_form`` (Gram entry
bounds E, roundoff u = 2^-53) plus an ad hoc 1e-13 (1 + |h|_1) for g and
the linear term; nothing bounds how far d^2(h) lies above the true d_N^2.

``sweep`` is the one build-solve-check path: it builds the Gram system of
an ascending dilation list once at the largest N, solves every requested
prefix, and refuses when a certified error comes out above target;
``best_approximation`` is its single-N case.  Each result
carries the distance and the moment sum Theta.log(l) of the optimum, whose
gap to 1 is the necessary-condition tracker: since the moment of 1 is 1 and
the moment functional is bounded by the distance (Cauchy-Schwarz against
the unit mass of the weight), |sum Theta_k ln l_k - 1| <= d_N always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionUnreachable, SingularSystem
from .gram import GramSystem, gram_system
from .moments import theta_log_sum

__all__ = [
    "ApproximationResult",
    "best_approximation",
    "best_approximation_from_gram",
    "necessary_condition_gap",
    "sweep",
]

@dataclass(frozen=True)
class ApproximationResult:
    """Optimal coefficients and diagnostics of one constrained solve."""

    dilations: tuple[float, ...]
    h_star: np.ndarray
    distance: float
    theta_log_sum: float
    constraint_residual: float
    gram_condition: float
    certified_error: float
    kkt_residual: float

    def to_dict(self) -> dict:
        return {
            "dilations": list(self.dilations),
            "h_star": self.h_star.tolist(),
            "distance": self.distance,
            "theta_log_sum": self.theta_log_sum,
            "gap": necessary_condition_gap(self),
            "constraint_residual": self.constraint_residual,
            "gram_condition": self.gram_condition,
            "certified_error": self.certified_error,
            "kkt_residual": self.kkt_residual,
        }


def _nullspace_basis(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane c.h = 0 via one Householder step."""
    v = c / np.linalg.norm(c)
    w = v.copy()
    w[0] += math.copysign(1.0, v[0] if v[0] != 0.0 else 1.0)
    H = np.outer(w, w)  # the reflector I - 2 w w^T / w.w, built in place
    H *= -2.0
    H /= w @ w
    H.flat[:: c.size + 1] += 1.0
    return H[:, 1:]


def best_approximation_from_gram(gram: GramSystem) -> ApproximationResult:
    """Solve the constrained least-squares problem on a prebuilt Gram system."""
    G = gram.matrix
    g = gram.moment_vector
    c = gram.constraint_vector
    larr = np.asarray(gram.dilations)
    n = gram.size
    if n == 1:
        # the constraint h/l = 0 forces the zero function; d = |1| = 1
        h = np.zeros(1)
        return ApproximationResult(
            dilations=gram.dilations,
            h_star=h,
            distance=1.0,
            theta_log_sum=0.0,
            constraint_residual=0.0,
            gram_condition=1.0,
            certified_error=0.0,
            kkt_residual=0.0,
        )
    Z = _nullspace_basis(c)
    R = Z.T @ G @ Z
    try:
        eigvals = np.linalg.eigvalsh(R)
        if not (np.all(np.isfinite(eigvals)) and eigvals[0] > 0.0):
            raise SingularSystem("reduced Gram is not positive definite")
        y = np.linalg.solve(R, Z.T @ g)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"reduced solve failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SingularSystem("reduced solve produced non-finite coefficients")
    h = Z @ y
    form, form_error = gram.quadratic_form(h)
    d_sq = 1.0 - 2.0 * float(g @ h) + form
    distance = math.sqrt(min(max(d_sq, 0.0), 1.0))
    # stationarity: the residual functional must be proportional to c,
    # i.e. (g - G h)_k l_k constant over k
    kkt = (g - G @ h) * larr
    kkt_residual = float(np.max(np.abs(kkt - np.mean(kkt))))
    certified = form_error + 1e-13 * (1.0 + float(np.sum(np.abs(h))))
    return ApproximationResult(
        dilations=gram.dilations,
        h_star=h,
        distance=distance,
        theta_log_sum=theta_log_sum(h, larr),
        constraint_residual=abs(float(c @ h)),
        gram_condition=float(eigvals[-1] / eigvals[0]),
        certified_error=certified,
        kkt_residual=kkt_residual,
    )


def sweep(dilations, N_values, target_error: float = 1e-6) -> list[ApproximationResult]:
    """Best approximations on the leading N of an ascending dilation list,
    one result per N in ``N_values``, sorted by N.

    The Gram system is assembled once at the largest N and sliced, so all
    results share identical entries for common pairs and the distances are
    nonincreasing in N up to solver roundoff.  ``target_error`` caps each
    certified error of the squared distance: Gram entries are requested once
    at target_error / (8 N_max), clipped to [1e-12, 1e-6], and
    PrecisionUnreachable names the first N above target.  The entry target
    only governs incommensurate pairs: commensurate entries are closed-form
    and carry a roundoff bound alone.  An incommensurate entry's continuity
    part is at most half its target, so above the 1e-12 clip it adds at
    most target |h|_1^2 / (16 N_max) to a certified error, and tighter
    entries could rescue a result only where |h|_1^2 > 16 N_max.
    """
    if not target_error > 0.0:
        raise DomainError("target_error must be positive")
    dils = [float(l) for l in dilations]
    if not dils:
        raise DomainError("at least one dilation is required")
    ns = sorted(set(int(n) for n in N_values))
    if not ns or ns[0] < 1:
        raise DomainError("N values must be positive integers")
    if ns[-1] > len(dils):
        raise DomainError(f"N = {ns[-1]} exceeds the {len(dils)} dilations given")
    full = gram_system(dils[: ns[-1]], min(1e-6, max(1e-12, target_error / (8.0 * ns[-1]))))
    results = [best_approximation_from_gram(full.head(n)) for n in ns]
    above = [r for r in results if r.certified_error > target_error]
    if above:
        raise PrecisionUnreachable(
            f"certified error {above[0].certified_error:.3e} exceeds target {target_error:.3e} "
            f"at N = {len(above[0].dilations)}"
        )
    return results


def best_approximation(dilations, target_error: float = 1e-6) -> ApproximationResult:
    """Distance from 1 to the constrained span of {t/l_k} over the given set:
    ``sweep`` at N = len(dilations), with its target.  A single
    dilation degenerates to the zero function with distance exactly 1."""
    dils = list(dilations)
    return sweep(dils, [len(dils)], target_error)[0]


def necessary_condition_gap(result: ApproximationResult) -> float:
    """|sum Theta_k ln l_k - 1|; bounded by the distance (Cauchy-Schwarz)."""
    return abs(result.theta_log_sum - 1.0)
