"""Integration against the weight dt/t^2 on (1, inf).

The weight is a probability measure (its total mass is 1).  The first
moment of a single dilated fractional part has the closed form

    int_1^inf {t/l} dt/t^2 = (lam + ln l) / l,      lam = 1 - gamma,

where gamma is the Euler-Mascheroni constant; ``dilated_frac_moment``
implements the closed form and ``dilated_frac_moment_quad`` re-derives the
value by summing the exact integral of each linear piece between
consecutive lattice points and correcting the truncated tail with the mean
value 1/2 of the fractional part:

    int_T^inf {t/l} dt/t^2 = 1/(2T) + R,   |R| <= l / (4 T^2),

(the remainder bound follows by parts from |int_0^u ({v} - 1/2) dv| <= 1/8).
The two routes share no constants, so their agreement is a genuine
cross-check of the closed form.

For a constrained combination the moment collapses to
sum_k (h_k / l_k) ln l_k because the lam-part telescopes against the
constraint; ``moment_report`` returns both routes side by side.

The lattice kernel.  ``_lattice_windows`` walks the union lattice {m l_k}
of the dilations in windows of about ``_WINDOW`` segments, which bounds a
walk's memory however far it reaches, and ``_segment_integrals`` integrates
1, t - t1 and (t - t1)^2 against dt/t^2 exactly over each segment.  The
weighted norms below are built on these two functions; Gram entries come
from a closed form and do not walk the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionUnreachable
from .fracsum import DilatedFracSum

__all__ = [
    "euler_gamma",
    "moment_constant",
    "partial_moment_constant",
    "dilated_frac_moment",
    "dilated_frac_moment_quad",
    "MomentReport",
    "moment_report",
    "theta_log_sum",
    "ConstantsReport",
    "constants_report",
    "NormReport",
    "weighted_norm_report",
]

# Bernoulli-number coefficients B_{2k} / (2k) for k = 1..4 of the
# harmonic-sum correction; the truncation error of the series below is
# bounded by the first omitted term |B_10 / 10| n^{-10}.
_EM_COEFFS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0)
_EM_TAIL_CONST = 5.0 / 66.0 / 10.0

#: elements per numpy pass, the one limit on every array in this module:
#: lattice segments per window, periods per quadrature pass and terms per
#: harmonic-sum pass.  The Gauss-Legendre pass holds 16 nodes per segment,
#: about 60 MB at this size.  Measured on a 2-core Xeon with the sqrt(2)
#: bstar of ``approx`` at 4M segments, a norm takes 0.15-0.18 s and 39 MB
#: peak against 0.21-0.23 s and 69 MB at 500,000; a sloped p = 1.5 norm
#: at 1M segments takes 0.74 s and 88 MB against 1.14 s and 314 MB.
_WINDOW = 100_000

#: truncation orders n of the lambda_n trace in ``constants_report``
_TRACE_NS = (16, 256, 4096, 65536, 1048576)


def euler_gamma(target_abs_error: float, n: int | None = None) -> float:
    """Euler-Mascheroni constant with certified error <= target_abs_error.

    gamma = H_n - ln n - 1/(2n) + sum_k B_{2k}/(2k) n^{-2k}, truncated after
    n^{-8}; the remainder is bounded by the first omitted term.  ``n`` may be
    pinned explicitly to cross-validate two independent evaluations.
    """
    if not target_abs_error > 0.0:
        raise DomainError("target_abs_error must be positive")
    if target_abs_error < 5e-15:
        raise PrecisionUnreachable("euler_gamma cannot certify below 5e-15 in doubles")
    if n is None:
        n = max(16, math.ceil((2.0 * _EM_TAIL_CONST / target_abs_error) ** 0.1))
    elif _EM_TAIL_CONST * float(n) ** -10 > 0.5 * target_abs_error:
        raise PrecisionUnreachable(f"n = {n} too small for target {target_abs_error:g}")
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = harmonic - math.log(n) - 0.5 / n
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        value += coeff * float(n) ** (-2 * k)
    return value


@lru_cache(maxsize=1)
def moment_constant() -> float:
    """lam = 1 - gamma, the constant of the first-moment closed form, to 1e-14."""
    return 1.0 - euler_gamma(1e-14)


def partial_moment_constant(n: int) -> float:
    """ln n - (1/2 + 1/3 + ... + 1/n), the n-th truncation of lam = 1 - gamma.

    Lies in (0, 1/2) for every n >= 2 and increases to lam.
    """
    if n < 2:
        raise DomainError("defined for n >= 2")
    acc = 0.0
    for start in range(2, n + 1, _WINDOW):
        stop = min(n + 1, start + _WINDOW)
        acc += float(np.sum(1.0 / np.arange(start, stop, dtype=np.float64)))
    return math.log(n) - acc


def dilated_frac_moment(l: float) -> float:
    """Closed form (lam + ln l) / l of int_1^inf {t/l} dt/t^2 for l >= 1."""
    l = float(l)
    if not math.isfinite(l) or l < 1.0 - 1e-12:
        raise DomainError(f"dilation {l!r} outside [1, inf)")
    return (moment_constant() + math.log(l)) / l


def dilated_frac_moment_quad(l: float, periods: int = 100_000) -> tuple[float, float]:
    """Independent quadrature of int_1^inf {t/l} dt/t^2.

    Sums the exact closed-form integral of each linear piece up to
    T = periods * l and adds the mean-value tail 1/(2T); returns
    (value, certified_error) with error <= l/(4 T^2) plus roundoff.
    """
    l = float(l)
    if not math.isfinite(l) or l < 1.0 - 1e-12:
        raise DomainError(f"dilation {l!r} outside [1, inf)")
    if periods < 2:
        raise DomainError("periods must be >= 2")
    body = 0.0
    for start in range(1, periods, _WINDOW):
        m = np.arange(start, min(start + _WINDOW, periods), dtype=np.float64)
        # int over [m l, (m+1) l] of (t/l - m)/t^2 = (1/l)(log(1 + 1/m) - 1/(m+1))
        body += float(np.sum(np.log1p(1.0 / m) - 1.0 / (m + 1.0)))
    body /= l
    head = math.log(l) / l  # int over (1, l) where the integrand is (t/l)/t^2
    T = periods * l
    value = head + body + 0.5 / T
    err = l / (4.0 * T * T) + 1e-14
    return value, err


def theta_log_sum(coeffs: np.ndarray, dilations: np.ndarray) -> float:
    """sum_k (h_k / l_k) ln l_k, the closed-form moment of a constrained sum."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    dilations = np.asarray(dilations, dtype=np.float64)
    return float(np.sum(coeffs / dilations * np.log(dilations)))


@dataclass(frozen=True)
class MomentReport:
    """Both routes to int_1^inf phi dt/t^2 for a constrained sum.

    ``closed_form`` holds sum Theta_k ln l_k with Theta_k = h_k / l_k (its
    dict also carries it under ``theta_log_sum``, the name used by the sweep
    tables), while ``integral_value`` comes from the independent per-term
    quadrature.
    """

    integral_value: float
    closed_form: float
    lambda_used: float
    constraint_sum: float
    quad_error_bound: float

    def to_dict(self) -> dict:
        return {
            "integral_value": self.integral_value,
            "closed_form": self.closed_form,
            "lambda_used": self.lambda_used,
            "constraint_sum": self.constraint_sum,
            "theta_log_sum": self.closed_form,
            "quad_error_bound": self.quad_error_bound,
        }


def moment_report(phi: DilatedFracSum, periods: int = 100_000) -> MomentReport:
    """Moment of a constrained sum: closed form next to independent quadrature.

    The two agree within ``quad_error_bound`` (default setup certifies about
    3e-10 per unit coefficient); ConstraintViolated is raised when the
    coefficient combination is not constrained.
    """
    phi.check_constraint()
    closed = theta_log_sum(phi.coeffs, phi.dilations)
    integral = 0.0
    err = 0.0
    for h, l in phi.terms:
        q, e = dilated_frac_moment_quad(l, periods)
        integral += h * q
        err += abs(h) * e
    return MomentReport(
        integral_value=integral,
        closed_form=closed,
        lambda_used=moment_constant(),
        constraint_sum=phi.constraint_sum,
        quad_error_bound=err,
    )


@dataclass(frozen=True)
class ConstantsReport:
    """gamma, lam = 1 - gamma, and a convergence trace of the truncations."""

    gamma: float
    lam: float
    lambda_n_trace: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "lambda": self.lam,
            "lambda_n_trace": [[n, v] for n, v in self.lambda_n_trace],
        }


def constants_report(target_abs_error: float = 1e-12) -> ConstantsReport:
    g = euler_gamma(target_abs_error)
    trace = tuple((n, partial_moment_constant(n)) for n in _TRACE_NS)
    return ConstantsReport(gamma=g, lam=1.0 - g, lambda_n_trace=trace)


@dataclass(frozen=True)
class NormReport:
    """A p-norm value under the weight together with its certification."""

    value: float
    abs_error_bound: float
    truncation: float


def _lattice_windows(dilations, t_lo: float, t_hi: float):
    """Yield (t1, u), the left ends and widths of the segments of the union
    lattice {m l : l in dilations} on [t_lo, t_hi], one window of about
    ``_WINDOW`` segments at a time.  Points within relative 1e-12 of their
    predecessor are merged, so each kept point lies more than 1e-12 t past
    the one before it and every segment has positive width."""
    width = _WINDOW / sum(1.0 / l for l in dilations)
    while t_lo < t_hi:
        w_hi = min(t_hi, t_lo + width)
        pts = [
            np.arange(math.floor(t_lo / l) + 1, math.floor(w_hi / l) + 1, dtype=np.float64) * l
            for l in dilations
        ]
        pts = np.sort(np.concatenate([np.array([t_lo, w_hi])] + pts))
        pts = pts[(pts >= t_lo) & (pts <= w_hi)]
        keep = np.concatenate(([True], np.diff(pts) > 1e-12 * pts[1:]))
        pts = pts[keep]
        yield pts[:-1], np.diff(pts)
        t_lo = w_hi


def _segment_integrals(t1: np.ndarray, u: np.ndarray):
    """(i0, i1, i2): int (t - t1)^j dt/t^2 over [t1, t1 + u] for j = 0, 1, 2.

    With w = u/t1 these are w/(1+w)/t1, ln(1+w) - w/(1+w) and
    t1 (w - 2 ln(1+w) + w/(1+w)); below w = 1e-3 the last two switch to
    their Taylor series, which avoids the cancellation."""
    w = u / t1
    small = w < 1e-3
    l1p = np.log1p(w)
    wow = w / (1.0 + w)
    i0 = wow / t1
    i1 = np.where(small, w * w / 2 - 2 * w**3 / 3 + 3 * w**4 / 4, l1p - wow)
    i2 = t1 * np.where(small, w**3 / 3 - w**4 / 2 + 3 * w**5 / 5, w - 2 * l1p + wow)
    return i0, i1, i2


def weighted_norm_report(
    phi: DilatedFracSum, p: float, max_segments: int = 1_000_000
) -> NormReport:
    """{ int_1^inf |phi|^p dt/t^2 }^{1/p} for p in (1, 2].

    phi is piecewise linear with the single slope sum h_k / l_k between
    lattice points (piecewise constant when constrained).  On [1, l_min]
    phi(t) = slope t, which integrates in closed form, and so do the later
    flat pieces and p = 2; sloped pieces with p < 2 use 16-point
    Gauss-Legendre on each side of the piece's zero, with the nodes
    clustered at it.  The pieces come from the windowed lattice kernel.
    The integral is truncated at T (set by ``max_segments``) and the tail is
    bounded by (sum |h_k|)^p / T.  The norm then lies in
    [head^{1/p}, (head + tail)^{1/p}]; the value is that interval's midpoint
    and half its width enters the error bound.
    """
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError("p must lie in (1, 2]")
    coeffs = phi.coeffs
    dils = phi.dilations
    density = float(np.sum(1.0 / dils))
    T = max(100.0, max_segments / density)
    if np.all(coeffs == 0.0):
        return NormReport(value=0.0, abs_error_bound=0.0, truncation=T)
    if max_segments > 50_000_000:
        raise PrecisionUnreachable("segment budget above the supported cap")
    slope = float(np.sum(coeffs / dils))
    # on [1, l_min] each {t/l_k} is t/l_k, so phi(t) = slope t and
    # int |slope t|^p dt/t^2 = |slope|^p (l_min^{p-1} - 1)/(p - 1)
    start = min(float(dils.min()), T)
    head = abs(slope) ** p * math.expm1((p - 1.0) * math.log(start)) / (p - 1.0)
    for t1, u in _lattice_windows(dils, start, T):
        v_mid = phi(t1 + 0.5 * u)
        head += _segments_abs_power(t1, u, v_mid, slope, p, phi.abs_coeff_sum)
    tail_bound = phi.abs_coeff_sum**p / T
    lo = max(head, 0.0) ** (1.0 / p)
    hi = (head + tail_bound) ** (1.0 / p)
    value = 0.5 * (lo + hi)
    err = 0.5 * (hi - lo) + 1e-12 * (1.0 + value)
    return NormReport(value=value, abs_error_bound=err, truncation=T)


def _segments_abs_power(t1, u, v_mid, slope, p, coeff_scale) -> float:
    """int |v_mid + slope (t - mid)|^p / t^2 summed over segments [t1, t1+u]."""
    if abs(slope) <= 1e-14 * max(1.0, coeff_scale):
        return float(np.sum(np.abs(v_mid) ** p * (u / (t1 * (t1 + u)))))
    if p == 2.0:
        a = v_mid - 0.5 * slope * u  # value at the left endpoint
        i0, i1, i2 = _segment_integrals(t1, u)
        return float(np.sum(a * a * i0 + 2.0 * a * slope * i1 + slope * slope * i2))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    # on [0, 1], t = z -+ d y^2 clusters the nodes at the zero z of the
    # piece, where |phi|^p has its kink; dt = 2 d y dy
    y = 0.5 * (nodes + 1.0)
    y_sq, y_weights = y * y, weights * y
    total = 0.0
    a_left = v_mid - 0.5 * slope * u
    t2 = t1 + u
    z = np.clip(t1 - a_left / slope, t1, t2)  # interior sign change, if any
    left = a_left[:, None]
    t1c = t1[:, None]
    for d, sign in ((z - t1, -1.0), (t2 - z, 1.0)):
        ts = z[:, None] + sign * d[:, None] * y_sq
        vals = np.abs(left + slope * (ts - t1c)) ** p / ts**2
        total += float(np.dot(vals @ y_weights, d))
    return total
