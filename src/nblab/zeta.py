"""Riemann zeta, the completed xi function, and critical-line zero location.

Evaluation scheme
-----------------
For Re s > 0 the Dirichlet series is globalized through the alternating
(eta) series, accelerated with the Chebyshev-weighted partial sums of
P. Borwein's algorithm:

    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)        (exact integers)
    zeta(s) ~ -1/(d_n (1 - 2^{1-s})) * sum_{k<n} (-1)^k (d_k - d_n) (k+1)^{-s}

with the analytic remainder bounded, for sigma >= 1/2, by

    3 (3+sqrt(8))^{-n} (1 + 2|t|) e^{pi |t| / 2} / |1 - 2^{1-s}|.

For 0 < sigma < 1/2 the same sum is used and the bound is inflated by the
documented factor ``4 * 100^{1/2 - sigma}`` (conservative; the empirical
error stays at roundoff level throughout the strip).  A floating-point
claim proportional to the summed term magnitudes, including the
eps * |Im s| * ln k phase-rounding of each power, is always added; the
model was tuned against a 35-digit reference over thousands of points.

For Re s <= 0 the value is produced by the reflection formula
zeta(s) = 2^s pi^{s-1} sin(pi s / 2) Gamma(1-s) zeta(1-s); for |s| < 1/4
zeta(1-s) enters as -W(1-s)/s, and the sin zero is divided by s.  The
reflected factor's target is zeta's divided by what multiplies it, with
a = 2^s pi^{s-1} Gamma(1-s): |a| (|sin(pi s / 2)| + its error bound) for
zeta(1-s), |a sin(pi s / 2) / s| for W(1-s).  The functional-equation
residual takes it at whichever of s, 1-s has Re <= 1/2.
W(s) = (s-1) zeta(s) = eta(s) (s-1)/(1 - 2^{1-s}) on Re s > 0 is the one
product that cancels the pole at s = 1; its term count and bound are W's own.

xi(s) = 1/2 pi^{-s/2} s (s-1) Gamma(s/2) zeta(s) has one formula,
pi^{-s/2} Gamma(s/2 + 1) W(s), reached on Re s <= 0 through xi(s) = xi(1-s).

The zero search evaluates Re xi(1/2 + it) on rows of equally spaced points
t = a_r + j h through the single kernel ``_eta_sum``: by angle addition,
e^{-i(a_r + jh) ln k} = e^{-i a_r ln k} e^{-i jh ln k}, so each call's sums
are one matrix product and no points x terms table of sines and cosines is
built.  The scan is one pass of such calls: the grid's top row first, then
its full rows, then one per refinement level of all brackets.  Each uses
one term count, ``xi``'s pick at the call's largest t with |1 - 2^{1-s}|
at its floor sqrt(2) - 1, which is at least ``xi``'s pick at each point.
A bracket is a pair of neighbours of opposite sign.  Each level cuts every
bracket into at most 32 equal parts by one such row, keeps every sign
change among them, and stops once the parts are at most ``tol`` wide;
each final bracket's midpoint is reported.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleAtOne, PrecisionUnreachable
from .gammafn import _LOG_MAX, _LOG_PI, REL_ERROR_CLAIM, ComplexEvalReport, _cexp, loggamma_right
from .gammafn import gamma  # noqa: F401 -- not called here; bench/tracing.py wraps this name

__all__ = [
    "zeta",
    "xi",
    "functional_equation_residual",
    "find_critical_zeros",
]

_LN2 = math.log(2.0)
_RHO = 3.0 + math.sqrt(8.0)
_LOG_RHO = math.log(_RHO)
_EPS = 2.220446049250313e-16
_N_MAX = 320
_POLE_TOL = 1e-12
#: points per row of the scan's angle-addition layout, and most parts per
#: refinement of a bracket
_ROW = 32

#: grid step of the sign-change scan before refinement (smallest gap between
#: the first zeros exceeds ten times this)
_GRID_STEP = 0.05


@lru_cache(maxsize=64)
def _borwein_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n weights (-1)^k (d_k - d_n) / d_n (k < n, from exact integer
    d_k) of the bases k + 1 = 1..n, those bases, and their logarithms."""
    fac = math.factorial
    # cumulative sum keeps the cost linear in n
    term_sum = 0
    d = []
    for k in range(n + 1):
        term_sum += fac(n + k - 1) * 4**k // (fac(n - k) * fac(2 * k))
        d.append(n * term_sum)
    dn = d[n]
    ks = np.arange(1.0, n + 1.0)
    coeffs = np.array([(-1) ** k * ((d[k] - dn) / dn) for k in range(n)], dtype=np.float64)
    return coeffs, ks, np.log(ks)


def _eta_denominator(s: complex) -> complex:
    """1 - 2^{1-s}, stable near the zero at s = 1: numpy's complex expm1
    forms expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y without cancellation."""
    return -complex(np.expm1((1.0 - s) * _LN2))


def _log_bound_constant(s: complex, denom_abs: float) -> float:
    """ln of the analytic remainder bound before its rho^{-n} factor:
    ln(3 (1 + 2|t|) e^{pi |t| / 2} / |1 - 2^{1-s}|), plus ln(4 * 100^{1/2 - sigma})
    for sigma < 1/2."""
    t = abs(s.imag)
    log_c = math.log(3.0 * (1.0 + 2.0 * t)) + t * math.pi / 2.0 - math.log(denom_abs)
    if s.real < 0.5:  # an if, not a 0/1 factor: past Re s ~ 4e307 the bracket is -inf
        log_c += math.log(4.0) + (0.5 - s.real) * math.log(100.0)
    return log_c


def _analytic_bound(s: complex, n: int, denom_abs: float) -> float:
    log_bound = _log_bound_constant(s, denom_abs) - n * _LOG_RHO
    if log_bound > _LOG_MAX:
        raise PrecisionUnreachable(f"eta-series remainder bound at s = {s!r} overflows")
    return math.exp(log_bound)


def _pick_n(s: complex, target: float, denom_abs: float) -> int:
    """Borwein term count for a remainder below target/2: a multiple of 8 in
    [16, _N_MAX]."""
    n = (_log_bound_constant(s, denom_abs) - math.log(0.5 * target)) / _LOG_RHO
    return -(-math.ceil(min(max(n, 16.0), _N_MAX)) // 8) * 8  # a multiple of 8 for cache reuse


def _eta_sum(s: np.ndarray, n: int, offsets: np.ndarray | None = None):
    """Accelerated partial sums approximating eta(s) = (1 - 2^{1-s}) zeta(s)
    at an array of points s that share one real part sigma and the term
    count n, together with their floating-point error claims.

    The sum of c_k k^{-s} over k = 1..n is the trig matrix
    e^{-i t ln k} = cos(t ln k) - i sin(t ln k), one row per point, times the
    amplitude vector c_k k^{-sigma}.  Given ``offsets`` d_r, each point s_q
    instead stands for the row of points s_q + i d_r: by angle addition,
    e^{-i (t + d) ln k} = e^{-i t ln k} e^{-i d ln k}, their sums are one
    (points x n) @ (n x offsets) product, and the results have that shape.

    Each term carries a phase-rounding error of order eps * |Im s| * ln k on
    top of the usual few ulps, so the claim scales the summed term
    magnitudes by (16 + |Im s| ln(n+1)) eps.
    """
    coeffs, ks, ln_k = _borwein_terms(n)
    amp = coeffs * ks ** -s.real[0]
    t = s.imag
    phase = np.multiply.outer(t, ln_k)
    if offsets is None:
        sums = np.cos(phase) @ amp - 1j * (np.sin(phase) @ amp)
    else:
        sums = np.exp(-1j * phase) @ (amp * np.exp(-1j * np.multiply.outer(offsets, ln_k))).T
        t = np.add.outer(t, offsets)
    mag = np.abs(amp).sum()
    fp_err = _EPS * mag * (16.0 + np.abs(t) * math.log(n + 1.0))
    return -sums, fp_err


def _eta_sum_at(s: complex, n: int) -> tuple[complex, float]:
    """``_eta_sum`` at the single point s."""
    (value,), (fp_err,) = _eta_sum(np.array([s]), n)
    return complex(value), float(fp_err)


def _zeta_right(s: complex, target: float | None) -> tuple[complex, float, int]:
    """zeta on Re s > 0 through the accelerated eta series."""
    denom = _eta_denominator(s)
    denom_abs = abs(denom)
    target_eff = 1e-15 if target is None else target
    n = _pick_n(s, target_eff, denom_abs)
    numerator, fp_err = _eta_sum_at(s, n)
    value = numerator / denom
    err = _analytic_bound(s, n, denom_abs) + (fp_err + 4.0 * _EPS * n) / denom_abs
    return value, err, n


def _chi_factors(s: complex) -> tuple[complex, float, complex, float]:
    """The reflection factor chi(s) = 2^s pi^{s-1} sin(pi s / 2) Gamma(1-s)
    on Re s <= 1/2, where Gamma(1-s) is in the Lanczos half-plane, split as
    (smooth part, its relative error, sin(pi s / 2), its absolute error)."""
    w = 0.5 * math.pi * s
    # |sin w| <= cosh(Im w) bounds it and its error; past e^709 neither is representable
    if abs(w.imag) > _LOG_MAX:
        raise PrecisionUnreachable(f"reflection factor at s = {s!r} overflows double precision")
    log_part = s * _LN2 + (s - 1.0) * _LOG_PI + loggamma_right(1.0 - s)
    a = _cexp(log_part)
    rel_a = REL_ERROR_CLAIM + 4.0 * _EPS * (1.0 + abs(log_part))
    return a, rel_a, cmath.sin(w), 4.0 * _EPS * (1.0 + abs(w)) * math.cosh(w.imag)


def _zeta_reflect(s: complex, target: float | None) -> tuple[complex, float, int]:
    """zeta on Re s <= 0 via the functional equation."""
    a, rel_a, sin_w, sin_err = _chi_factors(s)
    if abs(s) < 0.25:
        # the sin zero against the reflected pole: with W(s) = (s - 1) zeta(s),
        # zeta(s) = -2^s pi^{s-1} Gamma(1-s) (sin(pi s / 2) / s) W(1 - s)
        # below |s| = 1e-8, sin(pi s / 2) / s is pi/2 to rounding, and sin_w / s
        # would lose digits to subnormals
        sinc = 0.5 * math.pi if abs(s) < 1e-8 else sin_w / s
        w_target = None if target is None else target / abs(a * sinc)
        w_val, w_err, n = _weighted_pole_product(1.0 - s, w_target)
        value = -a * sinc * w_val
        return value, abs(value) * (rel_a + 8.0 * _EPS + w_err / max(abs(w_val), 1e-300)), n
    z2_target = None if target is None else target / (abs(a) * (abs(sin_w) + sin_err))
    z2, z2_err, n = _zeta_right(1.0 - s, z2_target)
    value = a * sin_w * z2
    z2_abs = abs(z2)
    rel = rel_a + (z2_err / max(z2_abs, 1e-300)) + 6.0 * _EPS
    abs_est = abs(value) * rel + abs(a) * z2_abs * sin_err
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise PrecisionUnreachable(f"zeta({s!r}) overflows double precision")
    return value, abs_est, n


def _zeta_core(s: complex, target: float | None) -> tuple[complex, float, int]:
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if abs(s - 1.0) <= _POLE_TOL:
        raise PoleAtOne(f"zeta has its pole at s = 1; got {s!r}")
    if s.real > 0.0:
        return _zeta_right(s, target)
    return _zeta_reflect(s, target)


def zeta(s: complex, target_abs_error: float) -> ComplexEvalReport:
    """zeta(s) with a certified absolute error at most ``target_abs_error``.

    Raises PoleAtOne within 1e-12 of s = 1 and PrecisionUnreachable when the
    scheme cannot claim the requested accuracy in double precision.
    """
    if not target_abs_error > 0.0:
        raise DomainError("target_abs_error must be positive")
    value, err, n = _zeta_core(complex(s), target_abs_error)
    if err > target_abs_error:
        raise PrecisionUnreachable(
            f"certified error {err:.3e} exceeds target {target_abs_error:.3e} at s = {s!r}"
        )
    return ComplexEvalReport(value=value, abs_error_estimate=err, terms_used=n)


def _weighted_pole_product(s: complex, target: float | None) -> tuple[complex, float, int]:
    """W(s) = (s - 1) zeta(s) = eta(s) (s - 1)/(1 - 2^{1-s}) on Re s > 0, with
    its error target ``target`` as in ``zeta``: the eta remainder times |ratio|."""
    # (s-1)/(1 - 2^{1-s}) = (1/ln 2) * w/(e^w - 1) with w = (1-s) ln 2
    w = (1.0 - s) * _LN2
    ratio = 1.0 / _LN2 if w == 0 else w / complex(np.expm1(w)) / _LN2
    ratio_abs = abs(ratio)
    n = _pick_n(s, 1e-15 if target is None else target, 1.0 / ratio_abs)
    eta_val, eta_fp = _eta_sum_at(s, n)
    value = eta_val * ratio
    err = _analytic_bound(s, n, 1.0 / ratio_abs) + ratio_abs * (eta_fp + 2.0 * _EPS * n)
    return value, err + 8.0 * _EPS * abs(value), n


def xi(s: complex) -> ComplexEvalReport:
    """The completed, entire, symmetric form 1/2 pi^{-s/2} s (s-1) Gamma(s/2) zeta(s).

    For Re s <= 0, xi(s) = xi(1 - s) moves s into Re s >= 1.  There
    s Gamma(s/2) = 2 Gamma(s/2 + 1) and W(s) = (s-1) zeta(s) remove the
    poles at s = 0 and s = 1, so xi(s) = pi^{-s/2} Gamma(s/2 + 1) W(s), with
    the Gamma factor formed in log space: it overflows only where |xi| does.
    Rounding 1 - s moves xi by at most |xi'| eps |1 - Re s|, which lies
    inside the 6 eps (1 + |log part|) term of the claim away from the pole
    that W cancels.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if s.real <= 0.0:
        s = 1.0 - s
    w_val, w_err, n = _weighted_pole_product(s, None)
    log_part = loggamma_right(0.5 * s + 1.0) - 0.5 * s * _LOG_PI
    value = _cexp(log_part) * w_val
    rel = REL_ERROR_CLAIM + 6.0 * _EPS * (1.0 + abs(log_part)) + w_err / max(abs(w_val), 1e-300)
    err = abs(value) * rel
    if not math.isfinite(err):  # also where the value itself overflows
        raise PrecisionUnreachable(f"xi at {s!r} or its error claim overflows double precision")
    return ComplexEvalReport(value=value, abs_error_estimate=err, terms_used=n)


def functional_equation_residual(s: complex) -> tuple[float, float]:
    """Relative residual |zeta(u) - RHS| / (1 + |zeta(u)|) of the reflection
    formula zeta(u) = 2^u pi^{u-1} sin(pi u / 2) Gamma(1-u) zeta(1-u) at u,
    whichever of s and 1 - s has Re u <= 1/2 (so s and 1 - s share it), and
    the bound on it that the error claims of both sides give.  The sides take
    independent routes only on Re u > 0; on Re u <= 0 with |u| >= 1/4 they
    are the same product, and the residual is exactly 0."""
    s = complex(s)
    u = s if s.real <= 0.5 else 1.0 - s
    lhs, lhs_err, _ = _zeta_core(u, None)
    a, rel_a, trig, trig_err = _chi_factors(u)
    z2, z2_err, _ = _zeta_core(1.0 - u, None)
    rhs = a * trig * z2
    # the product of the three factors' error discs: |RHS - rhs| <= rhs_hi - |rhs|
    # up to rounding
    rhs_hi = abs(a) * (1.0 + rel_a) * (abs(trig) + trig_err) * (abs(z2) + z2_err)
    scale = 1.0 + abs(lhs)
    bound = (lhs_err + rhs_hi - abs(rhs) + 8.0 * _EPS * (abs(lhs) + rhs_hi)) / scale
    return abs(lhs - rhs) / scale, bound


def _xi_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The points t = a_r + j h, j < m, one row per start a_r, and
    Re xi(1/2 + it) there, with each row's eta sums by angle addition.  The
    one term count, ``xi``'s pick at max(t) with |1 - 2^{1-s}| at its floor,
    gives no point fewer terms than ``xi`` does."""
    offsets = h * np.arange(m)
    t = np.add.outer(a, offsets)
    s = 0.5 + 1j * t
    denom = -np.expm1((1.0 - s) * _LN2)  # 1 - 2^{1-s}
    n = _pick_n(complex(0.5, t.max()), 1e-15, math.sqrt(2.0) - 1.0)  # |1 - 2^{1-s}| >= that
    # s Gamma(s/2) = 2 Gamma(s/2 + 1) and (s - 1) zeta(s) = (s - 1) eta(s) / denom
    prefactor = np.exp(loggamma_right(0.5 * s + 1.0) - 0.5 * s * _LOG_PI) * (s - 1.0) / denom
    if np.any(prefactor == 0.0):
        raise PrecisionUnreachable(f"xi(1/2 + it) underflows at t = {t[prefactor == 0.0][0]:g}")
    eta, _ = _eta_sum(0.5 + 1j * a, n, offsets)
    return t, (prefactor * eta).real


def _sign_changes(f: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Indices along the last axis of f's exact zeros, its last point
    excepted, and of its brackets' left ends: neighbours of opposite sign
    (signs compared, as the product of two underflows past t ~ 472)."""
    head = f[..., :-1]
    return np.nonzero(head == 0.0), np.nonzero(np.sign(head) * np.sign(f[..., 1:]) < 0.0)


def _refined_zeros(
    a: np.ndarray, fa: np.ndarray, fb: np.ndarray, h: float, tol: float
) -> list[float]:
    """Zeros in the brackets [a, a + h] with end values fa, fb.  Each level
    cuts every bracket into the fewest equal parts narrower than ``tol``, at
    most _ROW, evaluates one row per bracket and applies the grid's rule;
    once h <= tol (then h > tol/2) the midpoints are reported."""
    zeros: list[float] = []
    while h > tol and a.size:
        m = min(_ROW, math.floor(h / tol) + 1)
        h /= m
        t, f = _xi_rows(a + h, h, m - 1)
        t = np.column_stack([a, t])
        f = np.column_stack([fa, f, fb])
        hits, (r, c) = _sign_changes(f)
        zeros.extend(t[hits].tolist())
        a, fa, fb = t[r, c], f[r, c], f[r, c + 1]
    return zeros + (a + 0.5 * h).tolist()


def find_critical_zeros(t_max: float, tol: float) -> list[float]:
    """Ordinates 0 < t_1 < t_2 < ... < t_max where xi(1/2 + it) changes sign.

    Re xi(1/2 + it) is evaluated on the grid t_j = j * 0.05, j >= 1, up to
    t_max: first the top row of 1 to 32 points that ends there, where xi
    underflows first, then all full rows of 32 points.  A grid value of
    exactly 0.0 is reported as it stands; neighbours of opposite sign form a
    bracket, and all brackets are refined together down to width ``tol``
    and reported by their midpoints (``_refined_zeros``): Re xi(1/2 + it)
    is continuous, so a sign change brackets a zero.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError("t_max must be positive and finite")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if tol < 64.0 * _EPS * max(1.0, t_max):
        raise PrecisionUnreachable(f"sub-grids cannot resolve brackets of width {tol:g}")
    h = _GRID_STEP
    last = int(math.floor((t_max - h) / h + 1e-9)) + 1  # the grid is t_j = j h, j = 1..last
    if last == 0:
        return []
    rows = (last - 1) // _ROW  # full rows from t = h; the top row holds the other points
    t_top, f_top = _xi_rows(np.array([h * (1 + rows * _ROW)]), h, last - rows * _ROW)
    t_rows = f_rows = np.empty(0)
    if rows:
        t_rows, f_rows = _xi_rows(h * np.arange(1, rows * _ROW, _ROW), h, _ROW)
    t, f = np.append(t_rows, t_top), np.append(f_rows, f_top)
    (hits,), (i,) = _sign_changes(f)
    return sorted(t[hits].tolist() + _refined_zeros(t[i], f[i], f[i + 1], h, tol))
