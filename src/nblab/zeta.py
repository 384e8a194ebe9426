"""Riemann zeta, the completed xi function, and critical-line zero location.

Evaluation scheme
-----------------
Every value, and every sign the zero scan reads, comes from one function:
W(s) = (s - 1) zeta(s) on Re s > 0, ``_weighted_pole_product``.  It sums
the alternating (eta) series, accelerated with the Chebyshev-weighted
partial sums of P. Borwein's algorithm:

    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)        (exact integers)
    eta(s) ~ -1/d_n * sum_{k<n} (-1)^k (d_k - d_n) (k+1)^{-s}

and multiplies it by the ratio (s - 1)/(1 - 2^{1-s}), with
1 - 2^{1-s} = -expm1(w), w = (1 - s) ln 2, from numpy's complex expm1, which
does not cancel near s = 1; below |w| = 1e-8 the ratio is (1 - w/2)/ln 2.
For sigma >= 1/2 the analytic remainder of W is bounded by

    3 (3+sqrt(8))^{-n} (1 + 2|t|) e^{pi |t| / 2} |ratio|.

For 0 < sigma < 1/2 the bound is inflated by the documented factor
``4 * 100^{1/2 - sigma}`` (conservative; the empirical error stays at
roundoff level throughout the strip).  A floating-point claim proportional
to the summed term magnitudes, including the eps * |Im s| * ln k
phase-rounding of each power, is always added; the model was tuned against
a 35-digit reference over thousands of points.  W takes one point or rows
of points (row starts plus offsets) and uses one term count per call: the
count that puts the remainder below half the target at the call's largest
|Im s| and largest |ratio|, so at least each point's own count.

- zeta on Re s > 0 is W(s)/(s - 1); W's target is zeta's times |s - 1|,
  whose logarithm cancels ln|s - 1| in ln|ratio|, so the count is zeta's.
- zeta on Re s <= 0 is the reflection formula
  zeta(s) = 2^s pi^{s-1} sin(pi s / 2) Gamma(1-s) zeta(1-s) with
  zeta(1 - s) = -W(1 - s)/s, so that the zero of sin at s = 0 cancels the
  reflected pole: zeta(s) = -a (sin(pi s / 2)/s) W(1 - s), where
  a = 2^s pi^{s-1} Gamma(1-s).  The claim bounds the product of the three
  factors' error discs; W's target is zeta's over |a| (|sin(pi s/2)/s| + its
  error).  The sin error vanishes with s.  With w = pi s / 2 = x + iy,
  rounding w moves sin w by at most eps |w| max|cos| <= eps |w| cosh y, and
  ``cmath.sin`` adds at most 2 eps (|sin x| cosh y + |cos x| |sinh y|)
  <= 2 sqrt(2) eps |w| cosh y, since |sin x| <= |x|, |sinh y| <= |y| cosh y
  and |x| + |y| <= sqrt(2) |w|; 6 eps |w| cosh y covers both.
- xi(s) = 1/2 pi^{-s/2} s (s-1) Gamma(s/2) zeta(s) has one formula,
  pi^{-s/2} Gamma(s/2 + 1) W(s), reached on Re s <= 0 through xi(s) = xi(1-s).

The zero search evaluates Re xi(1/2 + it) by that formula on rows of equally
spaced points t = a_r + j h, with W's sums by angle addition:
e^{-i(a_r + jh) ln k} = e^{-i a_r ln k} e^{-i jh ln k}, so each call's sums
are one matrix product.  The scan is one pass of such calls: the grid's top
row first, then its full rows, then one per refinement level of all
brackets.  Each call's count is W's, at its largest t and |ratio|, so no
point gets fewer terms than ``xi`` gives it.  A bracket is a pair of
neighbours of opposite sign.  Each level cuts every
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
from .gammafn import _EPS, _LOG_MAX, _LOG_PI, REL_ERROR_CLAIM, ComplexEvalReport, _cexp
from .gammafn import loggamma_right
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
_N_MAX = 320
_POLE_TOL = 1e-12
#: points per row of the scan's angle-addition layout, and most parts per
#: refinement of a bracket
_ROW = 32

#: grid step of the sign-change scan before refinement (smallest gap between
#: the first zeros exceeds ten times this)
_GRID_STEP = 0.05

#: the one offset 0: ``_weighted_pole_product`` at its points themselves
_AT_S = np.zeros(1)


def _borwein_d(n: int) -> list[int]:
    """Borwein's integers d_0..d_n, the partial sums of the terms
    e_i = n (n+i-1)! 4^i / ((n-i)! (2i)!): e_0 = 1 and
    e_{i+1} = e_i 2 (n+i)(n-i) / ((2i+1)(i+1)), an exact division."""
    e, d = 1, [1]
    for i in range(n):
        e = e * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
        d.append(d[-1] + e)
    return d


@lru_cache(maxsize=64)
def _borwein_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n weights (-1)^k (d_k - d_n) / d_n (k < n, from exact integer
    d_k) of the bases k + 1 = 1..n, those bases, and their logarithms."""
    d = _borwein_d(n)
    dn = d[n]
    ks = np.arange(1.0, n + 1.0)
    coeffs = np.array([(-1) ** k * ((d[k] - dn) / dn) for k in range(n)], dtype=np.float64)
    return coeffs, ks, np.log(ks)


def _log_bound_constant(sigma: float, t: float, ratio_abs: float) -> float:
    """ln of W's analytic remainder bound before its rho^{-n} factor at
    sigma + it, t >= 0: ln(3 (1 + 2t) e^{pi t / 2} |ratio|), plus
    ln(4 * 100^{1/2 - sigma}) for sigma < 1/2."""
    log_c = math.log(3.0 * (1.0 + 2.0 * t)) + t * math.pi / 2.0 + math.log(ratio_abs)
    if sigma < 0.5:  # an if, not a 0/1 factor: past Re s ~ 4e307 the bracket is -inf
        log_c += math.log(4.0) + (0.5 - sigma) * math.log(100.0)
    return log_c


def _analytic_bound(sigma: float, t: float, ratio_abs: float, n: int) -> float:
    """W's analytic remainder bound after n terms; inf where it overflows."""
    log_bound = _log_bound_constant(sigma, t, ratio_abs) - n * _LOG_RHO
    return math.exp(log_bound) if log_bound <= _LOG_MAX else math.inf


def _pick_n(sigma: float, t: float, ratio_abs: float, target: float) -> int:
    """Borwein term count for a remainder of W below target/2 at sigma + it:
    a multiple of 8 in [16, _N_MAX]; targets below 1e-300, or scaled to 0,
    need more than _N_MAX terms anyway."""
    n = (_log_bound_constant(sigma, t, ratio_abs) - math.log(max(0.5 * target, 1e-300))) / _LOG_RHO
    return -(-math.ceil(min(max(n, 16.0), _N_MAX)) // 8) * 8  # a multiple of 8 for cache reuse


def _eta_sum(s: np.ndarray, n: int, offsets: np.ndarray) -> tuple[np.ndarray, float]:
    """Accelerated partial sums approximating eta(s) = (1 - 2^{1-s}) zeta(s)
    at the points s_q + i d_r, of shape s.shape + offsets.shape, for starts
    s_q (a point or an array) that share one real part sigma and the
    offsets d_r, with the term count n, and the summed term magnitudes.

    By angle addition, e^{-i (t + d) ln k} = e^{-i t ln k} e^{-i d ln k}, so
    the sums of c_k k^{-s} over k = 1..n are one (starts x n) @ (n x offsets)
    product, with the amplitudes c_k k^{-sigma} in the right factor.
    """
    coeffs, ks, ln_k = _borwein_terms(n)
    amp = coeffs * ks ** -s.real.flat[0]
    shifts = amp * np.exp(-1j * np.multiply.outer(offsets, ln_k))
    sums = np.exp(-1j * np.multiply.outer(s.imag, ln_k)) @ shifts.T
    return -sums, float(np.abs(amp).sum())


def _weighted_pole_product(
    s: complex | np.ndarray, target: float = 1e-15, offsets: np.ndarray = _AT_S
) -> tuple[np.ndarray, np.ndarray, int]:
    """W(s) = (s - 1) zeta(s) = eta(s) (s - 1)/(1 - 2^{1-s}) on Re s > 0 at
    the points s + i d, d in ``offsets`` (by default s itself), for a point
    s or an array of row starts of one real part.  Returns the values and
    their error claims, of shape s.shape + offsets.shape, and the call's one
    term count.  The count and the remainder bound are taken at the call's
    largest |Im s| and |ratio|, where the bound is largest, so the remainder
    is below target/2 at each point.  A claim is inf where the remainder
    bound overflows; only callers that return the value refuse it.

    Each term of the eta sum carries a phase-rounding error of order
    eps * |Im s| * ln k on top of the usual few ulps, so its claim scales
    the summed term magnitudes by (16 + |Im s| ln(n+1)) eps, at the call's
    largest |Im s|.
    """
    s = np.asarray(s, dtype=complex)
    points = np.add.outer(s, 1j * offsets)
    # (s-1)/(1 - 2^{1-s}) = (1-s)/expm1(w), w = (1-s) ln 2; below |w| = 1e-8
    # it is (1/ln 2) w/(e^w - 1) = (1 - w/2)/ln 2 to rounding, and dividing
    # subnormals would overflow
    one_minus_s = 1.0 - points
    w = one_minus_s * _LN2
    ratio = np.divide(one_minus_s, np.expm1(w), out=(1.0 - 0.5 * w) / _LN2, where=np.abs(w) > 1e-8)
    ratio_abs = np.abs(ratio)
    sigma, t_top = s.real.flat[0], float(np.abs(points.imag).max())
    ratio_top = float(ratio_abs.max())
    n = _pick_n(sigma, t_top, ratio_top, target)
    eta, magnitude = _eta_sum(s, n, offsets)
    value = eta * ratio
    eta_fp = _EPS * magnitude * (16.0 + t_top * math.log(n + 1.0))
    err = _analytic_bound(sigma, t_top, ratio_top, n) + ratio_abs * (eta_fp + 2.0 * _EPS * n)
    return value, err + 8.0 * _EPS * np.abs(value), n


def _chi_factors(s: complex) -> tuple[complex, float, complex, float]:
    """The reflection factor chi(s) = 2^s pi^{s-1} sin(pi s / 2) Gamma(1-s)
    on Re s <= 1/2, where Gamma(1-s) is in the Lanczos half-plane, split as
    (smooth part, its relative error, sin(pi s / 2), its absolute error
    6 eps |w| cosh(Im w), derived in the module docstring)."""
    w = 0.5 * math.pi * s
    # |sin w| <= cosh(Im w) bounds it and its error; past e^709 neither is representable
    if abs(w.imag) > _LOG_MAX:
        raise PrecisionUnreachable(f"reflection factor at s = {s!r} overflows double precision")
    log_part = s * _LN2 + (s - 1.0) * _LOG_PI + loggamma_right(1.0 - s)
    a = _cexp(log_part)
    rel_a = REL_ERROR_CLAIM + 4.0 * _EPS * (1.0 + abs(log_part))
    return a, rel_a, cmath.sin(w), 6.0 * _EPS * abs(w) * math.cosh(w.imag)


def _zeta_reflect(s: complex, target: float) -> tuple[complex, float, int]:
    """zeta on Re s <= 0: -a (sin(pi s / 2)/s) W(1 - s), a = 2^s pi^{s-1} Gamma(1-s)."""
    a, rel_a, sin_w, sin_err = _chi_factors(s)
    # below |s| = 1e-8, sin(pi s / 2) / s is pi/2 to rounding, and sin_w / s
    # would lose digits to subnormals
    sinc = 0.5 * math.pi if abs(s) < 1e-8 else sin_w / s
    sinc_hi = abs(sinc) * (1.0 + _EPS) + sin_err / max(abs(s), 1e-300)
    if not math.isfinite(abs(a) * sinc_hi):  # a is nan where ln Gamma(1 - s) overflows
        raise PrecisionUnreachable(f"zeta({s!r}) overflows double precision")
    (w_val,), (w_err,), n = _weighted_pole_product(1.0 - s, target / (abs(a) * sinc_hi))
    w_val, w_err = complex(w_val), float(w_err)
    value = -a * sinc * w_val
    # |zeta - value| <= hi - |value| up to rounding: the factors' error discs' product
    hi = abs(a) * (1.0 + rel_a) * sinc_hi * (abs(w_val) + w_err)
    return value, hi - abs(value) + 8.0 * _EPS * hi, n


def _zeta_core(s: complex, target: float = 1e-15) -> tuple[complex, float, int]:
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if abs(s - 1.0) <= _POLE_TOL:
        raise PoleAtOne(f"zeta has its pole at s = 1; got {s!r}")
    if s.real > 0.0:
        (w_val,), (w_err,), n = _weighted_pole_product(s, target * abs(s - 1.0))
        value = complex(w_val) / (s - 1.0)
        err = float(w_err) / abs(s - 1.0) + 4.0 * _EPS * abs(value)
    else:
        value, err, n = _zeta_reflect(s, target)
    if not math.isfinite(err):  # also where the value itself overflows
        raise PrecisionUnreachable(f"zeta({s!r}) or its error claim overflows double precision")
    return value, err, n


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
    (w_val,), (w_err,), n = _weighted_pole_product(s)
    w_val, w_err = complex(w_val), float(w_err)
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
    independent routes only on Re u > 0; on Re u <= 0 both are the product
    of a, sin(pi u / 2) and W(1 - u), grouped differently and each with its
    own term count, and the residual is at rounding level."""
    s = complex(s)
    u = s if s.real <= 0.5 else 1.0 - s
    lhs, lhs_err, _ = _zeta_core(u)
    a, rel_a, trig, trig_err = _chi_factors(u)
    z2, z2_err, _ = _zeta_core(1.0 - u)
    rhs = a * trig * z2
    # the product of the three factors' error discs: |RHS - rhs| <= rhs_hi - |rhs|
    # up to rounding
    rhs_hi = abs(a) * (1.0 + rel_a) * (abs(trig) + trig_err) * (abs(z2) + z2_err)
    scale = 1.0 + abs(lhs)
    bound = (lhs_err + rhs_hi - abs(rhs) + 8.0 * _EPS * (abs(lhs) + rhs_hi)) / scale
    return abs(lhs - rhs) / scale, bound


def _xi_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The points t = a_r + j h, j < m, one row per start a_r, and
    Re xi(1/2 + it) = Re pi^{-s/2} Gamma(s/2 + 1) W(s) there, from W's rows."""
    offsets = h * np.arange(m)
    t = np.add.outer(a, offsets)
    s = 0.5 + 1j * t
    prefactor = np.exp(loggamma_right(0.5 * s + 1.0) - 0.5 * s * _LOG_PI)
    if np.any(prefactor == 0.0):
        raise PrecisionUnreachable(f"xi(1/2 + it) underflows at t = {t[prefactor == 0.0][0]:g}")
    w_rows, _, _ = _weighted_pole_product(0.5 + 1j * a, offsets=offsets)
    return t, (prefactor * w_rows).real


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
