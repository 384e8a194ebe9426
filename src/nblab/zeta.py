"""Riemann zeta, the completed xi function, and critical-line zero location.

Evaluation scheme
-----------------
Every value, and every sign the zero scan reads, comes from one function:
W(s) = (s - 1) zeta(s) on Re s > 0, ``_weighted_pole_product``, the
Euler-Maclaurin sum of zeta (Edwards, *Riemann's Zeta Function*, 6.4;
Johansson, Numer. Algorithms 69, 2015) times s - 1, which has no pole:

    W(s) = (s - 1) [sum_{n<N} n^{-s} + N^{-s}/2 + sum_{k<=M} T_k] + N^{1-s},
    T_k = B_2k/(2k)! s (s+1) ... (s+2k-2) N^{-s-2k+1},

within |s - 1| R_M, R_M = |s (s+1) ... (s+2M) B_{2M+2} N^{-sigma-2M-1} /
(2M+2)!| |s+2M+1| / (sigma+2M+1) for sigma = Re s > -2M - 1.  The B_2k are
``gammafn._BERNOULLI``'s, and the T_k are summed by Horner's rule in
(s+2k-1)(s+2k)/N^2.  R_M grows with |Im s| at fixed sigma, so one (N, M),
picked at a call's largest |Im s|, serves all its points.  N = ceil(|s|/pi)
+ 8 puts each factor |s+j|/(2 pi N) of R_M (|B_2k|/(2k)! ~ 2 (2 pi)^{-2k})
below 1/2 + j/(2|s| + 50); N is smaller where R_0 alone is below half the
target (large sigma), and at most ``_MAX_TERMS``.  M is the least count
whose remainder is below half of what the rounding claim leaves of the
target (half the target if it leaves nothing), else the one at which R_M
stops decreasing or the Bernoulli table ends.  ``terms_used`` is N - 1 + M.

Rounding (eps = 2^-52, elementary functions within an ulp): the phase
t ln n of n^{-s} = e^{-s ln n} is off by c_t eps |t| ln n, c_t = 1.5, or 2
on the scan's rows (a ln n + d ln n for t = a + d, a, d >= 0), the modulus
by a relative 1.5 eps sigma ln n; exp and products add 4 eps, the sum
(N/2) eps of the moduli.  With c = c_t |t| + 1.5 sigma, the head is within
eps sum_{n<N} n^{-sigma} (c ln n + N/2 + 8), N^{1-s} within
(c ln N + 8) eps N^{1-sigma}, N^{-s} times Horner's M levels within
(c ln N + 6M + 12) eps N^{-sigma} (1/2 + sum |T_k| N^sigma), both sums
times |s - 1|, and the last products 8 eps |W|.

- zeta on Re s > 0 is W(s)/(s - 1), W's target being zeta's times |s - 1|.
- zeta on Re s <= 0 is the reflection formula with zeta(1 - s) = -W(1 - s)/s,
  zeta(s) = -a (sin(pi s / 2)/s) W(1 - s), a = 2^s pi^{s-1} Gamma(1-s), so
  that the zero of sin at s = 0 cancels the reflected pole.  The claim bounds
  the product of the three factors' error discs; W's target is zeta's over
  |a| (|sin(pi s/2)/s| + its error).  With w = pi s / 2 = x + iy, rounding w
  moves sin w by at most eps |w| cosh y, and ``cmath.sin`` adds at most
  2 eps (|sin x| cosh y + |cos x| |sinh y|) <= 2 sqrt(2) eps |w| cosh y
  (|sin x| <= |x|, |sinh y| <= |y| cosh y, |x| + |y| <= sqrt(2) |w|), so
  6 eps |w| cosh y covers both and vanishes with s.  ln a adds 2 eps of its
  three parts' moduli to ln Gamma's claim.
- xi(s) = 1/2 pi^{-s/2} s (s-1) Gamma(s/2) zeta(s) has one formula,
  pi^{-s/2} Gamma(s/2 + 1) W(s), reached on Re s <= 0 through xi(s) = xi(1-s).
  Where that Gamma factor is subnormal (on the critical line from
  t = 908.65) it has lost bits, and xi and the scan refuse.

The zero search evaluates Re xi(1/2 + it) by that formula on rows of equally
spaced points t = a_r + j h, with W's head sums by angle addition,
e^{-i(a_r + jh) ln n} = e^{-i a_r ln n} e^{-i jh ln n}: one matrix product
per call.  The scan is one pass of such calls: the grid's top row, its full
rows, then one per refinement level of all brackets (pairs of neighbours
of opposite sign).  Each call's N is at least ``xi``'s at each of its
points, and its M at least what ``xi`` needs there with that N.  Each level
cuts every bracket into at most 32 equal parts by one such row, keeps every
sign change, and stops once the parts are at most ``tol`` wide; each final
bracket's midpoint is reported.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleAtOne, PrecisionUnreachable
from .gammafn import _BERNOULLI, _EPS, _LOG_MAX, _LOG_PI, POLE_TOL, ComplexEvalReport, _cexp
from .gammafn import _require_finite, loggamma_right
from .gammafn import gamma  # noqa: F401 -- not called here; bench/tracing.py wraps this name

__all__ = ["zeta", "xi", "functional_equation_residual", "find_critical_zeros"]

_LN2 = math.log(2.0)
_TINY = float(np.finfo(float).tiny)

#: most terms of W's head sum, so that its arrays stay within 16 MiB; past
#: |s| ~ 3.3e6 no M then brings R_M near a small target, and a call whose
#: least remainder alone exceeds its target refuses before it sums
_MAX_TERMS = 2**20

#: B_2k/(2k)!, k = 0..40
_EM_COEF = [float(b / math.factorial(2 * k)) for k, b in enumerate(_BERNOULLI)]

#: points per row of the scan's angle-addition layout, and most parts per
#: refinement of a bracket
_ROW = 32

#: grid step of the sign-change scan before refinement (smallest gap between
#: the first zeros exceeds ten times this)
_GRID_STEP = 0.05


def _log_r0(s: complex) -> float:
    """ln(|s - 1| |B_2|/2! |s| |s+1| / (sigma+1)), W's R_0 times N^{sigma+1}."""
    log_r = math.log(abs(s - 1.0)) if s != 1.0 else -math.inf
    return log_r + math.log(_EM_COEF[1] * abs(s) / (s.real + 1.0)) + math.log(abs(s + 1.0))


def _em_terms(s: complex, target: float) -> int:
    """W's N at s, Re s > 0 (module docstring)."""
    n = min(math.ceil(abs(s) / math.pi) + 8, _MAX_TERMS)
    log_n0 = (_log_r0(s) - math.log(max(0.5 * target, 5e-324))) / (s.real + 1.0)
    return max(2, math.ceil(math.exp(log_n0))) if log_n0 < math.log(n) else n


def _em_order(s: complex, n: int, goal: float) -> tuple[int, float, float]:
    """W's M at s with N = n for a remainder below goal (module docstring),
    that remainder |s - 1| R_M (inf where it overflows), and 1/2 + sum_{k<=M}
    |T_k| N^sigma; R_0 in log space (a huge |s| or sigma), then the ratios."""
    sigma, t = s.real, s.imag
    log_r = _log_r0(s) - (sigma + 1.0) * math.log(n)
    goal = math.exp(min(math.log(max(goal, 5e-324)) - log_r, _LOG_MAX))  # over R_0
    n2, ratio = float(n) * n, 1.0
    m, tail, term, odd = 0, 0.5, _EM_COEF[1] * abs(s) / n, abs(s + 1.0)  # term: |T_{M+1}| N^sigma
    while ratio > goal and m + 2 < len(_EM_COEF):
        j = sigma + 2 * m
        even, next_odd = math.hypot(j + 2.0, t), math.hypot(j + 3.0, t)  # |s + 2M + 2|, ...
        step = -_EM_COEF[m + 2] / _EM_COEF[m + 1] * even * next_odd * (j + 1.0) / ((j + 3.0) * n2)
        if not step < 1.0:
            break
        m, tail, ratio = m + 1, tail + term, ratio * step
        term *= -_EM_COEF[m + 1] / _EM_COEF[m] * odd * even / n2
        odd = next_odd
    log_r += math.log(ratio)
    return m, math.exp(log_r) if log_r <= _LOG_MAX else math.inf, tail


def _weighted_pole_product(
    s: complex | np.ndarray, target: float = 1e-15, offsets: np.ndarray | None = None
) -> tuple[complex | np.ndarray, float | np.ndarray, int]:
    """W(s) = (s - 1) zeta(s) on Re s > 0 (module docstring) at the point s,
    or at the points s + i d, d in ``offsets``, for an array s of row starts
    of one real part.  Returns the values, their claims (a complex and a
    float, or arrays of shape s.shape + offsets.shape), inf where the
    remainder overflows, and N - 1 + M, all picked at the largest |Im s|.
    """
    if offsets is None:
        points, top = s, s
    else:
        points = np.add.outer(s, 1j * offsets)
        top = complex(s.real.flat[0], np.abs(points.imag).max())
    sigma, scale, n = top.real, abs(top - 1.0), _em_terms(top, target)
    if n == _MAX_TERMS:  # the least remainder may miss the target: refuse before summing
        remainder = _em_order(top, n, 0.5 * target)[1]
        if remainder > target:
            raise PrecisionUnreachable(f"the Euler-Maclaurin remainder at s = {top!r} is "
                                       f"{remainder / target:.3g} times the target with the "
                                       f"most terms, {n}")
    log_n, ln_n = math.log(n), np.log(np.arange(1.0, n))
    amp = np.exp(-sigma * ln_n)
    # c eps, with eps first, so that no product of two huge |s| overflows
    c = _EPS * (1.5 * sigma + (1.5 if offsets is None else 2.0) * abs(top.imag))
    fp = (scale * (c * float(amp @ ln_n) + _EPS * (0.5 * n + 8.0) * float(amp.sum()))
          + n ** (1.0 - sigma) * (c * log_n + 8.0 * _EPS))
    m, remainder, tail = _em_order(top, n, 0.5 * (target - fp if fp < target else target))
    fp += scale * n ** -sigma * tail * (c * log_n + _EPS * (6.0 * m + 12.0))
    phases = np.exp(-1j * np.multiply.outer(s.imag, ln_n))
    if offsets is None:
        head, n_s = complex(phases @ amp), cmath.exp(-log_n * s)
    else:
        head = phases @ (amp * np.exp(-1j * np.multiply.outer(offsets, ln_n))).T
        n_s = np.exp(-log_n * points)
    # Horner in (s+2k-1)(s+2k)/N^2 = s^2/N^2 + (4k-1) s/N^2 + (2k-1) 2k/N^2, in place on rows
    n2 = float(n) * n
    poly, over, square = 0.0, points / n2, points * points / n2
    for k in range(m, 0, -1):
        u = over * (4 * k - 1)
        u += square
        u += (2 * k - 1) * 2 * k / n2
        u *= poly
        u += _EM_COEF[k]
        poly = u
    value = (points - 1.0) * (head + n_s * (0.5 + points / n * poly)) + n * n_s
    return value, remainder + fp + 8.0 * _EPS * abs(value), n - 1 + m


def _chi_factors(s: complex) -> tuple[complex, float, complex, float]:
    """The reflection factor chi(s) = 2^s pi^{s-1} sin(pi s / 2) Gamma(1-s)
    on Re s <= 1/2, where Gamma(1-s) is in Stirling's half-plane, split as
    (smooth part, its relative error, sin(pi s / 2), its absolute error
    6 eps |w| cosh(Im w), derived in the module docstring)."""
    w = 0.5 * math.pi * s
    # |sin w| <= cosh(Im w) bounds it and its error; past e^709 neither is representable
    if abs(w.imag) > _LOG_MAX:
        raise PrecisionUnreachable(f"reflection factor at s = {s!r} overflows double precision")
    log_gamma, log_err = loggamma_right(1.0 - s)
    log_2, log_pi = s * _LN2, (s - 1.0) * _LOG_PI
    log_part = log_2 + log_pi + log_gamma
    a = _cexp(log_part)
    log_err += 2.0 * _EPS * (abs(log_2) + abs(log_pi) + abs(log_gamma))
    rel_a = log_err * math.exp(log_err) + 4.0 * _EPS * (1.0 + abs(log_part))
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
    w_val, w_err, n = _weighted_pole_product(1.0 - s, target / (abs(a) * sinc_hi))
    value = -a * sinc * w_val
    # |zeta - value| <= hi - |value| up to rounding: the factors' error discs' product
    hi = abs(a) * (1.0 + rel_a) * sinc_hi * (abs(w_val) + w_err)
    return value, hi - abs(value) + 8.0 * _EPS * hi, n


def _zeta_core(s: complex, target: float = 1e-15) -> tuple[complex, float, int]:
    s = _require_finite(s)
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleAtOne(f"zeta has its pole at s = 1; got {s!r}")
    if s.real > 0.0:
        w_val, w_err, n = _weighted_pole_product(s, target * abs(s - 1.0))
        value = w_val / (s - 1.0)
        err = w_err / abs(s - 1.0) + 4.0 * _EPS * abs(value)
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

    xi(s) = xi(1 - s) moves Re s <= 0 to Re s >= 1, where s Gamma(s/2) =
    2 Gamma(s/2 + 1) and W remove the poles: xi(s) = pi^{-s/2} Gamma(s/2 + 1)
    W(s), the Gamma factor in log space, so it overflows only where |xi| does
    (and is refused where subnormal).  Rounding 1 - s moves xi by at most
    |xi'| eps |1 - Re s|, inside the 6 eps (1 + |log part|) term of the claim.
    """
    s = _require_finite(s)
    if s.real <= 0.0:
        s = 1.0 - s
    log_gamma, log_err = loggamma_right(0.5 * s + 1.0)
    log_part = log_gamma - 0.5 * s * _LOG_PI
    prefactor = _cexp(log_part)
    if abs(prefactor) < _TINY:
        raise PrecisionUnreachable(f"xi at {s!r} underflows double precision")
    w_val, w_err, n = _weighted_pole_product(s)
    value = prefactor * w_val
    rel = log_err * math.exp(log_err) + 6.0 * _EPS * (1.0 + abs(log_part))
    # a subnormal product adds at most 8 times the least subnormal, eps tiny
    err = abs(value) * (rel + w_err / max(abs(w_val), 1e-300)) + 8.0 * _EPS * _TINY
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
    a, rel_a, trig, trig_err = _chi_factors(u)
    lhs, lhs_err, _ = _zeta_core(u)
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
    prefactor = np.exp(loggamma_right(0.5 * s + 1.0)[0] - 0.5 * s * _LOG_PI)
    lost = np.abs(prefactor) < _TINY
    if np.any(lost):
        raise PrecisionUnreachable(f"xi(1/2 + it) underflows at t = {t[lost][0]:g}")
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
