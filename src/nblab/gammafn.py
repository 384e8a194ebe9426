"""Gamma function on the complex plane via Stirling's series, and Euler's
constant.

``_BERNOULLI[k]`` is the exact B_2k, k <= 40, by the recurrence
(2m+1) B_2m = (2m-1)/2 - sum_{0<k<m} C(2m+1, 2k) B_2k: the one source of
Bernoulli numbers, for Stirling's series and ``euler_gamma`` here and the
Euler-Maclaurin sums of ``zeta``.  ``moment_constant``, lam = 1 - gamma, is
the constant of the first moments and the Gram moment vector: 1 minus the
correctly rounded gamma, held here beside the correctly rounded
ln(2 pi) - gamma of ``gram``'s closed form.  ``moments`` re-exports
``euler_gamma`` and ``moment_constant``.

On Re z >= 1/2, ln Gamma(w) = (w - 1/2) ln w - w + ln(2 pi)/2 +
sum_{k<K} B_2k/(2k (2k-1) w^{2k-1}) + R_K(w), K = 10, with |R_K(w)| <=
|B_2K|/(2K (2K-1) |w|^{2K-1}) sec^{2K}(ph(w)/2) (DLMF 5.11(ii); Spira, Math.
Comp. 25, 1971) and sec^2(ph(w)/2) = 2|w|/(|w| + Re w) <= 2.  A point with
|z| < 14 takes the least shift m that brings Re z + m to 14, ln Gamma(z)
= ln Gamma(z + m) - ln prod_{j<m} (z + j), so |R_K| <= 2.4e-19.  Rounding
(eps = 2^-52, elementary functions within an ulp): five parts, each a product
of at most two rounded factors (3 eps), m shift factors (2 eps each), and
their sum (2 eps of the moduli): the claim is R_K + 6 eps ((|w| + 1)
(|ln w| + 1) + |ln prod| + 2m), which covers rounding w = z + m too.

Gamma = exp(ln Gamma) is within |Gamma| (d e^d + 4 eps (1 + |ln Gamma|)) for
a logarithm within d.  For Re s < 1/2, Gamma(s) Gamma(1-s) = pi / sin(pi s),
with sin(pi s) at the exact remainder of s modulo the nearest integer and in
log form for large |Im s|, so neither the poles nor large heights cost
accuracy or overflow.  With w = pi (s - k) (|dw| <= 1.7 eps |w|) folded onto
Re w in [0, pi/2], |w cot w| <= 1.32 |w| + 2.43, so sin w is within a
relative eps (3|w| + 8).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleAtNonPositiveInteger, PrecisionUnreachable

__all__ = ["ComplexEvalReport", "euler_gamma", "gamma", "loggamma_right", "moment_constant",
           "POLE_TOL"]


def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_{2 count} by the recurrence of the module docstring."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        head = sum(math.comb(2 * m + 1, 2 * k) * b[k] for k in range(1, m))
        b.append((Fraction(2 * m - 1, 2) - head) / (2 * m + 1))
    return tuple(b)


_BERNOULLI = _bernoulli_even(40)


def euler_gamma(target_abs_error: float, n: int | None = None) -> float:
    """Euler-Mascheroni constant with certified error <= target_abs_error.

    gamma = H_n - ln n - 1/(2n) + sum_k B_{2k}/(2k) n^{-2k}, truncated after
    n^{-8}, with B_{2k} from ``_BERNOULLI``; the remainder is bounded by the
    first omitted term |B_10|/10 n^{-10}.  ``n`` may be pinned explicitly to
    cross-validate two independent evaluations.
    """
    tail = float(abs(_BERNOULLI[5]) / 10)
    if not target_abs_error > 0.0:
        raise DomainError("target_abs_error must be positive")
    if target_abs_error < 5e-15:
        raise PrecisionUnreachable("euler_gamma cannot certify below 5e-15 in doubles")
    if n is None:
        n = max(16, math.ceil((2.0 * tail / target_abs_error) ** 0.1))
    elif tail * float(n) ** -10 > 0.5 * target_abs_error:
        raise PrecisionUnreachable(f"n = {n} too small for target {target_abs_error:g}")
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = harmonic - math.log(n) - 0.5 / n
    for k in range(1, 5):
        value += float(_BERNOULLI[k] / (2 * k)) * float(n) ** (-2 * k)
    return value


#: Euler's gamma and ln(2 pi) - gamma, correctly rounded
_EULER_GAMMA = 0.5772156649015329
_LN_2PI_MINUS_GAMMA = 1.2606614015078126


def moment_constant() -> float:
    """lam = 1 - gamma, the constant of the first-moment closed form: 1 minus
    the correctly rounded gamma, exact (Sterbenz)."""
    return 1.0 - _EULER_GAMMA


#: Stirling's shift bound, B_2k/(2k (2k-1)) for k < K = 10, highest first, and |B_2K|/(2K (2K-1))
_SHIFT_TO = 14
_STIRLING_COEF = [float(_BERNOULLI[k] / (2 * k * (2 * k - 1))) for k in range(9, 0, -1)]
_STIRLING_TAIL = float(abs(_BERNOULLI[10]) / (20 * 19))

#: absolute distance to a pole below which evaluation is refused
POLE_TOL = 1e-12

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

#: a little below ln(largest double): exp of anything larger overflows
_LOG_MAX = 709.0

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class ComplexEvalReport:
    """Value of a complex-analytic evaluation together with its certification.

    ``abs_error_estimate`` is the upper bound on |computed - true| claimed by
    the evaluation scheme; the test suite checks such claims against
    independent oracles.
    """

    value: complex
    abs_error_estimate: float
    terms_used: int


def _require_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if math.hypot(s.real, s.imag) == math.inf:  # where abs(s) raises OverflowError
        raise PrecisionUnreachable(f"|s| at s = {s!r} overflows double precision")
    return s


def _stirling(z: complex, m: int) -> tuple[complex, float]:
    """ln Gamma(z) by Stirling's series at w = z + m, m >= 0, and its claim."""
    w, shift, series = z + m, 1.0, 0.0
    for j in range(m):
        shift = shift * (z + j)
    log_w, log_shift, inv_w2 = cmath.log(w), cmath.log(shift) if m else 0.0, 1.0 / (w * w)
    for coef in _STIRLING_COEF:
        series = coef + series * inv_w2
    size = abs(w)
    claim = _STIRLING_TAIL * size ** -19.0 * (2.0 * size / (size + w.real)) ** 10  # R_K
    claim += 6.0 * _EPS * ((size + 1.0) * (abs(log_w) + 1.0) + abs(log_shift) + 2 * m)
    return (w - 0.5) * log_w - w + _LOG_SQRT_2PI + series / w - log_shift, claim


def loggamma_right(z: complex) -> tuple[complex, float]:
    """log Gamma(z) for Re z >= 0.5, correct up to an integer multiple of
    2*pi*i, and a bound on its absolute error (module docstring), at one
    complex point.

    Only ever exponentiated or differenced against another branch-insensitive
    quantity, so the branch ambiguity of the imaginary part is harmless.
    """
    return _stirling(z, math.ceil(_SHIFT_TO - z.real) if abs(z) < _SHIFT_TO else 0)


def _cexp(w: complex) -> complex:
    """cmath.exp, raising PrecisionUnreachable where the value overflows or
    where w, a log part, has itself overflowed (nan, or an infinite phase)."""
    if w.real > _LOG_MAX:
        raise PrecisionUnreachable(f"exp({w!r}) overflows double precision")
    if math.isnan(w.real) or not math.isfinite(w.imag):
        raise PrecisionUnreachable(f"the log part {w!r} overflows double precision")
    return cmath.exp(w)


def _log_sin(w: complex) -> complex:
    """ln sin w up to a multiple of 2 pi i.  For |Im w| >= 20 sin w itself
    may overflow, so ln sin w = -iw + ln((e^{2iw} - 1) / (2i)) is used above
    the real axis, where |e^{2iw}| < 1, and its conjugate below."""
    if abs(w.imag) < 20.0:
        return cmath.log(cmath.sin(w))
    if w.imag < 0.0:
        return _log_sin(w.conjugate()).conjugate()
    return -1j * w + cmath.log((cmath.exp(2j * w) - 1.0) / 2j)


def gamma(s: complex) -> ComplexEvalReport:
    """Gamma(s) anywhere away from the poles at 0, -1, -2, ...

    Raises PoleAtNonPositiveInteger within ``POLE_TOL`` of a pole and
    PrecisionUnreachable if the value over/underflows double precision.
    """
    s = _require_finite(s)
    if s.real <= 0.5 and abs(s - round(s.real)) <= POLE_TOL:
        raise PoleAtNonPositiveInteger(f"gamma pole at or near s = {s!r}")
    if s.real >= 0.5:
        (log_value, log_err), sign = loggamma_right(s), 1
    else:
        # reflection; sin(pi s) = (-1)^k sin(pi r) with r = s - k exact
        # (Sterbenz), so pi r keeps full relative accuracy next to a pole,
        # and sin(-w) = -sin(w) folds Re w onto [0, pi/2], where sin w > 0
        # for real s, so a real s keeps a real value
        k = round(s.real)
        w, sign = math.pi * (s - k), (-1) ** k
        if w.real < 0.0:
            w, sign = -w, -sign
        log_sin, (log_right, log_err) = _log_sin(w), loggamma_right(1.0 - s)
        log_value = _LOG_PI - log_sin - log_right
        log_err += _EPS * (3.0 * abs(w) + 8.0 + 2.0 * (abs(log_sin) + abs(log_right)))
    value = sign * _cexp(log_value)
    if not np.isfinite(value) or abs(value) < np.finfo(float).tiny:  # Gamma has no zeros
        raise PrecisionUnreachable(f"gamma({s!r}) not representable in double precision")
    rel = log_err * math.exp(log_err) + 4.0 * _EPS * (1.0 + abs(log_value))
    return ComplexEvalReport(value, abs(value) * rel, len(_STIRLING_COEF))
