"""ln Gamma on the right half-plane via Stirling's series, and Euler's
constant.

``_BERNOULLI[k]`` is the exact B_2k, k <= 40, by the recurrence
(2m+1) B_2m = (2m-1)/2 - sum_{0<k<m} C(2m+1, 2k) B_2k: the one source of
Bernoulli numbers, for Stirling's series here and the Euler-Maclaurin sums
of ``zeta``.  ``_EULER_GAMMA`` is the correctly rounded gamma, the one
gamma of the package (``constants`` prints it); ``moment_constant``,
lam = 1 - gamma, is the constant of the first moments and the Gram moment
vector.  Both sit here beside the correctly rounded ln(2 pi) - gamma of
``gram``'s closed form.  ``moments`` re-exports ``moment_constant``.

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionUnreachable

__all__ = ["ComplexEvalReport", "loggamma_right", "moment_constant", "POLE_TOL"]


def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_{2 count} by the recurrence of the module docstring."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        head = sum(math.comb(2 * m + 1, 2 * k) * b[k] for k in range(1, m))
        b.append((Fraction(2 * m - 1, 2) - head) / (2 * m + 1))
    return tuple(b)


_BERNOULLI = _bernoulli_even(40)


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
