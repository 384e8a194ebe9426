"""Pairwise inner products of dilated fractional parts under dt/t^2.

Each entry is I(a, b) = int_1^inf {t/a}{t/b} dt/t^2.

The closed form.  For a pair (a, b) = (c h, c k) with h/k in lowest terms,
Vasyunin's cotangent sum (Vasyunin 1995; restated in Bettin-Conrey, Period
functions and cotangent sums, 2013) gives

    I(a, b) = J(h, k)/c - 1/(a b),
    J(h, k) = (ln 2pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) ln(h/k)
              - pi/(2hk) (V(h/k) + V(k/h)),
    V(h/k)  = sum_{0<m<k} {m h/k} cot(pi m/k),

at O(h + k) cost.  {m h/k} is formed from the integer (m h) mod k, and
cot(pi m/k) from the argument folded into (0, pi/2], so that no argument
sits next to the pole at pi.  Nothing is truncated, and the certified error
is roundoff only.  With u = 2^-53, each step below is first order in u:

* the folded argument x carries relative error <= 3u (pi, the product, the
  quotient), which moves cot x by <= 3u x/sin^2 x <= 3u (pi/2 + |cot x|);
  tan (taken within one ulp, as is log) and the reciprocal add 3u |cot x|,
  the fraction and the product 2u, so each summand is off by
  <= 8u {m h/k} (1 + |cot x|), and the correctly rounded sum (math.fsum)
  adds u |V|: V is within 9u M_V, M_V = sum {m h/k} (1 + |cot(pi m/k)|);
* the coefficient pi/(2hk), the sum V(h/k) + V(k/h), the product and the
  two additions of J keep the cot term within 15u pi/(2hk) (M_V + M_V'),
  with M_V' the magnitude of V(k/h); the first term is within 7u of its
  size (a rounded constant, three operations, the additions of J), and the
  log term within 6u (k - h)/(2hk) (1 + |ln(h/k)|), since the rounding of
  h/k moves the log by u absolutely;
* dividing by the rounded c, forming 1/(a b) and the final subtraction add
  at most 3u of |J|/c + 1/(a b).

So |error| <= 18u M with M = (|first term| + (k - h)/(2hk)(1 + |ln(h/k)|)
+ pi/(2hk)(M_V + M_V'))/c + 1/(a b), and 16 eps M = 32u M is certified
(about 1.8x slack).

Every entry is this closed form at (a, b) = (lo, hi), lo <= hi, c = lo/h.
With x = lo/hi exactly, h/k = x when its denominator is at most
``DENOMINATOR_CAP`` (the bound is then roundoff only, whatever the
tolerance); otherwise h/k is the first convergent of x whose continuity
bound is at most max(tol/2, 1e-13), the floor keeping near-exact pairs
such as (1.1, 3.3) on 1/3.  Past the cap, PrecisionUnreachable is raised.

The continuity bound.  At a convergent, c k = b' = lo k/h is not hi.  Let
delta = |1/hi - 1/b'|, m0 = min(hi, b') and T = max(1, 1/(2 delta)).  As
0 <= {t/lo} < 1, |I(lo, hi) - I(lo, b')| is at most the integral of
|{t/hi} - {t/b'}| under dt/t^2.  On [1, T], t/hi and t/b' differ by
t delta <= 1/2, so their floors differ only on the strips
[m m0, m max(hi, b')), by one.  Off the strips the integrand is t delta,
which gives <= delta ln T; on a strip it is <= 1, and strip m weighs
delta/m, so the strips with m < T/m0 give <= delta (1 + ln+(T/m0)).  Past
T the integrand is below 1, which gives 1/T.  So

    C = delta (1 + ln T + ln+(T/m0)) + 1/T = O(delta ln(1/delta)),

and the closed form moves by delta/lo more, since it subtracts 1/(lo hi)
where I(lo, b') has 1/(lo b').  delta is computed in rationals and rounded
up; C + delta/lo, evaluated in floats and inflated by 16 eps to cover that,
is added to the roundoff bound.  Since delta = |x - h/k|/lo < 1/(lo k^2),
a tolerance tol needs k of about (ln(1/tol)/(lo tol))^(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, DuplicateDilation, PrecisionUnreachable
from .moments import moment_constant

__all__ = ["GramSystem", "gram_system", "pair_product_integral"]

#: largest denominator h/k at which the closed form is evaluated
DENOMINATOR_CAP = 2**20

#: ln(2 pi) - gamma, correctly rounded
_LN_2PI_MINUS_GAMMA = 1.2606614015078126

#: certified roundoff of a closed-form entry, per unit of summed magnitude
_CLOSED_FORM_ROUNDOFF = 16.0 * np.finfo(float).eps


def _cot_sum(h: int, k: int) -> tuple[float, float]:
    """V(h/k) and its magnitude M_V = sum {m h/k} (1 + |cot(pi m/k)|)."""
    if k == 1:
        return 0.0, 0.0
    m = np.arange(1, k)
    frac = (m * h % k) / k
    cot = 1.0 / np.tan(np.pi * np.minimum(m, k - m) / k)
    cot = np.where(2 * m < k, cot, -cot)
    return math.fsum((frac * cot).tolist()), float(frac @ (1.0 + np.abs(cot)))


def _closed_form_entry(lo: float, hi: float, h: int, k: int) -> tuple[float, float]:
    """(value, roundoff bound) of I(c h, c k), c = lo/h, by Vasyunin's formula."""
    v_hk, m_hk = _cot_sum(h, k)
    v_kh, m_kh = _cot_sum(k, h)
    first = 0.5 * _LN_2PI_MINUS_GAMMA * (1.0 / h + 1.0 / k)
    log_coef = (k - h) / (2.0 * h * k)
    log_ratio = math.log(h / k)
    cot_coef = math.pi / (2.0 * h * k)
    j = first + log_coef * log_ratio - cot_coef * (v_hk + v_kh)
    c = lo / h
    inv_ab = 1.0 / (lo * hi)
    magnitude = (first + log_coef * (1.0 - log_ratio) + cot_coef * (m_hk + m_kh)) / c + inv_ab
    return j / c - inv_ab, _CLOSED_FORM_ROUNDOFF * magnitude


def _convergents(x: Fraction):
    """The convergents h/k of x in (0, 1] with h >= 1, by growing k."""
    num, den = x.numerator, x.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0
    while den:
        q, num, den = num // den, den, num % den
        h0, k0, h1, k1 = h1, k1, q * h1 + h0, q * k1 + k0
        if h1:
            yield h1, k1


def _continuity_bound(lo: float, hi: float, h: int, k: int) -> float:
    """C + delta/lo of the module docstring: the closed form at h/k off I(lo, hi)."""
    b = Fraction(lo) * k / h
    delta = math.nextafter(float(abs(1 / Fraction(hi) - 1 / b)), math.inf)  # rounded up
    log_t = max(0.0, -math.log(2.0 * delta))
    logs = 1.0 + log_t + max(0.0, log_t - math.log(min(hi, float(b))))
    return (delta * logs + min(1.0, 2.0 * delta) + delta / lo) * (1.0 + _CLOSED_FORM_ROUNDOFF)


def pair_product_integral(a: float, b: float, target_entry_error: float) -> tuple[float, float]:
    """(value, certified absolute error) of int_1^inf {t/a}{t/b} dt/t^2.

    ``target_entry_error`` governs only pairs whose exact ratio has a
    denominator above ``DENOMINATOR_CAP``; the rest carry roundoff only.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or min(a, b) < 1.0 - 1e-12:
        raise DomainError(f"dilations must be finite and lie in [1, inf); got ({a!r}, {b!r})")
    if not target_entry_error > 0.0:
        raise DomainError("target_entry_error must be positive")
    lo, hi = (a, b) if a <= b else (b, a)
    x = Fraction(lo) / Fraction(hi)
    if x.denominator <= DENOMINATOR_CAP:
        return _closed_form_entry(lo, hi, x.numerator, x.denominator)
    goal = max(0.5 * target_entry_error, 1e-13)
    for h, k in _convergents(x):
        if k > DENOMINATOR_CAP:
            break
        continuity = _continuity_bound(lo, hi, h, k)
        if continuity <= goal:
            value, roundoff = _closed_form_entry(lo, hi, h, k)
            return value, roundoff + continuity
    raise PrecisionUnreachable(f"entry ({a!r}, {b!r}) needs a denominator above "
                               f"{DENOMINATOR_CAP} for {target_entry_error:g}")


@dataclass(frozen=True)
class GramSystem:
    """Inner-product data of the basis b_k(t) = {t / l_k} under dt/t^2.

    ``matrix`` holds the pairwise products, certified entrywise within
    ``entry_error_bounds``; ``moment_vector`` holds <1, b_k> from the exact
    closed form (lam + ln l_k)/l_k; ``constraint_vector`` holds 1/l_k.
    """

    dilations: tuple[float, ...]
    matrix: np.ndarray
    moment_vector: np.ndarray
    constraint_vector: np.ndarray
    entry_error_bounds: np.ndarray

    @property
    def size(self) -> int:
        return len(self.dilations)

    def head(self, n: int) -> "GramSystem":
        """Sub-system on the first n dilations; entries are shared, so nested
        families see identical values for common pairs."""
        if not 1 <= n <= self.size:
            raise DomainError(f"head size {n} outside 1..{self.size}")
        return GramSystem(
            dilations=self.dilations[:n],
            matrix=self.matrix[:n, :n],
            moment_vector=self.moment_vector[:n],
            constraint_vector=self.constraint_vector[:n],
            entry_error_bounds=self.entry_error_bounds[:n, :n],
        )

    def to_dict(self) -> dict:
        return {
            "dilations": list(self.dilations),
            "matrix": self.matrix.tolist(),
            "g_vector": self.moment_vector.tolist(),
            "c_vector": self.constraint_vector.tolist(),
            "entry_error_bounds": self.entry_error_bounds.tolist(),
        }


def gram_system(dilations, target_entry_error: float) -> GramSystem:
    """Assemble the Gram data for an ascending list of distinct dilations.

    Entries are computed pair by pair (deterministically, one pair at a
    time) with ``pair_product_integral``; DuplicateDilation is raised when
    two dilations coincide within relative 1e-12.
    """
    dils = [float(l) for l in dilations]
    if not dils:
        raise DomainError("at least one dilation is required")
    if any(l < 1.0 - 1e-12 or not math.isfinite(l) for l in dils):
        raise DomainError("dilations must lie in [1, inf)")
    for x, y in zip(dils, dils[1:]):
        if y < x:
            raise DomainError("dilations must be ascending")
        if y - x <= 1e-12 * y:
            raise DuplicateDilation(f"dilations {x!r} and {y!r} coincide")
    n = len(dils)
    matrix = np.zeros((n, n))
    bounds = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            value, err = pair_product_integral(dils[i], dils[j], target_entry_error)
            matrix[i, j] = matrix[j, i] = value
            bounds[i, j] = bounds[j, i] = err
    larr = np.array(dils)
    g = (moment_constant() + np.log(larr)) / larr
    c = 1.0 / larr
    return GramSystem(
        dilations=tuple(dils),
        matrix=matrix,
        moment_vector=g,
        constraint_vector=c,
        entry_error_bounds=bounds,
    )
