"""Pairwise inner products of dilated fractional parts under dt/t^2.

Each entry is I(a, b) = int_1^inf {t/a}{t/b} dt/t^2.

Commensurate pairs.  When the float ratio a/b (a <= b) lies within relative
1e-12 of a fraction h/k in lowest terms with k <= RATIO_DENOMINATOR_CAP, the
pair is taken to be exactly (c h, c k) with c = a/h, and the entry comes
from Vasyunin's cotangent-sum closed form (Vasyunin 1995; restated in
Bettin-Conrey, Period functions and cotangent sums, 2013):

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
(about 1.8x slack).  The requested tolerance does not enter.

Incommensurate pairs.  Between consecutive points of the union lattice
{m a} U {n b} the integrand is a quadratic over t^2 and integrates in
closed form; writing the two linear factors through their values at the
segment midpoint keeps every per-segment term cancellation-free, so the
head integral over (1, T] is exact to roundoff.  The lattice and the
per-segment integrals come from the windowed kernel in ``moments``, which
the weighted norms share; a walk holds one window of about
``moments._WINDOW`` segments in memory at a time.  Above T, with
{x} = 1/2 + psi(x),

    int_T^inf {t/a}{t/b} dt/t^2 = 1/(4T) + mu/T + E,

and mu, the asymptotic mean of psi(t/a) psi(t/b), vanishes because the pair
equidistributes on the torus.  No elementary rate is available, so the
Cauchy-Schwarz bound |mean tail| <= 1/(12 T) is claimed instead and T grows
like 1/tolerance, with a hard segment cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, DuplicateDilation, PrecisionUnreachable
from .moments import _lattice_windows, _segment_integrals, moment_constant

__all__ = ["GramSystem", "gram_system", "pair_product_integral"]

#: largest denominator tried when detecting a rational dilation ratio
RATIO_DENOMINATOR_CAP = 10_000

#: hard cap on lattice segments per entry
SEGMENT_CAP = 100_000_000

#: ln(2 pi) - gamma, correctly rounded
_LN_2PI_MINUS_GAMMA = 1.2606614015078126

#: certified roundoff of a closed-form entry, per unit of summed magnitude
_CLOSED_FORM_ROUNDOFF = 16.0 * np.finfo(float).eps


def _reduced_ratio(lo: float, hi: float) -> tuple[int, int] | None:
    """(h, k) in lowest terms with lo/hi within relative 1e-12 of h/k, or None."""
    ratio = lo / hi
    frac = Fraction(ratio).limit_denominator(RATIO_DENOMINATOR_CAP)
    h, k = frac.numerator, frac.denominator
    if h == 0 or abs(ratio - h / k) > 1e-12 * ratio:
        return None
    return h, k


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


def _segment_head(a: float, b: float, T: float) -> tuple[float, int]:
    """Exact integral of {t/a}{t/b}/t^2 over (1, T], windowed lattice walk."""
    total = 0.0
    n_seg = 0
    for t1, u in _lattice_windows((a, b), 1.0, T):
        mid = t1 + 0.5 * u
        alpha1 = (mid / a - np.floor(mid / a)) - u / (2.0 * a)
        beta1 = (mid / b - np.floor(mid / b)) - u / (2.0 * b)
        i0, i1, i2 = _segment_integrals(t1, u)
        total += float(np.sum(alpha1 * beta1 * i0 + (alpha1 / b + beta1 / a) * i1 + i2 / (a * b)))
        n_seg += t1.size
    return total, n_seg


def pair_product_integral(a: float, b: float, target_entry_error: float) -> tuple[float, float]:
    """(value, certified absolute error) of int_1^inf {t/a}{t/b} dt/t^2.

    ``target_entry_error`` sets the truncation of incommensurate pairs only;
    commensurate pairs are exact up to a roundoff bound far below it.
    """
    a, b = float(a), float(b)
    if min(a, b) < 1.0 - 1e-12:
        raise DomainError(f"dilations must lie in [1, inf); got ({a!r}, {b!r})")
    if not target_entry_error > 0.0:
        raise DomainError("target_entry_error must be positive")
    lo, hi = (a, b) if a <= b else (b, a)
    ratio = _reduced_ratio(lo, hi)
    if ratio is not None:
        return _closed_form_entry(lo, hi, *ratio)
    tol = target_entry_error
    T = max(1.0 / (6.0 * tol), math.sqrt(2.0 * (a + b) / tol))
    n_est = T * (1.0 / a + 1.0 / b)
    if n_est > SEGMENT_CAP:
        raise PrecisionUnreachable(
            f"entry ({a:g}, {b:g}) would need {n_est:.2g} segments for {tol:g}"
        )
    head, n_seg = _segment_head(a, b, T)
    value = head + 0.25 / T
    err = 1.0 / (12.0 * T) + (a + b) / (T * T) + 4e-16 * math.sqrt(float(n_seg)) + 1e-14
    return value, err


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
