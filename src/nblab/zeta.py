"""Riemann zeta, the completed xi function, and critical-line zero location.

Evaluation scheme
-----------------
Every value, and every sign the zero scan reads up to t = 200, comes from
one function: W(s) = (s - 1) zeta(s) on Re s > 0, ``_weighted_pole_product``,
the Euler-Maclaurin sum of zeta (Edwards, *Riemann's Zeta Function*, 6.4;
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
  that the zero of sin at s = 0 cancels the reflected pole (fe-check's right
  side on Re s <= 1/2).  The claim bounds the product of the three factors'
  error discs; W's target is zeta's over |a| (|sin(pi s/2)/s| + its error).
  With w = pi s / 2 = x + iy, rounding w moves sin w by at most
  eps |w| cosh y, and ``cmath.sin`` adds at most 2 eps (|sin x| cosh y +
  |cos x| |sinh y|) <= 2 sqrt(2) eps |w| cosh y (|sin x| <= |x|,
  |sinh y| <= |y| cosh y, |x| + |y| <= sqrt(2) |w|), so 6 eps |w| cosh y
  covers both and vanishes with s.  ln a adds 2 eps of its three parts'
  moduli to ln Gamma's claim.
- xi(s) = 1/2 pi^{-s/2} s (s-1) Gamma(s/2) zeta(s) has one formula,
  pi^{-s/2} Gamma(s/2 + 1) W(s), reached on Re s <= 0 through xi(s) = xi(1-s),
  and one claim.  Where that Gamma factor is subnormal (on the critical
  line from t = 908.65) it has lost bits, and xi refuses.

Hardy's Z
---------
The zero scan reads the sign of Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it),
theta(t) = arg Gamma(1/4 + it/2) - t/2 ln pi, real on the real line:
from W's rows up to t = 200, and by the Riemann-Siegel formula above.  Both
read one theta, ``_theta``, with one claim.

- theta(t) = t/2 ln(t/2 pi) - t/2 - pi/8 + sum_k (1 - 2^{1-2k}) |B_2k| /
  (4k (2k-1) t^{2k-1}), summed to k = 3 (1/(48t) + 7/(5760t^3) +
  31/(80640t^5)).  The series' terms are all positive, and its error is
  not below the first omitted term (1.015 times it at t = 10, 406 times at
  t = 2).  A bound: theta(t) = Im ln Gamma(z) - t/2 ln pi, z = 1/4 + it/2,
  and Stirling's series to K = 4 terms (``gammafn``'s, DLMF 5.11(ii)) is off
  by |R_4(z)| <= |B_8|/56 |z|^-7 sec^8(ph(z)/2) <= 1.22 t^-7 (|z| >= t/2,
  sec^2 <= 2).  Its terms re-expand about z = (it/2)(1 + e), e = -i/(2t),
  into a series in x = 1/(2t) that converges for t > 1/2, whose imaginary
  part is the series above up to t^-5 and odd in 1/t: the tail of
  (z - 1/2) ln z, (1 - e) ln(1 + e)/(4e) with coefficients (2n+1)/(4n(n+1)),
  is within 15/224 x^7/(1 - x^2), and that of B_2k/(2k(2k-1)) z^{1-2k},
  from (1 + e)^{1-2k}, within |B_2k|/(2k(2k-1)) (4x)^{2k-1} C(6, 8-2k)
  x^{8-2k} / (1 - r_k x^2), r_k = 56/((9-2k)(10-2k)), k = 1..3.  From
  t = 10 these sum to 0.121 t^-7, so theta's truncation is within
  1.34 t^-7 (``_THETA_TAIL``); below t = 10 no claim is made (inf), so no
  sign of Z counts there, and Z has no zero below 14.13.  Rounding adds
  3 eps t (|ln(t/2 pi)| + 2) (its logarithm, products and sums).
- Up to t = 200 (``_em_z_rows``), Z(t) = Re e^{i theta} q with
  q = W(s)/(s - 1), s = 1/2 + it, from W's rows.  e^{i theta} zeta is real,
  so an error d in theta moves Re e^{i theta} zeta by |zeta| (1 - cos d)
  <= |zeta| d^2/2, and theta's crude bound costs nothing; q is within
  dW/|s - 1| of zeta (dW W's claim) up to the rounding of the division.
  The claim is dW/|s - 1| + (|q| + dW/|s - 1|) (d^2/2 + 16 eps), the 16 eps
  for the division, cos, sin, the two products and their sum.  Against
  30-digit ``mpmath.siegelz`` the worst ratio of error to claim seen is
  0.05, on rows in [10, 200] and across the first zeros.

From t = 200 the scan reads Z by the Riemann-Siegel formula (Edwards, ch. 7)
(``_z_rows``).  With N = floor(sqrt(t/2 pi)), p = sqrt(t/2 pi) - N and
w = (t/2 pi)^{-1/2},

    Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t ln n)
           + (-1)^{N-1} w^{1/2} sum_{j<=4} C_j(p) w^j + R,

and for t >= 200 Gabcke (thesis, Goettingen 1979) bounds |R| by d_4 t^{-11/4},
d_4 = 0.017 (8.0e-9 at t = 200).  An error d in theta moves this Z by at
most 2 d sum n^{-1/2}.

- C_0 = Psi, C_1 = -Psi^(3)/(96 pi^2), C_2 = Psi^(2)/(64 pi^2) +
  Psi^(6)/(18432 pi^4), C_3 = -Psi^(1)/(64 pi^2) - Psi^(5)/(3840 pi^4) -
  Psi^(9)/(5308416 pi^6), C_4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4) +
  11 Psi^(8)/(5898240 pi^6) + Psi^(12)/(2038431744 pi^8), derivatives in p
  of Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p) = -cos(2 pi x^2 -
  5 pi/8) / cos(2 pi x), x = p - 1/2.  Psi is entire and even in x; its
  Taylor coefficients to degree 43 are the 64-point trapezoid rule on
  |x| = 0.9 (a 44 x 64 DFT product at the first Z row; radius 3/4 would
  meet the zeros +-3/4 of cos 2 pi x, and float power-series division
  loses all digits near x = 1/2), and each C_j is a polynomial in x^2,
  times x for odd j: each point's sum_j w^j C_j is one polynomial in x^2,
  its coefficients from one matrix product, summed by Horner's rule.  The
  tables agree with 30-digit mpmath within a quarter
  of the table error ``_RS_TABLE_ERR`` that the claim carries.
  Psi(1 - p) = Psi(p), so a sqrt rounded across an integer (N off by one at
  t = 2 pi N^2) stays within the claim.
- The main sums of a row of points t = a_r + j h are Re(e^{i theta} sum_n
  n^{-1/2} e^{-i a_r ln n} e^{-i jh ln n}): one matrix product over the n up
  to the N at the row's start, plus the few n up to each point's own N,
  masked per point.
- Rounding (eps as above): each term's phase theta - t ln n is off by at
  most 3 eps t ln n (for t ln n = a_r ln n + jh ln n at the rounded t),
  plus theta's own claim; exp, the products and the sums add (N + 8) eps,
  all of the moduli 2 n^{-1/2}.  The correction's Horner sums, its table
  error and p (off by 2 eps sqrt(t/2 pi) + eps) add w^{1/2} sum_j w^j
  (table error + 64 eps max |C_j| + dp max |C_j'|), the sum taken at
  t = 200, and the last sum 2 eps |Z|.

This Z's claim is the sum of these terms, taken once per row: at its start
for Gabcke's term and (t/2 pi)^{-1/4}, which fall with t, at its end for
the rounding terms and N, which grow, and theta's largest claim on the row;
only 2 eps |Z| is taken per point.  Against 30-digit ``mpmath.siegelz``
the worst ratio of error to claim seen is 0.69, on t in [200, 5000] and at
t = 2 pi N^2 and one ulp either side for N = 6..18.

The zero scan
-------------
The scan reads the sign of Z on rows of equally spaced points
t = a_r + j h: from W's rows on the rows that start at or below t = 200,
with W's head sums by angle addition, e^{-i(a_r + jh) ln n} =
e^{-i a_r ln n} e^{-i jh ln n}, one matrix product per call, and by the
Riemann-Siegel formula on the others, each point with its kernel's claim.
A sign counts only where the value's magnitude exceeds its claim, which is
positive, so no counted sign is 0: a point whose sign does not count is
dropped, so that its two neighbours bracket across it.  The scan is one
pass of such calls: one for the grid's whole rows, the last row's points
past ``t_max`` dropped, then up to three rounds of probes for each group
of brackets (neighbours of opposite sign, grouped by width, up to 1024 at a
time), then the rows of the brackets the probes leave.

A bracket's zero is located on nested cuts: each level cuts it into at
most 32 equal parts, keeps every part whose ends' counted signs differ,
and stops once the parts are at most ``tol`` wide (2 ``tol`` for a bracket
across a dropped point); each final part's midpoint is reported, within
``tol`` of a zero between two counted signs.  A probe round reads the finest
part of those cuts that holds a guess as one two-point row, from its left
end p to p + h.  Round 1's guess is the root of the polynomial through the
grid's 6 values nearest the bracket, 3 a side (shifted inward at the grid's
ends), by Newton steps from regula falsi on the bracket's ends: a guess
needs no claim, so a value whose sign does not count serves as a node, and a
root that is not finite or lies off the bracket gives way to regula falsi.
At tol 1e-6 it lands in its zero's finest part on every bracket of the scan
to 500, so each of those zeros costs one round, the part's two ends.  Rounds
2 and 3 take the secant through the last two probes.  A bracket is done once
the part's two counted signs differ and all the counted signs it knows show
one sign change: where the cuts' rows see one sign change they reach that
part, and report its midpoint as the same float, whatever the guesses.  A
probe sign that does not count, a second sign change, a guess off the
bracket or three rounds without a zero hand the bracket to the cuts' whole
rows from the bracket itself.  Those rows may read again up to the 6 points
the probes read there, in a call whose claim may differ: each read counts by
its own claim, so a point may count in one read and not in another, but two
counted reads have one sign.  A bracket at least 2 ``tol`` wide none of
whose inner signs counts is refused (exit 2): the cuts take the lowest
brackets first, drop those above it, and name the lowest such bracket once
those below it are done.  So is a grid of more than 2^20 points, before
any row is evaluated.  The count is that of the sign changes seen, not a
certified count of zeros: a zero pair inside one grid cell goes unseen,
and so does a zero pair between two neighbouring probes of one sign in a
bracket with a third zero, which the cuts' whole rows would see wherever
one of their points fell between the pair.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleAtOne, PrecisionUnreachable
from .gammafn import _BERNOULLI, _EPS, _LOG_MAX, _LOG_PI, POLE_TOL, ComplexEvalReport, _cexp
from .gammafn import _require_finite, loggamma_right

__all__ = ["zeta", "xi", "functional_equation_residual", "find_critical_zeros"]

#: a hook that nothing calls: bench/tracing.py wraps this name, and it goes with
#: the tracer (ROADMAP item 1)
gamma = loggamma_right

_LN2 = math.log(2.0)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

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

#: most grid points of a scan (t_max ~ 52,000), refused before any row is
#: evaluated, so that no scan exhausts memory
_MAX_GRID = 2**20

#: the scan reads Hardy's Z by the Riemann-Siegel formula on rows that start
#: above this height, from which Gabcke's bound holds, and from W on the others
_Z_FROM = 200.0

#: most points per call of a row kernel, and 32 times the most brackets
#: probed and refined together, so that a scan's arrays stay within a few MiB
_Z_CHUNK = 2**15

#: Gabcke's d_4: past C_4 the Riemann-Siegel remainder is within d_4 t^{-11/4}
_GABCKE_D4 = 0.017

#: theta's series coefficients (1 - 2^{1-2k}) |B_2k| / (4k (2k-1)), k = 1..3
_THETA_COEF = [float((1 - Fraction(2, 4**k)) * abs(_BERNOULLI[k]) / (4 * k * (2 * k - 1)))
               for k in range(1, 4)]

#: theta's truncation is within _THETA_TAIL t^-7 from t = _THETA_FROM (module
#: docstring); below it theta's claim, and so every Z claim, is inf
_THETA_FROM, _THETA_TAIL = 10.0, 1.34

#: the largest (t/2 pi)^{-1/2} of a point the scan reads Z at
_W_MAX = math.sqrt(2.0 * math.pi / _Z_FROM)

#: bounds on the error of the C_j tables on |x| <= 1/2, each at least four
#: times what 30-digit mpmath shows on a grid of p in [0, 1)
_RS_TABLE_ERR = np.array([2e-15, 1e-16, 1e-15, 1e-13, 4e-12])


@functools.cache
def _rs_tables() -> tuple[np.ndarray, float, float]:
    """C_0..C_4 of the Riemann-Siegel remainder as polynomials in y = x^2,
    x = p - 1/2, row j holding C_j(x) / x^(j mod 2), lowest degree first, from
    Psi's Taylor coefficients (module docstring); and two bounds for Z's
    claim, sum_j w^j (table error + 64 eps max |C_j|) and sum_j w^j max |C_j'|
    on |x| <= 1/2 at w = ``_W_MAX``.  Built at the first Z row, so that a
    process that never reads Z neither computes nor pages in their code."""
    points, radius, degree = 64, 0.9, 43
    turns = np.exp(2j * math.pi * np.arange(points) / points)
    x = radius * turns
    psi = -np.cos(2.0 * math.pi * x * x - 0.625 * math.pi) / np.cos(2.0 * math.pi * x)
    powers = np.arange(degree + 1)
    a = (turns[-np.outer(powers, np.arange(points)) % points] @ psi).real
    a /= points * radius**powers
    a[1::2] = 0.0  # Psi(x) = Psi(-x)

    def der(k: int, scale: float) -> np.ndarray:
        """Psi^(k)'s coefficients over scale, padded to the table's length."""
        falling = [math.perm(i + k, k) for i in range(degree + 1 - k)]
        return np.pad(a[k:] * falling, (0, k)) / scale

    q = math.pi**2
    c = [a,
         -der(3, 96 * q),
         der(2, 64 * q) + der(6, 18432 * q**2),
         -der(1, 64 * q) - der(5, 3840 * q**2) - der(9, 5308416 * q**3),
         a / (128 * q) + 19 * der(4, 24576 * q**2) + 11 * der(8, 5898240 * q**3)
         + der(12, 2038431744 * q**4)]
    table = np.array([row[j % 2 :: 2] for j, row in enumerate(c)])
    power = 2 * np.arange(table.shape[1]) + (np.arange(5) % 2)[:, None]  # the degrees in x
    size = (np.abs(table) * 0.5**power).sum(axis=1)
    slope = (np.abs(table) * power * 0.5 ** (power - 1.0)).sum(axis=1)
    weight = _W_MAX ** np.arange(5)
    return table, float(weight @ (_RS_TABLE_ERR + 64.0 * _EPS * size)), float(weight @ slope)


def _log_r0(s: complex) -> float:
    """ln(|s - 1| |B_2|/2! |s| |s+1| / (sigma+1)), W's R_0 times N^{sigma+1};
    |B_2|/2! |s| / (sigma+1), 0 in floats at a subnormal s, is raised to the
    least subnormal, which only over-states R_0."""
    log_r = math.log(abs(s - 1.0)) if s != 1.0 else -math.inf
    head = max(_EM_COEF[1] * abs(s) / (s.real + 1.0), 5e-324)
    return log_r + math.log(head) + math.log(abs(s + 1.0))


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
    remainder overflows, and N - 1 + M.  N and M are picked at the call's
    largest |Im s|; a row's rounding claim takes c and |s - 1| at the row's
    own largest |Im s|.
    """
    if offsets is None:
        points, top = s, s
        row_top, scale = abs(s.imag), abs(s - 1.0)
    else:
        points = np.add.outer(s, 1j * offsets)
        row_top = np.abs(points.imag).max(axis=-1, keepdims=True)
        top = complex(s.real.flat[0], row_top.max())
        scale = np.abs(top.real - 1.0 + 1j * row_top)
    sigma, n = top.real, _em_terms(top, target)
    if n == _MAX_TERMS:  # the least remainder may miss the target: refuse before summing
        remainder = _em_order(top, n, 0.5 * target)[1]
        if remainder > target:
            raise PrecisionUnreachable(f"the Euler-Maclaurin remainder at s = {top!r} is "
                                       f"{remainder / target:.3g} times the target with the "
                                       f"most terms, {n}")
    log_n, ln_n = math.log(n), np.log(np.arange(1.0, n))
    if abs(top.imag) > _HUGE / log_n:
        raise PrecisionUnreachable(f"the phases t ln n at s = {top!r} overflow double precision")
    amp = np.exp(-sigma * ln_n)
    # c eps, with eps first, so that no product of two huge |s| overflows
    c = _EPS * (1.5 * sigma + (1.5 if offsets is None else 2.0) * row_top)
    fp = (scale * (c * float(amp @ ln_n) + _EPS * (0.5 * n + 8.0) * float(amp.sum()))
          + n ** (1.0 - sigma) * (c * log_n + 8.0 * _EPS))
    fp_top = np.max(fp)
    m, remainder, tail = _em_order(top, n, 0.5 * (target - fp_top if fp_top < target else target))
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


def _zeta_reflect(s: complex, target: float) -> tuple[complex, float, int]:
    """zeta(s) = -a (sin(pi s / 2)/s) W(1 - s), a = 2^s pi^{s-1} Gamma(1-s),
    on Re s <= 1/2, where Gamma(1-s) is in Stirling's half-plane, and its
    claim, the product of the three factors' error discs (module docstring)."""
    w = 0.5 * math.pi * s
    # |sin w| <= cosh(Im w) bounds it and its error; past e^709 neither is representable
    if not (abs(w.imag) <= _LOG_MAX and math.isfinite(w.real)):
        raise PrecisionUnreachable(f"reflection factor at s = {s!r} overflows double precision")
    log_gamma, log_err = loggamma_right(1.0 - s)
    log_2, log_pi = s * _LN2, (s - 1.0) * _LOG_PI
    log_part = log_2 + log_pi + log_gamma
    a = _cexp(log_part)
    log_err += 2.0 * _EPS * (abs(log_2) + abs(log_pi) + abs(log_gamma))
    rel_a = log_err * math.exp(log_err) + 4.0 * _EPS * (1.0 + abs(log_part))
    # below |s| = 1e-8, sin(pi s / 2) / s is pi/2 to rounding, and sin w / s
    # would lose digits to subnormals
    sinc = 0.5 * math.pi if abs(s) < 1e-8 else cmath.sin(w) / s
    sin_err = 6.0 * _EPS * abs(w) * math.cosh(w.imag)
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
    if not log_err < 700.0:  # log_err e^log_err, in the claim, overflows from about 703
        raise PrecisionUnreachable(f"xi at {s!r} or its error claim overflows double precision")
    w_val, w_err, n = _weighted_pole_product(s)
    value = prefactor * w_val
    # |xi| times the relative errors of e^{log_part} and of W, plus 8 eps tiny
    # for a subnormal product
    rel = log_err * np.exp(log_err) + 6.0 * _EPS * (1.0 + abs(log_part))
    err = float(abs(value) * (rel + w_err / max(abs(w_val), 1e-300)) + 8.0 * _EPS * _TINY)
    if not math.isfinite(err):  # also where the value itself overflows
        raise PrecisionUnreachable(f"xi at {s!r} or its error claim overflows double precision")
    return ComplexEvalReport(value=value, abs_error_estimate=err, terms_used=n)


def functional_equation_residual(s: complex) -> tuple[float, float]:
    """Relative residual |zeta(u) - RHS| / (1 + |zeta(u)|) of the reflection
    formula zeta(u) = 2^u pi^{u-1} sin(pi u / 2) Gamma(1-u) zeta(1-u) at u,
    whichever of s and 1 - s has Re u <= 1/2 (so s and 1 - s share it), and
    the bound on it that the error claims of both sides give.  The right side
    is ``_zeta_reflect`` at u, zeta's own route on Re u <= 0, so the sides
    are independent only on Re u > 0, and elsewhere the residual is 0."""
    s = complex(s)
    u = s if s.real <= 0.5 else 1.0 - s
    lhs, lhs_err, _ = _zeta_core(u)
    rhs, rhs_err, _ = _zeta_reflect(u, 1e-15)
    scale = 1.0 + abs(lhs)
    return abs(lhs - rhs) / scale, (lhs_err + rhs_err + 8.0 * _EPS * abs(lhs)) / scale


def _theta(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta(t) by its series to k = 3 at the points t > 0, and its claims:
    the truncation and rounding bound of the module docstring from t =
    ``_THETA_FROM``, inf below."""
    half, inv = 0.5 * t, 1.0 / t
    inv2 = inv * inv
    c1, c2, c3 = _THETA_COEF
    log_u = np.log(t / (2.0 * math.pi))
    theta = half * log_u - half - 0.125 * math.pi + inv * (c1 + inv2 * (c2 + inv2 * c3))
    claim = _THETA_TAIL * inv * inv2**3 + 3.0 * _EPS * t * (np.abs(log_u) + 2.0)
    return theta, np.where(t >= _THETA_FROM, claim, np.inf)


def _em_z_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points t = a_r + j h, j < m, one row per start a_r, Hardy's Z(t) =
    Re e^{i theta(t)} W(s)/(s - 1), s = 1/2 + it, there from W's rows, and
    its claims (module docstring)."""
    offsets = h * np.arange(m)
    t = np.add.outer(a, offsets)
    w_rows, w_err, _ = _weighted_pole_product(0.5 + 1j * a, offsets=offsets)
    pole = -0.5 + 1j * t  # s - 1
    q = w_rows / pole
    theta, theta_err = _theta(t)
    z = np.cos(theta) * q.real - np.sin(theta) * q.imag
    q_err = w_err / np.abs(pole)
    return t, z, q_err + (np.abs(q) + q_err) * (0.5 * theta_err * theta_err + 16.0 * _EPS)


def _z_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points t = a_r + j h, j < m, all t >= 200, one row per start a_r,
    Hardy's Z(t) there by the Riemann-Siegel formula, and its claims (module
    docstring), with the main sums' phases by angle addition."""
    offsets = h * np.arange(m)
    t = np.add.outer(a, offsets)
    u = t / (2.0 * math.pi)
    root = np.sqrt(u)
    n_point = np.floor(root)  # N(t)
    n_row = np.floor(np.sqrt(a / (2.0 * math.pi))).astype(int)  # N at a row's start
    n = np.arange(1.0, n_point.max() + 1.0)
    ln_n, amp = np.log(n), n**-0.5
    phases = np.exp(-1j * np.multiply.outer(a, ln_n))
    steps = np.exp(-1j * np.multiply.outer(ln_n, offsets))
    # a row's points past the start's N add the n between, each masked per point
    rows, extra = np.arange(a.size), []
    for k in range(1, int((n_point - n_row[:, None]).max()) + 1):
        col = np.minimum(n_row + k - 1, n.size - 1)
        term = (phases[rows, col] * amp[col])[:, None] * steps[col]
        extra.append(np.where(n_point >= (n_row + k)[:, None], term, 0.0))
    phases *= np.where(n <= n_row[:, None], amp, 0.0)
    head = phases @ steps
    for term in extra:
        head += term
    theta, theta_err = _theta(t)
    main = 2.0 * (np.cos(theta) * head.real - np.sin(theta) * head.imag)
    # sum_j w^j C_j(x) with w = (t/2 pi)^{-1/2} and C_j(x) = x^(j mod 2) Q_j(x^2):
    # each point's coefficients sum_j w^j x^(j mod 2) Q_j, then Horner in x^2
    x = root - n_point - 0.5
    w = 1.0 / root
    w2, wx = w * w, w * x
    table, table_err, table_slope = _rs_tables()
    coef = table.T @ np.stack([np.ones_like(w), wx, w2, w2 * wx, w2 * w2]).reshape(5, -1)
    y = (x * x).ravel()
    corr = coef[-1]
    for c in coef[-2::-1]:
        corr *= y
        corr += c
    quarter = np.sqrt(w)
    z = main + np.where(n_point % 2.0 == 1.0, quarter, -quarter) * corr.reshape(t.shape)
    # the claim of each row, from its ends: Gabcke's term and quarter fall
    # with t, the rounding terms grow with t and N; theta's is its row's largest
    lo, hi, n_hi = t[:, 0], t[:, -1], n_point[:, -1]
    i = n_hi.astype(int) - 1
    a0, a1 = np.cumsum(amp)[i], np.cumsum(amp * ln_n)[i]
    claim = (_GABCKE_D4 * lo**-2.75
             + 2.0 * theta_err.max(axis=1) * a0
             + 2.0 * _EPS * (3.0 * hi * a1 + (n_hi + 8.0) * a0)
             + u[:, 0] ** -0.25 * (table_err + _EPS * (2.0 * root[:, -1] + 1.0) * table_slope))
    claim = claim[:, None] + 2.0 * _EPS * np.abs(z)
    return t, z, claim


def _scan_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points t = a_r + j h, j < m, one row per start a_r; Hardy's Z(t)
    there, from W on the rows that start at or below 200 and by the
    Riemann-Siegel formula on the others; and whether each sign counts: where
    the value's magnitude exceeds its claim."""
    t = np.add.outer(a, h * np.arange(m))
    f, ok = np.empty(t.shape), np.empty(t.shape, dtype=bool)
    step = max(1, _Z_CHUNK // m)
    # the Riemann-Siegel rows first: they build the scan's largest arrays, and
    # then no claim of W's rows is held beside them
    for rows, kernel in ((np.flatnonzero(a > _Z_FROM), _z_rows),
                         (np.flatnonzero(a <= _Z_FROM), _em_z_rows)):
        for i in range(0, rows.size, step):
            part = rows[i : i + step]
            _, value, claim = kernel(a[part], h, m)
            f[part], ok[part] = value, np.abs(value) > claim
    return t, f, ok


def _sign_changes(f: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into f of its brackets' two ends.  Each row (last axis)
    is read as the sequence of its points whose sign counts (ok), so a point
    whose sign does not count is dropped and its two neighbours bracket
    across it; a bracket is two neighbours of opposite sign (signs compared,
    so that no product of two small values underflows to 0).  A counted sign
    is never 0: its value's magnitude exceeds a positive claim."""
    kept = np.flatnonzero(ok)
    row = kept // f.shape[-1]
    same = row[1:] == row[:-1]
    left, right = kept[:-1][same], kept[1:][same]
    flat = f.ravel()
    opposite = np.sign(flat[left]) * np.sign(flat[right]) < 0.0
    return left[opposite], right[opposite]


#: brackets of one width: left ends, values there, values at the right ends,
#: the width, and the width at which refining stops
_Group = tuple[np.ndarray, np.ndarray, np.ndarray, float, float]


def _brackets(t: np.ndarray, f: np.ndarray, ok: np.ndarray, h: float, tol: float) -> list[_Group]:
    """The brackets among rows of points t, spaced h, with values f and
    counted signs ok (``_sign_changes``), in groups of one width and at most
    ``_Z_CHUNK`` / 32 brackets.  A bracket with g - 1 dropped points inside
    is g h wide and stops at 2 tol, the others at tol."""
    left, right = _sign_changes(f, ok)
    t, f = t.ravel(), f.ravel()
    gap, size, groups = right - left, _Z_CHUNK // _ROW, []
    for g in sorted(set(gap.tolist())):  # np.unique would import numpy.ma, about 1 MB
        i, j = left[gap == g], right[gap == g]
        groups += [(t[i[k : k + size]], f[i[k : k + size]], f[j[k : k + size]], g * h,
                    2.0 * tol if g > 1 else tol) for k in range(0, i.size, size)]
    return groups


def _levels(width: float, stop: float, tol: float) -> list[tuple[int, float]]:
    """The parts m and their width h at each level of the nested cuts of a
    bracket this wide that stops at ``stop``: m = min(_ROW, floor(width/tol)
    + 1), h = width/m, then each part's own levels, which stop at tol."""
    levels = []
    while width > stop:
        m = min(_ROW, math.floor(width / tol) + 1)
        width /= m
        levels.append((m, width))
        stop = tol
    return levels


def _cells(a: np.ndarray, b: np.ndarray, levels: list[tuple[int, float]],
           x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the finest cell of the nested cuts of the brackets [a, b]
    that holds x, a <= x < b.  Point j of a level's cuts of a cell [lo, hi]
    is lo for j = 0 and (lo + h) + h (j - 1) after, the floats that level's
    row holds, and its last cell ends at hi."""
    lo, hi = a, b
    for m, h in levels:
        def ends(k: np.ndarray, lo: np.ndarray = lo, hi: np.ndarray = hi, start=lo + h):
            return (np.where(k > 0, start + h * (k - 1), lo),
                    np.where(k < m - 1, start + h * k, hi))

        k = np.minimum(np.floor((x - lo) / h), m - 1)
        lo, hi = ends(k)
        off = (hi <= x).astype(float) - (lo > x)
        if off.any():  # the rounded quotient is at most one cell off
            lo, hi = ends(k + off)
    return lo, hi


def _secant(x0: np.ndarray, f0: np.ndarray, x1: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Where the line through (x0, f0) and (x1, f1) crosses 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return x0 - f0 * (x1 - x0) / (f1 - f0)


def _first_guess(a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray,
                 grid: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Probe round 1's guess in each bracket [a, b] with end values fa, fb
    (module docstring): the root of the polynomial through the 6 values of
    the grid (t, f) nearest the bracket, by Newton steps from regula falsi;
    regula falsi where that root is not finite or falls off [a, b)."""
    x = _secant(a, fa, b, fb)
    t, f = grid
    first = np.clip(np.searchsorted(t, 0.5 * (a + b)) - 3, 0, t.size - 6)
    nodes = first[:, None] + np.arange(6)
    u, c = t[nodes], f[nodes]
    for k in range(1, 6):  # Newton's divided differences, in place
        c[:, k:] = (c[:, k:] - c[:, k - 1 : -1]) / (u[:, k:] - u[:, :-k])
    y = x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            p, dp = c[:, 5], 0.0
            for k in range(4, -1, -1):  # Horner, with the derivative beside
                dp = dp * (y - u[:, k]) + p
                p = p * (y - u[:, k]) + c[:, k]
            y = y - p / dp
    return np.where((a <= y) & (y < b), y, x)


def _probe(a: np.ndarray, fa: np.ndarray, fb: np.ndarray, width: float, stop: float, tol: float,
           grid: tuple[np.ndarray, np.ndarray]) -> tuple[list[float], list[_Group]]:
    """Up to three rounds of probes on the finest of the nested cuts
    (``_refined_zeros``) of each bracket [a, a + width].

    A round reads the finest cell that holds a guess as one two-point row,
    its left end p and p + h, in one call for the whole group: the guess is
    ``_first_guess``'s from the grid (t, f) ``grid`` first, then the secant
    through the last round's two ends.
    Counted signs narrow [lo, hi], the known counted signs nearest the zero,
    and a bracket is done once its cell's two signs count and differ and
    none shows a second sign change; its ordinate is p + h/2, the float the
    cuts report.  A sign that does not count, a second sign change, a guess
    off [lo, hi) (or not a number) or three rounds without a zero leave the
    bracket to the cuts' rows from itself, which may read the points the
    probes read again, each read counting by its own claim.

    Returns the ordinates found and the brackets left, as a list of at most
    one group."""
    levels = _levels(width, stop, tol)
    h = levels[-1][1]
    b = a + width
    lo, hi = a.copy(), b.copy()  # the counted signs nearest a zero
    side = np.sign(fa)
    live, solved = np.ones(a.size, dtype=bool), np.zeros(a.size, dtype=bool)
    found = []
    x = _first_guess(a, fa, b, fb, grid)
    for _ in range(3):
        i = np.flatnonzero(live)
        on = (lo[i] <= x[i]) & (x[i] < hi[i])  # False also for nan
        live[i[~on]], i = False, i[on]
        if not i.size:
            break
        t, f, ok = _scan_rows(_cells(a[i], b[i], levels, x[i])[0], h, 2)
        (p, q), (fp, fq), (okp, okq) = t.T, f.T, ok.T
        # lo moves to the last counted sign of a's, hi to the first of b's;
        # p and q counting with a's and b's sign bracket the zero, with b's
        # and a's they show a second sign change
        west_p, west_q = np.sign(fp) == side[i], np.sign(fq) == side[i]
        a_p, a_q, b_p, b_q = okp & west_p, okq & west_q, okp & ~west_p, okq & ~west_q
        lo[i] = np.where(a_q, q, np.where(a_p, p, lo[i]))
        hi[i] = np.where(b_p, p, np.where(b_q, q, hi[i]))
        done = a_p & b_q
        found += (p[done] + 0.5 * h).tolist()
        solved[i[done]] = True
        live[i] = okp & okq & ~(b_p & a_q) & ~done
        x[i] = _secant(p, fp, q, fq)
    j = np.flatnonzero(~solved)
    return found, [(a[j], fa[j], fb[j], width, stop)] if j.size else []


def _refined_zeros(groups: list[_Group], tol: float,
                   grid: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """Zeros in groups of brackets [a, a + h] with end values fa, fb and a
    width at which to stop (``_brackets``).

    The nested cuts: each level cuts every bracket of a group into the
    fewest equal parts narrower than ``tol``, at most _ROW, reads one row per
    bracket and applies the grid's rule; once h is at most the stop width
    the midpoints are reported (then h > tol/2 for brackets with no dropped
    point).  Every group is probed first (``_probe``), two points a bracket
    a round on the finest of those cuts, round 1's guess from the grid's
    values (t, f) ``grid``, and the brackets the probes leave go on by the
    cuts' rows from themselves, depth-first, the group with the lowest
    bracket first.  A point of those rows may have been read by a probe;
    each read counts by its own claim, and two counted reads of one point
    have one sign.  A bracket at least 2 tol wide none of whose inner signs
    counts cannot be narrowed by refining it again: every bracket above the
    lowest such bracket is dropped, and once the brackets below it are done
    it is refused."""
    zeros: list[float] = []
    stack: list[_Group] = []
    refused = math.inf, math.inf  # the lowest bracket refused, as its two ends
    for group in groups:
        found, left = _probe(*group, tol, grid) if group[3] > group[4] else ([], [group])
        zeros += found
        stack += left
    while stack:
        a, fa, fb, h, stop = stack.pop(min(range(len(stack)), key=lambda i: stack[i][0][0]))
        below = a < refused[0]
        a, fa, fb = a[below], fa[below], fb[below]
        if h <= stop:
            zeros += (a + 0.5 * h).tolist()
            continue
        m, h = _levels(h, stop, tol)[0]
        t, f, ok = _scan_rows(a + h, h, m - 1)
        lost = ~ok.any(axis=1)
        if m > 2 and lost.any():
            start = float(a[lost][0])
            refused = start, start + m * h
        ends = np.ones((a.size, 1), dtype=bool)
        stack += _brackets(np.column_stack([a, t, a + m * h]), np.column_stack([fa, f, fb]),
                           np.column_stack([ends, ok, ends]), h, tol)
    if refused[0] < math.inf:
        raise PrecisionUnreachable(f"no sign inside [{refused[0]!r}, {refused[1]!r}] counts: "
                                   f"no value there exceeds its error claim")
    return zeros


def find_critical_zeros(t_max: float, tol: float) -> list[float]:
    """Ordinates 0 < t_1 < t_2 < ... < t_max where Hardy's Z(t) changes sign.

    The sign of Z(t) = e^{i theta(t)} zeta(1/2 + it) is read on the grid
    t_j = j * 0.05, j >= 1, up to t_max, in whole rows of 32 points,
    the last row's points past t_max dropped: from W on the rows that start
    at or below t = 200, by the Riemann-Siegel formula above, and a sign
    counts only when the value's magnitude exceeds its certified claim; a
    point whose sign does not count is dropped, so that its neighbours
    bracket across it.  Neighbours of opposite sign form a bracket, and the
    brackets of one width (up to 1024 at a time) are refined together down
    to width ``tol`` on nested cuts of up to 32 parts a level, which up to
    three rounds of two probes a bracket search first (round 1 at the root
    of the polynomial through the 6 grid values nearest the bracket, then by
    the secant), and reported by the midpoints of their final parts
    (``_refined_zeros``); a bracket the probes leave is cut from itself.  Z
    is continuous, so each ordinate lies within ``tol`` of a zero between
    two counted signs.  A scan of more than 2^20 grid points (t_max above
    about 52,429) is refused before any row is evaluated.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError("t_max must be positive and finite")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if tol < 64.0 * _EPS * max(1.0, t_max):
        raise PrecisionUnreachable(f"sub-grids cannot resolve brackets of width {tol:g}")
    h = _GRID_STEP
    last = int(math.floor((t_max - h) / h + 1e-9)) + 1  # the grid is t_j = j h, j = 1..last
    if last > _MAX_GRID:
        raise PrecisionUnreachable(f"a scan to t = {t_max:.10g} needs {last} grid points, "
                                   f"more than the {_MAX_GRID} a scan may hold")
    t, f, ok = (x.ravel() for x in _scan_rows(h * np.arange(1, last + 1, _ROW), h, _ROW))
    ok[last:] = False  # the last row's points past t_max
    return sorted(_refined_zeros(_brackets(t, f, ok, h, tol), tol, (t[:last], f[:last])))
