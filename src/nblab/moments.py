"""Integration against the weight dt/t^2 on (1, inf).

The weight is a probability measure (its total mass is 1).  The first
moment of a single dilated fractional part has the closed form

    int_1^inf {t/l} dt/t^2 = (lam + ln l) / l,      lam = 1 - gamma,

where gamma is the Euler-Mascheroni constant; ``dilated_frac_moment``
implements the closed form and ``_moment_quad`` re-derives it from the
exact integral of each linear piece: ln(l)/l on (1, l) and
(ln(1 + 1/m) - 1/(m+1))/l on [m l, (m+1) l].  Pieces 1..P-1 telescope to
lam_P / l with lam_P = ln P - (1/2 + ... + 1/P) (``partial_moment_constant``),
and the tail past T = P l is corrected with the mean value 1/2 of {t/l}:

    int_T^inf {t/l} dt/t^2 = 1/(2T) + R,   |R| <= l / (4 T^2),

(the remainder bound follows by parts from |int_0^u ({v} - 1/2) dv| <= 1/8).
The two routes share no constant: lam_P is a harmonic partial sum, lam is
1 minus the correctly rounded gamma (which the tests check against the
Euler-Maclaurin expansion), so their agreement, tested term by term, is a
genuine cross-check of the closed form.

For a constrained combination the moment collapses to
sum_k (h_k / l_k) ln l_k, as the lam-part cancels against the constraint.
The quadrature twin's lam_P / l_k and 1/(2T) terms cancel the same way, so
``moment_report``'s two routes are then one sum up to rounding: its
``quad_error_bound`` bounds each single-term quadrature and does not check
sum Theta_k ln l_k.  ``moment_constant`` comes from ``gammafn``.

The lattice kernel.  ``_lattice_windows`` walks the union lattice {m l_k}
of the dilations in windows of about ``_WINDOW`` segments, sized so that a
window's arrays stay in a core's L2 cache; this also bounds a walk's memory
however far it reaches.  Each window trims the ends of every progression
m l_k instead of masking all its points, and compresses only where points
merge; ``_abs_power_head`` evaluates phi at the midpoints into buffers it
reuses from window to window.  Only the p < 2 norms walk it: the p = 2
norm is the Gram quadratic form h^T G h, and Gram entries come from a
closed form.

The tails.  Past T the integral of a p < 2 norm lies in [0, R/T], R =
reach^p, the crude tail.  Two models narrow it to within E(T) of mu/T, mu
a mean of f = |phi|^p; ``weighted_norm_report`` then walks only to the
least integer T <= T_B with 2 E(T) <= R/T_B, the crude width at the budget.

The periodic tail.  The {t/l_k} share the least common period L, the lcm of
the numerators of the dilations' exact rationals over the gcd of their
denominators, so f is L-periodic with 0 <= f <= R.  Let mu_L = (1/L)
int_L^{2L} f.  By parts the tail is mu_L/T + 2 int_T^inf A(t)/t^3 dt, A(t)
= int_T^t (f - mu_L), which is L-periodic and vanishes at T.  On a period,
s = t - T in [0, L], A(s) lies below (R - mu_L) s and mu_L (L - s) and
above -mu_L s and -(R - mu_L)(L - s), so |A| <= L mu_L (R - mu_L)/R <= L
R/4, and the tail lies within L R/(4 T^2) of mu_L/T.  For a flat sum (slope
s_phi = sum h_k/l_k below 1e-14 max(1, sum |h_k|)) mu_L comes from one walk
of [L, 2L], each piece at its midpoint value, and within dmu = 5 r P R + p
(reach + dv)^{p-1} dv, r = ``COINCIDENCE_RTOL``.  P = 2 L sum 1/l_k + 4
bounds the walk's points, the L sum 1/l_k lattice points and two ends a
window: a merged point misplaces at most 2 r 2L of [L, 2L], where f is off
by at most R, which moves mu_L by at most 4 r R, and each point's rounding
(u 2L), each piece's power, product and summation and the division by L
take less than r R more a point.  dv = 2u sum_k |h_k| (L/l_k + n + 1) +
|s_phi| l_min bounds the midpoint values: t/l_k at t <= 2L is within u
2L/l_k, its floor exact, the product and the n sums add (n + 2) u |h_k|,
and the slope moves phi by at most |s_phi| across a piece, which is at most
l_min wide.  So E(T) = L R/(4 T^2) + dmu/T, and the walk stops near T = (L
T_B/2)^{1/2}.

The mean-value tail.  For two dilations l_1 < l_2 with h_1 h_2 != 0, mu is
the mean of |h_1 x + h_2 y|^p over (x, y) = ({t/l_1}, {t/l_2}) in [0, 1)^2:
mu = [Phi(h_1+h_2) - Phi(h_1) - Phi(h_2)]/(h_1 h_2), Phi(u) =
|u|^{p+2}/((p+1)(p+2)).  By parts, as above, the tail is mu/T + 2
int_T^inf A(t)/t^3 dt, A(t) = int_T^t (|phi|^p - mu).  The cell [T + j l_1,
T + (j+1) l_1] contributes l_1 g({T/l_2 + j alpha}), alpha = l_1/l_2 the
exact rational of the two doubles, where g(x) = int_0^1 G_s(x + s alpha) ds,
G_s(y) = |h_1 {T/l_1 + s} + h_2 {y}|^p.  Each G_s is 1-periodic in y, with
circle variation at most p |h_2| reach^{p-1}, its slope in y, plus R, its
one jump a period; so g has mean mu and circle variation V <= p |h_2|
reach^{p-1} + R.  Denjoy-Koksma (Herman 1979) bounds the error of q
consecutive cells by V at each convergent denominator q_i of alpha = [0;
a_1, a_2, ...], up to the last, Q; Ostrowski's expansion (Kuipers-
Niederreiter, ch. 2) cuts N cells into at most a_{i+1} blocks of each q_i <
Q and floor(N/Q) of Q.  So |A(t)| <= l_1 (V S(t/l_1) + R), R for the last
part cell, S(x) = sum_{q_i <= x} a_{i+1} + floor(x/Q); against 2/t^3 (x/Q
for the floor) this gives E(T) = l_1 V sum_i a_{i+1}/max(T, q_i l_1)^2 +
(2V/Q + l_1 R/T + dmu)/T.  dmu = 16 eps (Phi(h_1+h_2) + Phi(h_1) +
Phi(h_2))/|h_1 h_2|, eps = 2^-52, bounds the rounding of mu: to first order
each Phi carries at most 6 eps of itself (2 from the rounded h_1 + h_2 to
the power p + 2, 1 from pow, 3 from six roundings), the two subtractions,
h_1 h_2 and the division 2 eps; the 8 eps is doubled for second-order
terms.

The rounding of E itself, like that of R/T, and underflow (all |h_k| below
1e-88) are left to the bound's 1e-12 (1 + value).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gram as _gram
from .errors import DomainError, PrecisionUnreachable
from .fracsum import COINCIDENCE_RTOL, DilatedFracSum, _checked_dilation
from .gammafn import _EPS, _EULER_GAMMA, moment_constant

__all__ = [
    "moment_constant",
    "partial_moment_constant",
    "dilated_frac_moment",
    "MomentReport",
    "moment_report",
    "theta_log_sum",
    "ConstantsReport",
    "constants_report",
    "NormReport",
    "weighted_norm_report",
]

#: elements per numpy pass, the one limit on every array in this module:
#: lattice segments per window and terms per harmonic-sum pass.  A window's
#: arrays, 256 KiB each, then fit a core's 2 MiB L2 cache.  Measured on a
#: 2-core Xeon with the sqrt(2) bstar of ``approx`` at 4M segments, a p = 1.5
#: norm takes 0.11-0.12 s and a traced peak of 1.6 MB against 0.12-0.15 s
#: and 4.9 MB at 100,000; a sloped p = 1.5 norm at 1M segments (16 nodes per
#: segment) takes 1.1-1.3 s at either size, with a traced peak of 19 MB
#: against 58 MB.
_WINDOW = 2**15

#: periods P that ``_moment_quad`` integrates exactly, up to T = P l
_PERIODS = 100_000

#: truncation orders n of the lambda_n trace in ``constants_report``
_TRACE_NS = (16, 256, 4096, 65536, 1048576)


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
    l = _checked_dilation(l)
    return (moment_constant() + math.log(l)) / l


def _moment_quad(l: float, lam_p: float) -> tuple[float, float]:
    """(value, certified_error) of the quadrature at l, given lam_P."""
    l = _checked_dilation(l)
    T = _PERIODS * l
    value = math.log(l) / l + lam_p / l + 0.5 / T
    return value, l / (4.0 * T * T) + 1e-14


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
    tables), while ``integral_value`` sums the per-term quadratures.
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


def moment_report(phi: DilatedFracSum) -> MomentReport:
    """Moment of a constrained sum: closed form next to the per-term quadrature.

    The two are one sum up to rounding (module docstring); ``quad_error_bound``
    (at most 2.6e-11 per unit coefficient) bounds the single-term quadratures.
    lam_P is evaluated once for all terms.  ConstraintViolated is raised when
    the coefficient combination is not constrained.
    """
    phi.check_constraint()
    closed = theta_log_sum(phi.coeffs, phi.dilations)
    lam_p = partial_moment_constant(_PERIODS)
    integral = 0.0
    err = 0.0
    for h, l in phi.terms:
        q, e = _moment_quad(l, lam_p)
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


def constants_report() -> ConstantsReport:
    """The one gamma and lam of the package, and lam_n at each ``_TRACE_NS``."""
    trace = tuple((n, partial_moment_constant(n)) for n in _TRACE_NS)
    return ConstantsReport(gamma=_EULER_GAMMA, lam=moment_constant(), lambda_n_trace=trace)


@dataclass(frozen=True)
class NormReport:
    """A p-norm value under the weight together with its certification."""

    value: float
    abs_error_bound: float
    truncation: float


def _lattice_run(l: float, t_lo: float, t_hi: float) -> np.ndarray:
    """The points m l (m a positive integer) in [t_lo, t_hi], ascending."""
    run = np.arange(math.floor(t_lo / l) + 1, math.floor(t_hi / l) + 1, dtype=np.float64)
    run *= l
    # m l rises with m, so rounding can push only the ends of the run out
    return run[np.searchsorted(run, t_lo) : np.searchsorted(run, t_hi, "right")]


def _lattice_windows(dilations, t_lo: float, t_hi: float):
    """Yield (t1, u), the left ends and widths of the segments of the union
    lattice {m l : l in dilations} on [t_lo, t_hi], one window of about
    ``_WINDOW`` segments at a time.  Points within relative r =
    ``COINCIDENCE_RTOL`` of their predecessor are merged, so each kept point
    lies more than r t past the one before it and every segment has positive
    width.  Building a window holds at most two float arrays of its size at
    once, besides the window last yielded, whether or not points merge."""
    width = _WINDOW / sum(1.0 / l for l in dilations)
    while t_lo < t_hi:
        w_hi = min(t_hi, t_lo + width)
        runs = [_lattice_run(l, t_lo, w_hi) for l in dilations]
        pts = np.concatenate([np.array([t_lo, w_hi])] + runs)
        del runs
        pts.sort(kind="stable")
        u = np.diff(pts)
        # pts ascends, so only a gap at most COINCIDENCE_RTOL pts[-1] can merge
        merged = np.flatnonzero(u <= COINCIDENCE_RTOL * pts[-1])
        merged = merged[u[merged] <= COINCIDENCE_RTOL * pts[merged + 1]]
        if merged.size:
            del u
            pts = np.delete(pts, merged + 1)
            u = np.diff(pts)
        yield pts[:-1], u
        t_lo = w_hi


def weighted_norm_report(
    phi: DilatedFracSum, p: float, max_segments: int = 1_000_000
) -> NormReport:
    """{ int_1^inf |phi|^p dt/t^2 }^{1/p} for p in (1, 2].

    ``max_segments`` sets the budget T_B = max(100, max_segments / sum 1/l_k)
    that fixes the bound.  For p = 2 the integral is q = h^T G h with G =
    ``gram_system(dilations, 1/T_B)``, whose entry bounds E are at most
    max(1/(2T_B), 1e-13) plus roundoff; q and its error e come from
    ``GramSystem.quadratic_form``.  For p < 2, q is ``_abs_power_head`` up to
    T, and the tail past T lies in [0, R/T], R = max(sum h_k^+, sum h_k^-)^p,
    as sum_{h_k < 0} h_k <= phi <= sum_{h_k > 0} h_k.  ``_tail`` narrows it
    where it can (module docstring): a flat sum whose period walk and head
    walk are shorter than the walk to T_B takes the periodic tail, else two
    dilations the mean-value tail, and the walk ends at the least integer T
    <= T_B with 2 E(T) <= R/T_B; other sums walk to T_B.  ``truncation`` is
    the walked T.  So the integral lies in [q - down, q + up], (down, up) =
    (e, e) or minus the tail's ends; the value is the midpoint of [(q -
    down)^{1/p}, (q + up)^{1/p}] and half its width enters the error bound.
    PrecisionUnreachable is raised where that bound is not finite.
    """
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError("p must lie in (1, 2]")
    if not max_segments > 0:
        raise DomainError("max_segments must be positive")
    if max_segments > 50_000_000:
        raise PrecisionUnreachable("segment budget above the supported cap")
    coeffs = phi.coeffs
    dils = phi.dilations
    density = float(np.sum(1.0 / dils))
    T = max(100.0, max_segments / density)
    if np.all(coeffs == 0.0):
        return NormReport(value=0.0, abs_error_bound=0.0, truncation=T)
    overflow = f"the integral of |phi|^{p!r} or its bound overflows double precision"
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite is refused
        if p == 2.0:
            head, down = _gram.gram_system(dils, 1.0 / T).quadratic_form(coeffs)
            up = down
        else:
            # {x} lies in [0, 1), so phi lies between the sum of its negative and
            # the sum of its positive coefficients
            reach = max(float(np.sum(coeffs[coeffs > 0.0])), -float(np.sum(coeffs[coeffs < 0.0])))
            try:
                R = reach**p
                down, up = 0.0, R / T
                tail = _tail(phi, p, reach, R, T, density)
                if tail is not None:
                    T, mu, e = tail
                    down, up = -max(0.0, mu / T - e), min(R / T, mu / T + e)
                head = _abs_power_head(phi, p, T)
            except OverflowError as exc:  # a float power past the largest double
                raise PrecisionUnreachable(overflow) from exc
    lo = max(head - down, 0.0) ** (1.0 / p)
    hi = (head + up) ** (1.0 / p)
    value = 0.5 * (lo + hi)
    err = 0.5 * (hi - lo) + 1e-12 * (1.0 + value)
    if not math.isfinite(err):  # nor then is the value
        raise PrecisionUnreachable(overflow)
    return NormReport(value=value, abs_error_bound=err, truncation=T)


def _tail(phi: DilatedFracSum, p: float, reach: float, R: float, T_B: float, density: float):
    """(T, mu, E(T)) of the tail model the sum takes (module docstring), T the
    least integer in [100, T_B] with 2 E(T) <= R/T_B, one bisection on the
    falling E for every model; None for the crude tail [0, R/T_B].  The
    periodic tail is taken where its period walk and its head walk, L and T
    long, are shorter than the walk to T_B; else two dilations with h_1 h_2
    != 0 try the mean-value tail."""
    walks = range(100, math.floor(T_B) + 1)

    def walk_end(error):
        i = bisect_left(walks, True, key=lambda t: 2.0 * error(t) <= R / T_B)
        return None if i == len(walks) else float(walks[i])

    coeffs, dils = phi.coeffs, phi.dilations
    slope, flat = _slope(phi)
    if flat and (L := _period(dils, T_B)) is not None:
        dv = _EPS * float(np.abs(coeffs) @ (L / dils + dils.size + 1.0)) + abs(slope) * float(dils[0])
        mu_error = 5.0 * COINCIDENCE_RTOL * (2.0 * L * density + 4.0) * R
        mu_error += p * (reach + dv) ** (p - 1.0) * dv

        def error(t):
            return (0.25 * L * R / t + mu_error) / t

        T = walk_end(error)
        if T is not None and L + T < T_B:
            return T, _period_mean(phi, p, L), error(T)
    if coeffs.size == 2 and coeffs[0] * coeffs[1] != 0.0:
        mu, error = _mean_tail(coeffs, dils, p, reach, R)
        T = walk_end(error)
        if T is not None:
            return T, mu, error(T)
    return None


def _period(dils, T_B: float) -> float | None:
    """The least common period L of the {t/l_k}, the lcm of the numerators
    of the dilations' exact rationals over the gcd of their denominators,
    where it lies below T_B; else None.  L over a prefix of the dilations
    only grows with the prefix, so the loop stops at the first that reaches
    T_B, and the lcm of thousands of 53-bit numerators is never formed."""
    num, den = 1, 0
    for l in dils.tolist():
        n, d = l.as_integer_ratio()
        num, den = math.lcm(num, n), math.gcd(den, d)
        if Fraction(num, den) >= T_B:  # exact, however long L is
            return None
    return num / den


def _period_mean(phi: DilatedFracSum, p: float, L: float) -> float:
    """mu_L = (1/L) int_L^{2L} |phi|^p dt of a flat sum of period L, by one
    walk of the lattice, each piece exactly at its midpoint value."""
    total = 0.0
    for _, u, _, v in _midpoint_windows(phi, L, 2.0 * L):
        np.abs(v, out=v)
        np.power(v, p, out=v)
        np.multiply(v, u, out=v)
        total += float(np.sum(v))
    return total / L


def _mean_tail(coeffs, dils, p: float, reach: float, R: float):
    """mu and E(T) of the mean-value tail (module docstring) of two
    dilations; E is inf past double range and nan where mu overflows."""
    (h1, h2), (l1, l2) = coeffs.tolist(), dils.tolist()
    phis = [u * u * abs(u) ** p / ((p + 1.0) * (p + 2.0)) for u in (h1 + h2, h1, h2)]
    mu = (phis[0] - phis[1] - phis[2]) / (h1 * h2)
    mu_error = 16.0 * _EPS * sum(phis) / abs(h1 * h2)
    ks = [0, 1] + [k for _, k in _gram._convergents(Fraction(l1) / Fraction(l2))]  # q_{-1}, q_0, ..., Q
    if ks[-1] > 2**1000:
        return mu, lambda T: math.inf
    a = np.array([(k2 - k0) // k1 for k0, k1, k2 in zip(ks, ks[1:], ks[2:])], dtype=float)
    q = np.array(ks[1:-1], dtype=float) * l1
    V = p * abs(h2) * reach ** (p - 1.0) + R
    return mu, lambda T: (l1 * V * float(a @ np.maximum(T, q) ** -2.0)
                          + (2.0 * V / ks[-1] + l1 * R / T + mu_error) / T)


def _slope(phi: DilatedFracSum) -> tuple[float, bool]:
    """phi's slope sum h_k/l_k between lattice points, and whether it counts
    as flat: at most 1e-14 max(1, sum |h_k|)."""
    slope = float(np.sum(phi.coeffs / phi.dilations))
    return slope, abs(slope) <= 1e-14 * max(1.0, phi.abs_coeff_sum)


def _midpoint_windows(phi: DilatedFracSum, t_lo: float, t_hi: float):
    """Yield (t1, u, mid, v) for each window of ``_lattice_windows`` on [t_lo,
    t_hi]: its segments, their midpoints and phi there.  mid and v, and phi's
    terms as they are summed, live in four rows allocated once per call, so
    that no window leaves a term-sized array to free; the caller may
    overwrite mid and v."""
    dils = phi.dilations
    rows = np.empty((4, _WINDOW + 2 * dils.size + 2))  # a window's segments, ends included
    for t1, u in _lattice_windows(dils, t_lo, t_hi):
        n = t1.size
        if rows.shape[1] < n:
            rows = np.empty((4, n))
        mid, v = rows[0, :n], rows[1, :n]
        np.multiply(u, 0.5, out=mid)
        np.add(t1, mid, out=mid)
        v.fill(0.0)
        phi._add_into(mid, v, rows[2:, :n])
        yield t1, u, mid, v


def _abs_power_head(phi: DilatedFracSum, p: float, T: float) -> float:
    """int_1^T |phi|^p dt/t^2, phi piecewise linear with the single slope
    sum h_k / l_k between lattice points: in closed form on [1, l_min],
    then window by window over the lattice (``_midpoint_windows``), exactly
    on flat pieces and by 16-point Gauss-Legendre on sloped ones."""
    slope, flat = _slope(phi)
    # on [1, l_min] each {t/l_k} is t/l_k, so phi(t) = slope t and
    # int |slope t|^p dt/t^2 = |slope|^p (l_min^{p-1} - 1)/(p - 1)
    start = min(float(phi.dilations.min()), T)
    head = abs(slope) ** p * math.expm1((p - 1.0) * math.log(start)) / (p - 1.0)
    if not flat:  # flat sums need no nodes, nor the numpy.polynomial import
        nodes, weights = np.polynomial.legendre.leggauss(16)
        # on [0, 1], t = z -+ d y^2 clusters the nodes at the zero z of a
        # sloped piece, where |phi|^p has its kink; dt = 2 d y dy
        y = 0.5 * (nodes + 1.0)
        y_sq, y_weights = y * y, weights * y
    for t1, u, mid, v in _midpoint_windows(phi, start, T):
        if flat:
            # |v|^p u / (t1 (t1 + u)), the integral of |v|^p dt/t^2
            np.abs(v, out=v)
            np.power(v, p, out=v)
            np.add(t1, u, out=mid)
            np.multiply(t1, mid, out=mid)
            np.divide(u, mid, out=mid)
            np.multiply(v, mid, out=v)
            head += float(np.sum(v))
        else:
            head += _sloped_abs_power(t1, u, v, slope, p, y_sq, y_weights)
    return head


def _sloped_abs_power(t1, u, v_mid, slope, p, y_sq, y_weights) -> float:
    """int |v_mid + slope (t - mid)|^p / t^2 summed over segments [t1, t1+u],
    with the nodes y^2 and weights of the substitution t = z -+ d y^2.  Each
    side's nodes ts = z + (-+d) y^2 and values |a + slope (ts - t1)|^p / ts^2
    are formed in place in two (segments, nodes) buffers, by the operations
    of those expressions in their order."""
    total = 0.0
    a_left = v_mid - 0.5 * slope * u
    t2 = t1 + u
    z = np.clip(t1 - a_left / slope, t1, t2)  # interior sign change, if any
    ts = np.empty((t1.size, y_sq.size))
    vals = np.empty_like(ts)
    for d, sign in ((z - t1, -1.0), (t2 - z, 1.0)):
        np.multiply((sign * d)[:, None], y_sq, out=ts)
        ts += z[:, None]
        np.subtract(ts, t1[:, None], out=vals)
        vals *= slope
        vals += a_left[:, None]
        np.abs(vals, out=vals)
        vals **= p
        np.square(ts, out=ts)
        vals /= ts
        total += float(np.sum((vals @ y_weights) * d))  # the same at any BLAS thread count
    return total
