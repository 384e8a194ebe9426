import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from conftest import dilated_frac_moment_quad, euler_gamma, random_constrained_sum, step_profile
from test_gram import _segment_integrals, lattice_walk_oracle, lattice_windows_oracle
from nblab import (
    ConstraintViolated,
    DilatedFracSum,
    DomainError,
    constants_report,
    dilated_frac_moment,
    gram_system,
    moment_constant,
    moment_report,
    partial_moment_constant,
    weighted_norm_report,
)
from nblab.approx import best_approximation
from nblab.gram import _convergents
from nblab.moments import (
    _WINDOW,
    _abs_power_head,
    _lattice_windows,
    _mean_tail,
    _period_mean,
    _slope,
    _sloped_abs_power,
)

EULER_GAMMA_REF = 0.5772156649015329  # reference digits of the constant


def weighted_measure(intervals) -> float:
    """Measure int_E dt/t^2 of a finite disjoint union of intervals in (1, inf).

    Each interval contributes 1/a - 1/b (with 1/inf = 0); intervals reaching
    into (0, 1) are rejected, as are overlapping pairs.
    """
    spans = []
    for a, b in intervals:
        a = float(a)
        b = float(b)
        if a < 1.0 - 1e-12:
            raise DomainError(f"interval [{a!r}, {b!r}] leaves (1, inf)")
        if not b > a:
            raise DomainError(f"empty or reversed interval [{a!r}, {b!r}]")
        spans.append((a, b))
    spans.sort()
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if a2 < b1 * (1.0 - 1e-12):
            raise DomainError("intervals must be pairwise disjoint")
    return sum(1.0 / a - (0.0 if math.isinf(b) else 1.0 / b) for a, b in spans)


def tail_bound(phi: DilatedFracSum, p: float, T: float) -> float:
    """max(sum h_k^+, sum h_k^-)^p / T, which bounds int_T^inf |phi|^p dt/t^2:
    {x} lies in [0, 1), so phi lies between the sums of its negative and of
    its positive coefficients."""
    h = phi.coeffs
    return max(float(np.sum(h[h > 0.0])), -float(np.sum(h[h < 0.0]))) ** p / T


def budget(phi: DilatedFracSum, max_segments: int) -> float:
    """The budget T_B = max(100, max_segments / sum 1/l_k) of a norm."""
    return max(100.0, max_segments / float(np.sum(1.0 / phi.dilations)))


def crude_report(head: float, phi: DilatedFracSum, p: float, T: float) -> tuple[float, float]:
    """(value, bound) of a p < 2 norm from its head to T and the crude tail
    [0, R/T], by the arithmetic of ``weighted_norm_report`` before the
    mean-value tail: the midpoint and half-width of [head^{1/p},
    (head + R/T)^{1/p}], plus 1e-12 (1 + value)."""
    lo = head ** (1.0 / p)
    hi = (head + tail_bound(phi, p, T)) ** (1.0 / p)
    value = 0.5 * (lo + hi)
    return value, 0.5 * (hi - lo) + 1e-12 * (1.0 + value)


def assert_meets_crude_interval(rep, head: float, phi: DilatedFracSum, p: float, T: float):
    """value +- bound meets the certified [head^{1/p}, (head + R/T)^{1/p}] of
    an independent head to T."""
    lo, hi = head ** (1.0 / p), (head + tail_bound(phi, p, T)) ** (1.0 / p)
    assert rep.value - rep.abs_error_bound <= hi
    assert lo <= rep.value + rep.abs_error_bound


def scipy_frac_moment(l: float, T: float = 2000.0) -> tuple[float, float]:
    """Adaptive-quadrature oracle for int_1^inf {t/l} dt/t^2: integrate each
    linear piece with scipy.quad, then add the mean-value tail 1/(2T)."""
    total = 0.0
    t = 1.0
    grid = np.arange(math.floor(1.0 / l) + 1, math.floor(T / l) + 1) * l
    edges = np.concatenate(([1.0], grid[(grid > 1.0) & (grid < T)], [T]))
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda t: ((t / l) - math.floor(t / l)) / t**2, a, b)
        total += val
    return total + 0.5 / T, l / (4.0 * T * T) + 1e-9


def test_euler_gamma_reference_digits():
    assert abs(euler_gamma(1e-12) - EULER_GAMMA_REF) < 1e-12
    assert abs(euler_gamma(1e-3) - 0.577) < 1e-3


def test_euler_gamma_two_independent_truncations():
    a = euler_gamma(1e-12, n=24)
    b = euler_gamma(1e-12, n=48)
    assert abs(a - b) < 2e-13


def test_moment_constant_identity():
    assert abs(moment_constant() - (1.0 - euler_gamma(1e-13))) < 1e-14


def test_partial_moment_constant_small_values():
    assert partial_moment_constant(2) == pytest.approx(math.log(2) - 0.5, abs=1e-15)
    assert partial_moment_constant(3) == pytest.approx(
        math.log(3) - (0.5 + 1.0 / 3.0), abs=1e-15
    )
    with pytest.raises(DomainError):
        partial_moment_constant(1)


def test_partial_moment_constant_window_and_limit():
    lam = moment_constant()
    n = 2
    while n <= 10_000_000:
        value = partial_moment_constant(n)
        assert 0.0 < value < 0.5
        n *= 4
    assert abs(partial_moment_constant(10**6) - lam) < 1e-6


def test_partial_moment_constant_monotone_convergence():
    lam = moment_constant()
    n = 16
    prev = abs(partial_moment_constant(n) - lam)
    while n <= 2**20:
        n *= 2
        cur = abs(partial_moment_constant(n) - lam)
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("l", [1.0, 1.5, 2.0, math.e, math.pi, 10.0, 100.0])
def test_first_moment_closed_form_vs_quadrature(l):
    closed = dilated_frac_moment(l)
    value, bound = dilated_frac_moment_quad(l)
    assert abs(closed - value) < 1e-8
    assert abs(closed - value) <= bound + 1e-12


@pytest.mark.parametrize("l", [0.9, math.nan, math.inf])
def test_first_moment_quadrature_rejects_dilations_outside_range(l):
    with pytest.raises(DomainError):
        dilated_frac_moment_quad(l)


@pytest.mark.parametrize("l", [1.0, math.pi])
def test_first_moment_quadrature_in_chunks(monkeypatch, l):
    # lam_P is summed _WINDOW terms at a time; cutting it finer must not move it
    one_chunk = dilated_frac_moment_quad(l)
    monkeypatch.setattr("nblab.moments._WINDOW", 1000)
    many_chunks = dilated_frac_moment_quad(l)
    assert many_chunks[1] == one_chunk[1]
    assert abs(many_chunks[0] - one_chunk[0]) <= 1e-14


@pytest.mark.parametrize("l", [1.0, 2.0, math.pi])
def test_first_moment_against_scipy_oracle(l):
    closed = dilated_frac_moment(l)
    oracle, bound = scipy_frac_moment(l)
    assert abs(closed - oracle) < bound + 1e-8


def test_first_moment_special_values():
    lam = moment_constant()
    assert dilated_frac_moment(1.0) == pytest.approx(lam, abs=1e-14)
    assert dilated_frac_moment(2.0) == pytest.approx((lam + math.log(2)) / 2, abs=1e-14)
    assert dilated_frac_moment(math.e) == pytest.approx((lam + 1.0) / math.e, abs=1e-14)
    with pytest.raises(DomainError):
        dilated_frac_moment(0.9)


def test_moment_report_log2_example():
    phi = DilatedFracSum(terms=((-1.0, 1.0), (2.0, 2.0)), constrained=True)
    rep = moment_report(phi)
    assert rep.closed_form == pytest.approx(math.log(2), abs=1e-14)
    assert rep.to_dict()["theta_log_sum"] == rep.closed_form
    assert abs(rep.integral_value - rep.closed_form) < 1e-8
    # the moment of a constrained combination need not vanish
    assert abs(rep.closed_form) > 0.69


def test_moment_report_zero_function():
    phi = DilatedFracSum(terms=((-1.0, 1.0), (1.0, 1.0)), constrained=True)
    rep = moment_report(phi)
    assert rep.closed_form == 0.0
    assert abs(rep.integral_value) < 1e-10


def test_moment_report_three_terms():
    phi = DilatedFracSum(terms=((-3.0, 1.0), (2.0, 2.0), (4.0, 2.0)), constrained=True)
    rep = moment_report(phi)
    assert rep.closed_form == pytest.approx(3.0 * math.log(2), abs=1e-13)
    assert abs(rep.integral_value - rep.closed_form) < 1e-9


def test_moment_report_sums_the_harmonic_series_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "nblab.moments.partial_moment_constant",
        lambda n: calls.append(n) or partial_moment_constant(n),
    )
    terms = [(1.0, float(l)) for l in range(2, 9)]
    head = (-sum(1.0 / l for _, l in terms), 1.0)
    phi = DilatedFracSum(terms=(head, *terms), constrained=True)
    assert len(phi.terms) == 8
    rep = moment_report(phi)
    assert len(calls) == 1
    assert abs(rep.integral_value - rep.closed_form) <= rep.quad_error_bound


def test_moment_report_requires_constraint():
    with pytest.raises(ConstraintViolated):
        moment_report(DilatedFracSum(terms=((1.0, 2.0),)))


def test_moment_identity_random_sample(rng):
    for _ in range(25):
        phi = random_constrained_sum(rng)
        rep = moment_report(phi)
        assert abs(rep.integral_value - rep.closed_form) < 1e-8


def test_constants_report_fields():
    rep = constants_report()
    assert rep.gamma + rep.lam == 1.0
    assert rep.lam == moment_constant()
    assert abs(rep.gamma - euler_gamma(1e-14)) < 1e-13
    assert all(0.0 < v < 0.5 for _, v in rep.lambda_n_trace)
    payload = rep.to_dict()
    assert payload["lambda"] == rep.lam


def test_weighted_measure_examples():
    assert weighted_measure([(1.0, math.inf)]) == 1.0
    assert weighted_measure([(2.0, 4.0)]) == pytest.approx(0.25, abs=1e-15)
    assert weighted_measure([(2.0, 3.0), (5.0, 10.0)]) == pytest.approx(
        1.0 / 6.0 + 0.1, abs=1e-15
    )


def test_weighted_measure_validation():
    with pytest.raises(DomainError):
        weighted_measure([(0.5, 2.0)])
    with pytest.raises(DomainError):
        weighted_measure([(2.0, 2.0)])
    with pytest.raises(DomainError):
        weighted_measure([(2.0, 5.0), (4.0, 6.0)])


def test_norm_zero_function():
    phi = DilatedFracSum(terms=((-1.0, 1.0), (1.0, 1.0)), constrained=True)
    assert weighted_norm_report(phi, 2.0).value == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_flat_norm_against_step_profile_measure(rng, p):
    # a constrained sum is constant between breakpoints, so int_1^T |phi|^p
    # is sum |v_i|^p times the measure of each interval of its step profile;
    # with the tail bound this brackets the norm
    for _ in range(4):
        phi = random_constrained_sum(rng)
        rep = weighted_norm_report(phi, p, max_segments=20_000)
        T = rep.truncation
        prof = step_profile(phi, T)
        edges = [1.0, *prof.breakpoints, T]
        head = sum(
            abs(v) ** p * weighted_measure([(a, b)])
            for v, a, b in zip(prof.values, edges[:-1], edges[1:])
            if b > a
        )
        tail = tail_bound(phi, p, T)
        assert head ** (1.0 / p) - rep.abs_error_bound <= rep.value
        assert rep.value <= (head + tail) ** (1.0 / p) + rep.abs_error_bound


def test_norm_validation():
    phi = DilatedFracSum(terms=((1.0, 2.0),))
    for bad in (1.0, 2.5, 0.5):
        with pytest.raises(DomainError):
            weighted_norm_report(phi, bad)


def test_norm_squared_matches_gram_quadratic_form():
    phi = DilatedFracSum(terms=((-1.0, 1.0), (2.0, 2.0)), constrained=True)
    system = gram_system([1.0, 2.0], 1e-10)
    h = np.array([-1.0, 2.0])
    qf = float(h @ system.matrix @ h)
    rep = weighted_norm_report(phi, 2.0)
    combined = 2.0 * rep.value * rep.abs_error_bound + rep.abs_error_bound**2
    combined += float(np.abs(h) @ system.entry_error_bounds @ np.abs(h))
    assert abs(rep.value**2 - qf) <= combined


def test_norm_p_between_one_and_two_against_p2_monotonicity():
    # |phi| <= 1 here, so the p-norm is nondecreasing in p on a probability space
    phi = DilatedFracSum(terms=((0.5, 1.0), (0.25, 2.0)))
    n15 = weighted_norm_report(phi, 1.5, max_segments=40_000).value
    n20 = weighted_norm_report(phi, 2.0, max_segments=40_000).value
    assert n15 <= n20 + 1e-6


def test_norm_unconstrained_sloped_segments():
    phi = DilatedFracSum(terms=((1.0, 1.5),))
    rep = weighted_norm_report(phi, 2.0, max_segments=200_000)
    edges = np.concatenate(([1.0], np.arange(1, 267) * 1.5, [400.0]))
    edges = edges[(edges >= 1.0) & (edges <= 400.0)]
    oracle = sum(
        quad(lambda t: ((t / 1.5) - math.floor(t / 1.5)) ** 2 / t**2, a, b)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    oracle += (1.0 / 3.0) / 400.0  # mean of frac^2 corrects the truncated tail
    assert abs(rep.value**2 - oracle) < 5e-3


def sloped_abs_power_reference(phi: DilatedFracSum, p: float, T: float) -> float:
    """int_1^T |phi|^p dt/t^2 for a sum with nonzero slope, by a route apart
    from the production quadrature: scipy's adaptive ``quad`` on the pieces
    wider than their left end (the first one, [1, l_min]), and 60-point
    Gauss-Legendre in t = z -+ d y^3 on each side of the zero z of every
    other linear piece (agrees with ``quad`` on every piece to 3e-15 up to
    T = 3000 on the cases below)."""
    dils = phi.dilations
    lattice = [np.arange(1, math.floor(T / l) + 1) * l for l in dils]
    pts = np.unique(np.concatenate([[1.0, T], *lattice]))
    pts = pts[(pts >= 1.0) & (pts <= T)]
    t1, t2 = pts[:-1], pts[1:]
    slope = float(np.sum(phi.coeffs / dils))
    a = phi(0.5 * (t1 + t2)) - 0.5 * slope * (t2 - t1)  # value at the left end
    z = np.clip(t1 - a / slope, t1, t2)
    wide = t2 - t1 > t1
    total = 0.0
    for lo, hi, al, zz in zip(t1[wide], t2[wide], a[wide], z[wide]):
        total += quad(
            lambda t: abs(al + slope * (t - lo)) ** p / t**2, lo, hi,
            points=[zz] if lo < zz < hi else None, epsabs=0.0, epsrel=1e-13, limit=200,
        )[0]
    x, w = np.polynomial.legendre.leggauss(60)
    y = 0.5 * (x + 1.0)
    wy = 1.5 * w * y**2  # dt = 3 d y^2 dy, and dy carries half the weight
    t1, t2, a, z = t1[~wide], t2[~wide], a[~wide], z[~wide]
    for sl in (slice(i, i + 10_000) for i in range(0, t1.size, 10_000)):
        for d, sign in ((z[sl] - t1[sl], -1.0), (t2[sl] - z[sl], 1.0)):
            ts = z[sl, None] + sign * d[:, None] * y**3
            vals = np.abs(a[sl, None] + slope * (ts - t1[sl, None])) ** p / ts**2
            total += float(d @ (vals @ wy))
    return total


@pytest.mark.parametrize(
    "terms, p, max_segments",
    [
        # wide first piece [1, 1000]: 513 and 5560 bounds off at the parent
        (((1.0, 1000.0),), 1.5, 20_000),
        (((1.0, 1000.0),), 1.2, 20_000),
        # a zero at the left end of every piece: 0.07 of the bound at the parent
        (((1.0, 1.0),), 1.2, 100_000),
        # interior zeros
        (((1.0, 1.0), (-0.7, math.sqrt(2.0))), 1.2, 100_000),
    ],
)
def test_sloped_norm_against_reference(terms, p, max_segments):
    # the bound covers the tail only, so the quadrature of the head must stay
    # far below it around the midpoint of the report's tail interval; and the
    # report meets the reference's crude interval at the budget, with a bound
    # at most the crude tail's there (the report before the mean-value tail)
    phi = DilatedFracSum(terms=terms)
    rep = weighted_norm_report(phi, p, max_segments=max_segments)
    T, T_B = rep.truncation, budget(phi, max_segments)
    head = sloped_abs_power_reference(phi, p, T)
    lo, hi = tail_interval(phi, p, T, T_B)
    reference = (head + 0.5 * (lo + hi)) ** (1.0 / p)
    assert abs(rep.value - reference) <= 1e-2 * rep.abs_error_bound
    head_B = head if T == T_B else sloped_abs_power_reference(phi, p, T_B)
    assert_meets_crude_interval(rep, head_B, phi, p, T_B)
    assert rep.abs_error_bound <= crude_report(_abs_power_head(phi, p, T_B), phi, p, T_B)[1]


def tail_interval(phi: DilatedFracSum, p: float, T: float, T_B: float) -> tuple[float, float]:
    """The tail interval the report used at its truncation T: the crude
    [0, R/T] where it walked to the budget T_B, else the mean-value one."""
    R = tail_bound(phi, p, 1.0)
    if T == T_B:
        return 0.0, R / T
    mu, error = _mean_tail(phi.coeffs, phi.dilations, p, tail_bound(phi, 1.0, 1.0), R)
    return max(0.0, mu / T - error(T)), min(R / T, mu / T + error(T))


def test_norm_interval_holds_the_sloped_reference():
    # the norm lies in [ref^{1/p}, (ref + tail)^{1/p}], and value +- bound must
    # hold all of it; x^{1/p} is concave, so the p-th root of the midpoint of
    # [ref, ref + tail] lies 3e-11 above that interval's midpoint here, well
    # beyond the 1e-12 (1 + value) slack of the bound.  The sum is sloped,
    # so it takes no periodic tail, and the ratio 2/3 keeps the mean-value
    # tail from its goal: it keeps the crude tail and walks to its budget
    phi = DilatedFracSum(terms=((1.0, 3.0), (-1.0, 2.0)))
    p = 1.5
    rep = weighted_norm_report(phi, p, max_segments=200_000)
    assert rep.truncation == budget(phi, 200_000)
    ref = sloped_abs_power_reference(phi, p, rep.truncation)
    tail = tail_bound(phi, p, rep.truncation)
    assert rep.value - rep.abs_error_bound <= ref ** (1.0 / p)
    assert (ref + tail) ** (1.0 / p) <= rep.value + rep.abs_error_bound


#: a constrained and a sloped sum whose walks span many windows
WALK_SUMS = pytest.mark.parametrize(
    "phi",
    [
        DilatedFracSum(terms=((-1.0, 1.0), (math.sqrt(2.0), math.sqrt(2.0))), constrained=True),
        DilatedFracSum(terms=((1.0, 1.0), (0.5, math.sqrt(2.0)))),
    ],
    ids=["constrained", "sloped"],
)


@WALK_SUMS
def test_lattice_walk_across_many_windows(monkeypatch, phi):
    # the Gram-entry and p = 2 walk oracles walk the frozen lattice and the
    # p = 1.5 norm the production one; cutting both into windows of 1000
    # segments must not move any of them

    def walk():
        return [lattice_walk_oracle(1.0, math.sqrt(2.0), 1e-5)[0],
                norm2_walk_oracle(phi, 200_000)[0],
                weighted_norm_report(phi, 1.5, max_segments=200_000).value]

    one_window = walk()
    monkeypatch.setattr("nblab.moments._WINDOW", 1000)
    monkeypatch.setattr("test_gram.ORACLE_WINDOW", 1000)
    many_windows = walk()
    assert many_windows == pytest.approx(one_window, rel=0.0, abs=1e-13)


def norm2_walk_oracle(phi: DilatedFracSum, max_segments: int) -> tuple[float, float]:
    """(value, bound) of the p = 2 norm by a walk over the union lattice up
    to the truncation T of ``weighted_norm_report``: (slope t)^2 integrated
    in closed form on [1, l_min], then each segment exactly, from its left
    end value a and the slope through i0, i1, i2 (flat segments through
    their value alone), and the tail past T bounded by (sum |h|)^2 / T.  The
    value is the midpoint of [head^{1/2}, (head + tail)^{1/2}] and the bound
    half its width, with the 1e-12 (1 + value) slack of the production
    bound."""
    coeffs, dils = phi.coeffs, phi.dilations
    T = max(100.0, max_segments / float(np.sum(1.0 / dils)))
    slope = float(np.sum(coeffs / dils))
    start = min(float(dils.min()), T)
    head = abs(slope) ** 2 * math.expm1(math.log(start))
    flat = abs(slope) <= 1e-14 * max(1.0, phi.abs_coeff_sum)
    for t1, u in lattice_windows_oracle(dils, start, T):
        v_mid = phi(t1 + 0.5 * u)
        if flat:
            head += float(np.sum(np.abs(v_mid) ** 2 * (u / (t1 * (t1 + u)))))
        else:
            a = v_mid - 0.5 * slope * u
            i0, i1, i2 = _segment_integrals(t1, u)
            head += float(np.sum(a * a * i0 + 2.0 * a * slope * i1 + slope * slope * i2))
    lo = max(head, 0.0) ** 0.5
    hi = (head + phi.abs_coeff_sum**2 / T) ** 0.5
    value = 0.5 * (lo + hi)
    return value, 0.5 * (hi - lo) + 1e-12 * (1.0 + value)


@WALK_SUMS
def test_norm2_against_lattice_oracle(phi):
    # the Gram quadratic form at entry target 1/T and the walk to T must
    # agree within their bounds, and the form's bound must be the tighter
    rep = weighted_norm_report(phi, 2.0, max_segments=200_000)
    walk, walk_bound = norm2_walk_oracle(phi, 200_000)
    assert abs(rep.value - walk) <= rep.abs_error_bound + walk_bound
    assert rep.abs_error_bound < walk_bound


def segments_abs_power_oracle(t1, u, v_mid, slope, p, coeff_scale) -> float:
    """int |v_mid + slope (t - mid)|^p / t^2 summed over segments [t1, t1+u]:
    exactly on flat segments, else by 16-point Gauss-Legendre in
    t = z -+ d y^2 on each side of the zero z of each piece."""
    if abs(slope) <= 1e-14 * max(1.0, coeff_scale):
        return float(np.sum(np.abs(v_mid) ** p * (u / (t1 * (t1 + u)))))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    y = 0.5 * (nodes + 1.0)
    y_sq, y_weights = y * y, weights * y
    total = 0.0
    a_left = v_mid - 0.5 * slope * u
    t2 = t1 + u
    z = np.clip(t1 - a_left / slope, t1, t2)
    left = a_left[:, None]
    t1c = t1[:, None]
    for d, sign in ((z - t1, -1.0), (t2 - z, 1.0)):
        ts = z[:, None] + sign * d[:, None] * y_sq
        vals = np.abs(left + slope * (ts - t1c)) ** p / ts**2
        total += float(np.dot(vals @ y_weights, d))
    return total


def norm_p_walk_oracle(phi: DilatedFracSum, p: float, T: float) -> float:
    """int_1^T |phi|^p dt/t^2 for p < 2 by the frozen lattice walk: the
    closed form on [1, l_min], then each window's midpoint values from
    ``phi(...)`` and the per-segment integrals of
    ``segments_abs_power_oracle``.  It shares no code with the production
    walk, whose head must match it to rounding."""
    coeffs, dils = phi.coeffs, phi.dilations
    slope = float(np.sum(coeffs / dils))
    start = min(float(dils.min()), T)
    head = abs(slope) ** p * math.expm1((p - 1.0) * math.log(start)) / (p - 1.0)
    for t1, u in lattice_windows_oracle(dils, start, T):
        v_mid = phi(t1 + 0.5 * u)
        head += segments_abs_power_oracle(t1, u, v_mid, slope, p, phi.abs_coeff_sum)
    return head


@lru_cache(maxsize=None)
def approx_bstar(l: float) -> DilatedFracSum:
    """The minimiser b* of ``approx --dilations 1,l`` at its default target."""
    return approx_bstar_of((1.0, l))


@lru_cache(maxsize=None)
def approx_bstar_of(dilations: tuple[float, ...]) -> DilatedFracSum:
    """The minimiser b* of ``approx`` over the dilations at its default target."""
    res = best_approximation(list(dilations), 1e-6)
    return DilatedFracSum(terms=tuple(zip(res.h_star, res.dilations)), constrained=True)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@lru_cache(maxsize=None)
def far_walk(phi: DilatedFracSum, p: float, T: float) -> float:
    """``norm_p_walk_oracle`` to T, once per sum, p and T."""
    return norm_p_walk_oracle(phi, p, T)


#: the sloped sum of the frozen-walk check; its frozen walk integrates 16
#: nodes a side per segment, so it is held to T = 4e5, not 1e7 (about a minute)
SLOPED = DilatedFracSum(terms=((1.0, 1.0), (0.5, math.sqrt(2.0))))


@pytest.mark.parametrize("p", [1.5, 1.2])
@pytest.mark.parametrize(
    "make_phi, max_segments, t_ref",
    [
        (lambda: approx_bstar(math.sqrt(2.0)), 200_000, 1e7),
        (lambda: approx_bstar(math.sqrt(2.0)), 4_000_000, 1e7),
        (lambda: approx_bstar(GOLDEN), 200_000, 1e7),
        (lambda: approx_bstar(GOLDEN), 4_000_000, 1e7),
        (lambda: SLOPED, 200_000, 4e5),
    ],
    ids=["sqrt2-200k", "sqrt2-4M", "golden-200k", "golden-4M", "sloped-200k"],
)
def test_norm_p_against_frozen_walk(make_phi, max_segments, t_ref, p):
    # the production head matches the frozen walk to rounding; the report
    # meets the frozen walk's certified interval at t_ref, its value lies
    # within the crude report's bound of that report, and its bound is at
    # most the crude report's (the crude report: the head to the budget and
    # the tail [0, R/T_B], as before the mean-value tail)
    phi = make_phi()
    rep = weighted_norm_report(phi, p, max_segments=max_segments)
    head = norm_p_walk_oracle(phi, p, rep.truncation)
    assert _abs_power_head(phi, p, rep.truncation) == pytest.approx(head, rel=1e-14, abs=0.0)
    assert_meets_crude_interval(rep, far_walk(phi, p, t_ref), phi, p, t_ref)
    T_B = budget(phi, max_segments)
    assert rep.truncation < T_B
    crude, crude_bound = crude_report(_abs_power_head(phi, p, T_B), phi, p, T_B)
    assert abs(rep.value - crude) <= crude_bound
    assert rep.abs_error_bound <= crude_bound


@pytest.mark.parametrize(
    "dilations, t_lo, t_hi",
    [
        # commensurate: points merge in every window
        ((1.0, 2.0, 3.0), 1.0, 30_000.0),
        # m sqrt(2) comes within 1e-12 m sqrt(2) of an integer up here
        ((1.0, math.sqrt(2.0)), 2.0e6, 2.05e6),
        ((1.0, math.sqrt(2.0), math.pi), 1.0, 20_000.0),
    ],
)
def test_lattice_windows_match_frozen_walk(monkeypatch, dilations, t_lo, t_hi):
    # same windows, same segments, bit for bit
    monkeypatch.setattr("nblab.moments._WINDOW", 1000)
    monkeypatch.setattr("test_gram.ORACLE_WINDOW", 1000)
    windows = list(_lattice_windows(dilations, t_lo, t_hi))
    frozen = list(lattice_windows_oracle(dilations, t_lo, t_hi))
    assert len(windows) == len(frozen) > 1
    for (t1, u), (t1_ref, u_ref) in zip(windows, frozen):
        np.testing.assert_array_equal(t1, t1_ref)
        np.testing.assert_array_equal(u, u_ref)


def test_norm_walk_memory_does_not_grow_with_segments():
    # the walk holds a few arrays of one window whatever T is: the traced
    # peak is the same at 1M and 4M segments (to the bytes of Python objects);
    # three dilations keep the crude tail, so they walk the whole budget
    phi = DilatedFracSum(terms=((1.0, 1.0), (-0.5 * math.sqrt(2.0), math.sqrt(2.0)),
                                (-0.5 * math.pi, math.pi)), constrained=True)
    weighted_norm_report(phi, 1.5, max_segments=1000)  # one-time allocations
    peaks = []
    for n in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            rep = weighted_norm_report(phi, 1.5, max_segments=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.truncation == budget(phi, n)
    assert abs(peaks[1] - peaks[0]) < _WINDOW  # an eighth of one window array
    assert max(peaks) <= 12 * _WINDOW * 8  # about 6 window arrays today


def walked(monkeypatch, phi: DilatedFracSum, **kwargs):
    """The p = 1.5 report on phi and the lattice segments its walks took."""
    segments = []

    def counted(*args):
        for t1, u in _lattice_windows(*args):
            segments.append(t1.size)
            yield t1, u

    monkeypatch.setattr("nblab.moments._lattice_windows", counted)
    return weighted_norm_report(phi, 1.5, **kwargs), sum(segments)


def test_two_dilation_norm_walks_a_small_share_of_its_budget(monkeypatch):
    # the benchmark's norm --p 1.5 --max-segments 4000000 on the sqrt(2)
    # bstar walks about 29,000 lattice segments, not 4M
    _, segments = walked(monkeypatch, approx_bstar(math.sqrt(2.0)), max_segments=4_000_000)
    assert 0 < segments <= 40_000


@pytest.mark.parametrize("terms", [((1.0, 3.0), (-1.0, 2.0))], ids=["3:1,2:-1"])
def test_short_periods_keep_the_crude_tail(terms):
    # a sloped sum takes no periodic tail, and for alpha = 2/3 2 E(T) >= 4 V/(Q T)
    # > R/T_B at every T <= T_B, as V >= R: the norm walks to its budget and
    # reports the crude tail, bit for bit
    phi = DilatedFracSum(terms=terms)
    for p in (1.5, 1.2):
        rep = weighted_norm_report(phi, p, max_segments=100_000)
        T = budget(phi, 100_000)
        assert rep.truncation == T
        assert (rep.value, rep.abs_error_bound) == crude_report(_abs_power_head(phi, p, T), phi, p, T)


def mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def period_pieces(phi: DilatedFracSum, p: float):
    """L, the least common period of a flat sum, and (a, b, |phi|^p) for
    each piece [a, b] of [1, 2L] between lattice points, exact in rationals
    but for the power, at 30 digits; phi is taken at the piece's midpoint."""
    terms = [(Fraction(h), Fraction(l)) for h, l in phi.terms]
    L = Fraction(math.lcm(*(l.numerator for _, l in terms)),
                 math.gcd(*(l.denominator for _, l in terms)))
    pts = sorted({Fraction(1)} | {m * l for _, l in terms for m in range(1, 2 * L // l + 1)})
    with mpmath.workdps(30):
        return L, [(a, b, abs(mp(sum(h * (x / l - math.floor(x / l)) for h, l in terms))) ** p)
                   for a, b in zip(pts, pts[1:]) for x in [(a + b) / 2]]


def periodic_reference(phi: DilatedFracSum, p: float) -> mpmath.mpf:
    """int_1^inf |phi|^p dt/t^2 of a flat sum, from its exact pieces: the
    head over the pieces of [1, L], and past L (1/L) sum_i |v_i|^p
    (psi(b_i/L) - psi(a_i/L)) over the pieces [a_i, b_i] of [L, 2L], which
    is sum_i |v_i|^p sum_j int_{a_i + jL}^{b_i + jL} dt/t^2.  Apart from its
    30 digits it differs from the integral only by the sum's rounded slope
    (below 1e-15 here) across pieces at most l_min wide."""
    L, pieces = period_pieces(phi, p)
    with mpmath.workdps(30):
        head = sum(f * (1 / mp(a) - 1 / mp(b)) for a, b, f in pieces if b <= L)
        tail = sum(f * (mpmath.digamma(mp(b / L)) - mpmath.digamma(mp(a / L)))
                   for a, b, f in pieces if b > L)
        return head + tail / mp(L)


def assert_holds_the_periodic_reference(phi: DilatedFracSum, p: float, max_segments: int = 1_000_000):
    """The report takes the periodic tail, walking short of its budget, and
    its printed interval holds the exact reference's p-th root."""
    rep = weighted_norm_report(phi, p, max_segments=max_segments)
    assert rep.truncation < budget(phi, max_segments)
    ref = float(periodic_reference(phi, p) ** (1.0 / p))
    assert abs(rep.value - ref) <= rep.abs_error_bound
    return rep


TO_SIX = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
HALVES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


@pytest.mark.parametrize("terms", [((-1.0, 1.0), (2.0, 2.0))], ids=["1:-1,2:2"])
def test_short_flat_periods_take_the_periodic_tail(terms):
    # L = 2: the walk ends at the least integer T with T^2 >= L T_B/2, not at
    # T_B; the rounding term of mu, about 5e-11 R, does not move it
    phi = DilatedFracSum(terms=terms)
    for p in (1.5, 1.2):
        rep = assert_holds_the_periodic_reference(phi, p, max_segments=100_000)
        assert rep.truncation == math.ceil(math.sqrt(budget(phi, 100_000)))


@pytest.mark.parametrize("p", [1.5, 1.2])
@pytest.mark.parametrize(
    "make_phi",
    [lambda: DilatedFracSum(terms=((1.0, 1.0), (-2.0, 2.0)), constrained=True),
     lambda: approx_bstar_of(TO_SIX), lambda: approx_bstar_of(HALVES)],
    ids=["1:1,2:-2", "bstar-1..6", "bstar-halves"],
)
def test_periodic_tail_holds_the_exact_integral(make_phi, p):
    phi = make_phi()
    assert_holds_the_periodic_reference(phi, p)
    # the period mean itself, far inside its rounding term dmu (about 1e-9 R
    # for the bstars): a mean off by 1e-3 would still leave the reference
    # inside the printed interval
    L, pieces = period_pieces(phi, p)
    exact = float(sum(f * mp(b - a) for a, b, f in pieces if a >= L) / mp(L))
    assert abs(_period_mean(phi, p, float(L)) - exact) <= 1e-13 * tail_bound(phi, p, 1.0)


@given(dilations=st.sets(st.integers(1, 12), min_size=2, max_size=4),
       coeffs=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
@settings(max_examples=25)
def test_periodic_tail_holds_the_exact_integral_of_integer_dilations(dilations, coeffs):
    # constrained sums on integer dilations whose period, the lcm, fits the budget
    dils = sorted(float(l) for l in dilations)
    assume(math.lcm(*dilations) <= 360)
    h = coeffs[:len(dils) - 1]
    h.append(-dils[-1] * sum(c / l for c, l in zip(h, dils)))
    assume(any(h))
    phi = DilatedFracSum(terms=tuple(zip(h, dils)), constrained=True)
    assume(_slope(phi)[1])
    assert_holds_the_periodic_reference(phi, 1.5)


@pytest.mark.parametrize(
    "make_phi, most_t, most_segments",
    [(lambda: DilatedFracSum(terms=((1.0, 1.0), (-2.0, 2.0)), constrained=True), 820, 1_300),
     (lambda: approx_bstar_of(TO_SIX), 3_600, 9_000)],
    ids=["1:1,2:-2", "bstar-1..6"],
)
def test_periodic_walks_are_short(monkeypatch, make_phi, most_t, most_segments):
    # about (L T_B/2)^{1/2} of the head plus one period at the default
    # budget: for {1: 1, 2: -2} L = 2 and T_B = 666,667, for the bstar on
    # 1..6 L = 60 and T_B = 408,163
    rep, segments = walked(monkeypatch, make_phi())
    assert rep.truncation <= most_t
    assert 0 < segments <= most_segments


def test_a_ratio_whose_denominator_passes_double_range_keeps_the_crude_tail():
    # l_1/l_2 = (2^52 + 1)/(2^52 1e300) has a denominator near 4.5e315, past
    # the largest double: E cannot be formed, so the norm walks its budget
    phi = DilatedFracSum(terms=((1.0, 1.0000000000000002), (1.0, 1e300)))
    rep = weighted_norm_report(phi, 1.5, max_segments=1000)
    T = budget(phi, 1000)
    assert rep.truncation == T
    assert (rep.value, rep.abs_error_bound) == crude_report(_abs_power_head(phi, 1.5, T), phi, 1.5, T)


def mean_abs_power_oracle(h1: float, h2: float, p: float) -> float:
    """int_{[0,1]^2} |h1 x + h2 y|^p dx dy by scipy ``dblquad``, split along
    the line h1 x + h2 y = 0 so that each part is smooth."""
    def f(y, x):
        return abs(h1 * x + h2 * y) ** p

    def cut(x):
        return min(1.0, max(0.0, -h1 * x / h2))

    below = dblquad(f, 0.0, 1.0, 0.0, cut, epsabs=0.0, epsrel=1e-13)[0]
    return below + dblquad(f, 0.0, 1.0, cut, 1.0, epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
@pytest.mark.parametrize(
    "make_phi",
    [lambda: approx_bstar(math.sqrt(2.0)), lambda: approx_bstar(GOLDEN),
     lambda: DilatedFracSum(terms=((0.6, 1.0), (1.3, math.e)))],
    ids=["sqrt2", "golden", "same-sign"],
)
def test_mean_of_the_two_dilation_tail_against_dblquad(make_phi, p):
    phi = make_phi()
    (h1, h2), dils = phi.coeffs, phi.dilations
    reach = tail_bound(phi, 1.0, 1.0)
    mu, _ = _mean_tail(phi.coeffs, dils, p, reach, reach**p)
    assert mu == pytest.approx(mean_abs_power_oracle(h1, h2, p), rel=1e-12, abs=0.0)


def test_denjoy_koksma_bounds_each_convergent_block():
    # for the first 6 convergent denominators q of alpha = 1/sqrt(2), q
    # consecutive cells of length 1 from any T hold q mu within V, where the
    # cell j is g({T/l_2 + j alpha}) = int_0^1 |h1 {T + s} + h2 {T/l_2 + (j + s) alpha}|^p ds
    phi = approx_bstar(math.sqrt(2.0))
    (h1, h2), (l1, l2) = phi.coeffs, phi.dilations
    p = 1.5
    alpha = l1 / l2
    reach = tail_bound(phi, 1.0, 1.0)
    R = reach**p
    V = p * abs(h2) * reach ** (p - 1.0) + R
    mu = mean_abs_power_oracle(h1, h2, p)

    def g(c, x):
        # the integrand jumps where c + s or x + s alpha passes an integer
        cuts = [s for s in (1.0 - c, (1.0 - x) / alpha) if 0.0 < s < 1.0]
        f = lambda s: abs(h1 * ((c + s) % 1.0) + h2 * ((x + s * alpha) % 1.0)) ** p
        return quad(f, 0.0, 1.0, points=cuts or None, epsabs=1e-13, limit=200)[0]

    qs = [k for _, k in _convergents(Fraction(l1) / Fraction(l2))][:6]
    assert qs == [1, 3, 7, 17, 41, 99]
    for T in (100.3, 1234.5, 77777.7):
        c, x = (T / l1) % 1.0, (T / l2) % 1.0
        for q in qs:
            block = sum(g(c, (x + j * alpha) % 1.0) for j in range(q))
            assert abs(block - q * mu) <= V
        # the cells are those of phi: the last block is its integral over
        # [T, T + q], phi being flat between lattice points
        pts = np.unique(np.concatenate([[T, T + q], *(np.arange(math.ceil(T / l), (T + q) / l) * l
                                                      for l in (l1, l2))]))
        flat = np.sum(np.abs(phi(0.5 * (pts[:-1] + pts[1:]))) ** p * np.diff(pts))
        assert block == pytest.approx(flat, rel=1e-9, abs=0.0)


def sloped_abs_power_oracle(t1, u, v_mid, slope, p, y_sq, y_weights) -> float:
    """``moments._sloped_abs_power`` as it was before it worked in place:
    each side's nodes and values as plain array expressions."""
    total = 0.0
    a_left = v_mid - 0.5 * slope * u
    t2 = t1 + u
    z = np.clip(t1 - a_left / slope, t1, t2)
    left = a_left[:, None]
    t1c = t1[:, None]
    for d, sign in ((z - t1, -1.0), (t2 - z, 1.0)):
        ts = z[:, None] + sign * d[:, None] * y_sq
        vals = np.abs(left + slope * (ts - t1c)) ** p / ts**2
        total += float(np.dot(vals @ y_weights, d))
    return total


@pytest.mark.parametrize("p", [1.2, 1.8])
def test_sloped_abs_power_in_place_is_bit_identical(p):
    # random segments with and without an interior sign change, of both slopes
    rng = np.random.default_rng(7)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    y = 0.5 * (nodes + 1.0)
    n = 5000
    t1 = np.sort(rng.uniform(1.0, 1e4, n))
    u = rng.uniform(1e-4, 2.0, n)
    for slope in (0.37, -1.3):
        v_mid = rng.uniform(-2.0, 2.0, n)
        args = (t1, u, v_mid, slope, p, y * y, weights * y)
        assert _sloped_abs_power(*args) == sloped_abs_power_oracle(*args)
