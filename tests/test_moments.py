import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_constrained_sum
from test_gram import lattice_walk_oracle
from nblab import (
    ConstraintViolated,
    DilatedFracSum,
    DomainError,
    PrecisionUnreachable,
    constants_report,
    dilated_frac_moment,
    dilated_frac_moment_quad,
    euler_gamma,
    gram_system,
    moment_constant,
    moment_report,
    partial_moment_constant,
    step_profile,
    weighted_norm_report,
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


def test_euler_gamma_validation():
    with pytest.raises(DomainError):
        euler_gamma(0.0)
    with pytest.raises(PrecisionUnreachable):
        euler_gamma(1e-16)
    with pytest.raises(PrecisionUnreachable):
        euler_gamma(1e-12, n=4)


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
    rep = constants_report(1e-12)
    assert abs(rep.gamma + rep.lam - 1.0) < 1e-15
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
    # with the tail bound (sum |h|)^p / T this brackets the norm
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
        tail = phi.abs_coeff_sum**p / T
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
    # the bound covers the truncated tail only, so the quadrature of the head
    # must stay far below it
    phi = DilatedFracSum(terms=terms)
    rep = weighted_norm_report(phi, p, max_segments=max_segments)
    T = rep.truncation
    head = sloped_abs_power_reference(phi, p, T)
    reference = (head + 0.5 * phi.abs_coeff_sum**p / T) ** (1.0 / p)
    assert abs(rep.value - reference) <= 1e-2 * rep.abs_error_bound


def test_norm_interval_holds_the_sloped_reference():
    # the norm lies in [ref^{1/p}, (ref + tail)^{1/p}], and value +- bound must
    # hold all of it; x^{1/p} is concave, so the p-th root of the midpoint of
    # [ref, ref + tail] lies 3e-11 above that interval's midpoint here, well
    # beyond the 1e-12 (1 + value) slack of the bound
    phi = DilatedFracSum(terms=((1.0, 3.0), (-1.0, 2.0)))
    p = 1.5
    rep = weighted_norm_report(phi, p, max_segments=200_000)
    ref = sloped_abs_power_reference(phi, p, rep.truncation)
    tail = phi.abs_coeff_sum**p / rep.truncation
    assert rep.value - rep.abs_error_bound <= ref ** (1.0 / p)
    assert (ref + tail) ** (1.0 / p) <= rep.value + rep.abs_error_bound


@pytest.mark.parametrize(
    "phi",
    [
        DilatedFracSum(terms=((-1.0, 1.0), (math.sqrt(2.0), math.sqrt(2.0))), constrained=True),
        DilatedFracSum(terms=((1.0, 1.0), (0.5, math.sqrt(2.0)))),
    ],
    ids=["constrained", "sloped"],
)
def test_lattice_walk_across_many_windows(monkeypatch, phi):
    # the Gram-entry walk oracle and the norms walk the same windowed lattice;
    # cutting it into windows of 1000 segments must not move any of them

    def walk():
        entry = lattice_walk_oracle(1.0, math.sqrt(2.0), 1e-5)[0]
        norms = [weighted_norm_report(phi, p, max_segments=200_000).value for p in (2.0, 1.5)]
        return [entry, *norms]

    one_window = walk()
    monkeypatch.setattr("nblab.moments._WINDOW", 1000)
    many_windows = walk()
    assert many_windows == pytest.approx(one_window, rel=0.0, abs=1e-13)
