"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from conftest import dilated_frac_moment_quad, euler_gamma, random_constrained_sum, step_profile
from nblab import (
    DilatedFracSum,
    DomainError,
    best_approximation_from_gram,
    dilated_frac_moment,
    find_critical_zeros,
    functional_equation_residual,
    gram_system,
    moment_constant,
    moment_report,
    necessary_condition_gap,
    partial_moment_constant,
    sweep,
    weighted_norm_report,
    xi,
    zeta,
)

GAMMA_15_DIGITS = 0.577215664901533
ORDINATE_ORACLE = (14.134725141734694, 21.022039638771555, 25.010857580145689)


def report(k: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance] criterion {k}: {verdict} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert ok
    assert elapsed < limit, f"criterion {k} exceeded its {limit:.0f}s budget"


def test_criterion_1_first_moment_closed_form():
    start = time.monotonic()
    worst = 0.0
    for l in (1.0, 1.5, 2.0, math.e, math.pi, 10.0, 100.0):
        closed = dilated_frac_moment(l)
        quad_value, _ = dilated_frac_moment_quad(l)
        worst = max(worst, abs(closed - quad_value))
        assert abs(closed - quad_value) < 1e-8
    report(1, True, f"worst |closed - quadrature| = {worst:.2e}", time.monotonic() - start, 5.0)


def test_criterion_2_constants():
    start = time.monotonic()
    g = euler_gamma(1e-12)
    assert abs(g - GAMMA_15_DIGITS) < 1e-12
    # two independent truncation depths of the same scheme must agree
    assert abs(euler_gamma(1e-12, n=24) - euler_gamma(1e-12, n=48)) < 2e-13
    n = 2
    while n <= 10**7:
        value = partial_moment_constant(n)
        assert 0.0 < value < 0.5
        n *= 4
    assert 0.0 < partial_moment_constant(10**7) < 0.5
    gap_at_million = abs(partial_moment_constant(10**6) - (1.0 - g))
    assert gap_at_million < 1e-6
    report(
        2,
        True,
        f"gamma err {abs(g - GAMMA_15_DIGITS):.1e}, lambda_n window ok, "
        f"|lambda_1e6 - lambda| = {gap_at_million:.2e}",
        time.monotonic() - start,
        10.0,
    )


def test_criterion_3_moment_identity():
    start = time.monotonic()
    rng = np.random.default_rng(3_2026)
    worst = 0.0
    for _ in range(100):
        phi = random_constrained_sum(rng)
        rep = moment_report(phi)
        worst = max(worst, abs(rep.integral_value - rep.closed_form))
        assert abs(rep.integral_value - rep.closed_form) < 1e-8
    special = moment_report(DilatedFracSum(terms=((-1.0, 1.0), (2.0, 2.0)), constrained=True))
    assert abs(special.closed_form - math.log(2.0)) < 1e-12
    assert special.closed_form != 0.0  # constrained moments need not vanish
    report(3, True, f"100 random sums, worst gap {worst:.2e}; ln 2 case exact",
           time.monotonic() - start, 30.0)


def test_criterion_4_step_structure():
    start = time.monotonic()
    rng = np.random.default_rng(4_2026)
    worst_flat = 0.0
    worst_jump = 0.0
    worst_limit = 0.0
    for _ in range(50):
        phi = random_constrained_sum(rng, dilation_low=1.05, dilation_high=50.0)
        profile = step_profile(phi, 60.0)
        edges = (1.0,) + profile.breakpoints + (60.0,)
        for idx in range(len(edges) - 1):
            a, b = edges[idx], edges[idx + 1]
            if b - a < 1e-8 * b:
                continue
            ts = rng.uniform(a + 1e-9 * b, b - 1e-9 * b, size=10)
            flat_dev = float(np.max(np.abs(phi(ts) - profile.values[idx])))
            worst_flat = max(worst_flat, flat_dev)
            assert flat_dev < 1e-12
        for idx, (_, jump) in enumerate(profile.jumps):
            jump_dev = abs((profile.values[idx + 1] - profile.values[idx]) - jump)
            worst_jump = max(worst_jump, jump_dev)
            assert jump_dev < 1e-12
        limit_dev = abs(phi(1.0 + 1e-9))
        worst_limit = max(worst_limit, limit_dev)
        assert limit_dev < 1e-6
    report(
        4,
        True,
        f"flatness {worst_flat:.1e}, jumps {worst_jump:.1e}, 1+ limit {worst_limit:.1e}",
        time.monotonic() - start,
        10.0,
    )


def test_criterion_5_analytic_suite():
    start = time.monotonic()
    rng = np.random.default_rng(5_2026)
    worst_fe = 0.0
    worst_sym = 0.0
    checked = on_strip = 0
    while checked < 1000:
        s = complex(rng.uniform(-5.0, 6.0), rng.uniform(-40.0, 40.0))
        if abs(s - 1.0) < 0.3 or abs(s) < 0.3:
            continue  # pole neighbourhoods of the reflection chain
        if abs(s.imag) < 0.2 and abs(s.real - round(s.real)) < 0.2:
            continue
        if 0.0 < s.real < 1.0:  # only there are fe-check's sides two routes
            worst_fe = max(worst_fe, functional_equation_residual(s)[0])
            on_strip += 1
        else:
            with pytest.raises(DomainError):
                functional_equation_residual(s)
        a = xi(s).value
        b = xi(1.0 - s).value
        worst_sym = max(worst_sym, abs(a - b) / (1.0 + abs(a)))
        checked += 1
    assert worst_fe < 1e-8
    assert worst_sym < 1e-9
    for n in range(1, 11):
        assert abs(zeta(-2.0 * n, 1e-6).value) < 1e-10
        assert abs(xi(-2.0 * n).value) > 0.0
    zeros = find_critical_zeros(30.0, 1e-6)
    assert len(zeros) == 3
    for found, expected in zip(zeros, ORDINATE_ORACLE):
        assert abs(found - expected) < 1e-6 + 5e-7  # final bracket width slack
    report(
        5,
        True,
        f"fe residual {worst_fe:.1e} on {on_strip} strip points, xi symmetry {worst_sym:.1e}, "
        f"zeros at {[round(z, 6) for z in zeros]}",
        time.monotonic() - start,
        60.0,
    )


def test_criterion_6_approximation_engine():
    start = time.monotonic()
    results = sweep([float(k) for k in range(1, 51)], [2, 5, 10, 20, 50])
    distances = [r.distance for r in results]
    assert all(d > 0.0 for d in distances)
    for prev, cur in zip(distances, distances[1:]):
        assert cur <= prev + 1e-10
    for res in results:
        assert necessary_condition_gap(res) <= res.distance + 1e-12
    # KKT stationarity on each result, via the shared Gram arithmetic
    full = gram_system([float(k) for k in range(1, 51)], 1e-9)
    kkt_worst = 0.0
    for n in (2, 5, 10, 20, 50):
        res = best_approximation_from_gram(full.head(n))
        kkt_worst = max(kkt_worst, res.kkt_residual)
        assert res.kkt_residual < 1e-8
    # null-space grid search oracle at N = 2 and N = 3
    from test_approx import null_space_grid_search

    for n in (2, 3):
        res = best_approximation_from_gram(full.head(n))
        brute = null_space_grid_search(full.head(n))
        assert abs(res.distance - brute) < 1e-6
    report(
        6,
        True,
        f"d(N): {[round(d, 6) for d in distances]}, kkt {kkt_worst:.1e}",
        time.monotonic() - start,
        300.0,
    )


def test_criterion_7_gram_certification():
    start = time.monotonic()
    entry_target = 1e-9
    system = gram_system([float(k) for k in range(1, 11)], entry_target)
    rng = np.random.default_rng(7_2026)
    min_quadratic = math.inf
    for _ in range(100):
        h = rng.standard_normal(10)
        h /= np.linalg.norm(h)
        min_quadratic = min(min_quadratic, float(h @ system.matrix @ h))
        assert min_quadratic >= -10.0 * entry_target
    worst_ratio = 0.0
    for _ in range(20):
        h = rng.uniform(-1.0, 1.0, size=10)
        phi = DilatedFracSum(terms=tuple(zip(h.tolist(), [float(k) for k in range(1, 11)])))
        rep = weighted_norm_report(phi, 2.0)
        quadratic = float(h @ system.matrix @ h)
        combined = (
            2.0 * rep.value * rep.abs_error_bound
            + rep.abs_error_bound**2
            + float(np.abs(h) @ system.entry_error_bounds @ np.abs(h))
        )
        gap = abs(rep.value**2 - quadratic)
        worst_ratio = max(worst_ratio, gap / combined)
        assert gap <= combined
    report(
        7,
        True,
        f"min h.G.h = {min_quadratic:.2e}, worst norm/Gram gap ratio {worst_ratio:.2f}",
        time.monotonic() - start,
        120.0,
    )
