import cmath
import importlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import em_dirichlet_zeta
from nblab import (
    DomainError,
    PoleAtOne,
    PrecisionUnreachable,
    find_critical_zeros,
    functional_equation_residual,
    xi,
    zeta,
)
from nblab.gammafn import _BERNOULLI
from nblab.zeta import _em_order, _em_terms, _em_z_rows, _refined_zeros, _weighted_pole_product

# the module itself: ``nblab.zeta`` as an attribute is the function
zeta_module = importlib.import_module("nblab.zeta")

# oracle outputs of the sign-change scan + refinement, frozen at high precision
FIRST_ORDINATES = (14.134725141734694, 21.022039638771555, 25.010857580145689)


def test_zeta_two_against_dirichlet_oracle():
    oracle, bound = em_dirichlet_zeta(2.0)
    assert bound < 1e-12
    rep = zeta(2.0, 1e-12)
    assert abs(rep.value - oracle) < 1e-12 + bound
    assert abs(rep.value - 1.6449340668482264) < 1e-12  # pi^2/6, from the oracle


@pytest.mark.parametrize("s", [3.0, 4.5, complex(2.5, 7.0), complex(6.0, -20.0)])
def test_zeta_matches_oracle_on_re_ge_2(s):
    oracle, bound = em_dirichlet_zeta(s)
    rep = zeta(s, 1e-10)
    assert abs(rep.value - oracle) <= rep.abs_error_estimate + bound


def test_error_estimate_honest_at_known_point():
    # true zeta(-2n) = 0, so |value| itself is the true error
    for n in range(1, 11):
        rep = zeta(-2.0 * n, 1e-6)
        assert abs(rep.value) < 1e-10
        assert abs(rep.value) <= rep.abs_error_estimate


def test_first_zero_neighbourhood():
    rep = zeta(complex(0.5, 14.134725), 1e-8)
    assert abs(rep.value) < 1e-6


def test_pole_raises():
    with pytest.raises(PoleAtOne):
        zeta(1.0, 1e-6)
    with pytest.raises(PoleAtOne):
        zeta(1.0 + 1e-13, 1e-6)


def test_unreachable_target_raises():
    with pytest.raises(PrecisionUnreachable):
        zeta(2.0, 1e-30)


def test_capped_head_refuses_before_it_sums():
    # at N = 2^20 the least remainder is already 3.4e3 in zeta's units, and
    # summing the head first took about 85 MB
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionUnreachable, match="remainder"):
            zeta(complex(0.5, 1e7), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # capped as well, but the remainder (2.7e-22) leaves room for the target
    assert zeta(complex(0.5, 3.4e6), 1e-3).abs_error_estimate <= 1e-3


def test_target_validation():
    with pytest.raises(DomainError):
        zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        zeta(complex(math.inf, 0.0), 1e-6)


def test_near_pole_error_estimate_grows():
    rep_far = zeta(2.0, 1e-10)
    rep_near = zeta(1.0 + 1e-7, 1.0)
    assert rep_near.abs_error_estimate > rep_far.abs_error_estimate


@pytest.mark.parametrize("s", [complex(0.5, 3.0), 2.0, -1.5])
def test_functional_equation_examples(s):
    if not 0.0 < complex(s).real < 1.0:  # both sides would be zeta's reflection route
        with pytest.raises(DomainError, match="0 < Re s < 1"):
            functional_equation_residual(s)
        return
    residual, bound = functional_equation_residual(s)
    assert residual < 1e-9
    assert residual <= bound <= 1e-9


@pytest.mark.parametrize("s", [3.0, 5.0, 7.0, 9.0, 11.0, 13.0])
def test_functional_equation_bound_covers_odd_integers(s):
    # fe-check refuses s, where both its sides would be zeta's reflection
    # route at u = 1 - s; there sin(pi u / 2) Gamma(1 - u) has no pole, so
    # that route's claim is derived at the trivial zeros u = -2, ..., -12
    with pytest.raises(DomainError):
        functional_equation_residual(s)
    rep = zeta(1.0 - s, 1e-14)
    assert abs(rep.value) <= rep.abs_error_estimate <= 1e-14


@pytest.mark.parametrize("s", [3.0 - 1e-13, 3.0 + 1e-13, 13.0 + 1e-12])
def test_functional_equation_bound_beside_odd_integers(s):
    with pytest.raises(DomainError):
        functional_equation_residual(s)
    rep = zeta(1.0 - s, 1e-12)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpc(rep.value) - mpmath.zeta(mpmath.mpf(1.0 - s))))
    assert err <= rep.abs_error_estimate < 1e-12


def test_functional_equation_residual_is_symmetric():
    # both s and 1 - s take the formula at the one of them with Re <= 1/2;
    # on Re s = 1/2 both keep their own point, so no equality is asked
    # there.  Off the strip both s and 1 - s are refused
    rng = np.random.default_rng(17)
    points = [complex(rng.uniform(0.5, 1.0), rng.uniform(-50.0, 50.0)) for _ in range(400)]
    for s in [*points, complex(0.75, 1e-9)]:
        assert functional_equation_residual(s) == functional_equation_residual(1.0 - s), s
    for s in (3.0, 2.0, 1.25, complex(1.0, 7.0)):
        for u in (s, 1.0 - s):
            with pytest.raises(DomainError):
                functional_equation_residual(u)


def test_functional_equation_strip_sample():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        s = complex(rng.uniform(-5, 6), rng.uniform(-40, 40))
        if abs(s - 1) < 0.3 or abs(s) < 0.3:
            continue
        if abs(s.imag) < 0.2 and abs(s.real - round(s.real)) < 0.2:
            continue
        if not 0.0 < s.real < 1.0:
            with pytest.raises(DomainError):
                functional_equation_residual(s)
            continue
        residual, bound = functional_equation_residual(s)
        assert residual < 1e-8
        assert residual <= bound <= 1e-9
        checked += 1


def test_conjugation_symmetry():
    for s in (complex(2.3, 5.5), complex(0.4, 17.0), complex(-2.2, 9.0)):
        a = zeta(s, 1e-5).value
        b = zeta(s.conjugate(), 1e-5).value
        assert abs(a.conjugate() - b) <= 1e-12 * (1.0 + abs(a))


def test_xi_real_on_critical_line():
    for t in np.arange(0.0, 50.5, 2.5):
        rep = xi(complex(0.5, t))
        assert abs(rep.value.imag) < 1e-10 * (1.0 + abs(rep.value))


def test_xi_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = complex(rng.uniform(-4, 5), rng.uniform(-35, 35))
        a = xi(s).value
        b = xi(1.0 - s).value
        assert abs(a - b) < 1e-9 * (1.0 + abs(a))


def test_xi_specific_points():
    # xi(0) = xi(1) = 1/2: the cancelled forms must reproduce the limits
    assert abs(xi(0.0).value - 0.5) < 1e-12
    assert abs(xi(1.0).value - 0.5) < 1e-12
    assert abs(xi(complex(0.3, 7.2)).value - xi(complex(0.7, -7.2)).value) < 1e-10
    assert abs(xi(-2.0).value) > 1e-3  # no trivial zeros survive in xi


def test_xi_entire_near_special_points():
    # approach s = 1 and s = 0 along a small circle; values must agree with
    # the centre to first order since xi is entire
    for centre in (0.0, 1.0):
        base = xi(complex(centre, 0.0)).value
        for k in range(8):
            ang = 2 * math.pi * k / 8
            probe = xi(centre + 1e-5 * complex(math.cos(ang), math.sin(ang))).value
            assert abs(probe - base) < 1e-4


def mpmath_xi(s: complex) -> mpmath.mpc:
    """xi at the exact double s, from mpmath's zeta and gamma at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        if z in (0, 1):
            return mpmath.mpc(0.5)
        return z * (z - 1) / 2 * mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z)


def assert_within_claim(rep, oracle: mpmath.mpc) -> None:
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpc(rep.value) - oracle))
    assert err <= rep.abs_error_estimate, f"error {err:.3e} above claim {rep.abs_error_estimate:.3e}"


@pytest.mark.parametrize(
    "s",
    [*(-(10.0**-k) for k in range(2, 13)), 400.0, -399.0, 430.0, complex(-20.5, 30.0),
     0.0, 5j, -30j, complex(0.0, 100.0), complex(0.5, 805.0), complex(2.0, 805.0),
     complex(-1.0, 805.0), complex(0.5, 900.0)],
)
def test_xi_against_mpmath(s):
    # just left of 0 the rounded 1 - s sits next to the pole of zeta, which
    # only a cancelled (s - 1) zeta(s) survives; Gamma(201) alone overflows,
    # so xi(400) and xi(-399) need pi^{-s/2} Gamma(s/2 + 1) in log space;
    # Re s = 0 is reflected onto Re s = 1.  At |Im s| = 805 and 900 the
    # capped eta series' remainder bound overflowed; W's has no cap
    s = complex(s)
    assert_within_claim(xi(s), mpmath_xi(s))


def test_xi_left_half_plane_against_mpmath():
    rng = np.random.default_rng(9)
    for _ in range(40):
        s = complex(rng.uniform(-30.0, 0.0), rng.uniform(-60.0, 60.0))
        assert_within_claim(xi(s), mpmath_xi(s))


@pytest.mark.parametrize("target", [1e-12, 1e-6])
def test_zeta_near_zero_against_mpmath(target):
    # on |s| < 1/4 the reflected pole is cancelled through (s - 1) zeta(s) at
    # 1 - s, whose Euler-Maclaurin sum takes its term count from zeta's
    # target: never fewer terms than at the next larger target
    rng = np.random.default_rng(3)
    points = [0.0, 1e-9, -1e-9, 1e-5j, *(complex(*rng.uniform(-0.17, 0.17, 2)) for _ in range(20))]
    for s in map(complex, points):
        with mpmath.workdps(40):
            oracle = mpmath.zeta(mpmath.mpc(s.real, s.imag))
        rep = zeta(s, target)
        assert_within_claim(rep, oracle)
        assert rep.terms_used >= zeta(s, 1e3 * target).terms_used


@pytest.mark.parametrize(
    "s, target",
    [(complex(-25.0, 3.0), 1e-3), (complex(-25.0, 3.0), 1e-5), (complex(-3.0, 50.0), 1e-6)],
)
def test_reflection_scales_the_target_of_zeta_one_minus_s(s, target):
    # zeta(s) = a sin(pi s / 2) zeta(1 - s), and |a sin| is 2.6e6 at -25 + 3i,
    # so zeta(1 - s) needs zeta's target divided by it: at zeta's own target
    # it takes 16 terms, whose certified error (3.4e-3) is above these targets
    with mpmath.workdps(40):
        oracle = mpmath.zeta(mpmath.mpc(s.real, s.imag))
    rep = zeta(s, target)
    assert rep.abs_error_estimate <= target
    assert_within_claim(rep, oracle)


def zeta_sweep_points() -> dict[str, list[complex]]:
    rng = np.random.default_rng(29)
    return {
        "right": [complex(rng.uniform(0.05, 30.0), rng.uniform(-90.0, 90.0)) for _ in range(150)],
        "left": [complex(rng.uniform(-30.0, 0.0), rng.uniform(-60.0, 60.0)) for _ in range(150)],
        "near zero": [0.2 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                      for _ in range(20)],
    }


@pytest.mark.parametrize("target", [1e-12, 1e-6])
def test_zeta_sweep_against_mpmath(target):
    # W(s)/(s - 1) on the right, one reflection formula on the left and next
    # to s = 0: wherever zeta returns, its claim covers its error.  On the
    # left |zeta| reaches 1e20, so the relative error of Gamma alone puts
    # most of those points above these targets, and zeta exits 2 there
    returned = {}
    for region, points in zeta_sweep_points().items():
        returned[region] = 0
        for s in points:
            try:
                rep = zeta(s, target)
            except PrecisionUnreachable:
                continue
            with mpmath.workdps(40):
                assert_within_claim(rep, mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            returned[region] += 1
    assert returned["right"] >= 149 and returned["left"] >= 10 and returned["near zero"] == 20


def test_weighted_pole_product_near_one_against_mpmath():
    # W(s) = (s - 1) zeta(s) carries zeta's pole as the term N^{1-s}: nothing
    # cancels next to s = 1 (the eta form divided by e^w - 1 there)
    for r in np.geomspace(1e-6, 0.2, 25):
        for k in range(5):
            s = 1.0 + r * cmath.exp(2j * math.pi * (k + 0.125) / 5)
            value, claim, _ = _weighted_pole_product(s)
            with mpmath.workdps(40):
                z = mpmath.mpc(s.real, s.imag)
                err = float(abs(mpmath.mpc(value) - (z - 1) * mpmath.zeta(z)))
            assert err <= claim, f"error {err:.3e} above claim {claim:.3e} at s = {s}"


def test_weighted_pole_product_against_mpmath():
    # one formula, the Euler-Maclaurin sum times s - 1, serves all of Re s > 0
    rng = np.random.default_rng(23)
    for _ in range(150):
        s = complex(rng.uniform(0.05, 30.0), rng.uniform(-400.0, 400.0))
        value, claim, _ = _weighted_pole_product(s)
        with mpmath.workdps(40):
            z = mpmath.mpc(s.real, s.imag)
            err = float(abs(mpmath.mpc(value) - (z - 1) * mpmath.zeta(z)))
        assert err <= claim, f"error {err:.3e} above claim {claim:.3e} at s = {s}"


@pytest.mark.parametrize("s", [-5e-324, 5e-324j, complex(-1e-320, 1e-321)])
def test_subnormal_distance_from_pole_cancellations(s):
    # sin(pi s / 2) / s and w / (e^w - 1) must not lose their digits to subnormals
    with mpmath.workdps(40):
        oracle = mpmath.zeta(mpmath.mpc(s.real, s.imag))
    assert_within_claim(zeta(s, 1e-10), oracle)
    assert_within_claim(xi(1.0 - s), mpmath_xi(1.0 - s))


def test_find_critical_zeros_first():
    zeros = find_critical_zeros(15.0, 1e-6)
    assert len(zeros) == 1
    assert abs(zeros[0] - FIRST_ORDINATES[0]) < 2e-6


def test_find_critical_zeros_three():
    zeros = find_critical_zeros(30.0, 1e-6)
    assert len(zeros) == 3
    assert all(b > a for a, b in zip(zeros, zeros[1:]))
    for found, expected in zip(zeros, FIRST_ORDINATES):
        assert abs(found - expected) < 2e-6


def test_find_critical_zeros_coarse_tol_keeps_every_zero():
    # |xi(1/2 + it)| is about 7e-7 at 5e-4 from the first zero, so a filter on
    # |xi| < 1e-8 at the bracket midpoint dropped it; mpmath.nzeros(60) is 13
    zeros = find_critical_zeros(60.0, 1e-3)
    assert len(zeros) == 13
    assert abs(zeros[0] - FIRST_ORDINATES[0]) < 1e-3


def test_find_critical_zeros_empty_below_first():
    # no grid point, part of one row, one whole row, and one point of a second row
    for t_max in (0.01, 1.0, 1.6, 1.65):
        assert find_critical_zeros(t_max, 1e-6) == []


def test_points_past_t_max_make_no_ordinate():
    # the last row is evaluated whole, but its points past t_max are dropped:
    # the first zero, 14.1347..., lies between the grid's last point 14.10
    # and the dropped 14.15, and so does 201.2647... on Z's rows between
    # 201.25 and 201.30
    assert find_critical_zeros(14.13, 1e-6) == []
    assert find_critical_zeros(14.15, 1e-6) == [pytest.approx(14.134725142, abs=1e-6)]
    below, above = find_critical_zeros(201.25, 1e-6), find_critical_zeros(201.3, 1e-6)
    assert below[-1] == pytest.approx(198.015309676, abs=1e-6)
    assert above[:-1] == below and above[-1] == pytest.approx(201.264751944, abs=1e-6)


def test_find_critical_zeros_validation():
    with pytest.raises(DomainError):
        find_critical_zeros(-1.0, 1e-6)
    with pytest.raises(DomainError):
        find_critical_zeros(10.0, 0.0)
    with pytest.raises(PrecisionUnreachable):
        find_critical_zeros(10.0, 1e-18)
    with pytest.raises(DomainError):
        find_critical_zeros(math.inf, 1e-6)


def scalar_scan_oracle(t_max: float, tol: float, grid_step: float) -> list[float]:
    """Independent route for the zero scan: one scalar ``xi`` call per grid
    point, then each grid bracket [a, a + grid_step] bisected on its lattice
    a + k h, h = grid_step / ceil(grid_step / tol), by one scalar ``xi``
    call per point, down to the cell whose ends differ, whose midpoint is
    reported as the scan reports it.  xi(1/2 + it) has the sign of -Z(t),
    so the sign changes are the same; an exact 0.0 on the grid is reported
    as it stands (no sign the scan counts is 0)."""
    row = 32

    def f(t: float) -> float:
        return xi(complex(0.5, t)).value.real

    def opposite(a: float, b: float) -> bool:
        # signs, not the product, which underflows to 0 past t ~ 470
        return np.sign(a) * np.sign(b) < 0.0

    def bisect(a: float, fa: float) -> float:
        n = math.ceil(grid_step / tol)
        h = grid_step / n
        lo, hi = 0, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = f(a + mid * h)
            if opposite(fa, fm):
                hi = mid
            else:
                lo, fa = mid, fm
        return a + (lo + 0.5) * h

    # the grid points j = 1..last in rows of 32, as the row start a_r plus
    # i grid_step: t = grid_step (j - i) + grid_step i with i = (j - 1) % 32
    last = int(math.floor((t_max - grid_step) / grid_step + 1e-9)) + 1
    grid = []
    for j in range(1, last + 1):
        i = (j - 1) % row
        grid.append(grid_step * (j - i) + grid_step * i)
    values = [f(t) for t in grid]
    zeros = []
    for c in range(len(grid) - 1):
        if values[c] == 0.0:
            zeros.append(grid[c])
        elif opposite(values[c], values[c + 1]):
            zeros.append(bisect(grid[c], values[c]))
    return sorted(zeros)


@pytest.mark.parametrize(
    "t_max, tol, grid_step",
    [(100.0, 1e-6, 0.05), (60.0, 1e-9, 0.05), (400.0, 1e-6, 0.05)],
)
def test_scan_equals_scalar_oracle(t_max, tol, grid_step):
    assert find_critical_zeros(t_max, tol) == scalar_scan_oracle(t_max, tol, grid_step)


def test_find_critical_zeros_count_at_500():
    # the scan reads Z from W's rows to t = 200 and by the Riemann-Siegel
    # formula above; the ordinates above 450 are checked against mpmath's Z
    tol = 1e-6
    zeros = find_critical_zeros(500.0, tol)
    assert len(zeros) == int(mpmath.nzeros(500))
    for t in zeros:
        if t > 450.0:
            assert mpmath.siegelz(t - tol) * mpmath.siegelz(t + tol) < 0


def test_a_count_below_trudgians_bound_is_refused(monkeypatch):
    # N(T) = theta(T)/pi + 1 + S(T) off the ordinates, and Trudgian (J.
    # Number Theory 134, 2014) bounds |S(T)| by 0.112 ln T + 0.278 ln ln T +
    # 2.510 from T = e, so a scan that counts fewer zeros than the least N(T)
    # this allows has missed some, and is refused with the shortfall.  At
    # T = 2000 the least is 1514, three below the 1517 zeros: dropping three
    # ordinates passes, dropping four is refused
    t_max, log_t = 2000.0, math.log(2000.0)
    zeros = find_critical_zeros(t_max, 1e-6)
    least = math.ceil(float(mpmath.siegeltheta(t_max)) / math.pi + 1.0
                      - (0.112 * log_t + 0.278 * math.log(log_t) + 2.510))
    assert (least, len(zeros)) == (1514, 1517)
    refined = zeta_module._refined_zeros
    monkeypatch.setattr(zeta_module, "_refined_zeros", lambda *args: refined(*args)[3:])
    assert find_critical_zeros(t_max, 1e-6) == zeros[3:]
    monkeypatch.setattr(zeta_module, "_refined_zeros", lambda *args: refined(*args)[4:])
    with pytest.raises(PrecisionUnreachable, match="found 1513 sign changes, at least 1 short"):
        find_critical_zeros(t_max, 1e-6)


def test_array_kernel_matches_scalar_xi():
    # W's Z rows against scalar xi: xi(1/2 + it) = -g(t) Z(t) with
    # g(t) = (t^2 + 1/4)/2 pi^{-1/4} |Gamma(1/4 + it/2)| > 0, g from 30-digit
    # mpmath, so each row's value lies within its own claim plus xi's claim
    # over g of -Re xi / g, on rows from theta's floor t = 10, across the
    # first zero, and ending at t = 200
    ts, values, claims = zeta_module._em_z_rows(np.array([10.0, 14.1, 120.0, 200.0 - 31 * 0.05]), 0.05, 32)
    assert np.isfinite(claims).all() and ts[-1, -1] == 200.0
    with mpmath.workdps(30):
        for t, value, claim in zip(ts.ravel(), values.ravel(), claims.ravel()):
            g = float((mpmath.mpf(t) ** 2 + 0.25) / 2 * mpmath.pi**-0.25
                      * abs(mpmath.gamma(mpmath.mpc(0.25, t / 2))))
            rep = xi(complex(0.5, t))
            assert abs(value + rep.value.real / g) <= claim + rep.abs_error_estimate / g, t


def test_a_w_row_claim_is_taken_at_its_own_row():
    # a W row's rounding claim depends on the other rows of its call only
    # through the N, M, remainder and Euler-Maclaurin tail that the call's
    # top picks: at t = 82.91038085408219 it moves by 3.5e-5 of itself
    # between rows at 198 and at 199.5, which share N = 72 and M (1.5e-2 when
    # the top set c and |s - 1| too), and beside 120 or 199 it stays within 2
    # times its value alone (9.0e-13), where the top once set it to 2.4e-12
    # and 9.5e-12
    t0 = 82.91038085408219

    def claim(*others):
        return _em_z_rows(np.array([t0, *others]), 0.05, 1)[2][0, 0]

    assert _em_terms(complex(0.5, 198.0), 1e-15) == _em_terms(complex(0.5, 199.5), 1e-15)
    assert claim(198.0) == pytest.approx(claim(199.5), rel=1e-3, abs=0.0)
    alone = claim()
    assert alone < claim(120.0) < claim(199.0) <= 2.0 * alone


def test_angle_addition_matches_direct_sums(monkeypatch):
    # the rows' head sums by angle addition, e^{-i(a + d) ln n} =
    # e^{-i a ln n} e^{-i d ln n}, against the one-point route's own phases
    # e^{-i t ln n} at each point, with the rows' N and M
    step = 0.05
    a, offsets = step * np.arange(6000, 6064, 32), step * np.arange(32)
    rows, _, terms = _weighted_pole_product(0.5 + 1j * a, offsets=offsets)
    assert rows.shape == (2, 32)
    top = complex(0.5, a[-1] + offsets[-1])
    n = _em_terms(top, 1e-15)
    order = _em_order(top, n, 5e-16)  # the rows' rounding is far above their target
    monkeypatch.setattr(zeta_module, "_em_terms", lambda s, target: n)
    monkeypatch.setattr(zeta_module, "_em_order", lambda s, n, goal: order)
    for t, row_value in zip(np.add.outer(a, offsets).ravel(), rows.ravel()):
        # the claim covers each route's rounding; the truncation is shared
        value, claim, point_terms = _weighted_pole_product(complex(0.5, t))
        assert point_terms == terms
        assert abs(row_value - value) <= 2.0 * claim


def spy_on_scan(monkeypatch):
    """Lists that collect each ``_em_z_rows`` call's points, each W call's
    (N, M) and each ``_z_rows`` call's points."""
    calls, counts, z_calls = [], [], []
    kernel, em_order, z_kernel = zeta_module._em_z_rows, zeta_module._em_order, zeta_module._z_rows

    def spy_kernel(a, h, m):
        calls.append(np.add.outer(a, h * np.arange(m)).ravel())
        return kernel(a, h, m)

    def spy_em_order(s, n, goal):
        picked = em_order(s, n, goal)
        counts.append((n, picked[0]))
        return picked

    def spy_z_kernel(a, h, m):
        z_calls.append(np.add.outer(a, h * np.arange(m)).ravel())
        return z_kernel(a, h, m)

    monkeypatch.setattr(zeta_module, "_em_z_rows", spy_kernel)
    monkeypatch.setattr(zeta_module, "_em_order", spy_em_order)
    monkeypatch.setattr(zeta_module, "_z_rows", spy_z_kernel)
    return calls, counts, z_calls


def own_counts(t: float, n: int | None = None) -> tuple[int, int]:
    """xi's (N, M) at 1/2 + it, or its M there with N = n: its rounding is
    above its target 1e-15 on the critical line, so M is the least with a
    remainder below 5e-16."""
    s = complex(0.5, t)
    n = _em_terms(s, 1e-15) if n is None else n
    return n, _em_order(s, n, 5e-16)[0]


def test_scan_term_count_covers_each_point(monkeypatch):
    # each kernel call of the scan (the grid, or a refinement round)
    # uses one (N, M): N is at least what xi picks at each of its points,
    # and M at least what xi would need there with that N, so no point's
    # remainder is above xi's.  (xi's own M can exceed the call's where its
    # own N is smaller.)  The one grid call comes first, then one round of
    # reads when there is a bracket: round 1's guess, from the grid's own
    # values, lies in its zero's lattice cell.  The grid call
    # evaluates whole rows, so its last row may reach past t_max (to 9.6 for
    # 9.0).  Past t = 200 the scan reads Z by the Riemann-Siegel formula: at
    # 600 the grid call and the round call W's rows only on the points at or
    # below 200
    for t_max, n_calls, n_max in ((9.0, 1, 12), (187.1, 2, 68), (200.0, 2, 72), (600.0, 2, 72)):
        calls, counts, _ = spy_on_scan(monkeypatch)
        find_critical_zeros(t_max, 1e-6)
        monkeypatch.undo()
        assert len(calls) == len(counts) == n_calls
        for t, (n, m) in zip(calls, counts):
            assert all(n >= own_counts(z)[0] and m >= own_counts(z, n)[1] for z in t), (t_max, n, m)
            assert t.max() <= 200.0 + 1e-9
        assert max(n for n, _ in counts) == n_max
    for z in (0.05, 14.1, 187.1, 600.0):
        n, m = own_counts(z)
        assert xi(complex(0.5, z)).terms_used == n - 1 + m


def spy_on_reads(monkeypatch):
    """A list that collects the points of each ``_scan_rows`` call, as its rows."""
    reads, scan_rows = [], zeta_module._scan_rows

    def spy(a, h, m):
        reads.append(np.add.outer(a, h * np.arange(m)))
        return scan_rows(a, h, m)

    monkeypatch.setattr(zeta_module, "_scan_rows", spy)
    return reads


def missing_guesses(tol):
    """Replacements of ``_first_guess`` and ``_secant`` whose guesses lie 3
    tol off their own, to the right and the left in turn, so that the reads
    close in on a zero from both sides without a cell across it.  The first
    guess starts from the secant's, so round 1 takes two turns and still
    alternates with round 2."""
    first, secant = zeta_module._first_guess, zeta_module._secant
    side = itertools.cycle((3.0, -3.0))
    return (lambda a, fa, b, fb, grid: first(a, fa, b, fb, grid) + next(side) * tol,
            lambda x0, f0, x1, f1: secant(x0, f0, x1, f1) + next(side) * tol)


@pytest.mark.parametrize("t_max", [300.0, 2000.0])
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8])
def test_the_safeguard_gives_the_probes_ordinates(monkeypatch, t_max, tol):
    # with no guess on any bracket every round reads [lo, hi]'s middle cell,
    # a bisection of the lattice; with guesses that miss, the safeguard
    # bisects wherever [lo, hi] has not halved in two rounds.  Either way the
    # ordinates are those of the guessed reads: an ordinate is the midpoint
    # of its zero's lattice cell, whichever reads find it
    expected, read = find_critical_zeros(t_max, tol), {}
    for guess in ("nan", "miss"):
        reads = spy_on_reads(monkeypatch)
        first, secant = missing_guesses(tol) if guess == "miss" else (
            lambda a, fa, b, fb, grid: np.full_like(a, np.nan),
            lambda x0, f0, x1, f1: np.full_like(x0, np.nan))
        monkeypatch.setattr(zeta_module, "_first_guess", first)
        monkeypatch.setattr(zeta_module, "_secant", secant)
        assert find_critical_zeros(t_max, tol) == expected, guess
        monkeypatch.undo()
        read[guess] = sum(t.size for t in reads[1:])
    # bisection reads a cell a round for at most ceil(log2 n) rounds on a
    # lattice of n cells; the missing guesses read no more than it
    rounds = math.ceil(math.log2(math.ceil(0.05 / tol)))
    assert read["miss"] <= read["nan"] <= 2 * rounds * len(expected)


@pytest.mark.parametrize("t_max", [14.15, 30.0, 199.9, 201.3, 500.0, 2000.0])
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_the_first_guess_moves_no_ordinate(monkeypatch, t_max, tol):
    # round 1's guess from the grid's values, regula falsi, no guess and a
    # guess off the bracket give the same ordinates or the same refusal: an
    # ordinate is the midpoint of the counted lattice points nearest its
    # zero, whichever reads find them.  14.15 and 201.3 lie just past a
    # zero, so their last bracket's stencil is shifted inward at the grid's
    # end: at 14.15 that bracket is also the first, around the zero at
    # 14.13, and its stencil runs from 13.90 to 14.15
    guesses = {
        "grid": zeta_module._first_guess,
        "regula falsi": lambda a, fa, b, fb, grid: zeta_module._secant(a, fa, b, fb),
        "nan": lambda a, fa, b, fb, grid: np.full_like(a, np.nan),
        "off": lambda a, fa, b, fb, grid: 2.0 * b - a,
    }
    outcomes = {}
    for name, guess in guesses.items():
        monkeypatch.setattr(zeta_module, "_first_guess", guess)
        try:
            outcomes[name] = find_critical_zeros(t_max, tol)
        except PrecisionUnreachable as refusal:
            outcomes[name] = str(refusal)
    assert all(outcome == outcomes["grid"] for outcome in outcomes.values()), outcomes


def test_first_guess_is_the_root_of_the_grid_stencil():
    # on a grid of 12 points the 6-node polynomial through a quadratic is
    # the quadratic itself, so the guess is its root to rounding wherever
    # the bracket lies: in the first and last cells the stencil is the
    # grid's first and last 6 points, so a value that is not a number just
    # past them moves no guess.  Inside the middle cell's stencil it makes
    # the root not finite, and the guess falls back to regula falsi
    t = 0.05 * np.arange(1, 13)
    for root, blind, falls_back in ((0.07, 6, False), (0.33, 3, True), (0.575, 5, False)):
        f = (t - root) * (t + 1.0)
        i = int(np.searchsorted(t, root)) - 1
        ends = t[i : i + 1], f[i : i + 1], t[i + 1 : i + 2], f[i + 1 : i + 2]
        assert zeta_module._first_guess(*ends, (t, f)) == pytest.approx(root, abs=1e-14)
        f[blind] = np.nan
        expected = zeta_module._secant(*ends) if falls_back else pytest.approx(root, abs=1e-14)
        assert zeta_module._first_guess(*ends, (t, f)) == expected


def test_a_probe_on_the_middle_zero_of_three_keeps_all_three(monkeypatch):
    # the cell [28.5, 38] holds three zeros (zeros 4, 5 and 6), so its ends
    # differ in sign.  A first read across zero 5 shows three sign changes
    # among [28.5, the cell's two points, 38], and each becomes a bracket
    # of its own: the next round reads one cell in each of the two that are
    # left, and all three zeros are found
    tol = 1e-6
    fa, fb = (float(mpmath.siegelz(t)) for t in (28.5, 38.0))
    expected = [float(mpmath.zetazero(k).imag) for k in (4, 5, 6)]
    monkeypatch.setattr(zeta_module, "_first_guess",
                        lambda a, fa, b, fb, grid: np.full_like(a, expected[1]))
    reads = spy_on_reads(monkeypatch)
    zeros = _refined_zeros([(np.array([28.5]), np.array([fa]), np.array([fb]), 9.5, tol)],
                           tol, None)
    assert reads[0].shape == (1, 2) and reads[1].shape == (2, 2)
    assert reads[0][0, 0] < expected[1] < reads[0][0, 1]
    assert len(zeros) == 3
    for found, true in zip(sorted(zeros), expected):
        assert abs(found - true) <= tol / 2


def test_a_zero_beside_a_point_that_does_not_count_is_found(monkeypatch):
    # blinding the lattice point c at the left end of the first zero's cell,
    # which round 1 reads: c + h counts with the right end's sign, so the
    # next round reads the cell left of c, whose point c - h counts with the
    # left end's sign.  The zero lies between two counted signs 2 h apart,
    # within 2 tol, and its ordinate is their midpoint c
    tol, z0 = 1e-6, FIRST_ORDINATES[0]
    expected = find_critical_zeros(15.0, tol)
    h = 0.05 / math.ceil(0.05 / tol)
    c = expected[0] - 0.5 * h
    assert c < z0 < c + h
    kernel = zeta_module._em_z_rows

    def blinded(a, h, m):
        t, z, claim = kernel(a, h, m)
        return t, z, np.where(np.abs(t - c) < 0.25 * h, np.inf, claim)

    monkeypatch.setattr(zeta_module, "_em_z_rows", blinded)
    reads = spy_on_reads(monkeypatch)
    zeros = find_critical_zeros(15.0, tol)
    assert [t.size for t in reads[1:]] == [2, 2]
    assert zeros == [pytest.approx(c, abs=1e-12)] and abs(zeros[0] - z0) <= tol


def test_probes_read_at_most_eight_points_an_ordinate(monkeypatch):
    # a round reads one lattice cell's two ends a bracket as one row, and
    # round 1's guess from the grid's values lies in its zero's cell on
    # every bracket of the scan to 500: one call of one two-point row an
    # ordinate, the floor.  To 2000 a few brackets take a second round
    reads = spy_on_reads(monkeypatch)
    zeros = find_critical_zeros(500.0, 1e-6)
    assert (reads[0].size, len(zeros)) == (10016, 269)
    assert len(reads) == 2 and reads[1].shape == (269, 2)
    reads.clear()
    zeros = find_critical_zeros(2000.0, 1e-6)
    assert sum(t.size for t in reads[1:]) <= 2.1 * len(zeros)


@pytest.mark.parametrize("t_max, tol, budget", [(300.0, 1e-8, 1757), (10000.0, 1e-8, 45325)])
def test_refinement_reads_within_budget(monkeypatch, t_max, tol, budget):
    # the points of every refinement call, after the grid's: at 1e-8 a
    # bracket whose first read misses its zero's cell goes on from the
    # counted ends [lo, hi] that read left, so these scans read half of what
    # nested cuts from the whole bracket read (3,515 and 90,651 points)
    reads = spy_on_reads(monkeypatch)
    find_critical_zeros(t_max, tol)
    assert sum(t.size for t in reads[1:]) <= budget


def test_a_refusal_reads_within_budget(monkeypatch):
    # the groups are refined lowest first, and the group that holds the
    # bracket refused at 201.26 is the first: the brackets above it are
    # dropped once it is refused, so the scan reads a tenth of the 83,577
    # points of a scan that refined every group before it refused
    reads = spy_on_reads(monkeypatch)
    with pytest.raises(PrecisionUnreachable, match=r"no sign inside \[201\.26"):
        find_critical_zeros(10000.0, 1e-9)
    assert sum(t.size for t in reads[1:]) <= 8357


@pytest.mark.parametrize("t_max, tol", [(300.0, 1e-8), (199.9, 1e-9), (2000.0, 1e-6)])
def test_a_point_read_again_keeps_its_counted_sign(monkeypatch, t_max, tol):
    # a round's cell may hold an end of its bracket that an earlier round
    # read, and reads it again in another call, whose claim may differ
    # (below t = 200 through the call's N): each read counts by its own
    # claim, so the reads of one point that count have one sign.  All three
    # scans read points again
    signs, scan_rows = {}, zeta_module._scan_rows

    def spy(a, h, m):
        t, f, ok = scan_rows(a, h, m)
        for x, y, counts in zip(t.ravel().tolist(), f.ravel().tolist(), ok.ravel().tolist()):
            signs.setdefault(x, []).append(math.copysign(1.0, y) if counts else 0.0)
        return t, f, ok

    monkeypatch.setattr(zeta_module, "_scan_rows", spy)
    find_critical_zeros(t_max, tol)
    again = [set(s) for s in signs.values() if len(s) > 1]
    assert again
    assert all(len(s - {0.0}) <= 1 for s in again)


def test_a_probe_sign_that_does_not_count_keeps_the_ordinate(monkeypatch):
    # with round 1's guess forced to regula falsi, which lands off the zero's
    # cell, blinding both points of one first-round cell above t = 200 leaves
    # them inside their bracket: the next reads walk outward from them, cell
    # by cell, until a sign counts, and the ordinates stay
    tol = 1e-6
    expected = find_critical_zeros(300.0, tol)
    monkeypatch.setattr(zeta_module, "_first_guess",
                        lambda a, fa, b, fb, grid: zeta_module._secant(a, fa, b, fb))
    reads = spy_on_reads(monkeypatch)
    assert find_critical_zeros(300.0, tol) == expected
    cell = reads[1][reads[1][:, 0] > 250.0][0]
    assert min(abs(x - t) for x in cell for t in expected) > tol
    kernel, h = zeta_module._z_rows, cell[1] - cell[0]

    def blinded(a, h, m):
        t, z, claim = kernel(a, h, m)
        near = np.abs(t[..., None] - cell).min(axis=-1) < 1e-12
        return t, z, np.where(near, np.inf, claim)

    monkeypatch.setattr(zeta_module, "_z_rows", blinded)
    reads = spy_on_reads(monkeypatch)
    assert find_critical_zeros(300.0, tol) == expected
    # the walk's first read is the cell right of the blinded one
    assert any(np.abs(rows[:, 0] - (cell[1] + h)).min() < 1e-12 for rows in reads[2:])


@pytest.mark.parametrize("t_max, tol", [(5e7, 0.5), (1e12, 100.0)])
def test_scan_underflow_raises_before_the_grid_is_built(monkeypatch, t_max, tol):
    # the grids of 1e9 and 2e13 points are refused by the point budget
    # before any row of either Z kernel is evaluated (a Z grid of 1e9 points
    # would exhaust memory)
    calls, _, z_calls = spy_on_scan(monkeypatch)
    with pytest.raises(PrecisionUnreachable, match="grid points"):
        find_critical_zeros(t_max, tol)
    assert calls == [] and z_calls == []


def test_bernoulli_table_is_exact():
    # W's remainder reads B_2k up to the table's end, k = 40
    assert len(_BERNOULLI) == 41
    for k, b in enumerate(_BERNOULLI):
        assert b == Fraction(*mpmath.bernfrac(2 * k)), k


def test_em_remainder_covers_every_point_of_a_call():
    # one (N, M) per call, picked at its largest |Im s|: at each lower point
    # of one real part the remainder of that pick is below half the target
    for sigma, target in ((0.5, 1e-15), (0.05, 1e-12), (3.0, 1e-9)):
        top = complex(sigma, 2000.0)
        n = _em_terms(top, target)
        m, remainder, _ = _em_order(top, n, 0.5 * target)
        assert remainder <= 0.5 * target
        for t in np.linspace(0.0, 2000.0, 41):
            s = complex(sigma, t)
            with mpmath.workdps(30):
                z = mpmath.mpc(sigma, t)
                r_m = (abs(mpmath.rf(z, 2 * m + 1) * mpmath.bernoulli(2 * m + 2)
                           / mpmath.factorial(2 * m + 2)) * mpmath.power(n, -sigma - 2 * m - 1)
                       * abs(z + 2 * m + 1) / (sigma + 2 * m + 1))
                assert float(abs(z - 1) * r_m) <= remainder * (1.0 + 1e-9), (s, n, m)


def em_sweep_points(rng, count, re_lo, re_hi):
    return [complex(rng.uniform(re_lo, re_hi), rng.uniform(-5000.0, 5000.0)) for _ in range(count)]


def test_w_zeta_and_xi_within_claims_to_height_5000():
    # W on Re s > 0, zeta and xi on Re s in [-30, 31], |Im s| <= 5000, against
    # 40-digit mpmath; left of Re s = 0 the reflection factor overflows past
    # |Im s| ~ 451, and past t ~ 908 on the critical line xi's Gamma factor
    # is subnormal, so there both refuse
    rng = np.random.default_rng(41)
    returned = {"W": 0, "zeta": 0, "xi": 0}
    for s in em_sweep_points(rng, 40, 0.05, 31.0):
        value, claim, _ = _weighted_pole_product(s)
        with mpmath.workdps(40):
            z = mpmath.mpc(s.real, s.imag)
            err = float(abs(mpmath.mpc(value) - (z - 1) * mpmath.zeta(z)))
        assert err <= claim, f"error {err:.3e} above claim {claim:.3e} at s = {s}"
        returned["W"] += 1
    for s in em_sweep_points(rng, 40, -30.0, 31.0) + [complex(-3.0, 400.0), complex(20.0, -350.0)]:
        try:
            rep = zeta(s, 1e-3)
        except PrecisionUnreachable:
            continue
        with mpmath.workdps(40):
            assert_within_claim(rep, mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        returned["zeta"] += 1
    for s in em_sweep_points(rng, 30, -30.0, 31.0) + [complex(12.0, 1500.0), complex(-19.0, 900.0)]:
        try:
            rep = xi(s)
        except PrecisionUnreachable:
            continue
        assert_within_claim(rep, mpmath_xi(s))
        returned["xi"] += 1
    assert returned == {"W": 40, "zeta": 21, "xi": 6}


def test_find_critical_zeros_at_600_within_tol_of_each_zero():
    # the eta series' 320-term cap put 25 ordinates past t ~ 556 up to
    # 1.45e-4 off.  Each ordinate t brackets a sign change of Z on
    # [t - tol, t + tol], and there are mpmath.nzeros(600) = 341 of them, so
    # the k-th lies within tol of mpmath.zetazero(k); zetazero itself costs
    # about 0.5 s a zero at this height, so it is asked only past 556
    tol = 1e-6
    zeros = find_critical_zeros(600.0, tol)
    assert len(zeros) == 341 == int(mpmath.nzeros(600))
    for t in zeros:
        assert mpmath.fp.siegelz(t - tol) * mpmath.fp.siegelz(t + tol) < 0.0, t
    for k in (317, 341):
        assert abs(zeros[k - 1] - float(mpmath.zetazero(k).imag)) <= tol


def test_find_critical_zeros_to_800_brackets_every_zero():
    # the capped eta series returned 465 ordinates here
    tol = 1e-6
    zeros = find_critical_zeros(800.0, tol)
    assert len(zeros) == 491 == int(mpmath.nzeros(800))
    for t in zeros:
        assert mpmath.fp.siegelz(t - tol) * mpmath.fp.siegelz(t + tol) < 0.0, t


def test_find_critical_zeros_to_900_and_the_subnormal_prefactor():
    # pi^{-s/2} Gamma(s/2 + 1) is subnormal from t = 908.65 on the critical
    # line, where the xi scan refused (past it, it found 610 sign changes to
    # 950, where mpmath.nzeros(950) is 608).  Above t = 200 the scan now
    # reads Z, so it goes on; the counts are mpmath.nzeros.  The scans to
    # 908.65 and 955.4 at tol 1e-6 return the same floats as the scan to
    # 2000 below their heights, whose ordinates are each checked once
    assert len(find_critical_zeros(900.0, 1e-6)) == 569
    top = find_critical_zeros(2000.0, 1e-6)
    assert len(top) == 1517
    for t_max, count in ((908.65, 576), (955.4, 613)):
        assert find_critical_zeros(t_max, 1e-6) == [t for t in top if t <= t_max]
        assert len([t for t in top if t <= t_max]) == count
    coarse = find_critical_zeros(955.4, 1e-3)
    assert len(coarse) == 613
    for zeros, tol in ((top, 1e-6), (coarse, 1e-3)):
        for t in zeros:
            if t > 900.0:
                assert mpmath.fp.siegelz(t - tol) * mpmath.fp.siegelz(t + tol) < 0.0, (t, tol)


def test_z_rows_within_claim_against_mpmath_siegelz():
    # Hardy's Z against 30-digit mpmath from both kernels.  By the
    # Riemann-Siegel formula with C_0..C_4: on random t in [200, 5000], as rows
    # of three points, and at t = 2 pi N^2 and one ulp either side, where N
    # steps and p crosses 0.  From W's rows: on random rows in [10, 200], a
    # row from the floor t = 10 of theta's claim, rows across the first three
    # zeros, and a row ending at t = 200
    rng = np.random.default_rng(24)
    starts = np.sort(rng.uniform(200.0, 5000.0, 4))
    rows = [zeta_module._z_rows(starts, 0.37, 3)]
    for n in range(6, 19, 4):
        t = 2.0 * math.pi * n * n
        rows.append(zeta_module._z_rows(np.array([math.nextafter(t, 0.0), t,
                                                  math.nextafter(t, math.inf)]), 1.0, 1))
    em_rows = [zeta_module._em_z_rows(np.sort(rng.uniform(10.0, 190.0, 6)), 0.31, 32),
               zeta_module._em_z_rows(np.array([10.0, 14.1, 21.0, 24.99]), 0.001, 48),
               zeta_module._em_z_rows(np.array([200.0 - 31 * 0.05]), 0.05, 32)]
    worst = {}
    with mpmath.workdps(30):
        for kernel, kernel_rows in (("rs", rows), ("em", em_rows)):
            for ts, zs, claims in kernel_rows:
                for t, z, claim in zip(ts.ravel(), zs.ravel(), claims.ravel()):
                    err = float(abs(z - mpmath.siegelz(mpmath.mpf(t))))
                    assert err <= claim, (kernel, t, err, claim)
                    worst[kernel] = max(worst.get(kernel, 0.0), err / claim)
    assert em_rows[-1][0][0, -1] == 200.0
    # the claims are not loose by orders of magnitude; W's rows carry W's
    # own rounding claim, so there the error sits further below it
    assert worst["rs"] > 0.1 and worst["em"] > 1e-3, worst


def test_theta_claim_against_mpmath_siegeltheta():
    # theta's series to k = 3 against 50-digit mpmath on [10, 5000]: its
    # terms are all positive, so near the floor its error exceeds the first
    # omitted term (1.015 times it at t = 10), and only the derived bound
    # 1.34 t^-7 (Stirling's remainder plus the re-expansion's tail) holds
    rng = np.random.default_rng(7)
    t = np.concatenate([[10.0, 10.5, 12.0, 14.134725, 200.0, 5000.0],
                        rng.uniform(10.0, 5000.0, 60)])
    theta, claims = zeta_module._theta(t)
    first_omitted = (1 - 2.0**-7) * (1 / 30) / (4 * 4 * 7) * t**-7.0
    over_first = 0
    with mpmath.workdps(50):
        for x, value, claim, omitted in zip(t, theta, claims, first_omitted):
            err = float(abs(value - mpmath.siegeltheta(mpmath.mpf(x))))
            assert err <= claim, (x, err, claim)
            over_first += err > omitted + 3.0 * 2.0**-52 * x * (math.log(x / (2 * math.pi)) + 2.0)
    assert over_first > 0
    # below the floor no claim is made, and so no sign of Z counts there
    assert np.isinf(zeta_module._theta(np.array([0.05, 9.99]))[1]).all()
    assert np.isinf(zeta_module._em_z_rows(np.array([9.0]), 0.05, 32)[2][0, :20]).all()


def test_z_claim_at_200_is_gabckes_term():
    # d_4 t^{-11/4} = 8.0e-9 at t = 200; rounding adds about 1e-12
    _, _, claim = zeta_module._z_rows(np.array([200.0]), 1.0, 1)
    assert 7.9e-9 < claim[0, 0] <= 1e-8


def one_matrix_z_rows(a: np.ndarray, h: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hardy's Z and its claims on the rows t = a_r + j h by the
    Riemann-Siegel formula, as ``_z_rows`` read them before it read them in
    blocks: every per-point array over the whole call, the correction's
    coefficients one (22, points) matrix product, the main sums one matrix
    product plus a list of masked terms for the n past a row's start N."""
    offsets = h * np.arange(m)
    t = np.add.outer(a, offsets)
    u = t / (2.0 * math.pi)
    root = np.sqrt(u)
    n_point = np.floor(root)
    n_row = np.floor(np.sqrt(a / (2.0 * math.pi))).astype(int)
    n = np.arange(1.0, n_point.max() + 1.0)
    ln_n, amp = np.log(n), n**-0.5
    phases = np.exp(-1j * np.multiply.outer(a, ln_n))
    steps = np.exp(-1j * np.multiply.outer(ln_n, offsets))
    rows, extra = np.arange(a.size), []
    for k in range(1, int((n_point - n_row[:, None]).max()) + 1):
        col = np.minimum(n_row + k - 1, n.size - 1)
        term = (phases[rows, col] * amp[col])[:, None] * steps[col]
        extra.append(np.where(n_point >= (n_row + k)[:, None], term, 0.0))
    phases *= np.where(n <= n_row[:, None], amp, 0.0)
    head = phases @ steps
    for term in extra:
        head += term
    theta, theta_err = zeta_module._theta(t)
    main = 2.0 * (np.cos(theta) * head.real - np.sin(theta) * head.imag)
    x = root - n_point - 0.5
    w = 1.0 / root
    w2, wx = w * w, w * x
    table, table_err, table_slope = zeta_module._rs_tables()
    coef = table.T @ np.stack([np.ones_like(w), wx, w2, w2 * wx, w2 * w2]).reshape(5, -1)
    y = (x * x).ravel()
    corr = coef[-1]
    for c in coef[-2::-1]:
        corr *= y
        corr += c
    quarter = np.sqrt(w)
    z = main + np.where(n_point % 2.0 == 1.0, quarter, -quarter) * corr.reshape(t.shape)
    lo, hi, n_hi = t[:, 0], t[:, -1], n_point[:, -1]
    i = n_hi.astype(int) - 1
    a0, a1 = np.cumsum(amp)[i], np.cumsum(amp * ln_n)[i]
    eps = zeta_module._EPS
    claim = (zeta_module._GABCKE_D4 * lo**-2.75
             + 2.0 * theta_err.max(axis=1) * a0
             + 2.0 * eps * (3.0 * hi * a1 + (n_hi + 8.0) * a0)
             + u[:, 0] ** -0.25 * (table_err + eps * (2.0 * root[:, -1] + 1.0) * table_slope))
    return t, z, claim[:, None] + 2.0 * eps * np.abs(z)


def test_blocked_z_rows_equal_the_one_matrix_route():
    # _z_rows reads its rows in blocks of about 4096 points and its
    # correction two degrees a matrix product; every point and value and
    # claim equals the one-matrix route's bit for bit: on the grid's rows from
    # 200 to 2000 as the scans to 500 and 2000 call them (188 rows; 1024 and
    # then 101), on rows across t = 2 pi N^2 for N = 6..17, where N steps
    # inside a row, and on two-point rows as the refinement reads them, across
    # those heights and one ulp either side
    h = 0.05
    grid = h * np.arange(1, 2000 / h + 1, 32)
    grid = grid[grid > 200.0]
    edges = 2.0 * math.pi * np.arange(6, 18) ** 2
    cells = np.concatenate([edges - 5e-7, np.nextafter(edges, 0.0), edges,
                            np.nextafter(edges, np.inf),
                            np.random.default_rng(45).uniform(200.0, 2000.0, 976)])
    calls = [(grid[:188], h, 32), (grid[:1024], h, 32), (grid[1024:], h, 32),
             (edges - 0.8, h, 32), (np.sort(cells), 1e-6, 2)]
    assert [a.size for a, _, _ in calls] == [188, 1024, 101, 12, 1024]
    for a, step, m in calls:
        for new, old in zip(zeta_module._z_rows(a, step, m), one_matrix_z_rows(a, step, m)):
            assert np.array_equal(new, old), (a.size, m)


@pytest.mark.parametrize("t_max, limit", [(500.0, 1.2), (2000.0, 4.0)])
def test_a_scan_holds_its_points_in_blocks(t_max, limit):
    # the traced peak of a scan, in MiB: 2.19 and 11.6 while the
    # Riemann-Siegel kernel held a (22, points) coefficient matrix and every
    # per-point temporary over its whole call, and the bracket search several
    # grid-length index arrays; about 0.78 and 1.9 with both in blocks
    find_critical_zeros(t_max, 1e-6)  # builds the Riemann-Siegel tables, once a process
    tracemalloc.start()
    try:
        find_critical_zeros(t_max, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20


def plain_sign_changes(f: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The brackets' flat end indices as ``_sign_changes`` found them before
    it read its points in blocks: every index array over the whole grid."""
    kept = np.flatnonzero(ok)
    row = kept // f.shape[-1]
    same = row[1:] == row[:-1]
    left, right = kept[:-1][same], kept[1:][same]
    flat = f.ravel()
    opposite = np.sign(flat[left]) * np.sign(flat[right]) < 0.0
    return left[opposite], right[opposite]


def sign_runs(rng: np.random.Generator, size: int, flip: float, drop: float):
    """Values with random signs in runs, a sign flipping at each point with
    probability ``flip``, and counted signs, each dropped with probability
    ``drop``."""
    signs = np.where(np.cumsum(rng.random(size) < flip) % 2 == 1, -1.0, 1.0)
    return signs * rng.uniform(0.1, 1.0, size), rng.random(size) >= drop


def test_sign_changes_carry_across_blocks():
    # the bracket search reads a grid in blocks of _Z_CHUNK points, each
    # with the last counted point before it: on three blocks and a part, with
    # a dropped run across the first block edge and a sign change across the
    # second, it finds the brackets that one pass over the whole grid finds;
    # laid out as rows of 4 (the refinement's) or 32 points, no bracket
    # joins two rows
    chunk = zeta_module._Z_CHUNK
    f, ok = sign_runs(np.random.default_rng(46), 3 * chunk + 32, 0.1, 0.05)
    ok[chunk - 3 : chunk + 4] = False
    ends = [chunk - 4, chunk + 4, 2 * chunk - 1, 2 * chunk]
    f[ends], ok[ends] = (1.0, -1.0, 1.0, -1.0), True
    for shape in ((f.size,), (-1, 4), (-1, 32)):
        left, right = zeta_module._sign_changes(f.reshape(shape), ok.reshape(shape))
        plain = plain_sign_changes(f.reshape(shape), ok.reshape(shape))
        assert np.array_equal(left, plain[0]) and np.array_equal(right, plain[1]), shape
        assert left.size > 1000
    pairs = set(zip(*(x.tolist() for x in zeta_module._sign_changes(f, ok))))
    assert {(chunk - 4, chunk + 4), (2 * chunk - 1, 2 * chunk)} <= pairs


def test_brackets_hold_no_grid_length_temporaries():
    # the bracket search on the largest grid a scan may hold, 2^20 points,
    # with sign runs about as long as Z's near t = 52,000 on the 0.05 grid
    # (14 points) and 1% of the signs dropped: its traced peak stays within
    # twice the grid's values (the search held 56 MiB of grid-length
    # index and value arrays when it read the grid in one pass)
    size, h = 2**20, 0.05
    f, ok = sign_runs(np.random.default_rng(47), size, 1.0 / 14.0, 0.01)
    t = h * np.arange(1, size + 1)
    tracemalloc.start()
    try:
        groups = zeta_module._brackets(t, f, ok, h, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * f.nbytes
    signs = f[ok] > 0.0
    assert sum(group[0].size for group in groups) == np.count_nonzero(signs[1:] != signs[:-1])


def test_riemann_siegel_tables_against_mpmath_taylor():
    # C_j from 30-digit derivatives of Psi(p) = cos(2 pi (p^2 - p - 1/16)) /
    # cos(2 pi p) (Gabcke 1979; Edwards 7.4), within a quarter of the table
    # error the claim carries; the grid keeps off p = 1/4 and 3/4, where
    # mpmath's quotient is 0/0
    pi = mpmath.pi

    def psi(p):
        return mpmath.cos(2 * pi * (p * p - p - mpmath.mpf(1) / 16)) / mpmath.cos(2 * pi * p)

    grid = [k / 16 + 0.003 for k in range(16)] + [0.0, 0.5, 1.0 - 2.0**-40]
    worst = np.zeros(5)
    with mpmath.workdps(30):
        for p in grid:
            taylor = mpmath.taylor(psi, mpmath.mpf(p), 12)
            d = [c * mpmath.factorial(k) for k, c in enumerate(taylor)]
            c = [d[0],
                 -d[3] / (96 * pi**2),
                 d[2] / (64 * pi**2) + d[6] / (18432 * pi**4),
                 -d[1] / (64 * pi**2) - d[5] / (3840 * pi**4) - d[9] / (5308416 * pi**6),
                 d[0] / (128 * pi**2) + 19 * d[4] / (24576 * pi**4)
                 + 11 * d[8] / (5898240 * pi**6) + d[12] / (2038431744 * pi**8)]
            x = p - 0.5
            for j in range(5):
                poly = np.polynomial.polynomial.polyval(x * x, zeta_module._rs_tables()[0][j])
                table = x ** (j % 2) * poly
                worst[j] = max(worst[j], float(abs(table - c[j])))
    assert np.all(worst <= zeta_module._RS_TABLE_ERR / 4), worst


def test_uncertified_signs_are_bracketed_across(monkeypatch):
    # a Z sign whose claim is not exceeded is dropped and its neighbours
    # bracket across it: blinding the grid point left of each zero above
    # 200 doubles those cells, and every ordinate stays within tol
    tol = 1e-6
    expected = find_critical_zeros(300.0, tol)
    kernel, blinded = zeta_module._z_rows, []
    left = np.floor(np.array(expected) / 0.05) * 0.05

    def blind(a, h, m):
        t, z, claim = kernel(a, h, m)
        near = np.abs(t[..., None] - left).min(axis=-1) < 1e-9
        blinded.append(int(near.sum()))
        return t, z, np.where(near, np.inf, claim)

    monkeypatch.setattr(zeta_module, "_z_rows", blind)
    zeros = find_critical_zeros(300.0, tol)
    assert blinded[0] == 138 - 79  # the grid call: one point per zero above 200
    assert len(zeros) == len(expected) == 138
    assert max(abs(a - b) for a, b in zip(zeros, expected)) <= tol


def test_bracket_with_no_certified_inner_sign_is_refused(monkeypatch):
    # around the zero at t ~ 236.52 no Z sign within 0.01 counts: the reads
    # walk outward from the first uncounted one, a cell a round, to the
    # counted lattice points nearest the zero, 0.02 apart, and the scan
    # refuses, naming them
    kernel = zeta_module._z_rows

    def blind(a, h, m):
        t, z, claim = kernel(a, h, m)
        return t, z, np.where(np.abs(t - 236.5242296658) < 0.01, np.inf, claim)

    monkeypatch.setattr(zeta_module, "_z_rows", blind)
    with pytest.raises(PrecisionUnreachable,
                       match=r"no sign inside \[236\.5142\d*, 236\.5342\d*\]"):
        find_critical_zeros(300.0, 1e-6)


def test_tol_finer_than_the_certified_signs_is_refused():
    # next to the zeros above t = 200 no Z sign counts over a few 1e-9
    # (claim / |Z'|; about 5.6e-9 at 214.55), so brackets cannot be
    # certified down to 1e-9 there; the refusal names the lowest such
    # bracket, the lattice points that count nearest the zero at 201.26,
    # whatever the scan's height
    assert len(find_critical_zeros(300.0, 1e-8)) == 138
    for t_max in (201.3, 204.3, 300.0, 2000.0):
        with pytest.raises(PrecisionUnreachable,
                           match=r"no sign inside \[201\.26475194, 201\.264751946\]"):
            find_critical_zeros(t_max, 1e-9)


def test_xi_signs_count_only_above_their_claim(monkeypatch):
    # below t = 200 a sign of Z from W's rows counts only where |Z| exceeds
    # its claim, as on the Riemann-Siegel rows above: the scan to 199.9 at tol
    # 1e-9 meets points within their claim (the grid points below t = 10,
    # where theta has no claim), and no ``_scan_rows`` call counts a point
    # that one of its ``_em_z_rows`` calls found within its claim.  Each
    # ordinate t brackets a sign change of Z on [t - tol, t + tol], and there
    # are mpmath.nzeros(199.9) of them, so the k-th lies within tol of
    # mpmath.zetazero(k); zetazero itself is asked only at the two ordinates
    # near 111.03 and 176.44, where the scan once bracketed across points
    # within a claim taken at the call's top (about 10 s for all 79)
    tol, uncounted = 1e-9, []  # each _em_z_rows call's points within their claim
    em_rows, scan_rows = zeta_module._em_z_rows, zeta_module._scan_rows

    def spy_em(a, h, m):
        t, f, claim = em_rows(a, h, m)
        uncounted.append(set(t[np.abs(f) <= claim].tolist()))
        return t, f, claim

    def spy_scan(a, h, m):
        first = len(uncounted)
        t, f, ok = scan_rows(a, h, m)
        counted = set(t[ok].tolist())
        assert not any(counted & call for call in uncounted[first:])
        return t, f, ok

    monkeypatch.setattr(zeta_module, "_em_z_rows", spy_em)
    monkeypatch.setattr(zeta_module, "_scan_rows", spy_scan)
    zeros = find_critical_zeros(199.9, tol)
    below = [t for call in uncounted for t in call]
    assert below
    assert len(zeros) == 79 == int(mpmath.nzeros(199.9))
    for t in zeros:
        assert mpmath.fp.siegelz(t - tol) * mpmath.fp.siegelz(t + tol) < 0.0, t
    for k in (34, 67):
        assert abs(zeros[k - 1] - float(mpmath.zetazero(k).imag)) <= tol
