import cmath
import importlib
import itertools
import math
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
from nblab.zeta import (
    _EPS,
    _analytic_bound,
    _borwein_d,
    _borwein_terms,
    _eta_sum,
    _refined_zeros,
    _weighted_pole_product,
    _xi_rows,
)

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
    residual, bound = functional_equation_residual(s)
    assert residual < 1e-9
    assert residual <= bound <= 1e-9


@pytest.mark.parametrize("s", [3.0, 5.0, 7.0, 9.0, 11.0, 13.0])
def test_functional_equation_bound_covers_odd_integers(s):
    # the formula is taken at u = 1 - s, where sin(pi u / 2) Gamma(1 - u) has
    # no pole: the bound is derived there, odd integers included
    residual, bound = functional_equation_residual(s)
    assert residual <= bound <= 1e-14


@pytest.mark.parametrize("s", [3.0 - 1e-13, 3.0 + 1e-13, 13.0 + 1e-12])
def test_functional_equation_bound_beside_odd_integers(s):
    residual, bound = functional_equation_residual(s)
    assert residual <= bound < 1e-12


def test_functional_equation_residual_is_symmetric():
    # both s and 1 - s take the formula at the one of them with Re <= 1/2;
    # on Re s = 1/2 both keep their own point, so no equality is asked there
    rng = np.random.default_rng(17)
    points = [complex(rng.uniform(0.5, 15.0), rng.uniform(-50.0, 50.0)) for _ in range(400)]
    for s in [*points, 3.0, 2.0, complex(0.75, 1e-9), complex(1.25, 0.0)]:
        s = complex(s)
        assert functional_equation_residual(s) == functional_equation_residual(1.0 - s), s


def test_functional_equation_strip_sample():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        s = complex(rng.uniform(-5, 6), rng.uniform(-40, 40))
        if abs(s - 1) < 0.3 or abs(s) < 0.3:
            continue
        if abs(s.imag) < 0.2 and abs(s.real - round(s.real)) < 0.2:
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
     0.0, 5j, -30j, complex(0.0, 100.0)],
)
def test_xi_against_mpmath(s):
    # just left of 0 the rounded 1 - s sits next to the pole of zeta, which
    # only a cancelled (s - 1) zeta(s) survives; Gamma(201) alone overflows,
    # so xi(400) and xi(-399) need pi^{-s/2} Gamma(s/2 + 1) in log space;
    # Re s = 0 is reflected onto Re s = 1
    s = complex(s)
    assert_within_claim(xi(s), mpmath_xi(s))


def test_xi_left_half_plane_against_mpmath():
    rng = np.random.default_rng(9)
    for _ in range(40):
        s = complex(rng.uniform(-30.0, 0.0), rng.uniform(-60.0, 60.0))
        assert_within_claim(xi(s), mpmath_xi(s))


@pytest.mark.parametrize("s", [complex(0.5, 805.0), complex(2.0, 805.0), complex(-1.0, 805.0)])
def test_xi_with_overflowing_error_claim_raises(s):
    # the value is finite there, but the eta remainder bound times |s - 1| is not
    with pytest.raises(PrecisionUnreachable):
        xi(s)


@pytest.mark.parametrize("target, terms", [(1e-12, 24), (1e-6, 16)])
def test_zeta_near_zero_against_mpmath(target, terms):
    # on |s| < 1/4 the reflected pole is cancelled through (s - 1) zeta(s) at
    # 1 - s, whose eta sum takes its term count from zeta's target
    rng = np.random.default_rng(3)
    points = [0.0, 1e-9, -1e-9, 1e-5j, *(complex(*rng.uniform(-0.17, 0.17, 2)) for _ in range(20))]
    for s in map(complex, points):
        with mpmath.workdps(40):
            oracle = mpmath.zeta(mpmath.mpc(s.real, s.imag))
        rep = zeta(s, target)
        assert_within_claim(rep, oracle)
        assert rep.terms_used == terms


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
    # W(s) = (s - 1) zeta(s) divides by e^w - 1, w = (1 - s) ln 2; formed as
    # e^w - 1 it cancelled to 25 times the claim on this grid
    for r in np.geomspace(1e-6, 0.2, 25):
        for k in range(5):
            s = 1.0 + r * cmath.exp(2j * math.pi * (k + 0.125) / 5)
            (value,), (claim,), _ = _weighted_pole_product(s)
            with mpmath.workdps(40):
                z = mpmath.mpc(s.real, s.imag)
                err = float(abs(mpmath.mpc(value) - (z - 1) * mpmath.zeta(z)))
            assert err <= claim, f"error {err:.3e} above claim {claim:.3e} at s = {s}"


def test_weighted_pole_product_against_mpmath():
    # one formula, eta(s) (s - 1)/(1 - 2^{1-s}), serves all of Re s > 0
    rng = np.random.default_rng(23)
    for _ in range(150):
        s = complex(rng.uniform(0.05, 30.0), rng.uniform(-400.0, 400.0))
        (value,), (claim,), _ = _weighted_pole_product(s)
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


def test_find_critical_zeros_keeps_every_sign_change_of_a_coarse_cell():
    # the cell [28.5, 38] holds three zeros (zeros 4, 5 and 6), so its ends
    # differ in sign; refining it on sub-grids keeps all of them
    tol = 1e-6
    fa, fb = (xi(complex(0.5, t)).value.real for t in (28.5, 38.0))
    zeros = _refined_zeros(np.array([28.5]), np.array([fa]), np.array([fb]), 9.5, tol)
    expected = [float(mpmath.zetazero(k).imag) for k in (4, 5, 6)]
    assert len(zeros) == len(expected)
    for found, true in zip(sorted(zeros), expected):
        assert abs(found - true) <= tol / 2


def test_find_critical_zeros_empty_below_first():
    # no grid point, the top row alone, and one full row with a 1-point top row
    for t_max in (0.01, 1.0, 1.6, 1.65):
        assert find_critical_zeros(t_max, 1e-6) == []


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
    point and per sub-grid point, with the same points, bracket signs,
    exact-zero rule and sub-grid refinement as ``find_critical_zeros``."""
    row = 32

    def f(t: float) -> float:
        return xi(complex(0.5, t)).value.real

    def opposite(a: float, b: float) -> bool:
        # signs, not the product, which underflows to 0 past t ~ 470
        return np.sign(a) * np.sign(b) < 0.0

    def scan(ts, fs, h):
        """Exact zeros among the points ts and brackets [ts[c], ts[c] + h]
        between neighbouring values fs[c], fs[c + 1], refined."""
        zeros = []
        for c in range(len(fs) - 1):
            if fs[c] == 0.0:
                zeros.append(ts[c])
            elif opposite(fs[c], fs[c + 1]):
                zeros.extend(refine(ts[c], fs[c], fs[c + 1], h))
        return zeros

    def refine(a, fa, fb, h):
        if h <= tol:
            return [a + 0.5 * h]
        m = min(row, math.floor(h / tol) + 1)
        h /= m
        ts = [a] + [(a + h) + h * j for j in range(m - 1)]
        return scan(ts, [fa] + [f(t) for t in ts[1:]] + [fb], h)

    # the grid points j = 1..last in rows of 32, as the row start a_r plus
    # i grid_step: t = grid_step (j - i) + grid_step i with i = (j - 1) % 32
    last = int(math.floor((t_max - grid_step) / grid_step + 1e-9)) + 1
    grid = []
    for j in range(1, last + 1):
        i = (j - 1) % row
        grid.append(grid_step * (j - i) + grid_step * i)
    return sorted(scan(grid, [f(t) for t in grid], grid_step))


@pytest.mark.parametrize(
    "t_max, tol, grid_step",
    [(100.0, 1e-6, 0.05), (60.0, 1e-9, 0.05), (400.0, 1e-6, 0.05)],
)
def test_scan_equals_scalar_oracle(t_max, tol, grid_step):
    assert find_critical_zeros(t_max, tol) == scalar_scan_oracle(t_max, tol, grid_step)


def test_find_critical_zeros_count_at_500():
    # the product of two neighbouring values underflows past t ~ 472, where
    # Re xi(1/2 + it) is below 1e-155; the scan compares signs instead
    tol = 1e-6
    zeros = find_critical_zeros(500.0, tol)
    assert len(zeros) == int(mpmath.nzeros(500))
    for t in zeros:
        if t > 450.0:
            assert mpmath.siegelz(t - tol) * mpmath.siegelz(t + tol) < 0


def test_array_kernel_matches_scalar_xi():
    # the array kernel gives each point at least the term count xi picks
    # there, so it lies within the scalar certified error of xi's value
    ts, values = _xi_rows(np.array([0.05, 250.0]), 10.0, 25)
    for t, value in zip(ts.ravel(), values.ravel()):
        rep = xi(complex(0.5, t))
        assert abs(value - rep.value) <= 2.0 * rep.abs_error_estimate


def direct_eta_sums(s: np.ndarray, n: int) -> np.ndarray:
    """Independent route for ``_eta_sum``: the eta partial sums at each
    point of s, one of real part, from its own cos/sin row of phases."""
    coeffs, ks, ln_k = _borwein_terms(n)
    amp = coeffs * ks ** -s.real[0]
    phase = np.multiply.outer(s.imag, ln_k)
    return -(np.cos(phase) @ amp - 1j * (np.sin(phase) @ amp))


def test_angle_addition_matches_direct_sums():
    step = 0.05
    s = 0.5 + 1j * (step * np.arange(6000, 6064))
    n = 200
    rows, magnitude = _eta_sum(s[::32], n, step * np.arange(32))
    assert rows.shape == (2, 32)
    # the floating-point claim of each route, as _weighted_pole_product forms it
    fp_claim = _EPS * magnitude * (16.0 + np.abs(s.imag) * math.log(n + 1.0))
    assert np.all(np.abs(rows.ravel() - direct_eta_sums(s, n)) <= 2.0 * fp_claim)


def spy_on_scan(monkeypatch):
    """Lists that collect each ``_xi_rows`` call's points and each
    ``_eta_sum`` call's term count."""
    calls, counts = [], []
    kernel, eta_sum = zeta_module._xi_rows, zeta_module._eta_sum

    def spy_kernel(a, h, m):
        calls.append(np.add.outer(a, h * np.arange(m)).ravel())
        return kernel(a, h, m)

    def spy_eta_sum(s, n, offsets):
        counts.append(n)
        return eta_sum(s, n, offsets)

    monkeypatch.setattr(zeta_module, "_xi_rows", spy_kernel)
    monkeypatch.setattr(zeta_module, "_eta_sum", spy_eta_sum)
    return calls, counts


def test_scan_term_count_covers_each_point(monkeypatch):
    # each kernel call of the scan (top row, full rows, or refinement level)
    # uses one term count; it must be at least the count xi picks at each of
    # its points.  The two grid calls come first, then 4 levels of refinement
    # (0.05 / 32 / 32 / 32 / 2 < 1e-6) when there is a bracket; below
    # t ~ 556 the counts are under the 320 cap
    for t_max, n_calls, n_max in ((9.0, 2, 40), (187.1, 6, 200), (200.0, 6, 208),
                                  (600.0, 6, 320)):
        calls, counts = spy_on_scan(monkeypatch)
        find_critical_zeros(t_max, 1e-6)
        monkeypatch.undo()
        assert len(calls) == len(counts) == n_calls
        for t, n in zip(calls, counts):
            assert all(n >= xi(complex(0.5, z)).terms_used for z in t), (t_max, n)
        assert max(counts) == n_max and all(n % 8 == 0 for n in counts)


@pytest.mark.parametrize("t_max, tol", [(5e7, 0.5), (1e12, 100.0)])
def test_scan_underflow_raises_before_the_grid_is_built(monkeypatch, t_max, tol):
    # the top row is evaluated first, and xi(1/2 + it) underflows there
    calls, _ = spy_on_scan(monkeypatch)
    with pytest.raises(PrecisionUnreachable, match="underflows"):
        find_critical_zeros(t_max, tol)
    assert len(calls) == 1 and calls[0].size <= 32


def test_analytic_bound_nondecreasing_past_the_old_clamp():
    ts = np.arange(400.0, 600.0, 0.5)
    bounds = [_analytic_bound(0.5, t, 1.0, 320) for t in ts]
    assert all(b >= a for a, b in zip(bounds, bounds[1:]))
    # the bound keeps its e^{pi t / 2} growth beyond t = 445.6 (e^700)
    assert bounds[-1] / bounds[0] >= math.exp(math.pi / 2.0 * (ts[-1] - ts[0]))
    # past t ~ 810 the bound itself overflows: no value is claimed there,
    # but the scan, which prints no claim, still gets its sums
    assert _analytic_bound(0.5, 1000.0, 1.0, 320) == math.inf
    with pytest.raises(PrecisionUnreachable):
        xi(complex(0.5, 1000.0))


def test_borwein_d_is_exact():
    # d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), summed in rationals
    fac = math.factorial
    for n in range(16, 321, 8):
        terms = (Fraction(n * fac(n + i - 1) * 4**i, fac(n - i) * fac(2 * i)) for i in range(n + 1))
        assert _borwein_d(n) == list(itertools.accumulate(terms)), n
