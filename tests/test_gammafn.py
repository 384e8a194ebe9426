import cmath
import math

import mpmath
import numpy as np
import pytest

from nblab.errors import DomainError
from nblab.gammafn import _require_finite, loggamma_right

LOG_SQRT_PI = 0.5 * math.log(math.pi)


def mod_2pi_i(d: complex) -> complex:
    """d with its imaginary part reduced modulo 2 pi: ``loggamma_right`` is
    ln Gamma up to a multiple of 2 pi i."""
    return complex(d.real, math.remainder(d.imag, 2.0 * math.pi))


def log_gamma(s: complex) -> complex:
    return loggamma_right(s)[0]


def assert_claim_covers_mpmath(s: complex) -> None:
    """|loggamma_right(s) - ln Gamma(s)| against 40-digit ``mpmath.loggamma``,
    the imaginary parts compared modulo 2 pi, is within the claim."""
    value, claim = loggamma_right(s)
    with mpmath.workdps(40):
        d = mpmath.mpc(value) - mpmath.loggamma(mpmath.mpc(s.real, s.imag))
        tau = 2 * mpmath.pi
        err = float(abs(mpmath.mpc(d.real, d.imag - tau * mpmath.nint(d.imag / tau))))
    assert err <= claim, f"error {err:.3e} above claim {claim:.3e} at s = {s}"


def test_integer_factorials():
    for n in range(1, 21):
        assert_claim_covers_mpmath(complex(n))
        assert abs(mod_2pi_i(log_gamma(complex(n)) - math.log(math.factorial(n - 1)))) <= 1e-12


def test_half_integer_value():
    # Gamma(1/2) = sqrt(pi), the left edge of the half-plane
    assert abs(log_gamma(0.5 + 0j) - LOG_SQRT_PI) < 1e-13


def test_recurrence_complex():
    s = complex(2.0, 3.0)
    assert abs(mod_2pi_i(log_gamma(s + 1) - log_gamma(s) - cmath.log(s))) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recurrence_over_domain(seed):
    # ln Gamma(s + 1) = ln Gamma(s) + ln s on the draws' points with Re s >= 1/2
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(200):
        s = complex(rng.uniform(-29, 29), rng.uniform(-49, 49))
        if s.real < 0.5:
            continue
        assert abs(mod_2pi_i(log_gamma(s + 1) - log_gamma(s) - cmath.log(s))) <= 1e-11
        checked += 1
    assert checked == {1: 91, 2: 102, 3: 99}[seed]


def test_duplication_formula():
    # ln Gamma(s) + ln Gamma(s + 1/2) = (1 - 2s) ln 2 + ln sqrt(pi) + ln Gamma(2s):
    # an identity the series does not know about, so agreement probes true
    # accuracy; on the draw's points with Re s >= 1/2
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(200):
        s = complex(rng.uniform(0.3, 14.5), rng.uniform(-24.5, 24.5))
        if s.real < 0.5:
            continue
        lhs = log_gamma(s) + log_gamma(s + 0.5)
        rhs = (1 - 2 * s) * math.log(2.0) + LOG_SQRT_PI + log_gamma(2 * s)
        assert abs(mod_2pi_i(lhs - rhs)) <= 5e-12
        checked += 1
    assert checked == 198


def test_recurrence_ladder_to_domain_edge():
    # climb from the left edge to Re s near 30 by the recurrence; each step
    # adds only an ulp-level error
    base = complex(0.5, 49.0)
    acc, s = log_gamma(base), base
    for _ in range(29):
        acc += cmath.log(s)
        s += 1.0
    assert abs(mod_2pi_i(acc - log_gamma(s))) <= 1e-10


def test_error_estimate_scales_with_value():
    _, claim = loggamma_right(complex(10.0, 10.0))
    assert 0.0 < claim <= 1e-12


def test_nonfinite_rejected():
    # the argument check zeta and xi make before they take ln Gamma
    with pytest.raises(DomainError):
        _require_finite(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        _require_finite(complex(0.5, math.inf))


def test_conjugation_symmetry():
    s = complex(3.3, 7.7)
    assert log_gamma(s.conjugate()) == log_gamma(s).conjugate()


@pytest.mark.parametrize(
    "s",
    [complex(265.318341332551, 705.932475309924), complex(114.52908472738419, 715.9421291144706)],
)
def test_claim_scales_with_log_gamma(s):
    # |ln Gamma| is about 4e3 here, and its rounding grows with it
    assert_claim_covers_mpmath(s)


def test_claim_covers_large_arguments():
    rng = np.random.default_rng(0)
    points = [complex(rng.uniform(0.5, 430.0), rng.uniform(-810.0, 810.0)) for _ in range(600)]
    for s in points:
        assert_claim_covers_mpmath(s)


def test_claim_covers_both_half_planes_to_height_2500():
    # Stirling's series with its derived remainder, on the draw's points with
    # Re s >= 1/2; half the points are drawn where |Gamma| is about 1
    # (Re s ln|s| ~ pi |Im s| / 2)
    rng = np.random.default_rng(12)
    points = [complex(rng.uniform(-430.0, 430.0), rng.uniform(-2500.0, 2500.0)) for _ in range(200)]
    for _ in range(200):
        t = rng.uniform(-2500.0, 2500.0)
        sigma = math.pi * abs(t) / (2.0 * math.log(abs(t) + 2.0)) + rng.uniform(-60.0, 60.0)
        points.append(complex(min(sigma, 430.0), t))
    points = [s for s in points if s.real >= 0.5]
    assert len(points) == 284
    for s in points:
        assert_claim_covers_mpmath(s)


def test_euler_gamma_literals_are_correctly_rounded():
    # gamma and ln(2 pi) - gamma against 40-digit mpmath; lam = 1 - gamma,
    # which the Gram moment vector and the first moments read, is exact from
    # the rounded gamma (Sterbenz) and is itself the correctly rounded 1 - gamma
    from nblab.gammafn import _EULER_GAMMA, _LN_2PI_MINUS_GAMMA, moment_constant

    with mpmath.workdps(40):
        assert _EULER_GAMMA == float(mpmath.euler)
        assert _LN_2PI_MINUS_GAMMA == float(mpmath.log(2 * mpmath.pi) - mpmath.euler)
        assert moment_constant() == 1.0 - _EULER_GAMMA == float(1 - mpmath.euler)
