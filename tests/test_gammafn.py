import cmath
import math

import mpmath
import numpy as np
import pytest

from nblab import PoleAtNonPositiveInteger, gamma
from nblab.errors import DomainError, PrecisionUnreachable

SQRT_PI = 1.7724538509055160273


def test_integer_factorials():
    for n in range(1, 21):
        rep = gamma(float(n))
        assert abs(rep.value - math.factorial(n - 1)) <= 1e-12 * math.factorial(n - 1)


def test_half_integer_value():
    # forced by the reflection identity Gamma(s) Gamma(1-s) = pi / sin(pi s) at 1/2
    assert abs(gamma(0.5).value - SQRT_PI) < 1e-13


def test_recurrence_complex():
    s = complex(2.0, 3.0)
    lhs = gamma(s + 1).value
    rhs = s * gamma(s).value
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recurrence_over_domain(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        s = complex(rng.uniform(-29, 29), rng.uniform(-49, 49))
        if abs(s.imag) < 0.1 and s.real < 0.5:
            continue
        lhs = gamma(s + 1).value
        rhs = s * gamma(s).value
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_duplication_formula():
    # Gamma(s) Gamma(s + 1/2) = 2^{1-2s} sqrt(pi) Gamma(2s): an identity the
    # fit does not know about, so agreement probes true relative accuracy
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = complex(rng.uniform(0.3, 14.5), rng.uniform(-24.5, 24.5))
        lhs = gamma(s).value * gamma(s + 0.5).value
        rhs = 2.0 ** (1 - 2 * s) * SQRT_PI * gamma(2 * s).value
        assert abs(lhs - rhs) <= 5e-12 * abs(lhs)


def test_recurrence_ladder_to_domain_edge():
    # climb from the accurate base strip to Re s near 30 by the recurrence;
    # each step adds only an ulp-level factor error
    base = complex(0.5, 49.0)
    acc = gamma(base).value
    s = base
    for _ in range(29):
        acc *= s
        s += 1.0
    direct = gamma(s).value
    assert abs(acc - direct) <= 1e-10 * abs(direct)


def test_poles_raise():
    for bad in (0.0, -1.0, -7.0, complex(-3.0, 0.0), -2.0 + 1e-13):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma(bad)


def test_near_pole_but_outside_tolerance_evaluates():
    rep = gamma(-2.0 + 1e-6)
    assert math.isfinite(abs(rep.value))
    assert abs(rep.value) > 1e5  # reciprocal of the distance to the pole


def test_error_estimate_scales_with_value():
    rep = gamma(complex(10.0, 10.0))
    assert rep.abs_error_estimate <= 1e-11 * abs(rep.value)
    assert rep.abs_error_estimate > 0.0


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        gamma(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        gamma(complex(0.5, math.inf))


def test_conjugation_symmetry():
    s = complex(3.3, 7.7)
    assert gamma(s.conjugate()).value == gamma(s).value.conjugate()


@pytest.mark.parametrize("s", [172.0, -200.5, 0.5 + 1000j], ids=["overflow", "reflected", "underflow"])
def test_unrepresentable_value_is_precision_failure(s):
    # Gamma(172) ~ 1.2e309 overflows, Gamma(-200.5) ~ 1e-377 and
    # |Gamma(0.5 + 1000i)| ~ 1e-682 underflow
    with pytest.raises(PrecisionUnreachable):
        gamma(s)


@pytest.mark.parametrize(
    "s",
    [-0.5 + 230j, -0.5 + 300j, -0.5 - 300j, -2.0 - 1e-9, -29.0 + 1e-11, -1.999999,
     -3.3 + 100j, -150.5],
)
def test_reflection_against_mpmath(s):
    # sin(pi s) overflowed past |Im s| ~ 226, and the rounded product pi s
    # cost up to 5e-5 relative next to a pole
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(mpmath.mpc(s)))
    rep = gamma(s)
    assert abs(rep.value - ref) <= rep.abs_error_estimate


def assert_claim_covers_mpmath(s: complex, rep) -> None:
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpc(rep.value) - mpmath.gamma(mpmath.mpc(s.real, s.imag))))
    assert err <= rep.abs_error_estimate, f"error {err:.3e} above claim at s = {s}"


@pytest.mark.parametrize(
    "s",
    [complex(265.318341332551, 705.932475309924), complex(114.52908472738419, 715.9421291144706)],
)
def test_claim_scales_with_log_gamma(s):
    # |ln Gamma| is about 4e3 here, and exponentiating it costs eps |ln Gamma|:
    # a claim of |Gamma| 1e-12 alone is 1.6 and 1.2 times too small
    assert_claim_covers_mpmath(s, gamma(s))


def test_claim_covers_large_arguments():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(600):
        s = complex(rng.uniform(0.5, 430.0), rng.uniform(-810.0, 810.0))
        try:
            rep = gamma(s)
        except PrecisionUnreachable:  # |Gamma| outside the doubles
            continue
        assert_claim_covers_mpmath(s, rep)
        checked += 1
    assert checked == 269
