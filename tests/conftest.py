import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nblab import ConstraintViolated, DilatedFracSum, DomainError, partial_moment_constant
from nblab.fracsum import COINCIDENCE_RTOL
from nblab.gammafn import _BERNOULLI
from nblab.moments import _PERIODS, _moment_quad

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_constrained_sum(
    rng: np.random.Generator,
    max_terms: int = 6,
    dilation_low: float = 1.0,
    dilation_high: float = 50.0,
    coeff_scale: float = 5.0,
) -> DilatedFracSum:
    """Random constrained combination: coefficients projected onto sum h/l = 0."""
    n = int(rng.integers(2, max_terms + 1))
    while True:
        dils = np.sort(rng.uniform(dilation_low, dilation_high, size=n))
        if np.all(np.diff(dils) > 1e-6 * dils[1:]):
            break
    h = rng.uniform(-coeff_scale, coeff_scale, size=n)
    c = 1.0 / dils
    h = h - c * (c @ h) / (c @ c)
    return DilatedFracSum(terms=tuple(zip(h.tolist(), dils.tolist())), constrained=True)


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-constant description of a constrained sum on (1, T].

    ``values[i]`` is the right-continuous value on the interval from
    ``breakpoints[i-1]`` (or 1 for i = 0) to ``breakpoints[i]`` exclusive,
    with a final interval reaching T.  ``jumps`` pairs each breakpoint with
    its jump, the negated sum of the coefficients h_k over all lattice
    representations m * l_k of that point.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    jumps: tuple[tuple[float, float], ...] = ()


def step_profile(phi: DilatedFracSum, T: float) -> StepProfile:
    """Breakpoints {m l_k} in (1, T], interval values, and merged jumps: the
    plain route to a sum's lattice structure, an oracle for the norms.

    Only constrained sums are step functions (the slope of every term
    between lattice points is h_k / l_k, and those cancel exactly when the
    constraint holds), so unconstrained input is rejected.
    """
    if not phi.constrained:
        raise ConstraintViolated("step profiles exist only for constrained sums")
    if not T > 1.0:
        raise DomainError("T must exceed 1")
    events: list[tuple[float, float]] = []
    for h, l in phi.terms:
        m = 1
        while True:
            point = m * l
            if point > T * (1.0 + COINCIDENCE_RTOL):
                break
            if point > 1.0 + COINCIDENCE_RTOL:
                events.append((point, h))
            m += 1
    events.sort(key=lambda ev: ev[0])
    breakpoints: list[float] = []
    jumps: list[tuple[float, float]] = []
    for point, h in events:
        if breakpoints and point - breakpoints[-1] <= COINCIDENCE_RTOL * point:
            jumps[-1] = (breakpoints[-1], jumps[-1][1] - h)
        else:
            breakpoints.append(point)
            jumps.append((point, -h))
    # interval values are sampled at midpoints: a lattice point m*l stored as
    # a float may round to either side of the true jump, while midpoints are
    # unambiguous and the function is constant across each interval anyway
    edges = [1.0] + breakpoints + [T]
    probes = [0.5 * (a + b) if b > a else min(a * (1.0 + 1e-12), T)
              for a, b in zip(edges[:-1], edges[1:])]
    return StepProfile(
        breakpoints=tuple(breakpoints),
        values=tuple(phi(np.array(probes)).tolist()),
        jumps=tuple(jumps),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def assert_close(actual: float, expected: float, tol: float, label: str = "") -> None:
    assert abs(actual - expected) < tol, f"{label} |{actual!r} - {expected!r}| >= {tol}"


def em_dirichlet_zeta(s: complex, n: int = 20000) -> tuple[complex, float]:
    """Independent oracle for Re s >= 2: Dirichlet partial sum plus the
    Euler-Maclaurin head correction, with a certified remainder bound."""
    sigma = s.real
    assert sigma >= 2.0
    ks = np.arange(1, n + 1, dtype=np.float64)
    partial = complex(np.sum(ks ** (-complex(s))))
    value = partial + n ** (1 - s) / (s - 1) - 0.5 * n ** (-complex(s))
    remainder = 2.0 * abs(s) * n ** (-sigma - 1) / 12.0 + 1e-15
    return value, remainder


def euler_gamma(target_abs_error: float, n: int | None = None) -> float:
    """Euler-Mascheroni constant within target_abs_error: the oracle that
    certifies the correctly rounded gamma the package holds.

    gamma = H_n - ln n - 1/(2n) + sum_k B_{2k}/(2k) n^{-2k}, truncated after
    n^{-8}, with B_{2k} from ``_BERNOULLI``; the remainder is bounded by the
    first omitted term |B_10|/10 n^{-10}.  ``n`` may be pinned explicitly to
    cross-validate two independent evaluations.
    """
    tail = float(abs(_BERNOULLI[5]) / 10)
    assert 5e-15 <= target_abs_error, "cannot certify below 5e-15 in doubles"
    if n is None:
        n = max(16, math.ceil((2.0 * tail / target_abs_error) ** 0.1))
    assert tail * float(n) ** -10 <= 0.5 * target_abs_error, f"n = {n} too small"
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = harmonic - math.log(n) - 0.5 / n
    for k in range(1, 5):
        value += float(_BERNOULLI[k] / (2 * k)) * float(n) ** (-2 * k)
    return value


def dilated_frac_moment_quad(l: float) -> tuple[float, float]:
    """Independent quadrature (ln l + lam_P)/l + 1/(2T) of int_1^inf {t/l} dt/t^2
    (``nblab.moments`` docstring), the closed form's oracle, returned as
    (value, certified_error) with error <= l/(4 T^2) plus roundoff."""
    return _moment_quad(l, partial_moment_constant(_PERIODS))
