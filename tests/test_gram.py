import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import fixed_quad

from nblab import (
    DomainError,
    DuplicateDilation,
    PrecisionUnreachable,
    gram_system,
    moment_constant,
    pair_product_integral,
)
from nblab.gram import _closed_form_entry, _continuity_bound, _convergents
from nblab.moments import _lattice_windows, _segment_integrals

#: pairs checked against both the mpmath closed form and the lattice walk
WALK_PAIRS = [(1.0, 1.0), (1.0, 2.0), (7.0, 11.0), (3.0, 49.0), (49.0, 50.0), (12.0, 18.0)]


def quad_pair_oracle(a: float, b: float, T: float = 20000.0) -> tuple[float, float]:
    """Independent oracle: per-unit-lattice Gauss quadrature of
    {t/a}{t/b}/t^2 up to T plus the product-mean tail.

    The tail uses mean({t/a}{t/b}) -> 1/4 + mu with |mu| <= 1/12, so the
    returned bound is 1/(12 T) plus a T^{-2} cushion."""
    edges = np.unique(
        np.concatenate(
            [
                np.array([1.0, T]),
                np.arange(1, math.floor(T / a) + 1) * a,
                np.arange(1, math.floor(T / b) + 1) * b,
            ]
        )
    )
    edges = edges[(edges >= 1.0) & (edges <= T)]
    total = 0.0
    f = lambda t: ((t / a) - np.floor(t / a)) * ((t / b) - np.floor(t / b)) / t**2
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-12:
            continue
        val, _ = fixed_quad(f, lo, hi, n=12)
        total += val
    return total + 0.25 / T, 1.0 / (12.0 * T) + (a + b) / T**2


def product_mean(a: float, b: float, period: float) -> float:
    """Mean over one period of (frac(t/a) - 1/2)(frac(t/b) - 1/2), exact."""
    pts = np.union1d(
        np.arange(0.0, period * (1.0 + 1e-12), a),
        np.arange(0.0, period * (1.0 + 1e-12), b),
    )
    if pts[-1] < period * (1.0 - 1e-12):
        pts = np.concatenate((pts, [period]))
    t1 = pts[:-1]
    u = np.diff(pts)
    mid = t1 + 0.5 * u
    a1 = (mid / a - np.floor(mid / a)) - u / (2.0 * a) - 0.5
    b1 = (mid / b - np.floor(mid / b)) - u / (2.0 * b) - 0.5
    seg = a1 * b1 * u + (a1 / b + b1 / a) * (u * u) / 2.0 + u**3 / (3.0 * a * b)
    return float(np.sum(seg)) / period


def segment_head(a: float, b: float, T: float) -> tuple[float, int]:
    """Exact integral of {t/a}{t/b}/t^2 over (1, T] by a windowed walk over
    the union lattice {m a} U {n b}: on each segment the integrand is a
    quadratic over t^2, written through its values at the segment midpoint
    so that every per-segment term is cancellation-free."""
    total = 0.0
    n_seg = 0
    for t1, u in _lattice_windows((a, b), 1.0, T):
        mid = t1 + 0.5 * u
        alpha1 = (mid / a - np.floor(mid / a)) - u / (2.0 * a)
        beta1 = (mid / b - np.floor(mid / b)) - u / (2.0 * b)
        i0, i1, i2 = _segment_integrals(t1, u)
        total += float(np.sum(alpha1 * beta1 * i0 + (alpha1 / b + beta1 / a) * i1 + i2 / (a * b)))
        n_seg += t1.size
    return total, n_seg


def lattice_walk_oracle(a: float, b: float, tol: float) -> tuple[float, float]:
    """Independent route for any pair: the walk over (1, T] plus the tail
    (1/4 + mu)/T with mu = 0, the asymptotic mean of the centred product of
    an incommensurate pair.  Its bound takes the Cauchy-Schwarz
    |mean tail| <= 1/(12 T), a (a + b)/T^2 cushion and the summation
    roundoff, with T of about 1/(6 tol), so its cost grows as 1/tol."""
    T = max(1.0 / (6.0 * tol), math.sqrt(2.0 * (a + b) / tol))
    head, n_seg = segment_head(a, b, T)
    err = 1.0 / (12.0 * T) + (a + b) / (T * T) + 4e-16 * math.sqrt(float(n_seg)) + 1e-14
    return head + 0.25 / T, err


def period_walk_oracle(a: float, b: float, tol: float) -> tuple[float, float]:
    """Independent route for a commensurate pair: the lattice walk over
    (1, T] plus the tail (1/4 + mu)/T, where mu is the exact mean of the
    centered product over one common period P.  The tail is within
    ((a + b)/4 + 2P/3)/T^2 (by parts, with 2x slack), and T is chosen so
    that this is tol/2."""
    lo, hi = min(a, b), max(a, b)
    period = lo * Fraction(lo / hi).limit_denominator(10_000).denominator
    mu = product_mean(a, b, period)
    assert abs(mu) <= 1.0 / 12.0 + 1e-9  # Cauchy-Schwarz
    quad_const = (a + b) / 4.0 + 2.0 * period / 3.0
    T = math.sqrt(quad_const / (0.5 * tol))
    head, n_seg = segment_head(a, b, T)
    return head + (0.25 + mu) / T, quad_const / T**2 + 4e-16 * math.sqrt(n_seg) + 1e-14


def mp_closed_form(a: float, b: float) -> mpmath.mpf:
    """Vasyunin's formula at 30 digits on the exact rationals of a and b."""
    lo, hi = sorted((Fraction(a), Fraction(b)))
    ratio = lo / hi
    h, k = ratio.numerator, ratio.denominator
    mpq = lambda f: mpmath.mpf(f.numerator) / f.denominator
    with mpmath.workdps(30):

        def cot_sum(h, k):
            return mpmath.fsum(
                mpmath.mpf(m * h % k) / k * mpmath.cot(mpmath.pi * m / k) for m in range(1, k)
            )

        j = (
            (mpmath.log(2 * mpmath.pi) - mpmath.euler) / 2 * (mpmath.mpf(1) / h + mpmath.mpf(1) / k)
            + mpmath.mpf(k - h) / (2 * h * k) * mpmath.log(mpmath.mpf(h) / k)
            - mpmath.pi / (2 * h * k) * (cot_sum(h, k) + cot_sum(k, h))
        )
        return j / mpq(lo / h) - 1 / mpq(lo * hi)


def test_entry_1_1_against_adaptive_oracle():
    value, err = pair_product_integral(1.0, 1.0, 1e-9)
    oracle, oracle_err = quad_pair_oracle(1.0, 1.0)
    assert abs(value - oracle) < 1e-8 + oracle_err
    # frozen digits derived from the oracle run (also ln(2 pi) - gamma - 1)
    assert abs(value - 0.26066140150781262) < 1e-9


@pytest.mark.parametrize(
    "pair", [(1.0, 2.0), (2.0, 3.0), (1.5, 2.5), (1.1, 3.3), (2.2, 3.3), (1.0, 7.59375)]
)
def test_entries_against_oracle(pair):
    a, b = pair
    value, err = pair_product_integral(a, b, 1e-9)
    oracle, oracle_err = quad_pair_oracle(a, b)
    assert abs(value - oracle) <= err + oracle_err


def test_entry_self_convergence_certification():
    for pair in ((1.0, 1.0), (1.0, 2.0), (7.0, 9.0), (49.0, 50.0)):
        coarse, err_c = pair_product_integral(*pair, 1e-7)
        fine, err_f = pair_product_integral(*pair, 1e-10)
        assert abs(coarse - fine) <= err_c + err_f


@pytest.mark.parametrize(
    "pair",
    WALK_PAIRS
    + [(1.0, 1.5**k) for k in range(1, 8)]
    + [(1.0, 2.0**k) for k in range(1, 12)]
    + [(1.0, 2999.0), (1000.0, 2999.0), (37.0, 8191.0), (4096.0, 9999.0)],
)
def test_closed_form_roundoff_bound(pair):
    value, err = pair_product_integral(*pair, 1e-6)
    assert 0.0 < err < 1e-13
    assert abs(mpmath.mpf(value) - mp_closed_form(*pair)) <= err


@pytest.mark.parametrize("pair", WALK_PAIRS)
def test_closed_form_against_lattice_walk(pair):
    value, err = pair_product_integral(*pair, 1e-9)
    walk, walk_err = period_walk_oracle(*pair, 1e-9)
    assert abs(value - walk) <= err + walk_err


@pytest.mark.parametrize("pair", [(1000.0, 2999.0), (37.0, 8191.0), (4096.0, 9999.0)])
def test_continuity_bound_at_coarser_convergents(pair):
    # every convergent before the exact ratio misses it; the closed form
    # there, plus its roundoff and continuity bounds, must still hold the
    # exact entry
    lo, hi = pair
    exact = mp_closed_form(lo, hi)
    coarse = [(h, k) for h, k in _convergents(Fraction(lo) / Fraction(hi)) if h * hi != k * lo]
    assert len(coarse) >= 2
    for h, k in coarse:
        value, roundoff = _closed_form_entry(lo, hi, h, k)
        assert abs(mpmath.mpf(value) - exact) <= roundoff + _continuity_bound(lo, hi, h, k)


@pytest.mark.parametrize("tol", [1e-6, 1e-7])
@pytest.mark.parametrize(
    "pair", [(1.0, math.sqrt(2.0)), (1.0, (1.0 + math.sqrt(5.0)) / 2.0), (math.e, math.pi),
             (1.0, math.pi)],
    ids=["sqrt2", "phi", "e-pi", "pi"],
)
def test_convergent_entry_against_lattice_walk(pair, tol):
    value, err = pair_product_integral(*pair, tol)
    walk, walk_err = lattice_walk_oracle(*pair, tol)
    assert err <= tol
    assert abs(value - walk) <= err + walk_err


def test_commensurate_bounds_are_roundoff_only():
    system = gram_system([float(k) for k in range(1, 51)], 1e-9)
    assert float(np.max(system.entry_error_bounds)) <= 1e-11


def test_incommensurate_pair():
    value, err = pair_product_integral(1.0, math.sqrt(2.0), 1e-5)
    finer, err_f = pair_product_integral(1.0, math.sqrt(2.0), 2e-6)
    assert err <= 1e-5
    assert abs(value - finer) <= err + err_f


def test_incommensurate_tight_tolerance_unreachable():
    with pytest.raises(PrecisionUnreachable):
        pair_product_integral(1.0, math.sqrt(2.0), 1e-12)


def test_pair_validation():
    with pytest.raises(DomainError):
        pair_product_integral(0.5, 2.0, 1e-6)
    with pytest.raises(DomainError):
        pair_product_integral(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        pair_product_integral(math.nan, 2.0, 1e-6)
    with pytest.raises(DomainError):
        pair_product_integral(1.0, math.inf, 1e-6)


def test_gram_moment_vector_closed_form():
    system = gram_system([1.0, 2.0], 1e-8)
    lam = moment_constant()
    assert system.moment_vector[0] == lam
    assert system.moment_vector[1] == (lam + math.log(2.0)) / 2.0
    assert tuple(system.constraint_vector) == (1.0, 0.5)


def test_gram_symmetric_and_positive():
    system = gram_system([float(k) for k in range(1, 11)], 1e-9)
    assert np.array_equal(system.matrix, system.matrix.T)
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = rng.standard_normal(10)
        h /= np.linalg.norm(h)
        assert float(h @ system.matrix @ h) >= -10.0 * 1e-9


def test_gram_head_shares_entries():
    system = gram_system([1.0, 2.0, 3.0, 4.0], 1e-8)
    head = system.head(2)
    assert np.array_equal(head.matrix, system.matrix[:2, :2])
    assert head.dilations == system.dilations[:2]
    for n in (0, 5):
        with pytest.raises(DomainError):
            system.head(n)


def test_gram_validation():
    with pytest.raises(DuplicateDilation):
        gram_system([1.0, 1.0 + 1e-14], 1e-8)
    with pytest.raises(DomainError):
        gram_system([2.0, 1.0], 1e-8)
    with pytest.raises(DomainError):
        gram_system([], 1e-8)
    with pytest.raises(DomainError):
        gram_system([0.5, 1.0], 1e-8)


def test_gram_deterministic():
    a = gram_system([1.0, 3.0, 7.5], 1e-9)
    b = gram_system([1.0, 3.0, 7.5], 1e-9)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.entry_error_bounds, b.entry_error_bounds)


def test_gram_export_schema():
    payload = gram_system([1.0, 2.0], 1e-8).to_dict()
    assert set(payload) == {"dilations", "matrix", "g_vector", "c_vector", "entry_error_bounds"}
    assert len(payload["matrix"]) == 2 and len(payload["matrix"][0]) == 2
