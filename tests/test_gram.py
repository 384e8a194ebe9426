import importlib
import math
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import fixed_quad

from nblab import (
    DomainError,
    DuplicateDilation,
    PrecisionUnreachable,
    gram_system,
    moment_constant,
)
from nblab.gammafn import _LN_2PI_MINUS_GAMMA
from nblab.gram import (
    _continuity_bound,
    _convergents,
    _cot_sums,
    _lattice,
    _reduced_ratio,
    _sum_depth,
    pair_product_integral,
)

gram_module = importlib.import_module("nblab.gram")

#: unit roundoff
U = 2.0**-53

#: (h, k) of the incommensurate pairs the benchmark's gram and approx calls
#: reduce to: (1, sqrt 2) at two targets, (1, phi) and (e, pi)
WORKLOAD_RATIOS = [(13860, 19601), (33461, 47321), (17711, 28657), (33244, 38421)]

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


def _segment_integrals(t1: np.ndarray, u: np.ndarray):
    """(i0, i1, i2): int (t - t1)^j dt/t^2 over [t1, t1 + u] for j = 0, 1, 2.

    With w = u/t1 these are w/(1+w)/t1, ln(1+w) - w/(1+w) and
    t1 (w - 2 ln(1+w) + w/(1+w)); below w = 1e-3 the last two switch to
    their Taylor series, which avoids the cancellation."""
    w = u / t1
    small = w < 1e-3
    l1p = np.log1p(w)
    wow = w / (1.0 + w)
    i0 = wow / t1
    i1 = np.where(small, w * w / 2 - 2 * w**3 / 3 + 3 * w**4 / 4, l1p - wow)
    i2 = t1 * np.where(small, w**3 / 3 - w**4 / 2 + 3 * w**5 / 5, w - 2 * l1p + wow)
    return i0, i1, i2


#: segments per window of ``lattice_windows_oracle``
ORACLE_WINDOW = 100_000


def lattice_windows_oracle(dilations, t_lo: float, t_hi: float):
    """Yield (t1, u), the left ends and widths of the segments of the union
    lattice {m l : l in dilations} on [t_lo, t_hi], one window of about
    ``ORACLE_WINDOW`` segments at a time, by the plain route: every window's
    points sorted, masked to [t_lo, t_hi] and merged when within relative
    1e-12 of their predecessor.  It shares no code with the production
    lattice walk of ``nblab.moments``, which must yield the same segments."""
    width = ORACLE_WINDOW / sum(1.0 / l for l in dilations)
    while t_lo < t_hi:
        w_hi = min(t_hi, t_lo + width)
        pts = [
            np.arange(math.floor(t_lo / l) + 1, math.floor(w_hi / l) + 1, dtype=np.float64) * l
            for l in dilations
        ]
        pts = np.sort(np.concatenate([np.array([t_lo, w_hi])] + pts))
        pts = pts[(pts >= t_lo) & (pts <= w_hi)]
        keep = np.concatenate(([True], np.diff(pts) > 1e-12 * pts[1:]))
        pts = pts[keep]
        yield pts[:-1], np.diff(pts)
        t_lo = w_hi


def segment_head(a: float, b: float, T: float) -> tuple[float, int]:
    """Exact integral of {t/a}{t/b}/t^2 over (1, T] by a windowed walk over
    the union lattice {m a} U {n b}: on each segment the integrand is a
    quadratic over t^2, written through its values at the segment midpoint
    so that every per-segment term is cancellation-free."""
    total = 0.0
    n_seg = 0
    for t1, u in lattice_windows_oracle((a, b), 1.0, T):
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


def fsum_cot_sums(k: int, residues) -> dict[int, tuple[float, float]]:
    """The full-length route, kept as an oracle: V(h/k) over every
    0 < m < k, summed correctly rounded by ``math.fsum`` (within 9u M_V),
    and M_V = sum {m h/k} (1 + |cot(pi m/k)|) by a dot product."""
    m = np.arange(1, k)
    cot = 1.0 / np.tan(np.pi * np.minimum(m, k - m) / k)
    cot = np.where(2 * m < k, cot, -cot)
    weight = 1.0 + np.abs(cot)
    sums = {}
    for h in residues:
        frac = (m * h % k) / k
        sums[h] = math.fsum((frac * cot).tolist()), float(frac @ weight)
    return sums


def dict_cot_sums(k: int, residues) -> dict[int, tuple[float, float]]:
    """The per-k route, kept as an oracle: V(h/k) and M for each h in
    ``residues`` from one half-length cot vector, with r = (m h) mod k taken
    in int64 rather than as the production kernel's float remainder, the
    same summands and the same halving tree."""
    m = np.arange(1, (k + 1) // 2)
    if not m.size:  # k <= 2: V(0/1) = V(1/2) = 0
        return {h: (0.0, (k - 1) / 2) for h in residues}
    cot = 1.0 / np.tan(np.pi * m / k)
    magnitude = float(cot.sum()) + (k - 1) / 2
    r = np.array(list(residues))[:, None] * m % k
    x = (2 * r - k) / k * cot
    n = m.size
    while n > 1:  # the halving tree, row by row
        half = n // 2
        x[:, :half] += x[:, n - half:n]
        n -= half
    return {h: (value, magnitude) for h, value in zip(residues, x[:, 0].tolist())}


def closed_form_entry(a: float, b: float, h: int, k: int, sums) -> tuple[float, float]:
    """(value, roundoff bound) of I(c h, c k), c = min(a, b)/h, by Vasyunin's
    formula one pair at a time, with V and M from ``sums[k][h mod k]`` and
    ``sums[h][k mod h]``: the operations of the ``nblab.gram`` docstring in
    Python floats."""
    v_hk, m_hk = sums[k][h % k]
    v_kh, m_kh = sums[h][k % h]
    first = 0.5 * _LN_2PI_MINUS_GAMMA * (1.0 / h + 1.0 / k)
    log_coef = (k - h) / (2.0 * h * k)
    log_ratio = math.log(h / k)
    cot_coef = math.pi / (2.0 * h * k)
    j = first + log_coef * log_ratio - cot_coef * (v_hk + v_kh)
    c = min(a, b) / h
    inv_ab = 1.0 / (a * b)
    magnitude = (first + log_coef * (1.0 - log_ratio) + cot_coef * (m_hk + m_kh)) / c + inv_ab
    summation = 2.0**-53 * cot_coef * (_sum_depth(k) * m_hk + _sum_depth(h) * m_kh) / c
    return j / c - inv_ab, 16.0 * np.finfo(float).eps * magnitude + summation


def per_pair_gram_entries(dils, target_entry_error: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair route to a build's matrices, the oracle of the array
    passes: each pair of the upper triangle reduced by ``_reduced_ratio``,
    the residues each k needs gathered in sets, ``dict_cot_sums`` per k and
    ``closed_form_entry`` per pair."""
    n = len(dils)
    ratios = {(i, j): _reduced_ratio(dils[i], dils[j], target_entry_error)
              for i in range(n) for j in range(i, n)}
    residues = defaultdict(set)
    for h, k, _ in ratios.values():
        residues[k].add(h % k)
        residues[h].add(k % h)
    sums = {k: dict_cot_sums(k, sorted(needed)) for k, needed in residues.items()}
    matrix, bounds = np.zeros((n, n)), np.zeros((n, n))
    for (i, j), (h, k, continuity) in ratios.items():
        value, roundoff = closed_form_entry(dils[i], dils[j], h, k, sums)
        matrix[i, j] = matrix[j, i] = value
        bounds[i, j] = bounds[j, i] = roundoff + continuity
    return matrix, bounds


def scan_reduced_ratio(a: float, b: float, target_entry_error: float):
    """``_reduced_ratio`` by trying every convergent in turn, the oracle of
    its skip of convergents whose bound is certainly above the goal."""
    lo, hi = min(a, b), max(a, b)
    x = Fraction(lo) / Fraction(hi)
    if x.denominator <= gram_module.DENOMINATOR_CAP:
        return x.numerator, x.denominator, 0.0
    goal = max(0.5 * target_entry_error, 1e-13)
    for h, k in _convergents(x):
        if k > gram_module.DENOMINATOR_CAP:
            break
        continuity = _continuity_bound(lo, hi, h, k)
        if continuity <= goal:
            return h, k, continuity
    return None


def kernel_cot_sums(k: int, residues) -> dict[int, tuple[float, float]]:
    """V and M of the production kernel for one k, keyed like the oracles."""
    rs = sorted(residues)
    v, magnitude, _ = _cot_sums(np.full(len(rs), float(k)), np.array(rs, dtype=float))
    return {h: (a, b) for h, a, b in zip(rs, v.tolist(), magnitude.tolist())}


def v_bound(k: int, magnitude: float) -> float:
    """V(h/k)'s certified roundoff, (8 + d) u M to first order (``nblab.gram``
    docstring), plus u M for the second-order terms."""
    return (9 + _sum_depth(k)) * U * magnitude


def rational_continuity_bound(lo: float, hi: float, h: int, k: int) -> float:
    """The continuity bound with delta and b' formed as Fractions: the route
    that ``_continuity_bound`` must match bit for bit."""
    b = Fraction(lo) * k / h
    delta = math.nextafter(float(abs(1 / Fraction(hi) - 1 / b)), math.inf)
    log_t = max(0.0, -math.log(2.0 * delta))
    logs = 1.0 + log_t + max(0.0, log_t - math.log(min(hi, float(b))))
    return (delta * logs + min(1.0, 2.0 * delta) + delta / lo) * (1.0 + 16.0 * np.finfo(float).eps)


def assert_cot_sums_match_oracle(k: int, residues) -> None:
    """New V and M against ``fsum_cot_sums`` within both routes' bounds."""
    new, old = kernel_cot_sums(k, residues), fsum_cot_sums(k, residues)
    assert sorted(new) == sorted(residues)
    for h in residues:
        (v, magnitude), (v_old, m_old) = new[h], old[h]
        assert abs(v - v_old) <= v_bound(k, magnitude) + 9 * U * m_old
        # the same positive terms, each within 9u, summed in any order twice
        assert abs(magnitude - m_old) <= (9 + k) * U * (magnitude + m_old)


def test_cot_sums_against_full_length_oracle_at_every_residue():
    # k = 1 and 2 have no summand left: V(0/1) = V(1/2) = 0
    assert kernel_cot_sums(1, [0]) == {0: (0.0, 0.0)}
    assert kernel_cot_sums(2, [1]) == {1: (0.0, 0.5)}
    for k in range(1, 201):
        assert_cot_sums_match_oracle(k, [h for h in range(k) if math.gcd(h, k) == 1])


@pytest.mark.parametrize("h, k", WORKLOAD_RATIOS, ids=[str(k) for _, k in WORKLOAD_RATIOS])
def test_cot_sums_against_full_length_oracle_at_workload_ratios(h, k):
    assert_cot_sums_match_oracle(k, [h % k])
    assert_cot_sums_match_oracle(h, [k % h])


@pytest.mark.parametrize("h, k", [(1, 97), (45, 97), (1, 1024), (777, 1024), (1, 2999), (1000, 2999),
                                  (37, 8191), (4096, 9999)])
def test_cot_sum_within_its_bound_of_mpmath(h, k):
    # the definition's full sum over 0 < m < k at 30 digits, not the
    # half-length pairing that the code sums
    v, magnitude = kernel_cot_sums(k, [h])[h]
    with mpmath.workdps(30):
        exact = mpmath.fsum(mpmath.mpf(m * h % k) / k * mpmath.cot(mpmath.pi * m / k)
                            for m in range(1, k))
        assert abs(mpmath.mpf(v) - exact) <= v_bound(k, magnitude)


def test_continuity_bound_equals_the_rational_route():
    dilations = [1.0, math.sqrt(2.0), (1.0 + math.sqrt(5.0)) / 2.0, math.e, math.pi, 3.000000003,
                 1.1, 3.3, 37.0, 8191.0] + [math.sqrt(p) for p in (3.0, 5.0, 7.0, 11.0, 13.0)]
    cases = 0
    for i, a in enumerate(dilations):
        for b in dilations[i + 1:]:
            lo, hi = min(a, b), max(a, b)
            for h, k in _convergents(Fraction(lo) / Fraction(hi)):
                if k > gram_module.DENOMINATOR_CAP:
                    break
                if h * hi != k * lo:
                    assert _continuity_bound(lo, hi, h, k) == rational_continuity_bound(lo, hi, h, k)
                    cases += 1
    assert cases > 1000


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
        sums = {k: dict_cot_sums(k, [h % k]), h: dict_cot_sums(h, [k % h])}
        value, roundoff = closed_form_entry(lo, hi, h, k, sums)
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


def per_pair_entry(a: float, b: float, target: float) -> tuple[float, float]:
    """One pair by the per-pair route, in the order given."""
    matrix, bounds = per_pair_gram_entries([a, b], target)
    return float(matrix[0, 1]), float(bounds[0, 1])


@pytest.mark.parametrize("pair", [(2.0, 1.0), (math.sqrt(2.0), 1.0), (3.3, 1.1), (1.0, 1.0)])
def test_pair_order_does_not_matter(pair):
    a, b = pair
    assert pair_product_integral(a, b, 1e-7) == pair_product_integral(b, a, 1e-7)
    assert pair_product_integral(a, b, 1e-7) == per_pair_entry(a, b, 1e-7)


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


@pytest.mark.parametrize(
    "dilations, target",
    [([float(k) for k in range(1, 61)], 1e-9), ([1.5**k for k in range(8)], 1e-9),
     ([1.0 + 0.5 * k for k in range(19)], 1e-9),
     ([1.0, math.sqrt(2.0), 1.5, 2.0, math.e, 3.0, math.pi], 1e-7),
     ([1.0, (1.0 + math.sqrt(5.0)) / 2.0, math.e, math.pi], 2.5e-8)],
    ids=["integers", "geometric-1.5", "halves", "mixed-convergents", "large-k-convergents"],
)
def test_build_entries_equal_standalone_pairs(dilations, target):
    # a build takes every entry from one table of cot sums; a pair alone
    # builds its own, and neither may round differently
    system = gram_system(dilations, target)
    for i, lo in enumerate(dilations):
        for j, hi in enumerate(dilations[i:], start=i):
            value, err = pair_product_integral(lo, hi, target)
            assert system.matrix[i, j] == system.matrix[j, i] == value
            assert system.entry_error_bounds[i, j] == system.entry_error_bounds[j, i] == err


def test_each_cot_sum_is_computed_once_per_build(monkeypatch):
    n = 40
    keys = set()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            h, k = i // math.gcd(i, j), j // math.gcd(i, j)
            keys |= {(h % k, k), (k % h, h)}
    computed = []
    cot_sums = gram_module._cot_sums

    def recording(q, r):
        computed.append(sorted(zip(r.astype(int).tolist(), q.astype(int).tolist())))
        return cot_sums(q, r)

    monkeypatch.setattr(gram_module, "_cot_sums", recording)
    for _ in range(2):  # one kernel call per build, each key once, nothing kept
        gram_system([float(k) for k in range(1, n + 1)], 1e-9)
    assert computed == [sorted(keys), sorted(keys)]


#: sets of the per-pair oracle: the standalone-pair sets, integers 1..200,
#: and a set whose numerators over 2^52 overflow int64, so every pair takes
#: ``_reduced_ratio``, exact ratios included
ORACLE_SETS = [
    ([float(k) for k in range(1, 61)], 1e-9),
    ([1.5**k for k in range(8)], 1e-9),
    ([1.0 + 0.5 * k for k in range(19)], 1e-9),
    ([1.0, math.sqrt(2.0), 1.5, 2.0, math.e, 3.0, math.pi], 1e-7),
    ([1.0, (1.0 + math.sqrt(5.0)) / 2.0, math.e, math.pi], 2.5e-8),
    ([float(k) for k in range(1, 201)], 1e-9),
    ([1.0, 1.1, 2.0, 3.3, 2.0**12], 1e-7),
]


@pytest.mark.parametrize("dilations, target", ORACLE_SETS,
                         ids=["integers", "geometric-1.5", "halves", "mixed-convergents",
                              "large-k-convergents", "integers-200", "int64-overflow"])
def test_build_equals_the_per_pair_oracle(dilations, target):
    system = gram_system(dilations, target)
    matrix, bounds = per_pair_gram_entries(dilations, target)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.entry_error_bounds, bounds)


def test_int64_overflow_set_leaves_the_lattice():
    assert _lattice([1.0, 1.1, 2.0, 3.3, 2.0**12]) is None
    assert _lattice([1.0, 1.5, 2.0**30]).tolist() == [2, 3, 2**31]


#: dilations the hypothesis draw takes subsets of
DRAW_POOL = sorted({k / 2 for k in range(2, 13)} | {k / 3 for k in range(3, 13)}
                   | {1.5**k for k in range(9)} | {math.sqrt(2.0) * k for k in range(1, 7)})


@given(st.lists(st.sampled_from(DRAW_POOL), min_size=1, max_size=8, unique=True))
def test_drawn_build_equals_the_per_pair_oracle(dilations):
    dilations = sorted(dilations)
    system = gram_system(dilations, 1e-6)
    matrix, bounds = per_pair_gram_entries(dilations, 1e-6)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.entry_error_bounds, bounds)


def test_cot_sums_equal_the_int64_route_bit_for_bit():
    # the float remainder against the int64 one, for every q to 200 in one
    # call (consecutive q's summed together) and for q = 1021, whose 1020
    # residues take eight blocks of rows
    q, r = zip(*[(k, h) for k in range(1, 201) for h in range(k) if math.gcd(h, k) == 1])
    v, magnitude, depth_magnitude = _cot_sums(np.array(q, dtype=float), np.array(r, dtype=float))
    oracle = {k: dict_cot_sums(k, [h for h in range(k) if math.gcd(h, k) == 1])
              for k in range(1, 201)}
    assert v.tolist() == [oracle[k][h][0] for k, h in zip(q, r)]
    assert magnitude.tolist() == [oracle[k][h][1] for k, h in zip(q, r)]
    assert depth_magnitude.tolist() == [_sum_depth(k) * oracle[k][h][1] for k, h in zip(q, r)]
    assert kernel_cot_sums(1021, range(1, 1021)) == dict_cot_sums(1021, range(1, 1021))


def test_reduced_ratio_equals_the_convergent_scan():
    rng = random.Random(5)
    dilations = [1.0, math.sqrt(2.0), (1.0 + math.sqrt(5.0)) / 2.0, math.e, math.pi, 3.000000003,
                 1.1, 3.3, 37.0, 8191.0] + [rng.uniform(1.0, 100.0) for _ in range(12)]
    for a in dilations:
        for b in dilations:
            for target in (10.0, 1e-3, 1e-5, 1.2e-7, 2.5e-8, 1e-9, 1e-12):
                try:
                    ratio = _reduced_ratio(a, b, target)
                except PrecisionUnreachable:
                    ratio = None
                assert ratio == scan_reduced_ratio(a, b, target)


def test_build_of_400_integers_holds_the_per_pair_peak():
    # the per-pair passes peaked at 13.4 MB traced on this build, the array
    # passes at 11.9 MB (Python 3.11, numpy 2.4)
    tracemalloc.start()
    try:
        gram_system([float(k) for k in range(1, 401)], 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.4e6


def test_build_holds_one_cot_vector_at_a_time():
    # six convergent pairs need cot vectors of up to about 1e5 entries each;
    # holding every one until the build ended took about 24 MB traced
    dilations = [math.sqrt(p) for p in (2.0, 3.0, 5.0, 7.0, 11.0, 13.0)]
    tracemalloc.start()
    try:
        gram_system(dilations, 3e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_gram_system_refuses_a_build_above_its_budget(monkeypatch):
    # a sweep to N = 5000 stays within the budget
    assert gram_module.MAX_DILATIONS >= 5000
    monkeypatch.setattr(gram_module, "MAX_DILATIONS", 3)
    gram_system([1.0, 2.0, 3.0], 1e-9)

    def no_pass(*args):
        raise AssertionError("a refused build evaluated entries")

    monkeypatch.setattr(gram_module, "_gram_entries", no_pass)
    with pytest.raises(PrecisionUnreachable, match="4 dilations holds more than the 3"):
        gram_system([1.0, 2.0, 3.0, 4.0], 1e-9)
