"""Pairwise inner products of dilated fractional parts under dt/t^2.

Each entry is I(a, b) = int_1^inf {t/a}{t/b} dt/t^2.

The closed form.  For a pair (a, b) = (c h, c k) with h/k in lowest terms,
Vasyunin's cotangent sum (Vasyunin 1995; restated in Bettin-Conrey, Period
functions and cotangent sums, 2013) gives

    I(a, b) = J(h, k)/c - 1/(a b),
    J(h, k) = (ln 2pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) ln(h/k)
              - pi/(2hk) (V(h/k) + V(k/h)),
    V(h/k)  = sum_{0<m<k} {m h/k} cot(pi m/k),

at O(h + k) cost.  Pairing m with k - m halves V: cot(pi (k - m)/k) =
-cot(pi m/k), and as gcd(h, k) = 1, {(k - m) h/k} = 1 - {m h/k}, so

    V(h/k)  = sum_{0<m<k/2} (2{m h/k} - 1) cot(pi m/k),

n = ceil(k/2) - 1 terms whose moduli sum to at most

    M       = sum_{0<m<k/2} (1 + cot(pi m/k)) + [k even]/2
            = (k - 1)/2 + sum_{0<m<k/2} cot(pi m/k),

the same for every h (it equals sum_{0<m<k} {m h/k} (1 + |cot(pi m/k)|)).
2{m h/k} - 1 is formed as (2r - k)/k from the integer r = (m h) mod k, and
cot(pi m/k) at an argument in (0, pi/2), away from the pole at pi.  Nothing
is truncated, and the certified error is roundoff only.  With u = 2^-53:

* the argument x carries relative error <= 3u (pi, the product, the
  quotient), which moves cot x by <= 3u x/sin^2 x <= 3u (pi/2 + cot x);
  tan (taken within one ulp, as is log) and the reciprocal add 3u cot x,
  the fraction and the product 2u cot x, so each summand is off by
  <= 8u (1 + cot x);
* the n summands are added by a fixed halving tree (``_halving_sum``), in
  which each meets at most d = ceil(log2 n) roundings, so the sum adds
  gamma_d (1 + 8u) M <= d u M (1 + O(u)) (Higham, Accuracy and Stability,
  2002, sec. 4.2), and V is within (8 + d) u M to first order.  The order
  is fixed by the code, not by numpy's or BLAS's summation, so V is the
  same for any thread count; any-order sums would give gamma_{n-1}, about
  k u/2, too loose at k of 10^3 and more.  M only scales the bound, so
  numpy sums it in any order, within (7u + gamma_{n-1}) M < 6e-11 M;
* the coefficient pi/(2hk), the sum V(h/k) + V(k/h), the product and the
  two additions of J keep the cot term within pi/(2hk) ((14 + d) u M +
  (14 + d') u M'), with M', d' those of V(k/h); the first term is within
  7u of its size (a rounded constant, three operations, the additions of
  J), and the log term within 6u (k - h)/(2hk) (1 + |ln(h/k)|), since the
  rounding of h/k moves the log by u absolutely;
* dividing by the rounded c, forming 1/(a b) and the final subtraction add
  at most 3u of |J|/c + 1/(a b).

So |error| <= 17u S + u pi/(2hk) (d M + d' M')/c to first order, with
S = (|first term| + (k - h)/(2hk)(1 + |ln(h/k)|) + pi/(2hk)(M + M'))/c
+ 1/(a b); 16 eps S + u pi/(2hk) (d M + d' M')/c is certified, the 15u S
to spare covering the second-order terms and the rounding of M.

{m h/k} depends on h only mod k.  So entries, one pair or a whole
``gram_system`` build, take three array passes.  First, every pair is
reduced to h/k (below): by ``np.gcd`` of the dilations' int64 numerators
over their common power-of-two denominator, and by ``_reduced_ratio``
where that k exceeds the cap or a numerator does not fit.  Second, each
distinct key (q, r) of V(r/q) the pairs need, (k, h mod k) and
(h, k mod h), gets V, M and d M once, in a table sorted by key: one
half-length cot row for each q gives M, and (2 (r m mod q) - q)/q, with
r m mod q formed exactly in floats, times that row gives V's summands,
at most 2^16 of them in flight.  The sort that finds the distinct keys
also gives each pair its two rows of the table, and ln(h/k) is taken by
``math.log`` once for each key some pair reads as (k, h mod k).  Third,
every pair takes Vasyunin's formula elementwise from its two keys' rows,
in blocks of rows.  Each summand, each addition of the tree
and each operation of the formula is the same whatever else a block or a
build holds, so an entry has the same value and bound in every build that
holds its pair, and nothing is kept from one build to the next.

Every entry is this closed form at (a, b) = (lo, hi), lo <= hi, c = lo/h.
With x = lo/hi exactly, h/k = x when its denominator is at most
``DENOMINATOR_CAP`` (the bound is then roundoff only, whatever the
tolerance); otherwise h/k is the first convergent of x whose continuity
bound is at most max(tol/2, 1e-13), the floor keeping near-exact pairs
such as (1.1, 3.3) on 1/3.  Past the cap, PrecisionUnreachable is raised.

The continuity bound.  At a convergent, c k = b' = lo k/h is not hi.  Let
delta = |1/hi - 1/b'|, m0 = min(hi, b') and T = max(1, 1/(2 delta)).  As
0 <= {t/lo} < 1, |I(lo, hi) - I(lo, b')| is at most the integral of
|{t/hi} - {t/b'}| under dt/t^2.  On [1, T], t/hi and t/b' differ by
t delta <= 1/2, so their floors differ only on the strips
[m m0, m max(hi, b')), by one.  Off the strips the integrand is t delta,
which gives <= delta ln T; on a strip it is <= 1, and strip m weighs
delta/m, so the strips with m < T/m0 give <= delta (1 + ln+(T/m0)).  Past
T the integrand is below 1, which gives 1/T.  So

    C = delta (1 + ln T + ln+(T/m0)) + 1/T = O(delta ln(1/delta)),

and the closed form moves by delta/lo more, since it subtracts 1/(lo hi)
where I(lo, b') has 1/(lo b').  delta = |lo k - h hi|/(hi lo k) is one
correctly rounded division of the doubles' integer ratios, rounded up;
C + delta/lo, evaluated in floats and inflated by 16 eps to cover that,
is added to the roundoff bound.  Since delta = |x - h/k|/lo < 1/(lo k^2),
a tolerance tol needs k of about (ln(1/tol)/(lo tol))^(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, DuplicateDilation, PrecisionUnreachable
from .fracsum import COINCIDENCE_RTOL, _checked_dilation
from .gammafn import _LN_2PI_MINUS_GAMMA, moment_constant

__all__ = ["GramSystem", "gram_system"]

#: largest denominator h/k at which the closed form is evaluated
DENOMINATOR_CAP = 2**20

#: most dilations of one Gram build, refused before its first pass so that no
#: build exhausts memory.  Peak RSS of ``sweep --family integers --n N`` at one
#: BLAS thread (Python 3.11, numpy 2.4, 2-core x86-64): 38 MB at N = 200,
#: 74 MB at 800, 188 MB at 1600, 343 MB at 2400 and 579 MB at 3200, about
#: 36 MB + 53 N^2 bytes, so about 1.4 GB at this cap (extrapolated)
MAX_DILATIONS = 5000

#: certified roundoff of a closed-form entry, per unit of summed magnitude
_CLOSED_FORM_ROUNDOFF = 16.0 * np.finfo(float).eps


def _halving_sum(x: np.ndarray) -> np.ndarray:
    """Column sums of the 2-D array ``x``, which is overwritten: each step
    adds the last half of the n rows left onto the first, so every term
    meets at most ``_sum_depth`` roundings, in an order no library decides."""
    n = x.shape[0]
    while n > 1:
        half = n // 2
        first = x[:half]
        np.add(first, x[n - half:n], out=first)
        n -= half
    return x[0]


def _sum_depth(k: int) -> int:
    """ceil(log2 n) for the n = ceil(k/2) - 1 summands of V(h/k)."""
    return max((k + 1) // 2 - 2, 0).bit_length()


def _cot_sums(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V(r/q), its magnitude M = (q - 1)/2 + sum_{0<m<q/2} cot(pi m/q), the
    same for every r, and d M, d = ``_sum_depth(q)``, for each key (q, r) of
    the float arrays, q ascending and r coprime to q.  A q whose n =
    ceil(q/2) - 1 summands reach 2^8 takes one cot row for all its keys, in
    blocks of rows of at most 2^16 summands.  Consecutive narrower q's go
    together while their keys, padded to the widest n, fit in 2^16
    summands, each key with its own cot row: alone, their numpy calls would
    cost more than their sums, and the padding adds fewer than 2^8 a key."""
    v, magnitude, depth_magnitude = np.zeros(q.size), (q - 1) / 2, np.zeros(q.size)
    cuts = [0, *((q[1:] != q[:-1]).nonzero()[0] + 1).tolist()]
    # (first key, end key, n) of each q with n = ceil(q/2) - 1 > 0 summands;
    # q <= 2 leaves V(0/1) = V(1/2) = 0
    groups = [(a, b, (int(x) + 1) // 2 - 1)
              for a, b, x in zip(cuts, cuts[1:] + [q.size], q.take(cuts).tolist()) if x > 2]
    g = 0
    while g < len(groups):
        h = g + 1
        while (h < len(groups) and groups[h][2] ** 2 <= 1 << 16
               and (groups[h][1] - groups[g][0]) * groups[h][2] <= 1 << 16):
            h += 1
        first, end, width = groups[g][0], groups[h - 1][1], groups[h - 1][2]
        runs = []  # (first key, end key, n) of the keys of each n: q = 2n + 1 and 2n + 2
        for a, b, n in groups[g:h]:
            if runs and runs[-1][2] == n:
                runs[-1][1] = b
            else:
                runs.append([a, b, n])
        alone, g = h == g + 1, h  # a q alone: one cot row serves its keys
        m = np.arange(1.0, width + 1)
        cot = 1.0 / np.tan(np.pi * m / q[first:first + 1 if alone else end, None])
        for a, b, n in runs:
            own = cot[:1] if alone else cot[a - first:b - first]
            magnitude[a:b] += np.add.reduce(own[:, :n], axis=1)
            depth_magnitude[a:b] = _sum_depth(int(q[a])) * magnitude[a:b]
        # a column of summands for each key, a block's keys side by side
        step = max(1, (1 << 16) // width)  # more than one block only for a q alone
        for i in range(first, end, step):
            j = min(i + step, end)
            qi = float(q[first]) if alone else q[i:j]
            # 2 (r m mod q) - q = 2 r m - (2 floor(r m/q) + 1) q, exact: 2 r m
            # < 2^40, and r m/q lies at least 1/q from an integer (gcd(r, q)
            # = 1), far beyond the rounding of 2 r m 1/(2q), so its floor is r m/q's
            x = np.multiply.outer(m, 2.0 * r[i:j])
            y = x * (0.5 / qi)
            np.floor(y, out=y)
            y *= 2.0 * qi
            y += qi
            x -= y
            x /= qi  # (2 (r m mod q) - q)/q cot(pi m/q)
            x *= cot.T
            for a, b, n in runs:  # each key's own n summands
                a, b = max(a, i), min(b, j)
                if a < b:
                    v[a:b] = _halving_sum(x[:n, a - i:b - i])
    return v, magnitude, depth_magnitude


def _convergents(x: Fraction):
    """The convergents h/k of x in (0, 1] with h >= 1, by growing k."""
    num, den = x.numerator, x.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0
    while den:
        q, num, den = num // den, den, num % den
        h0, k0, h1, k1 = h1, k1, q * h1 + h0, q * k1 + k0
        if h1:
            yield h1, k1


def _continuity_bound(lo: float, hi: float, h: int, k: int) -> float:
    """C + delta/lo of the module docstring: the closed form at h/k off I(lo, hi)."""
    lo_num, lo_den = lo.as_integer_ratio()
    hi_num, hi_den = hi.as_integer_ratio()
    delta = abs(lo_num * k * hi_den - h * hi_num * lo_den) / (hi_num * lo_num * k)
    delta = math.nextafter(delta, math.inf)
    b = lo_num * k / (lo_den * h)
    log_t = max(0.0, -math.log(2.0 * delta))
    logs = 1.0 + log_t + max(0.0, log_t - math.log(min(hi, b)))
    return (delta * logs + min(1.0, 2.0 * delta) + delta / lo) * (1.0 + _CLOSED_FORM_ROUNDOFF)


def _reduced_ratio(a: float, b: float, target_entry_error: float) -> tuple[int, int, float]:
    """h/k of the pair (module docstring) and the continuity bound it adds,
    0.0 at the exact ratio."""
    lo, hi = (a, b) if a <= b else (b, a)
    lo_num, lo_den = lo.as_integer_ratio()
    hi_num, hi_den = hi.as_integer_ratio()
    num, den = lo_num * hi_den, lo_den * hi_num
    g = math.gcd(num, den)
    if den // g <= DENOMINATOR_CAP:
        return num // g, den // g, 0.0
    goal = max(0.5 * target_entry_error, 1e-13)
    convergents = _convergents(Fraction(num, den))
    h, k = next(convergents)
    for h_next, k_next in convergents:  # the last, x itself, has k above the cap
        if k > DENOMINATOR_CAP:
            break
        # the bound exceeds delta > 1/(lo k (k + k_next)) (Khinchin, Continued
        # Fractions, Thm 13): only convergents within twice the goal are tried
        if lo * k * (k + k_next) * goal >= 0.5:
            continuity = _continuity_bound(lo, hi, h, k)
            if continuity <= goal:
                return h, k, continuity
        h, k = h_next, k_next
    raise PrecisionUnreachable(f"entry ({a!r}, {b!r}) needs a denominator above "
                               f"{DENOMINATOR_CAP} for {target_entry_error:g}")


def _check_size(n: int) -> None:
    """Refuse a Gram build of n dilations, more than ``MAX_DILATIONS``."""
    if n > MAX_DILATIONS:
        raise PrecisionUnreachable(f"a Gram build of {n} dilations holds more than the "
                                   f"{MAX_DILATIONS} one build may hold")


def _lattice(dils: list[float]):
    """The dilations' numerators over their common power-of-two denominator,
    as int64, or None when one does not fit."""
    ratios = [d.as_integer_ratio() for d in dils]
    bits = max(den for _, den in ratios).bit_length()
    nums = [num << (bits - den.bit_length()) for num, den in ratios]
    return None if max(nums) >> 63 else np.array(nums, dtype=np.int64)


def _key_table(keys: np.ndarray, logged: np.ndarray) -> np.ndarray:
    """For each key (q, r) = q 2^20 + r of the sorted ``keys``, the rows -V,
    M, d M, 1/q, q, and ln(h/k), 1 - ln(h/k) of a key (k, h mod k), h = k = 1
    at (1, 0): the rows of a pair's two keys give Vasyunin's formula.  The
    logarithm is ``math.log``'s, which ``np.log`` does not match to the bit,
    and is taken only where ``logged`` is set; the other keys read 0."""
    q, r = (keys // DENOMINATOR_CAP).astype(float), (keys % DENOMINATOR_CAP).astype(float)
    v, magnitude, depth_magnitude = _cot_sums(q, r)
    log_ratio = np.zeros(keys.size)
    ratios = (np.maximum(r[logged], 1.0) / q[logged]).tolist()
    log_ratio[logged] = np.fromiter(map(math.log, ratios), float, len(ratios))
    del ratios  # one Python float per logged key, freed before the table's rows are stacked
    return np.array((-v, magnitude, depth_magnitude, 1.0 / q, q, log_ratio, 1.0 - log_ratio))


def _gram_entries(dils: list[float], target_entry_error: float) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric matrices of I(l_i, l_j) and its certified bound for the
    ascending ``dils``, in three array passes (module docstring): h/k per
    pair, V and M per key (q, r), Vasyunin's formula per pair.  The pairs go
    in blocks of rows [i, i + step) against columns [i, n): the upper
    triangle, and the lower half of each diagonal square, whose entries take
    the same operations as their mirrors.  Each block's keys (k, h mod k),
    then (h, k mod h), fill one array, whose sort gives the distinct keys
    and each pair's two rows of the key table."""
    if not target_entry_error > 0.0:
        raise DomainError("target_entry_error must be positive")
    n = len(dils)
    step = max(1, (1 << 14) // n)  # rows per block: at most 2^14 pairs in flight
    lattice = _lattice(dils)
    shapes = [(min(step, n - i), n - i) for i in range(0, n, step)]
    keys = np.empty(2 * sum(a * b for a, b in shapes), dtype=np.int64)
    continuities = []  # (i, j, bound) of the pairs held to a convergent
    at = 0
    for i, shape in zip(range(0, n, step), shapes):
        if lattice is None:  # every pair goes to _reduced_ratio
            h = np.empty(shape, dtype=np.int64)
            k = np.full_like(h, DENOMINATOR_CAP + 1)
        else:
            h = np.minimum.outer(lattice[i:i + step], lattice[i:])
            k = np.maximum.outer(lattice[i:i + step], lattice[i:])
            g = np.gcd(h, k)
            h //= g
            k //= g
        for a, b in zip(*(x.tolist() for x in (k > DENOMINATOR_CAP).nonzero())):
            if a <= b:  # the mirror in the diagonal square takes the same h/k
                ratio = _reduced_ratio(dils[i + a], dils[i + b], target_entry_error)
                h[a, b], k[a, b], continuity = ratio
                if b < h.shape[0]:
                    h[b, a], k[b, a] = h[a, b], k[a, b]
                if continuity:
                    continuities.append((i + a, i + b, continuity))
        # keys (q, r) = q 2^20 + r, 2^20 the cap, of V(r/q): (k, h mod k) and (h, k mod h)
        for key in (k * DENOMINATOR_CAP + h % k, h * DENOMINATOR_CAP + k % h):
            keys[at:at + h.size] = key.ravel()
            at += h.size
    # a stable sort by the one key: quicksort's argsort would map 256 KB more
    # of numpy's sort code into every process that builds a Gram system
    order = np.lexsort((keys,))
    keys.sort()
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    distinct = keys.compress(first)
    np.cumsum(first, out=keys)  # the sorted keys' rows in the table, plus one
    row_of = np.empty_like(order)  # each key's row, in the order pass 1 wrote them
    row_of[order] = keys
    row_of -= 1
    del order, keys, first
    logged = np.zeros(distinct.size, dtype=bool)
    at = 0
    for shape in shapes:
        logged[row_of[at:at + shape[0] * shape[1]]] = True
        at += 2 * shape[0] * shape[1]
    table = _key_table(distinct, logged)
    matrix, bounds = np.empty((n, n)), np.empty((n, n))
    dil = np.array(dils)
    at = 0
    for i, shape in zip(range(0, n, step), shapes):
        size = shape[0] * shape[1]
        by_k = table.take(row_of[at:at + size].reshape(shape), axis=1)
        by_h = table[:5].take(row_of[at + size:at + 2 * size].reshape(shape), axis=1)
        at += 2 * size
        sums = by_k[:4] + by_h[:4]  # -V(h/k) - V(k/h), M + M', d M + d' M', 1/h + 1/k
        k, h = by_k[4], by_h[4]
        hk2 = 2.0 * h * k
        log_coef = (k - h) / hk2
        cot_coef = math.pi / hk2
        # J and the magnitude of its terms, then both over c = lo/h
        terms = log_coef * by_k[5:]
        terms += 0.5 * _LN_2PI_MINUS_GAMMA * sums[3]
        terms += cot_coef * sums[:2]
        rows, cols = dil[i:i + step], dil[i:]
        c = np.minimum.outer(rows, cols) / h
        terms /= c
        inv_ab = 1.0 / np.multiply.outer(rows, cols)
        np.subtract(terms[0], inv_ab, out=matrix[i:i + step, i:])
        np.add(_CLOSED_FORM_ROUNDOFF * (terms[1] + inv_ab), 2.0**-53 * cot_coef * sums[2] / c,
               out=bounds[i:i + step, i:])
        if i + step < n:  # the rows below take the block's mirror
            matrix[i + step:, i:i + step] = matrix[i:i + step, i + step:].T
            bounds[i + step:, i:i + step] = bounds[i:i + step, i + step:].T
    for i, j, continuity in continuities:
        bounds[i, j] = bounds[j, i] = bounds[i, j] + continuity
    return matrix, bounds


# a hook: bench/tracing.py wraps this name, and it moves into the tests with
# the tracer (ROADMAP item 2)
def pair_product_integral(a: float, b: float, target_entry_error: float) -> tuple[float, float]:
    """(value, certified absolute error) of int_1^inf {t/a}{t/b} dt/t^2:
    the off-diagonal entry of the Gram build of (a, b), bit for bit that of
    every ``gram_system`` build holding the pair.  No subcommand calls it,
    so ``nblab`` does not export it; the tests take it as a one-pair build.

    ``target_entry_error`` governs only pairs whose exact ratio has a
    denominator above ``DENOMINATOR_CAP``; the rest carry roundoff only.
    """
    a, b = _checked_dilation(a), _checked_dilation(b)
    matrix, bounds = _gram_entries(sorted((a, b)), target_entry_error)
    return float(matrix[0, 1]), float(bounds[0, 1])


@dataclass(frozen=True)
class GramSystem:
    """Inner-product data of the basis b_k(t) = {t / l_k} under dt/t^2.

    ``matrix`` holds the pairwise products, certified entrywise within
    ``entry_error_bounds``; ``moment_vector`` holds <1, b_k> from the exact
    closed form (lam + ln l_k)/l_k; ``constraint_vector`` holds 1/l_k.
    """

    dilations: tuple[float, ...]
    matrix: np.ndarray
    moment_vector: np.ndarray
    constraint_vector: np.ndarray
    entry_error_bounds: np.ndarray

    @property
    def size(self) -> int:
        return len(self.dilations)

    def head(self, n: int) -> "GramSystem":
        """Sub-system on the first n dilations; entries are shared, so nested
        families see identical values for common pairs."""
        if not 1 <= n <= self.size:
            raise DomainError(f"head size {n} outside 1..{self.size}")
        return GramSystem(
            dilations=self.dilations[:n],
            matrix=self.matrix[:n, :n],
            moment_vector=self.moment_vector[:n],
            constraint_vector=self.constraint_vector[:n],
            entry_error_bounds=self.entry_error_bounds[:n, :n],
        )

    def quadratic_form(self, h: np.ndarray) -> tuple[float, float]:
        """(h^T (G h), e) with e = |h|^T (E + 4 n u |G|) |h| the certified error
        against the true form: E covers the entries, and gamma_2n <= 4 n u
        (u = 2^-53; Higham, Accuracy and Stability, ch. 3) the roundoff of
        forming h^T (G h)."""
        abs_h = np.abs(h)
        bounds = self.entry_error_bounds + 4 * self.size * 2.0**-53 * np.abs(self.matrix)
        return float(h @ (self.matrix @ h)), float(abs_h @ bounds @ abs_h)

    def to_dict(self) -> dict:
        return {
            "dilations": list(self.dilations),
            "matrix": self.matrix.tolist(),
            "g_vector": self.moment_vector.tolist(),
            "c_vector": self.constraint_vector.tolist(),
            "entry_error_bounds": self.entry_error_bounds.tolist(),
        }


def gram_system(dilations, target_entry_error: float) -> GramSystem:
    """Assemble the Gram data for an ascending list of distinct dilations.

    Every entry comes from the three array passes of the module docstring,
    not from one ``pair_product_integral`` call per entry, with the same
    values and bounds; DuplicateDilation is raised when two dilations
    coincide within relative 1e-12, and PrecisionUnreachable for more than
    ``MAX_DILATIONS``.
    """
    dils = [_checked_dilation(l) for l in dilations]
    if not dils:
        raise DomainError("at least one dilation is required")
    _check_size(len(dils))
    for x, y in zip(dils, dils[1:]):
        if y < x:
            raise DomainError("dilations must be ascending")
        if y - x <= COINCIDENCE_RTOL * y:
            raise DuplicateDilation(f"dilations {x!r} and {y!r} coincide")
    matrix, bounds = _gram_entries(dils, target_entry_error)
    larr = np.array(dils)
    return GramSystem(dilations=tuple(dils), matrix=matrix,
                      moment_vector=(moment_constant() + np.log(larr)) / larr,
                      constraint_vector=1.0 / larr, entry_error_bounds=bounds)
