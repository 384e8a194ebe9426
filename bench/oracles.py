"""Independent oracles for the outputs of the nblab command line.

Nothing here imports nblab.  Each check either recomputes a quantity by a
route the program does not use, or tests a property the method must have,
and raises ``CheckFailed`` with a one-line reason when the output disagrees.

* Gram entries of commensurate dilations come from Vasyunin's cotangent-sum
  closed form (Vasyunin 1995; Bettin-Conrey 2013): with a = c h, b = c k and
  gcd(h, k) = 1,

      I(a, b) = J(h, k) / c - 1 / (a b),
      J(h, k) = (ln 2 pi - gamma)/2 (1/h + 1/k) + (k - h)/(2 h k) ln(h/k)
                - pi/(2 h k) (V(h/k) + V(k/h)),
      V(h/k)  = sum_{m<k} {m h / k} cot(pi m / k).

* Distances are re-solved from the KKT system of the constrained least
  squares problem (the program eliminates the constraint and uses an
  eigen-solve instead).
* Critical-line zeros are counted by ``mpmath.nzeros`` and located by sign
  changes of Hardy's Z function, ``mpmath.siegelz``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.57721566490153286061
LN_2PI = math.log(2.0 * math.pi)
LAM = 1.0 - EULER_GAMMA

#: slack for the oracle's own floating-point roundoff
ROUNDOFF = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with an oracle."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------- Gram data


def exact_dilation(x: float, max_den: int = 1 << 20) -> Fraction | None:
    """The rational value of a printed dilation, or None if it has none with
    a denominator up to ``max_den`` (dyadic inputs are recovered exactly)."""
    frac = Fraction(x).limit_denominator(max_den)
    return frac if float(frac) == x else None


def rational_ratio(a: float, b: float, max_den: int = 10_000) -> bool:
    """True when a/b is a rational with denominator at most ``max_den``."""
    ratio = a / b
    frac = Fraction(ratio).limit_denominator(max_den)
    return abs(ratio - float(frac)) <= 1e-12 * ratio


def cot_sum(h: int, k: int) -> float:
    """V(h/k) = sum_{m=1}^{k-1} {m h / k} cot(pi m / k); {m h / k} is exact."""
    if k == 1:
        return 0.0
    m = np.arange(1, k)
    frac = ((m * h) % k) / k
    return float(np.sum(frac / np.tan(np.pi * m / k)))


def vasyunin_j(h: int, k: int) -> float:
    return (
        0.5 * (LN_2PI - EULER_GAMMA) * (1.0 / h + 1.0 / k)
        + (k - h) / (2.0 * h * k) * math.log(h / k)
        - math.pi / (2.0 * h * k) * (cot_sum(h, k) + cot_sum(k, h))
    )


def closed_form_entry(a: Fraction, b: Fraction) -> float:
    """int_1^inf {t/a}{t/b} dt/t^2 for rational a, b >= 1."""
    ratio = a / b
    h, k = ratio.numerator, ratio.denominator
    c = a / h
    return vasyunin_j(h, k) / float(c) - 1.0 / float(a * b)


def closed_form_gram(dilations) -> np.ndarray:
    exact = [exact_dilation(x) for x in dilations]
    require(all(e is not None for e in exact), "dilations are not rational")
    n = len(exact)
    G = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = closed_form_entry(exact[i], exact[j])
    return G


def diagonal_entry(a: float) -> float:
    """I(a, a) = (ln 2 pi - gamma)/a - 1/a^2, valid for every real a >= 1."""
    return (LN_2PI - EULER_GAMMA) / a - 1.0 / (a * a)


def moment_vector(dilations) -> np.ndarray:
    larr = np.asarray(dilations, dtype=float)
    return (LAM + np.log(larr)) / larr


def theta_log_sum(h, dilations) -> float:
    larr = np.asarray(dilations, dtype=float)
    return math.fsum(np.asarray(h) / larr * np.log(larr))


def kkt_distance_sq(G: np.ndarray, g: np.ndarray, c: np.ndarray) -> float:
    """min 1 - 2 g.h + h.G h subject to c.h = 0, from the KKT system."""
    n = len(g)
    if n == 1:
        return 1.0
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = G
    K[:n, n] = c
    K[n, :n] = c
    h = np.linalg.solve(K, np.concatenate((g, [0.0])))[:n]
    return 1.0 - 2.0 * float(g @ h) + float(h @ G @ h)


# ---------------------------------------------------------------- outputs


def check_gram_output(res: dict, rational: bool) -> None:
    """Entries, moment vector and constraint vector of ``nblab gram``."""
    dils = res["dilations"]
    G = np.asarray(res["matrix"])
    bounds = np.asarray(res["entry_error_bounds"])
    n = len(dils)
    require(G.shape == (n, n) and bounds.shape == (n, n), "matrix shape")
    require(np.array_equal(G, G.T), "matrix not symmetric")
    require(bool(np.all(bounds > 0.0)), "non-positive entry error bound")
    if rational:
        ref = closed_form_gram(dils)
        worst = float(np.max(np.abs(G - ref) - bounds))
        require(worst <= ROUNDOFF, f"entry off closed form by {worst:.3g} beyond its bound")
    else:
        diag = np.array([diagonal_entry(a) for a in dils])
        worst = float(np.max(np.abs(np.diag(G) - diag) - np.diag(bounds)))
        require(worst <= ROUNDOFF, f"diagonal off (ln 2pi - gamma)/a - 1/a^2 by {worst:.3g}")
        d = np.sqrt(np.diag(G) + np.diag(bounds))
        excess = float(np.max(np.abs(G) - bounds - np.outer(d, d)))
        require(excess <= ROUNDOFF, "entry breaks Cauchy-Schwarz")
    lowest = float(np.linalg.eigvalsh(G)[0])
    require(lowest >= -n * float(np.max(bounds)), "Gram matrix not positive semidefinite")
    require(np.allclose(res["g_vector"], moment_vector(dils), rtol=0, atol=ROUNDOFF),
            "moment vector off (lam + ln l)/l")
    require(np.allclose(res["c_vector"], 1.0 / np.asarray(dils), rtol=0, atol=ROUNDOFF),
            "constraint vector off 1/l")


def _check_solution(dils, h, distance, theta, gap, tol) -> None:
    require(0.0 <= distance <= 1.0, "distance outside [0, 1]")
    require(abs(theta - theta_log_sum(h, dils)) <= 1e-10 * (1.0 + float(np.sum(np.abs(h)))),
            "theta_log_sum is not sum h/l ln l")
    require(abs(gap - abs(theta - 1.0)) <= ROUNDOFF, "gap is not |theta - 1|")
    require(gap <= distance + tol, f"gap {gap:.6g} exceeds distance {distance:.6g}")


def check_distance(dils, distance: float, tol: float) -> None:
    """d^2 against the oracle's own solve on the closed-form Gram."""
    ref = kkt_distance_sq(closed_form_gram(dils), moment_vector(dils), 1.0 / np.asarray(dils))
    diff = abs(distance * distance - ref)
    require(diff <= tol, f"d^2 off the oracle solve by {diff:.3g} (target {tol:g})")


def check_approx_output(res: dict, target: float, rational: bool) -> None:
    dils = res["dilations"]
    h = np.asarray(res["h_star"])
    _check_solution(dils, h, res["distance"], res["theta_log_sum"], res["gap"],
                    res["certified_error"])
    require(res["certified_error"] <= target, "certified error above the target")
    require(abs(float(h @ (1.0 / np.asarray(dils)))) <= 1e-10 * (1.0 + float(np.sum(np.abs(h)))),
            "coefficients break the constraint")
    bstar = res["bstar"]
    require([t["l"] for t in bstar["terms"]] == dils and [t["h"] for t in bstar["terms"]] == list(h),
            "bstar does not carry the optimal coefficients")
    if rational:
        check_distance(dils, res["distance"], target)


def check_sweep_output(res: dict, target: float) -> None:
    records = res["records"]
    require(len(records) > 0, "no sweep records")
    prev = math.inf
    for rec in records:
        require(len(rec["dilations"]) == rec["N"] == len(rec["h_star"]), "record size")
        _check_solution(rec["dilations"], np.asarray(rec["h_star"]), rec["distance"],
                        rec["theta_log_sum"], rec["gap"], ROUNDOFF)
        require(rec["distance"] <= prev + 1e-9, f"distance rises at N = {rec['N']}")
        prev = rec["distance"]
        check_distance(rec["dilations"], rec["distance"], target)


def check_moment_output(res: dict, bstar: dict) -> None:
    h = [t["h"] for t in bstar["terms"]]
    dils = [t["l"] for t in bstar["terms"]]
    require(abs(res["integral_value"] - res["closed_form"]) <= res["quad_error_bound"] + ROUNDOFF,
            "quadrature off the closed form beyond quad_error_bound")
    require(abs(res["closed_form"] - theta_log_sum(h, dils)) <= ROUNDOFF,
            "closed form is not sum h/l ln l")
    require(abs(res["lambda_used"] - LAM) <= ROUNDOFF, "lambda is not 1 - gamma")


def check_norm2_output(res: dict, approx: dict, moment: dict) -> None:
    """d^2 = 1 - 2 Theta + |b*|_2^2, within the sum of the three bounds."""
    norm, err = res["norm"], res["abs_error_bound"]
    theta, theta_err = moment["closed_form"], moment["quad_error_bound"]
    lhs = approx["distance"] ** 2
    rhs = 1.0 - 2.0 * theta + norm * norm
    slack = approx["certified_error"] + 2.0 * theta_err + (2.0 * norm + err) * err + ROUNDOFF
    require(abs(lhs - rhs) <= slack,
            f"d^2 = {lhs:.9g} but 1 - 2 Theta + |b|^2 = {rhs:.9g} (slack {slack:.3g})")


def check_norm_p_output(res: dict, norm2: dict) -> None:
    """|b*|_p <= |b*|_2 for p < 2, since the weight is a probability measure."""
    require(res["p"] < 2.0, "expected p < 2")
    require(res["norm"] <= norm2["norm"] + res["abs_error_bound"] + norm2["abs_error_bound"],
            f"|b|_{res['p']:g} = {res['norm']:.9g} exceeds |b|_2 = {norm2['norm']:.9g}")


#: |Z| below which a double-precision value of Z is re-evaluated in mpmath's
#: multiprecision context (fp.siegelz is within ~1e-12 absolute for t <= 600)
FP_SIGN_FLOOR = 1e-9


class ZeroOracle:
    """Zero counts and sign changes of Hardy's Z from mpmath, memoised per run
    (every zeros operation of a run reports the same ordinates again)."""

    def __init__(self):
        import mpmath

        self._mp = mpmath
        self._counts: dict[float, int] = {}
        self._brackets: dict[tuple[float, float], bool] = {}

    def count(self, t_max: float) -> int:
        if t_max not in self._counts:
            self._counts[t_max] = int(self._mp.nzeros(t_max))
        return self._counts[t_max]

    def brackets(self, t: float, tol: float) -> bool:
        key = (t, tol)
        if key not in self._brackets:
            lo, hi = self._mp.fp.siegelz(t - tol), self._mp.fp.siegelz(t + tol)
            if min(abs(lo), abs(hi)) < FP_SIGN_FLOOR:  # too small to trust its sign
                lo, hi = self._mp.siegelz(t - tol), self._mp.siegelz(t + tol)
            self._brackets[key] = bool(lo * hi < 0)
        return self._brackets[key]

    def check_zeros_output(self, res: dict, t_max: float, tol: float) -> None:
        ts = res["ordinates"]
        require(res["count"] == len(ts), "count is not the number of ordinates")
        require(all(0.0 < a < b for a, b in zip(ts, ts[1:])), "ordinates not ascending")
        require(all(t <= t_max for t in ts), "ordinate beyond t-max")
        true_count = self.count(t_max)
        require(len(ts) == true_count,
                f"{len(ts)} zeros reported up to {t_max:g}, mpmath.nzeros gives {true_count}")
        for t in ts:
            require(self.brackets(t, tol), f"Z(t) keeps its sign on [{t} - tol, {t} + tol]")
