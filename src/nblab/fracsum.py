"""Finite combinations of dilated fractional parts and their step structure.

``DilatedFracSum`` represents phi(t) = sum_k h_k {t / l_k} on (1, inf),
dilations l_k in [1, inf).  With the linear constraint sum_k h_k / l_k = 0
these are right-continuous step functions, constant between the lattice
points m * l_k and jumping by -h_k at each of them (coincident points add
their jumps).  The substitution t -> 1/t carries them onto the paper's form
sum_k c_k {theta_k / t} on (0, 1), with c_k = h_k, theta_k = 1/l_k and the
constraint sum_k c_k theta_k = 0.

{x} denotes x - floor(x), so {m} = 0 at integers and every sum here is
right-continuous.  The ``constrained`` flag is explicit rather than inferred
so that single basis elements {t/l} remain representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolated, DomainError

__all__ = ["DilatedFracSum", "StepProfile", "step_profile"]

#: relative tolerance for treating two dilations or breakpoints as coincident
COINCIDENCE_RTOL = 1e-12

#: absolute slack allowed in the linear constraint of a constrained sum
CONSTRAINT_TOL = 1e-12


def _checked_dilation(l: float) -> float:
    l = float(l)
    if not math.isfinite(l) or l < 1.0 - COINCIDENCE_RTOL:
        raise DomainError(f"dilation {l!r} outside [1, inf)")
    return l


def _merge_terms(terms):
    cleaned: list[tuple[float, float]] = []
    for coeff, dil in terms:
        try:
            coeff, dil = float(coeff), float(dil)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"non-numeric term ({coeff!r}, {dil!r})") from exc
        if not math.isfinite(coeff):
            raise DomainError(f"non-finite term ({coeff!r}, {dil!r})")
        cleaned.append((coeff, _checked_dilation(dil)))
    if not cleaned:
        raise DomainError("at least one term is required")
    cleaned.sort(key=lambda hl: hl[1])
    merged: list[tuple[float, float]] = []
    for coeff, dil in cleaned:
        if merged and dil - merged[-1][1] <= COINCIDENCE_RTOL * dil:
            merged[-1] = (merged[-1][0] + coeff, merged[-1][1])
        else:
            merged.append((coeff, dil))
    return tuple(merged)


@dataclass(frozen=True)
class DilatedFracSum:
    """sum_k h_k {t / l_k} on (1, inf); immutable after construction.

    Terms are stored sorted by dilation with coincident dilations merged by
    coefficient addition.  When ``constrained`` is set the combination must
    satisfy sum h_k / l_k = 0 within CONSTRAINT_TOL (scaled).
    """

    terms: tuple[tuple[float, float], ...]
    constrained: bool = False

    def __post_init__(self):
        merged = _merge_terms(self.terms)
        object.__setattr__(self, "terms", merged)
        if self.constrained:
            self.check_constraint()

    def check_constraint(self) -> None:
        """ConstraintViolated unless |sum h/l| <= CONSTRAINT_TOL max(1, sum |h|/l).

        Both sides are compared over a power of two s near max |h|, which
        leaves every rounding as it is and keeps sum |h|/l from overflowing.
        """
        total = self.constraint_sum
        scale = math.ldexp(1.0, math.frexp(max(abs(h) for h, _ in self.terms))[1] - 1)
        size = sum(abs(h) / scale / l for h, l in self.terms)
        if abs(sum(h / scale / l for h, l in self.terms)) > CONSTRAINT_TOL * max(1.0 / scale, size):
            raise ConstraintViolated(
                f"sum h/l = {total!r} violates the constraint within {CONSTRAINT_TOL}"
            )

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([h for h, _ in self.terms])

    @property
    def dilations(self) -> np.ndarray:
        return np.array([l for _, l in self.terms])

    @property
    def constraint_sum(self) -> float:
        return float(sum(h / l for h, l in self.terms))

    @property
    def abs_coeff_sum(self) -> float:
        return float(sum(abs(h) for h, _ in self.terms))

    def __call__(self, t):
        """Evaluate at t > 1 (scalar or array); right-continuous at breakpoints."""
        arr = np.asarray(t, dtype=np.float64)
        if np.any(arr <= 1.0):
            raise DomainError("dilated sums are defined on (1, inf)")
        out = np.zeros_like(arr)
        self._add_into(arr, out, np.empty((2,) + arr.shape))
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def _add_into(self, t: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out += sum_k h_k {t / l_k} in place, term by term, in the two
        rows of scratch, each of t's shape; the domain check is the caller's."""
        x, whole = scratch[0, ...], scratch[1, ...]
        for h, l in self.terms:
            np.divide(t, l, out=x)
            np.floor(x, out=whole)
            x -= whole
            x *= h
            out += x

    def to_dict(self) -> dict:
        return {
            "terms": [{"h": h, "l": l} for h, l in self.terms],
            "constrained": self.constrained,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DilatedFracSum":
        try:
            terms = tuple((item["h"], item["l"]) for item in data["terms"])
            constrained = data.get("constrained", False)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed dilated-sum payload: {exc}") from exc
        if not isinstance(constrained, bool):
            raise DomainError(f"constrained must be a JSON boolean, got {constrained!r}")
        for term in terms:
            # float() would take "2" and True; JSON terms must be numbers
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in term):
                raise DomainError(f"term (h, l) = {term!r} must be JSON numbers")
        return cls(terms=terms, constrained=constrained)


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
    jumps: tuple[tuple[float, float], ...] = field(default=())


def step_profile(phi: DilatedFracSum, T: float) -> StepProfile:
    """Breakpoints {m l_k} in (1, T], interval values, and merged jumps.

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
