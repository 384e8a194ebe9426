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
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, DomainError

__all__ = ["DilatedFracSum"]

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
