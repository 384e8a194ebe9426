import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import random_constrained_sum, step_profile
from nblab import ConstraintViolated, DilatedFracSum, DomainError

PHI_EXAMPLE = DilatedFracSum(terms=((-1.0, 1.0), (2.0, 2.0)), constrained=True)


def test_eval_single_term():
    phi = DilatedFracSum(terms=((1.0, 2.0),))
    assert phi(3.0) == 0.5  # frac(1.5)


def test_eval_combination():
    assert PHI_EXAMPLE(1.5) == pytest.approx(1.0, abs=1e-15)  # -0.5 + 2*0.75


def test_limit_at_one_from_the_right():
    # the zero limit needs every dilation above 1
    phi = DilatedFracSum(terms=((2.0, 2.0), (-4.0, 4.0)), constrained=True)
    assert abs(phi(1.0 + 1e-9)) < 1e-6


def test_limit_at_one_with_unit_dilation_present():
    # a dilation equal to 1 contributes {t} -> 0 instead of 1/l, so the
    # right limit becomes the constraint sum minus the unit-dilation share
    assert PHI_EXAMPLE(1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_eval_array_matches_scalars():
    ts = np.array([1.5, 2.5, 3.75])
    vals = PHI_EXAMPLE(ts)
    assert vals.shape == ts.shape
    for t, v in zip(ts, vals):
        assert PHI_EXAMPLE(float(t)) == v


def test_eval_domain_error():
    with pytest.raises(DomainError):
        PHI_EXAMPLE(1.0)
    with pytest.raises(DomainError):
        PHI_EXAMPLE(0.5)


def test_terms_sorted_and_merged():
    phi = DilatedFracSum(terms=((1.0, 3.0), (2.0, 1.5), (0.5, 3.0)))
    assert phi.terms == ((2.0, 1.5), (1.5, 3.0))


def test_constraint_enforced_when_flagged():
    with pytest.raises(ConstraintViolated):
        DilatedFracSum(terms=((1.0, 2.0),), constrained=True)
    DilatedFracSum(terms=((1.0, 2.0),), constrained=False)  # fine unflagged


def test_constraint_does_not_pass_by_overflow():
    # sum |h|/l overflows to inf, so an unscaled tolerance would pass any sum
    with pytest.raises(ConstraintViolated, match="violates the constraint"):
        DilatedFracSum(terms=((1.5e308, 1.0), (-1.5e308, 1.0000001)), constrained=True)
    DilatedFracSum(terms=((1.5e308, 1.0), (-1.5e308 * 1.0000001, 1.0000001)), constrained=True)


@pytest.mark.parametrize("size", [1e-300, 1e-8, 1.0, 3.0, 1e8, 1e300])
def test_scaled_constraint_decides_as_the_unscaled_rule(size):
    # off the overflow, comparing both sides over a power of two changes no rounding
    rng = np.random.default_rng(5)
    outcomes = []
    for _ in range(200):
        h = size * rng.standard_normal(3)
        l = 1.0 + 3.0 * rng.random(3)
        miss = rng.choice([0.0, 1e-13, 1e-12, 3e-12])
        h[2] = -l[2] * (h[0] / l[0] + h[1] / l[1]) * (1.0 + miss)
        phi = DilatedFracSum(terms=tuple(zip(h.tolist(), l.tolist())))
        total = abs(sum(a / b for a, b in phi.terms))
        unscaled = total <= 1e-12 * max(1.0, sum(abs(a) / b for a, b in phi.terms))
        try:
            phi.check_constraint()
            outcomes.append(True)
        except ConstraintViolated:
            outcomes.append(False)
        assert outcomes[-1] == unscaled
    assert size < 1.0 or set(outcomes) == {True, False}


def test_dilation_domain():
    with pytest.raises(DomainError):
        DilatedFracSum(terms=((1.0, 0.5),))
    with pytest.raises(DomainError):
        DilatedFracSum(terms=((math.nan, 2.0),))


def test_json_round_trip():
    data = PHI_EXAMPLE.to_dict()
    assert data == {
        "terms": [{"h": -1.0, "l": 1.0}, {"h": 2.0, "l": 2.0}],
        "constrained": True,
    }
    assert DilatedFracSum.from_dict(data) == PHI_EXAMPLE


def unit_sum(terms, t: float) -> float:
    """Oracle for the paper's form sum_k c_k {theta_k / t} on (0, 1), from
    (c_k, theta_k) pairs, evaluated term by term."""
    return sum(c * (th / t - math.floor(th / t)) for c, th in terms)


def test_unit_sum_eval():
    assert unit_sum(((1.0, 1.0),), 0.4) == 0.5  # frac(2.5)
    assert unit_sum(((1.0, 0.5),), 0.5) == 0.0  # frac(1) = 0
    assert unit_sum(((2.0, 0.5), (-1.0, 1.0)), 0.3) == pytest.approx(1.0, abs=1e-12)


def test_transform_examples():
    # t -> 1/t maps (c, theta) onto (h = c, l = 1/theta), constraint included
    psi = DilatedFracSum(terms=((1.0, 1.0 / 0.5),))
    assert psi(4.0) == 0.0 == unit_sum(((1.0, 0.5),), 0.25)  # frac(2) = 0
    combo = DilatedFracSum(terms=((2.0, 1.0 / 0.5), (-1.0, 1.0 / 1.0)), constrained=True)
    assert combo.terms == ((-1.0, 1.0), (2.0, 2.0))
    assert combo(1.0 / 0.3) == pytest.approx(unit_sum(((2.0, 0.5), (-1.0, 1.0)), 0.3), abs=1e-12)


@given(
    terms=st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(0.02, 1.0, exclude_min=True),
        ),
        min_size=1,
        max_size=5,
    ),
    t=st.floats(1.0001, 100.0),
)
@example(terms=[(1.0, 1.0)], t=99.0)
@example(terms=[(0.0, 1.0), (2.0, 0.9999999999998099)], t=5.5)
def test_transform_consistency(terms, t):
    psi = DilatedFracSum(terms=tuple((c, 1.0 / th) for c, th in terms))
    # next to a jump, t and 1/(1/t) may round to opposite sides of it
    for _, l in psi.terms:
        x = t / l
        assume(abs(x - round(x)) >= 1e-9 * x)
    # a dilation within COINCIDENCE_RTOL of another is merged into it, which
    # moves c {theta t} by at most |c| t |theta - 1/l'| (l' the merged dilation)
    merged = psi.dilations
    drift = sum(
        abs(c) * t * abs(th - 1.0 / merged[np.argmin(np.abs(merged - 1.0 / th))])
        for c, th in terms
    )
    assert abs(psi(t) - unit_sum(terms, 1.0 / t)) <= 1e-12 * (1.0 + abs(psi(t))) + drift


@given(
    terms=st.lists(
        st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(1.0, 60.0)),
        min_size=1,
        max_size=6,
    ),
    t=st.floats(1.0 + 1e-9, 1e6),
)
def test_boundedness(terms, t):
    phi = DilatedFracSum(terms=tuple(terms))
    assert abs(phi(t)) <= phi.abs_coeff_sum + 1e-12
    # tighter: {x} lies in [0, 1), so phi lies between the sums of its
    # negative and of its positive coefficients (the p < 2 norm tail uses it)
    h = phi.coeffs
    assert float(np.sum(h[h < 0.0])) - 1e-12 <= phi(t) <= float(np.sum(h[h > 0.0])) + 1e-12


def test_step_profile_example():
    profile = step_profile(PHI_EXAMPLE, 4.5)
    assert profile.breakpoints == (2.0, 3.0, 4.0)
    # coincidence 2*1 = 1*2 merges the jumps: -(-1) - 2 = -1
    assert profile.jumps[0] == (2.0, -1.0)
    assert profile.jumps[1] == (3.0, 1.0)
    assert profile.jumps[2] == (4.0, -1.0)
    for t in np.linspace(1.1, 1.9, 5):
        assert PHI_EXAMPLE(float(t)) == pytest.approx(1.0, abs=1e-15)


def test_step_profile_unconstrained_rejected():
    with pytest.raises(ConstraintViolated):
        step_profile(DilatedFracSum(terms=((1.0, 1.5),)), 10.0)


def test_step_profile_domain():
    with pytest.raises(DomainError):
        step_profile(PHI_EXAMPLE, 1.0)


def test_step_profile_right_continuity(rng):
    phi = random_constrained_sum(rng, dilation_low=1.05, dilation_high=12.0)
    profile = step_profile(phi, 40.0)
    for b, v in zip(profile.breakpoints, profile.values[1:]):
        # the stored breakpoint is a float approximation of the true jump
        # location, so the right limit is probed just past the rounding zone
        assert phi(b * (1.0 + 1e-12)) == pytest.approx(v, abs=1e-9)


def test_step_profile_right_continuity_exact_lattice():
    profile = step_profile(PHI_EXAMPLE, 4.5)
    for b, v in zip(profile.breakpoints, profile.values[1:]):
        assert PHI_EXAMPLE(b) == v  # integer lattice evaluates exactly


def test_step_profile_flat_between_breakpoints(rng):
    for _ in range(10):
        phi = random_constrained_sum(rng, dilation_low=1.05, dilation_high=20.0)
        profile = step_profile(phi, 30.0)
        edges = (1.0,) + profile.breakpoints + (30.0,)
        for idx in range(len(edges) - 1):
            a, b = edges[idx], edges[idx + 1]
            if b - a < 1e-9:
                continue
            ts = rng.uniform(a + 1e-9 * b, b - 1e-9 * b, size=10)
            vals = phi(ts)
            assert np.max(np.abs(vals - profile.values[idx])) < 1e-12


def test_step_profile_jumps_match_value_differences(rng):
    for _ in range(10):
        phi = random_constrained_sum(rng, dilation_low=1.05, dilation_high=20.0)
        profile = step_profile(phi, 30.0)
        for idx, (point, jump) in enumerate(profile.jumps):
            assert profile.values[idx + 1] - profile.values[idx] == pytest.approx(
                jump, abs=1e-12
            ), f"jump mismatch at {point}"


def test_merged_zero_function():
    phi = DilatedFracSum(terms=((-1.0, 1.0), (1.0, 1.0)), constrained=True)
    assert phi.terms == ((0.0, 1.0),)
    assert phi(7.3) == 0.0
