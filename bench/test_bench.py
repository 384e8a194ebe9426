"""Tests of the benchmark's own code: the oracles reproduce known values,
and a failed check is counted rather than ending the run.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
import run
import tracing
from workloads import WORKLOADS, Step, interleave

FIRST_ZEROS = (14.134725141734693, 21.022039638771555, 25.010857580145688)


def _direct_entry(a: float, b: float, period: float, periods: int = 20_000) -> float:
    """int_1^inf {t/a}{t/b} dt/t^2 when {t/a}{t/b} has the given period:
    exact segment integrals between lattice points up to T = periods *
    period, plus the tail mu/T, with mu the mean of {t/a}{t/b} over a period."""

    def segments(hi):
        pts = np.union1d(a * np.arange(0, math.floor(hi / a) + 1),
                         b * np.arange(0, math.floor(hi / b) + 1))
        t1, t2 = pts[:-1], pts[1:]
        p, q = np.floor(t1 / a + 1e-9), np.floor(t1 / b + 1e-9)  # {t/a} = t/a - p
        return t1, t2, p, q

    t1, t2, p, q = segments(period)
    mean = np.sum((t2**3 - t1**3) / (3 * a * b) - (p / b + q / a) * (t2**2 - t1**2) / 2
                  + p * q * (t2 - t1)) / period
    T = periods * period
    t1, t2, p, q = segments(T)
    t1[0] = 1.0  # the first segment is [0, min(a, b)], where p = q = 0
    u = t2 - t1
    head = np.sum(u / (a * b) - (p / b + q / a) * np.log1p(u / t1) + p * q * u / (t1 * t2))
    return float(head) + float(mean) / T


def test_closed_form_at_one_one():
    expected = oracles.LN_2PI - oracles.EULER_GAMMA - 1.0
    assert oracles.closed_form_entry(Fraction(1), Fraction(1)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("a", [Fraction(2), Fraction(3, 2), Fraction(7)])
def test_closed_form_diagonal_matches_real_formula(a):
    assert oracles.closed_form_entry(a, a) == pytest.approx(oracles.diagonal_entry(float(a)), abs=1e-14)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (3, 5), (4, 6)])
def test_closed_form_matches_direct_summation(a, b):
    assert oracles.closed_form_entry(Fraction(a), Fraction(b)) == pytest.approx(
        _direct_entry(a, b, a * b), abs=1e-9)


@pytest.mark.parametrize("a", [math.pi, math.sqrt(2.0)])
def test_diagonal_formula_holds_for_irrational_dilations(a):
    assert oracles.diagonal_entry(a) == pytest.approx(_direct_entry(a, a, a), abs=1e-9)


def test_kkt_distance_matches_one_dimensional_minimum():
    G = oracles.closed_form_gram([1.0, 2.0])
    g = oracles.moment_vector([1.0, 2.0])
    # c.h = 0 leaves h = s (1, -2); minimise the quadratic in s
    v = np.array([1.0, -2.0])
    expected = 1.0 - (g @ v) ** 2 / (v @ G @ v)
    assert oracles.kkt_distance_sq(G, g, np.array([1.0, 0.5])) == pytest.approx(expected, abs=1e-14)


def test_kkt_distance_reproduces_readme_value_at_n_5():
    dils = [1.0, 2.0, 3.0, 4.0, 5.0]
    d2 = oracles.kkt_distance_sq(oracles.closed_form_gram(dils), oracles.moment_vector(dils),
                                 1.0 / np.array(dils))
    assert math.sqrt(d2) == pytest.approx(0.191, abs=5e-4)


def test_gram_check_accepts_closed_form_and_rejects_a_perturbed_entry():
    dils = [1.0, 1.5, 2.0]
    G = oracles.closed_form_gram(dils)
    res = {"dilations": dils, "matrix": G.tolist(),
           "entry_error_bounds": np.full((3, 3), 1e-9).tolist(),
           "g_vector": oracles.moment_vector(dils).tolist(),
           "c_vector": (1.0 / np.array(dils)).tolist()}
    oracles.check_gram_output(res, rational=True)
    G[0, 2] = G[2, 0] = G[0, 2] + 1e-8
    res["matrix"] = G.tolist()
    with pytest.raises(oracles.CheckFailed):
        oracles.check_gram_output(res, rational=True)


def test_rational_ratio():
    assert oracles.rational_ratio(1.5, 2.5)
    assert oracles.rational_ratio(3.0, 1.0)
    assert not oracles.rational_ratio(1.0, math.sqrt(2.0))
    assert not oracles.rational_ratio(math.e, math.pi)


@pytest.fixture(scope="module")
def zero_oracle():
    return oracles.ZeroOracle()


@pytest.mark.parametrize("t", FIRST_ZEROS)
def test_siegelz_brackets_the_first_zeros(zero_oracle, t):
    assert zero_oracle.brackets(t, 1e-6)


def test_siegelz_has_no_sign_change_away_from_zeros(zero_oracle):
    assert not zero_oracle.brackets(15.0, 1e-6)
    assert not zero_oracle.brackets(FIRST_ZEROS[0] + 1e-3, 1e-6)


def test_zero_check_counts_and_locates(zero_oracle):
    ts = [round(t, 7) for t in FIRST_ZEROS]
    zero_oracle.check_zeros_output({"ordinates": ts, "count": 3}, 26.0, 1e-6)
    with pytest.raises(oracles.CheckFailed, match="nzeros"):
        zero_oracle.check_zeros_output({"ordinates": ts[:2], "count": 2}, 26.0, 1e-6)
    with pytest.raises(oracles.CheckFailed, match="sign"):
        zero_oracle.check_zeros_output({"ordinates": [ts[0], ts[1] + 1e-3, ts[2]], "count": 3},
                                       26.0, 1e-6)


def test_norm_identity_rejects_a_wrong_distance():
    approx = {"distance": 0.7, "certified_error": 1e-9}
    moment = {"closed_form": 0.25, "quad_error_bound": 1e-11}
    norm = {"norm": 0.5, "abs_error_bound": 1e-7, "p": 2.0}
    with pytest.raises(oracles.CheckFailed):  # d^2 = 0.49, 1 - 2 Theta + |b|^2 = 0.75
        oracles.check_norm2_output(norm, approx, moment)
    oracles.check_norm2_output(norm, {**approx, "distance": math.sqrt(0.75)}, moment)


def _echo_step(argv, check):
    return Step(tuple(argv), check)


def test_failed_check_is_counted_and_its_chain_stops():
    def bad(res, _prior):
        raise oracles.CheckFailed("wrong on purpose")

    chains = [
        [_echo_step(["a"], lambda res, _p: None), _echo_step(["b"], lambda res, _p: None)],
        [_echo_step(["c"], bad), _echo_step(["d"], lambda res, _p: None)],
        [_echo_step(["e"], lambda res, _p: None)],
    ]
    outputs = {"a": '{"result": {}}', "b": '{"result": {}}', "c": '{"result": {}}',
               "e": "not json"}
    called = []

    def call(argv, _stdin):
        called.append(argv[0])
        return 0, outputs[argv[0]], "", 0.01

    tally = run.Tally()
    run.run_round(call, chains, interleave(chains, random.Random(0)), tally)
    assert tally.attempted == 5
    assert sorted(tally.reasons[k].split(":")[0] for k in tally.failed_steps) == ["c", "d", "e"]
    assert "d" not in called
    assert tally.consistent()
    assert tally.round_s == [pytest.approx(0.04)]


def test_nonzero_exit_is_a_failure():
    chains = [[_echo_step(["x"], lambda res, _p: None)]]
    tally = run.Tally()
    run.run_round(lambda argv, stdin: (2, "", "precision failure", 0.5), chains, [(0, 0)], tally)
    assert tally.failed == 1 and "exit 2" in tally.reasons[(0, 0)]


def test_interleave_keeps_chain_order_and_depends_only_on_seed():
    chains = WORKLOADS["irrational-verify"].chains()
    first = interleave(chains, random.Random("s/1"))
    assert first == interleave(chains, random.Random("s/1"))
    for ci, chain in enumerate(chains):
        assert [si for c, si in first if c == ci] == list(range(len(chain)))


def test_every_seed_runs_the_same_operations():
    workload = WORKLOADS["commensurate-sweep"]
    plans = [run.plan(workload, seed, 30.0) for seed in (1, 2)]
    assert len(plans[0][1]) == len(plans[1][1])
    assert sorted(plans[0][1][0]) == sorted(plans[1][1][0])


def test_tail_has_ten_operations_beyond_it():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_self_time_subtracts_children():
    name = np.array([tracing._ID["cli.run"], tracing._ID["zeta.find_critical_zeros"],
                     tracing._ID["zeta.xi"], tracing._ID["gammafn.gamma"]])
    parent = np.array([-1, 0, 1, 2])
    dur = np.array([1.0, 0.8, 0.5, 0.1])
    value = np.array([100.0, 1.0, 320.0, 0.0])
    m = tracing.layer_metrics(name, parent, dur, value)
    assert m["cli.run.self_s"] == pytest.approx(0.2)
    assert m["zeta.find_critical_zeros.self_s"] == pytest.approx(0.3)
    assert m["zeta.xi.s"] == pytest.approx(0.5)
    assert m["zeta.xi_per_zero"] == 1.0
    assert m["zeta.xi.terms_mean"] == 320.0
    assert m["cli.out_bytes"] == 100.0
    assert set(m) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_benchmark_json_names_every_metric():
    with open(run.os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
