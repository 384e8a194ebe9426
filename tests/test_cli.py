import importlib
import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import euler_gamma
from nblab.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_OK, err
    return json.loads(out, parse_constant=reject_constant)


def test_zeta_subcommand():
    payload = invoke_json(["zeta", "--re", "2", "--target", "1e-12"])
    assert payload["config"]["subcommand"] == "zeta"
    assert abs(payload["result"]["re"] - math.pi**2 / 6.0) < 1e-12
    assert payload["result"]["abs_error_estimate"] <= 1e-12
    # past Re s ~ 4e307 the strip term of the remainder bound was 0 * -inf
    payload = invoke_json(["zeta", "--re", "1e308"])
    assert payload["result"]["re"] == 1.0
    assert payload["result"]["abs_error_estimate"] <= 1e-12


def test_xi_and_fe_check():
    payload = invoke_json(["xi", "--re", "0.5", "--im", "0"])
    assert abs(payload["result"]["im"]) < 1e-12
    payload = invoke_json(["fe-check", "--re", "0.5", "--im", "3"])
    assert payload["result"]["residual"] <= payload["result"]["abs_error_bound"] < 1e-9
    # at u = 1 - s = -2 both sides would be zeta's reflection route
    code, out, err = invoke(["fe-check", "--re", "3"])
    assert (code, out) == (EXIT_DOMAIN, "") and "0 < Re s < 1" in err


@pytest.mark.parametrize("re", ["0", "1", "1.0000000000001", "1e-13", "1e-9"])
def test_fe_check_at_and_beside_zero_and_one(re):
    # the right side is zeta's own reflection route at u = s or 1 - s, which
    # reads W(1 - u) and so meets no pole at u = 0; where Re u <= 0 both
    # sides would be that one value, so s = 0, 1 and past 1 are refused.
    # At s = 1e-9 a right side through zeta(1 - u) lost 2.8e-8 of its value
    # to rounding 1 - u next to the pole, a residual of 9.4e-9 outside its
    # bound of 8.2e-14
    if not 0.0 < float(re) < 1.0:
        assert invoke(["fe-check", "--re", re])[0] == EXIT_DOMAIN
        return
    result = invoke_json(["fe-check", "--re", re])["result"]
    assert result["residual"] <= result["abs_error_bound"] < 1e-12


@pytest.mark.parametrize("argv", [["zeta", "--re", "5e-324"], ["zeta", "--re", "1e-323"],
                                  ["xi", "--re", "5e-324"], ["fe-check", "--re", "5e-324"]],
                         ids=" ".join)
def test_subnormal_s_is_within_its_claim(argv):
    # at a subnormal s the factor |B_2|/2! |s| / (sigma + 1) of W's R_0
    # underflowed to 0, and its logarithm raised ValueError out of run
    result = invoke_json(argv)["result"]
    if argv[0] == "fe-check":
        assert result["residual"] <= result["abs_error_bound"]
        return
    with mpmath.workdps(40):
        s = mpmath.mpf(float(argv[2]))
        exact = mpmath.zeta(s)
        if argv[0] == "xi":
            exact *= s * (s - 1) / 2 * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2)
        err = float(abs(mpmath.mpc(result["re"], result["im"]) - exact))
    assert err <= result["abs_error_estimate"], err


def test_zeros_refuses_a_tol_finer_than_the_xi_claims():
    # below t = 200 a sign of Z counts only where |Z| exceeds its claim:
    # next to the zero at 169.09 no lattice point inside an interval 9.0e-12
    # wide counts
    code, out, err = invoke(["zeros", "--t-max", "199.9", "--tol", "3e-12"])
    assert code == EXIT_PRECISION
    assert "no sign inside [169.09" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv", [["xi", "--re", "-1e-3"], ["zeta", "--re", "-2.5E1", "--im", "3", "--target", "1"]]
)
def test_negative_numbers_in_exponent_form_are_values(argv):
    # argparse's own rule takes only -12 and -1.5 for numbers, not -1e-3
    joined = [*argv[:1], f"--re={argv[2]}", *argv[3:]]
    code, out, err = invoke(argv)
    assert code == EXIT_OK, err
    assert invoke(joined) == (EXIT_OK, out, "")


def test_zeros_subcommand():
    payload = invoke_json(["zeros", "--t-max", "30", "--tol", "1e-6"])
    ts = payload["result"]["ordinates"]
    assert payload["result"]["count"] == 3
    assert abs(ts[0] - 14.134725) < 1e-5
    assert ts == sorted(ts)


def test_zeros_coarse_tol_reports_every_zero():
    payload = invoke_json(["zeros", "--t-max", "60", "--tol", "1e-3"])
    assert payload["result"]["count"] == 13


def test_constants_subcommand(tmp_path):
    # one gamma, and the one lambda = 1 - gamma, the lambda_used of lemma1
    # and moment; constants takes no option
    result = invoke_json(["constants"])["result"]
    assert result["gamma"] + result["lambda"] == 1.0
    assert abs(result["gamma"] - euler_gamma(1e-14)) < 1e-13
    path = tmp_path / "phi.json"
    path.write_text('{"terms": [{"h": 1, "l": 1}, {"h": -2, "l": 2}], "constrained": true}')
    for argv in (["lemma1", "--l", "2"], ["moment", "--input", str(path)]):
        assert invoke_json(argv)["result"]["lambda_used"] == result["lambda"]
    assert invoke(["constants", "--target", "1e-12"])[0] == EXIT_USAGE


def test_lemma1_subcommand():
    payload = invoke_json(["lemma1", "--l", "2"])
    lam = payload["result"]["lambda_used"]
    assert abs(payload["result"]["moment"] - (lam + math.log(2)) / 2.0) < 1e-15


def test_moment_round_trip(tmp_path):
    approx_payload = invoke_json(["approx", "--dilations", "1,2,3"])
    bstar = approx_payload["result"]["bstar"]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(bstar))
    moment_payload = invoke_json(["moment", "--input", str(path)])
    assert (
        moment_payload["result"]["closed_form"]
        == approx_payload["result"]["theta_log_sum"]
    )


def test_norm_subcommand(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps({"terms": [{"h": -1.0, "l": 1.0}, {"h": 2.0, "l": 2.0}], "constrained": True})
    )
    payload = invoke_json(["norm", "--input", str(path), "--p", "2"])
    assert payload["result"]["norm"] > 0.0
    assert payload["result"]["abs_error_bound"] < 1e-3


def test_norm2_is_the_gram_quadratic_form_at_target_one_over_t(tmp_path):
    bstar = invoke_json(["approx", "--dilations", f"1,{math.sqrt(2.0)!r}"])["result"]["bstar"]
    path = tmp_path / "bstar.json"
    path.write_text(json.dumps(bstar))
    argv = ["norm", "--input", str(path), "--p", "2", "--max-segments", "4000000"]
    res = invoke_json(argv)["result"]
    T = res["truncation"]
    assert T == 2343145.7505076197  # max(100, 4e6 / sum 1/l), the walk's truncation
    dilations = ",".join(repr(term["l"]) for term in bstar["terms"])
    gram = invoke_json(["gram", "--dilations", dilations, "--target", repr(1.0 / T)])["result"]
    h = np.array([term["h"] for term in bstar["terms"]])
    q = float(h @ np.array(gram["matrix"]) @ h)
    entry_bound = float(np.abs(h) @ np.array(gram["entry_error_bounds"]) @ np.abs(h))
    norm, bound = res["norm"], res["abs_error_bound"]
    assert abs(norm * norm - q) <= (2.0 * norm + bound) * bound + entry_bound
    # tighter than the walk to T, whose tail (sum |h|)^2 / T leaves half of
    # [q^{1/2}, (q + tail)^{1/2}] as its bound
    tail = float(np.sum(np.abs(h))) ** 2 / T
    assert bound < 0.5 * (math.sqrt(q + tail) - math.sqrt(q))


def test_gram_csv_structure():
    code, out, err = invoke(["gram", "--dilations", "1,2", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "kind,i,j,value"
    kinds = {line.split(",")[0] for line in lines[2:]}
    assert kinds == {"dilation", "G", "entry_error", "g", "c"}


def test_sweep_csv_monotone():
    code, out, err = invoke(["sweep", "--family", "integers", "--n", "2,5,10", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "N,distance,theta_log_sum,gap,gram_condition,certified_error"
    rows = [line.split(",") for line in lines[2:]]
    distances = [float(r[1]) for r in rows]
    assert distances == sorted(distances, reverse=True)
    for row in rows:
        assert float(row[3]) <= float(row[1]) + 1e-12  # gap <= distance
        assert 0.0 <= float(row[5]) <= 1e-6  # the bound of the distance, below --target


def test_sweep_records_carry_certified_error():
    payload = invoke_json(["sweep", "--n", "2,5", "--target", "1e-6"])
    records = payload["result"]["records"]
    assert [r["N"] for r in records] == [2, 5]
    for rec in records:
        assert 0.0 <= rec["certified_error"] <= 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        # certified errors 5.6e-13, and 4.5e-13 / 5.6e-13 at N = 2 / 5
        ["approx", "--dilations", "1,2,3,4,5", "--target", "1e-13"],
        ["sweep", "--n", "2,5", "--target", "1e-13"],
        # a target of 5e-324 halves to 0, and 1e-300 over |chi(-150)| ~ 1e140
        # is 0: the term count took the log of 0
        ["zeta", "--re", "2", "--target", "5e-324"],
        ["zeta", "--re", "-150", "--target", "1e-300"],
    ],
)
def test_certified_error_above_target_is_precision_failure(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_PRECISION
    assert "exceeds target" in err
    assert out == ""


def test_deterministic_output():
    argv = ["approx", "--dilations", "1,2,3,4"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second


def test_config_echoed():
    payload = invoke_json(["zeta", "--re", "3"])
    config = payload["config"]
    assert config["re"] == 3.0
    assert config["format"] == "json"
    assert config["target"] == 1e-12  # defaults resolved into the echo


def test_usage_error_exit_code():
    code, out, err = invoke(["no-such-command"])
    assert code == EXIT_USAGE
    code, out, err = invoke(["zeta", "--badflag", "1"])
    assert code == EXIT_USAGE


def test_domain_error_exit_code():
    code, out, err = invoke(["lemma1", "--l", "0.5"])
    assert code == EXIT_DOMAIN
    assert "domain error" in err
    code, out, err = invoke(["zeta", "--re", "1", "--im", "0"])
    assert code == EXIT_DOMAIN


def test_precision_error_exit_code():
    code, out, err = invoke(["zeta", "--re", "2", "--target", "1e-30"])
    assert code == EXIT_PRECISION
    assert "precision failure" in err


def test_zeros_to_500_counts_every_zero():
    # mpmath.nzeros(500) is 269; the scan used to stop finding zeros past t ~ 472
    payload = invoke_json(["zeros", "--t-max", "500", "--tol", "1e-6"])
    assert payload["result"]["count"] == 269


def test_zeros_evaluates_no_log_gamma(monkeypatch):
    # the scan reads Z from W's rows and theta's series below t = 200 and by
    # the Riemann-Siegel formula above: it never takes ln Gamma, under either
    # name it has, nor through Stirling's series itself
    from nblab import gammafn

    def boom(*_args):
        raise AssertionError("the zero scan took ln Gamma")

    monkeypatch.setattr(gammafn, "loggamma_right", boom)
    monkeypatch.setattr(gammafn, "_stirling", boom)
    # the module, not the function ``nblab.zeta``
    monkeypatch.setattr(importlib.import_module("nblab.zeta"), "loggamma_right", boom)
    assert invoke_json(["zeros", "--t-max", "500"])["result"]["count"] == 269


def test_sweep_builds_the_gram_system_once(monkeypatch):
    # a certified error above --target exits 2 after one build: a rebuild at
    # tighter entries leaves commensurate entries, and so the error, as they were
    from nblab import approx

    builds = []

    def counted(*args):
        builds.append(args)
        return gram_system(*args)

    gram_system = approx.gram_system
    monkeypatch.setattr(approx, "gram_system", counted)
    code, out, err = invoke(["sweep", "--n", "2,5", "--target", "1e-13"])
    assert code == EXIT_PRECISION and "exceeds target" in err and out == ""
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--re", "-1", "--im", "500", "--target", "1"],
        # fe-check's right side at u = 1 - s, whose sin(pi u / 2) overflows
        ["fe-check", "--re", "0.75", "--im", "500"],
        ["zeta", "--re", "-300", "--target", "1"],
        # |xi(450)| = |xi(-449)| is about 8e323, above the largest double
        ["xi", "--re", "450"],
        ["xi", "--re=-449"],
        ["xi", "--re", "3000"],
        # at s = -1e308 the reflection factor is not representable
        ["zeta", "--re", "-1e308", "--target", "1"],
        # fe-check takes the reflection factor at u = s: past |Im u| ~ 451
        # its sin(pi u / 2) overflows, although zeta itself returns there
        ["fe-check", "--re", "0.5", "--im", "900"],
        # pi^{-s/2} Gamma(s/2 + 1) is subnormal from t ~ 908.65
        ["xi", "--re", "0.5", "--im", "950"],
        # the head sum stops at 2^20 terms, a third of what |s|/pi asks for
        # here, so the Euler-Maclaurin terms grow and the claim is 3.4e3
        ["zeta", "--re", "0.5", "--im", "1e7", "--target", "1e-3"],
        # left of the critical line xi is taken at 1 - s, and underflows there too
        ["xi", "--re", "-1", "--im", "950"],
        # the phase of ln Gamma(s/2 + 1) overflows
        ["xi", "--re", "0.5", "--im", "1e306"],
        ["xi", "--re", "0", "--im", "1e308"],
        # the phases t ln n of W's head overflow
        ["xi", "--re", "700", "--im", "1e308"],
        ["zeta", "--re", "700", "--im", "1e308", "--target", "1"],
        # e^c for ln Gamma's claim c overflows
        ["xi", "--re", "1e200", "--im", "1e200"],
        # pi s / 2 overflows
        ["zeta", "--re", "-1.7e308", "--target", "1"],
        # here fe-check's left side, W at u = s, refuses first
        ["fe-check", "--re", "0.5", "--im", "1.7e308"],
        # |s| overflows
        ["xi", "--re", "1.7e308", "--im", "1e308"],
    ],
)
def test_reflection_overflow_is_precision_failure(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_PRECISION
    assert "precision failure" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # W's head grows as |s|/pi: a series capped at 320 terms exited 2 on
        # all four (claim overflow for xi, target missed for zeta at 1000)
        ["xi", "--re", "0.5", "--im", "805"],
        ["zeta", "--re", "0.5", "--im", "900", "--target", "1"],
        ["xi", "--re", "0.5", "--im", "900"],
        ["zeta", "--re", "0.5", "--im", "1000", "--target", "1e-9"],
    ],
)
def test_large_heights_agree_with_mpmath(argv):
    result = invoke_json(argv)["result"]
    s = mpmath.mpc(float(argv[2]), float(argv[4]))
    with mpmath.workdps(40):
        if argv[0] == "zeta":
            oracle = mpmath.zeta(s)
        else:
            oracle = s * (s - 1) / 2 * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s)
        err = float(abs(mpmath.mpc(result["re"], result["im"]) - oracle))
    assert err <= result["abs_error_estimate"]


def test_zero_function_norm_reports_its_truncation(monkeypatch):
    import sys

    payload = json.dumps({"terms": [{"h": 0, "l": 2}], "constrained": True})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    result = invoke_json(["norm", "--input", "-"])["result"]
    assert result["norm"] == 0.0 and result["abs_error_bound"] == 0.0
    assert result["truncation"] == 2_000_000.0  # max_segments / sum 1/l


def test_gram_near_irrational_ratio_meets_tight_target():
    # 1/3.14159265 is not a small fraction; a convergent with k ~ 3e5 meets 1e-9
    payload = invoke_json(["gram", "--dilations", "1,3.14159265", "--target", "1e-9"])
    assert max(max(row) for row in payload["result"]["entry_error_bounds"]) <= 1e-9


def test_zeros_scan_stops_at_t_max():
    # the grid ends at 908.6 < 908.65, the first height where the xi
    # prefactor is subnormal; above t = 200 the scan reads Z, so from there
    # on too it returns mpmath.nzeros.  The last row's points past t_max are
    # evaluated but dropped.  A grid of more than 2^20 points is refused
    # before any row is evaluated
    code, out, err = invoke(["zeros", "--t-max", "908.6"])
    assert code == EXIT_OK, err
    for t_max in ("908.65", "950"):
        payload = invoke_json(["zeros", "--t-max", t_max])
        assert payload["result"]["count"] == int(mpmath.nzeros(float(t_max)))
    code, out, err = invoke(["zeros", "--t-max", "1e6"])
    assert code == EXIT_PRECISION and out == ""
    assert "grid points" in err


@pytest.mark.parametrize("target", ["0", "-1"])
def test_sweep_target_validated(target):
    code, out, err = invoke(["sweep", "--n", "2", "--target", target])
    assert code == EXIT_DOMAIN
    assert "target_error must be positive" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "geometric", "--ratio", "0.5", "--n", "2"], "ratio > 1"),
        (["--family", "explicit", "--n", "1"], "need a dilation list"),
        (["--family", "explicit", "--dilations", "1,3,2", "--n", "2"], "strictly ascending"),
        (["--family", "explicit", "--dilations", "1,2,3", "--n", "2,4"], "holds only 3"),
    ],
)
def test_sweep_family_validated(argv, message):
    code, out, err = invoke(["sweep", *argv])
    assert code == EXIT_DOMAIN
    assert message in err
    assert out == ""


def test_gram_precision_failure_names_the_dilations():
    # entry (1, 1.0000001) needs a denominator above 2^20; ":g" printed it as (1, 1)
    code, out, err = invoke(["sweep", "--family", "geometric", "--ratio", "1.0000001",
                             "--n", "5"])
    assert code == EXIT_PRECISION
    assert "1.0000001" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--family", "integers", "--n", "100000000000"],
        ["sweep", "--family", "geometric", "--ratio", "1.0000000000000002", "--n", "100000000000"],
        ["sweep", "--family", "integers", "--n", "20000"],
    ],
)
def test_a_sweep_above_the_gram_budget_is_refused_before_its_family(argv):
    # refused before the family or its Gram system is built, so the peak stays small
    tracemalloc.start()
    try:
        code, out, err = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_PRECISION and out == ""
    assert "more than the 5000 one build may hold" in err
    assert peak < 1e6


def test_sweep_unknown_family_is_usage_error():
    code, out, err = invoke(["sweep", "--family", "plasma", "--n", "2"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("dilations", ["1,1.5,2,3,4.5", "1,1.4142135623730951,3.14159265"])
def test_sweep_at_full_length_equals_approx(dilations):
    n = str(len(dilations.split(",")))
    (record,) = invoke_json(
        ["sweep", "--family", "explicit", "--dilations", dilations, "--n", n]
    )["result"]["records"]
    single = invoke_json(["approx", "--dilations", dilations])["result"]
    for key in ("distance", "h_star", "certified_error", "gram_condition"):
        assert record[key] == single[key]


def test_stdin_input(monkeypatch):
    import sys

    payload = json.dumps({"terms": [{"h": -1.0, "l": 1.0}, {"h": 2.0, "l": 2.0}], "constrained": True})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    result = invoke_json(["moment", "--input", "-"])
    assert abs(result["result"]["closed_form"] - math.log(2)) < 1e-14


@pytest.mark.parametrize(
    "payload",
    [
        {"terms": [{"h": "x", "l": 2.0}]},
        {"terms": [{"h": [1], "l": 2.0}]},
        {"terms": [{"h": None, "l": 2.0}]},
        {"terms": [{"h": -1.0, "l": 1.0}, {"h": 2.0, "l": 2.0}], "constrained": "false"},
        # strings and booleans are not JSON numbers, although float() takes them
        {"terms": [{"h": True, "l": "2"}, {"h": "-2", "l": 4}], "constrained": True},
        {"terms": [{"h": "-1", "l": 1}, {"h": 2, "l": "2"}], "constrained": True},
        {"terms": [{"h": -1, "l": True}, {"h": 2, "l": 2}], "constrained": True},
        # not a payload object with a term list, and an empty term list
        {},
        {"terms": 5},
        {"terms": []},
    ],
)
@pytest.mark.parametrize("subcommand", ["moment", "norm"])
def test_malformed_sum_payload_is_domain_error(monkeypatch, subcommand, payload):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out, err = invoke([subcommand, "--input", "-"])
    assert code == EXIT_DOMAIN
    assert err.startswith("domain error: ")
    assert out == ""


def test_key_value_csv():
    code, out, err = invoke(["lemma1", "--l", "2", "--format", "csv"])
    assert code == EXIT_OK, err
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "key,value"
    rows = [line.split(",", 1) for line in lines[2:]]
    assert [key for key, _ in rows] == sorted(key for key, _ in rows)
    payload = invoke_json(["lemma1", "--l", "2"])["result"]
    assert {key: json.loads(value) for key, value in rows} == payload


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gram", "--dilations", "1,x"], "bad numeric list"),
        (["sweep", "--n", "2,x"], "bad integer list"),
        (["moment", "--input", "no-such-dir/sum.json"], "cannot read"),
        (["xi", "--re", "nan"], "non-finite argument"),
        # printed in the config, inf would read Infinity, which is not valid JSON
        (["zeta", "--re", "2", "--target", "inf"], "non-finite argument"),
        (["lemma1", "--l", "inf"], "non-finite argument"),
        (["gram", "--dilations", "1,2", "--target", "inf"], "non-finite argument"),
        (["approx", "--dilations", "1,2", "--target", "inf"], "non-finite argument"),
        (["zeros", "--t-max", "30", "--tol", "inf"], "non-finite argument"),
        (["xi", "--re", "-inf"], "non-finite argument"),
        (["zeta", "--re", "-nan"], "non-finite argument"),
        # off 0 < Re s < 1 both sides of fe-check would be one route
        (["fe-check", "--re", "-1", "--im", "500"], "0 < Re s < 1"),
        (["fe-check", "--re", "1e308"], "0 < Re s < 1"),
        (["fe-check", "--re", "1.7e308"], "0 < Re s < 1"),
    ],
)
def test_bad_argument_values_are_domain_errors(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(argv)
    assert code == EXIT_DOMAIN
    assert message in err
    assert out == ""


def _huge_pair(h):
    return json.dumps({"terms": [{"h": h, "l": 1}, {"h": -h, "l": 1.5}]})


@pytest.mark.parametrize(
    "argv, stdin, code, prefix",
    [
        # h^T G h overflows to inf (at 1e308 the difference of two infs is nan)
        (["norm", "--input", "-", "--p", "2"], _huge_pair(1e160), EXIT_PRECISION,
         "precision failure: "),
        (["norm", "--input", "-", "--p", "2"], _huge_pair(1e308), EXIT_PRECISION,
         "precision failure: "),
        # |slope|^p past the largest double, as a Python float power
        (["norm", "--input", "-", "--p", "1.5"], _huge_pair(1e308), EXIT_PRECISION,
         "precision failure: "),
        (["sweep", "--family", "geometric", "--ratio", "1e200", "--n", "2,3"], "", EXIT_DOMAIN,
         "domain error: "),
        # sum |h|/l overflows, and the constraint compared against it passed
        (["moment", "--input", "-"],
         json.dumps({"terms": [{"h": 1.5e308, "l": 1}, {"h": -1.5e308, "l": 1.0000001}],
                     "constrained": True}),
         EXIT_DOMAIN, "domain error: sum h/l = "),
    ],
    ids=["norm2-inf", "norm2-nan", "norm1.5", "sweep-ratio", "moment-constraint"],
)
def test_overflow_goes_through_the_exit_codes(monkeypatch, argv, stdin, code, prefix):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    got, out, err = invoke(argv)
    assert got == code
    assert err.startswith(prefix)
    assert "Traceback" not in err
    assert out == ""


def test_non_json_stdin_is_domain_error(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("{x"))
    code, out, err = invoke(["moment", "--input", "-"])
    assert code == EXIT_DOMAIN
    assert "invalid JSON input" in err
    assert out == ""


def test_norm_budget_validated(tmp_path):
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({"terms": [{"h": -1.0, "l": 1.0}, {"h": 2.0, "l": 2.0}]}))
    # the cap holds for the zero sum too
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"terms": [{"h": 0.0, "l": 2.0}]}))
    for sum_path in (path, zero):
        code, out, err = invoke(["norm", "--input", str(sum_path), "--max-segments", "60000000"])
        assert code == EXIT_PRECISION
        assert "segment budget above the supported cap" in err
        assert out == ""
        for budget in ("0", "-5"):
            code, out, err = invoke(["norm", "--input", str(sum_path), "--max-segments", budget])
            assert code == EXIT_DOMAIN
            assert "max_segments must be positive" in err
            assert out == ""


def fresh_python(*args, **env):
    """(exit code, stdout, stderr) of ``python *args`` in a fresh process
    that imports nblab from this tree, with ``env`` added to its environment."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nblab

    src = str(Path(nblab.__file__).resolve().parent.parent)
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def module_run(argv, **env):
    """(exit code, stdout, stderr) of ``python -m nblab`` in a fresh process."""
    return fresh_python("-m", "nblab", *argv, **env)


@pytest.mark.parametrize(
    "argv",
    [["approx", "--dilations", "1,1.4142135623730951"],
     ["gram", "--dilations", "2.718281828459045,3.141592653589793", "--target", "2.5e-8"],
     ["norm", "--input", "sloped.json", "--p", "1.5", "--max-segments", "20000"],
     ["zeta", "--re", "0.5", "--im", "100000", "--target", "1e-3"]],
    ids=["approx-sqrt2", "gram-e-pi", "norm-sloped", "zeta-far-up"],
)
def test_incommensurate_output_independent_of_blas_threads(tmp_path, monkeypatch, argv):
    # their cot sums run to about 2e4 terms, past the length at which
    # OpenBLAS splits a dot product across threads; a V summed by BLAS
    # printed other digits under one and two threads.  So did a sloped
    # norm's windows of up to 2^15 segments, and zeta's head sum of about
    # 31,800 terms at Im s = 1e5, each while summed by a BLAS dot
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sloped.json").write_text(
        '{"constrained": false, "terms": [{"h": 1, "l": 3}, {"h": -1, "l": 2}]}')
    runs = [module_run(argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert runs[0][0] == runs[1][0] == EXIT_OK, runs[0][2]
    assert runs[0][1] == runs[1][1]


def test_module_entry_point():
    code, out, err = module_run(["lemma1", "--l", "2"])
    assert code == EXIT_OK, err
    assert json.loads(out)["result"] == invoke_json(["lemma1", "--l", "2"])["result"]


def test_failed_parses_leave_the_parser_unchanged():
    # run keeps one parser per process: after failed calls, every call must
    # still print what a fresh process prints
    calls = [
        (["gram", "--bogus"], EXIT_USAGE),
        (["gram", "--dilations", "1,2", "--bogus"], EXIT_USAGE),
        (["sweep", "--n", "2", "--target", "0"], EXIT_DOMAIN),
        (["gram", "--dilations", "1,2,3"], EXIT_OK),
        (["gram", "--dilations", "1,2,3"], EXIT_OK),
        (["zeros", "--t-max", "20"], EXIT_OK),
    ]
    for argv, expected in calls:
        code, out, err = invoke(argv)
        assert code == expected, err
        assert (code, out, err) == module_run(argv)


#: one call of each subcommand shape the benchmark workloads use, then moment
#: and both norms on approx's bstar, all in one fresh interpreter
_WORKLOAD_SHAPES = """
import io, json, sys
from nblab.cli import run

def call(argv, stdin=""):
    sys.stdin, out, err = io.StringIO(stdin), io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0, (argv, err.getvalue())
    return json.loads(out.getvalue())["result"]

for t_max in ("20", "300", "500", "2000"):
    call(["zeros", "--t-max", t_max])
call(["gram", "--dilations", "1,2,3"])
call(["gram", "--dilations", "1,1.4142135623730951", "--target", "1e-4"])
call(["gram", "--dilations", "2.718281828459045,3.141592653589793", "--target", "2.5e-8"])
call(["sweep", "--family", "integers", "--n", "2,5"])
call(["sweep", "--family", "integers", "--n", "2,5,10,20"])
call(["sweep", "--family", "explicit", "--dilations", "1,1.5,2", "--n", "2,3"])
call(["approx", "--dilations", "1,2,3"])
bstar = json.dumps(call(["approx", "--dilations", "1,1.4142135623730951"])["bstar"])
call(["moment", "--input", "-"], bstar)
for p in ("2", "1.5"):
    call(["norm", "--input", "-", "--max-segments", "100000", "--p", p], bstar)
# the periodic tail: the benchmark worker's warm-up payload and the bstar on 1..6
call(["norm", "--input", "-", "--p", "1.5"],
     '{"terms": [{"h": 1, "l": 1}, {"h": -2, "l": 2}], "constrained": true}')
call(["norm", "--input", "-", "--p", "1.5"],
     json.dumps(call(["approx", "--dilations", "1,2,3,4,5,6"])["bstar"]))
print(" ".join(m for m in ("numpy.polynomial", "numpy.fft", "numpy.ma", "scipy", "mpmath")
               if m in sys.modules))
"""


def test_workload_calls_leave_numpy_submodules_unloaded():
    # the scan's brackets and the Gram build's cot-sum keys avoid np.unique
    # (it imports numpy.ma), Psi's Taylor
    # coefficients come from a DFT product rather than numpy.fft, and flat
    # p < 2 norms, their period walks included, take no Gauss nodes from
    # numpy.polynomial: each import
    # would add to every process's resident memory; scipy and mpmath are
    # test-only oracles and must not load on these paths at all
    code, out, err = fresh_python("-c", _WORKLOAD_SHAPES)
    assert code == 0, err
    assert out.split() == []
