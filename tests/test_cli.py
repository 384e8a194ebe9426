import io
import json
import math

import numpy as np
import pytest

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
    # taken at u = 1 - s = -2, where sin(pi u / 2) Gamma(1 - u) has no pole
    payload = invoke_json(["fe-check", "--re", "3"])
    assert payload["result"]["residual"] <= payload["result"]["abs_error_bound"] < 1e-14


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


def test_constants_subcommand():
    payload = invoke_json(["constants", "--target", "1e-12"])
    assert abs(payload["result"]["gamma"] - 0.577215664901533) < 1e-12
    assert abs(payload["result"]["lambda"] - 0.422784335098467) < 1e-12


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


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--re", "-1", "--im", "500", "--target", "1"],
        ["fe-check", "--re", "-1", "--im", "500"],
        ["zeta", "--re", "-300", "--target", "1"],
        # |xi(450)| = |xi(-449)| is about 8e323, above the largest double
        ["xi", "--re", "450"],
        ["xi", "--re=-449"],
        ["xi", "--re", "3000"],
        # xi(1/2 + 805i) is finite, but its error claim overflows: printed,
        # it would read Infinity, which is not valid JSON
        ["xi", "--re", "0.5", "--im", "805"],
        # at u = 1 - s = -1e308 the reflection factor is not representable
        ["fe-check", "--re", "1e308"],
        # past t ~ 805 the eta remainder bound of W(s) = (s - 1) zeta(s) overflows
        ["zeta", "--re", "0.5", "--im", "900", "--target", "1"],
        ["xi", "--re", "0.5", "--im", "900"],
        ["fe-check", "--re", "0.5", "--im", "900"],
    ],
)
def test_reflection_overflow_is_precision_failure(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_PRECISION
    assert "precision failure" in err
    assert out == ""


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
    # the grid ends at 955.4 < 955.45, the first height where the xi
    # prefactor underflows; the scan used to evaluate whole rows past t_max
    code, out, err = invoke(["zeros", "--t-max", "955.4"])
    assert code == EXIT_OK, err
    code, out, err = invoke(["zeros", "--t-max", "956"])
    assert code == EXIT_PRECISION
    assert "underflows at t = 955.45" in err


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
        (["constants", "--target", "inf"], "non-finite argument"),
        (["gram", "--dilations", "1,2", "--target", "inf"], "non-finite argument"),
        (["approx", "--dilations", "1,2", "--target", "inf"], "non-finite argument"),
        (["zeros", "--t-max", "30", "--tol", "inf"], "non-finite argument"),
        (["xi", "--re", "-inf"], "non-finite argument"),
        (["zeta", "--re", "-nan"], "non-finite argument"),
    ],
)
def test_bad_argument_values_are_domain_errors(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(argv)
    assert code == EXIT_DOMAIN
    assert message in err
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


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nblab

    src = str(Path(nblab.__file__).resolve().parent.parent)
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "nblab", "lemma1", "--l", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["result"] == invoke_json(["lemma1", "--l", "2"])["result"]
