"""Golden outputs of the command line: each case's argv, the name of its
stdin if it reads one, its exit code and the sha256 of its stdout and
stderr, compared byte for byte through ``nblab.cli.run``.

- ``golden/zeros.json`` holds the ``zeros`` scans, run in-process.
- ``golden/cli.json`` holds every other subcommand on README's argv in JSON
  and CSV, and refusals with exit codes 1, 2 and 64, run in-process; then
  ``approx`` and ``sweep`` at N >= 100, whose solves round differently under
  another BLAS thread count, run in one fresh interpreter under
  ``OPENBLAS_NUM_THREADS=1``.

A change that moves an output on purpose rewrites both files, and names each
case it changed, with its reason, in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which records every case in one fresh interpreter at one BLAS thread, so
that the in-process cases check that the default thread count prints the
same bytes.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from nblab.cli import run

PATH = pathlib.Path(__file__).with_name("golden") / "zeros.json"
CLI_PATH = PATH.with_name("cli.json")

#: heights x tolerances, README's other ``zeros`` argv, then the refusal at
#: 1e-9 just past its zero at 201.26 and from far above it, and README's scan
#: near the grid budget, refused as short of Trudgian's bound on the count
CASES = [["zeros", "--t-max", t, "--tol", tol]
         for t in ("30", "100", "199.9", "200", "300", "400", "500", "900", "2000")
         for tol in ("1e-3", "1e-6", "1e-8", "1e-9")] + [
    ["zeros", "--t-max", "60"],
    ["zeros", "--t-max", "199.9", "--tol", "3e-12"],
    ["zeros", "--t-max", "52428.85"],
    ["zeros", "--t-max", "201.3", "--tol", "1e-9"],
    ["zeros", "--t-max", "10000", "--tol", "1e-9"],
    ["zeros", "--t-max", "52428"],
]

#: what the cases that read ``--input -`` find on stdin: approx's bstars on
#: (1, sqrt 2), (1, phi) and 1..6, a commensurate pair, a sum of three
#: dilations, an unconstrained sum with a slope, a sum with two terms at one
#: dilation, a sum that violates its constraint, and broken JSON
STDIN = {
    "bstar": '{"constrained": true, "terms": [{"h": -0.7225088103263034, "l": 1.0}, '
             '{"h": 1.0217817584975089, "l": 1.4142135623730951}]}',
    "bstar-phi": '{"constrained": true, "terms": [{"h": -0.7946566998338764, "l": 1.0}, '
                 '{"h": 1.285781549719035, "l": 1.618033988749895}]}',
    "bstar-1..6": '{"constrained": true, "terms": [{"h": -0.9509608678777679, "l": 1.0}, '
                  '{"h": 0.8673091314841749, "l": 2.0}, {"h": 0.8845324164696445, "l": 3.0}, '
                  '{"h": 0.30413793733136973, "l": 4.0}, {"h": 0.7811261082315091, "l": 5.0}, '
                  '{"h": -0.05878525600007249, "l": 6.0}]}',
    "commensurate": '{"constrained": true, "terms": [{"h": -1, "l": 1}, {"h": 2, "l": 2}]}',
    "three": '{"constrained": true, "terms": [{"h": 1, "l": 1}, '
             '{"h": -0.7071067811865476, "l": 1.4142135623730951}, '
             '{"h": -1.5707963267948966, "l": 3.141592653589793}]}',
    "sloped": '{"constrained": false, "terms": [{"h": 1, "l": 3}, {"h": -1, "l": 2}]}',
    "coincident": '{"constrained": true, "terms": [{"h": 1, "l": 1}, {"h": -1, "l": 2}, '
                  '{"h": -1, "l": 2}]}',
    "violated": '{"constrained": true, "terms": [{"h": 1.0, "l": 1.0}, {"h": 1.0, "l": 2.0}]}',
    "broken": "{",
}

#: README's argv, each in JSON and CSV (``zeros`` in CSV only: zeros.json
#: holds its JSON), then refusals: (argv, the STDIN key or None)
_README = [
    ["zeta", "--re", "2", "--target", "1e-12"],
    ["xi", "--re", "0.5", "--im", "14.134725"],
    ["fe-check", "--re", "0.5", "--im", "3"],
    ["constants"],
    ["lemma1", "--l", "2"],
    ["moment", "--input", "-"],
    ["norm", "--input", "-", "--p", "2"],
    ["norm", "--input", "-", "--p", "1.5"],
    ["gram", "--dilations", "1,2,3"],
    ["gram", "--dilations", "1,1.4142135623730951", "--target", "1e-4"],
    ["approx", "--dilations", "1,2,3,4,5"],
    ["sweep", "--family", "integers", "--n", "2,5,10,20,50"],
]
CLI_CASES = [(argv + fmt, "bstar" if "-" in argv else None)
             for argv in _README for fmt in ([], ["--format", "csv"])] + [
    (["zeros", "--t-max", "30", "--tol", "1e-6", "--format", "csv"], None),
    # p < 2 norms: the mean-value tail of two dilations, the periodic tail
    # of a short period and of the bstar on 1..6, and the crude tail of
    # three incommensurate dilations
    (["norm", "--input", "-", "--p", "1.2"], "bstar"),
    (["norm", "--input", "-", "--p", "1.5", "--max-segments", "4000000"], "bstar"),
    (["norm", "--input", "-", "--p", "1.5"], "bstar-phi"),
    (["norm", "--input", "-", "--p", "1.5"], "commensurate"),
    (["norm", "--input", "-", "--p", "1.5"], "bstar-1..6"),
    (["norm", "--input", "-", "--p", "1.5"], "three"),
    # paths no case above reaches: a sloped sum's Gauss-Legendre pieces and
    # crude tail, xi's reflection, the merge of coincident terms, the N = 1
    # solve, and numerators too large for int64, each pair's ratio reduced
    (["norm", "--input", "-", "--p", "1.5", "--max-segments", "20000"], "sloped"),
    (["xi", "--re", "-2", "--im", "5"], None),
    (["moment", "--input", "-"], "coincident"),
    (["approx", "--dilations", "1"], None),
    (["gram", "--dilations", "1,1.1,4096"], None),
    # exit 1: domain errors
    (["zeta", "--re", "1", "--target", "1e-12"], None),
    (["zeros", "--t-max", "30", "--tol", "inf"], None),
    (["sweep", "--family", "geometric", "--ratio", "0.5", "--n", "2"], None),
    (["sweep", "--family", "explicit", "--dilations", "1,2,3", "--n", "2,4"], None),
    (["gram", "--dilations", "1,2,2"], None),
    (["moment", "--input", "-"], "violated"),
    (["moment", "--input", "-"], "broken"),
    (["fe-check", "--re", "3"], None),
    # exit 2: precision failures, the zero scan's with their intervals
    (["zeros", "--t-max", "300", "--tol", "1e-9"], None),
    (["zeros", "--t-max", "1e6"], None),
    (["xi", "--re", "0.5", "--im", "950"], None),
    (["xi", "--re", "0.5", "--im", "1e306"], None),
    (["xi", "--re", "700", "--im", "1e308"], None),
    (["zeta", "--re", "700", "--im", "1e308", "--target", "1"], None),
    (["zeta", "--re", "-1.7e308", "--target", "1"], None),
    (["zeta", "--re", "0.5", "--im", "1e7", "--target", "1e-3"], None),
    (["fe-check", "--re", "0.5", "--im", "900"], None),
    (["norm", "--input", "-", "--max-segments", "60000000"], "bstar"),
    (["sweep", "--n", "2,5", "--target", "1e-13"], None),
    (["sweep", "--family", "geometric", "--ratio", "1.0000001", "--n", "5"], None),
    (["sweep", "--family", "integers", "--n", "20000"], None),
    (["sweep", "--family", "geometric", "--ratio", "1.0000000000000002", "--n", "100000000000"],
     None),
    # exit 64: usage errors
    (["sweep", "--family", "plasma", "--n", "2"], None),
    (["zeta"], None),
    (["frob"], None),
    (["zeros", "--t-max", "30", "--format", "xml"], None),
    (["constants", "--target", "1e-12"], None),
]

#: the solves at N >= 100, run at one BLAS thread in one interpreter; past
#: N = 128 the Gram build mirrors its blocks
_TO_128 = ",".join(str(k) for k in range(1, 129))
ONE_THREAD_CASES = [(argv + fmt, None) for argv in (
    ["approx", "--dilations", _TO_128],
    ["sweep", "--family", "integers", "--n", "100,128"],
) for fmt in ([], ["--format", "csv"])] + [(["sweep", "--family", "integers", "--n", "130"], None)]


def outcome(argv: list[str], stdin: str | None = None) -> dict:
    """argv's exit code and the sha256 of its stdout and stderr, with
    ``STDIN[stdin]`` on stdin."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(STDIN[stdin] if stdin else "")
    try:
        code = run(argv, out, err)
    finally:
        sys.stdin = saved

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {"argv": argv, **({"stdin": stdin} if stdin else {}), "exit": code,
            "stdout_sha256": digest(out.getvalue()), "stderr_sha256": digest(err.getvalue())}


def one_thread_outcomes(cases: list) -> list[dict]:
    """``outcome`` of each case in one fresh interpreter at one BLAS thread."""
    import nblab

    here = pathlib.Path(__file__).resolve().parent
    path = [str(pathlib.Path(nblab.__file__).resolve().parent.parent), str(here),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    script = ("import json, sys, test_golden; "
              "json.dump([test_golden.outcome(*c) for c in json.load(sys.stdin)], sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases), env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def case_id(case: tuple) -> str:
    argv, stdin = case
    return " ".join(argv) + (f" <{stdin}" if stdin else "")


def read(path: pathlib.Path, cases: list) -> list[dict]:
    records = json.loads(path.read_text())
    assert [(r["argv"], r.get("stdin")) for r in records] == [(list(a), s) for a, s in cases]
    return records


@pytest.fixture(scope="module")
def golden() -> dict:
    return {" ".join(r["argv"]): r for r in read(PATH, [(argv, None) for argv in CASES])}


@pytest.fixture(scope="module")
def cli_golden() -> list[dict]:
    return read(CLI_PATH, CLI_CASES + ONE_THREAD_CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_zeros_output_matches_the_golden_corpus(golden, argv):
    assert outcome(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("index", range(len(CLI_CASES)),
                         ids=[case_id(case) for case in CLI_CASES])
def test_cli_output_matches_the_golden_corpus(cli_golden, index):
    assert outcome(*CLI_CASES[index]) == cli_golden[index]


def test_one_thread_solves_match_the_golden_corpus(cli_golden):
    assert one_thread_outcomes(ONE_THREAD_CASES) == cli_golden[len(CLI_CASES):]


def write(path: pathlib.Path, records: list[dict]) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    write(PATH, one_thread_outcomes([(argv, None) for argv in CASES]))
    write(CLI_PATH, one_thread_outcomes(CLI_CASES + ONE_THREAD_CASES))
