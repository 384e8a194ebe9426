"""Golden outputs of ``zeros``: each case's argv, exit code and the sha256 of
its stdout and stderr, held in ``golden/zeros.json`` and compared byte for
byte through an in-process ``nblab.cli.run``.

A change that moves an output on purpose rewrites the file, and names each
case it changed, with its reason, in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import pathlib

import pytest

from nblab.cli import run

PATH = pathlib.Path(__file__).with_name("golden") / "zeros.json"

#: heights x tolerances, then README's other ``zeros`` argv; README's
#: ``--t-max 52428`` (3.3 s) is left out to keep the corpus within its budget
CASES = [["zeros", "--t-max", t, "--tol", tol]
         for t in ("30", "100", "199.9", "200", "300", "400", "500", "900", "2000")
         for tol in ("1e-3", "1e-6", "1e-8", "1e-9")] + [
    ["zeros", "--t-max", "60"],
    ["zeros", "--t-max", "199.9", "--tol", "3e-12"],
    ["zeros", "--t-max", "52428.85"],
]


def outcome(argv: list[str]) -> dict:
    """argv's exit code and the sha256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {"argv": argv, "exit": code, "stdout_sha256": digest(out.getvalue()),
            "stderr_sha256": digest(err.getvalue())}


@pytest.fixture(scope="module")
def golden() -> dict:
    cases = json.loads(PATH.read_text())
    assert [case["argv"] for case in cases] == CASES
    return {" ".join(case["argv"]): case for case in cases}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_zeros_output_matches_the_golden_corpus(golden, argv):
    assert outcome(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    PATH.write_text("[\n" + ",\n".join(json.dumps(outcome(argv)) for argv in CASES) + "\n]\n")
