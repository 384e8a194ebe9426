import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_bench_worker_starts_and_stops(tmp_path):
    # bench/tracing.py wraps nblab functions by attribute name, and
    # ``pytest bench`` never installs it: a renamed function, or a caller
    # that stops looking one up through its module globals, would otherwise
    # show only in a traced benchmark run
    pair = '{"terms": [{"h": 1, "l": 1}, {"h": -2, "l": 2}], "constrained": true}'
    requests = [{"argv": ["gram", "--dilations", "1,2,3"]},
                {"argv": ["approx", "--dilations", "1,1.4142135623730951"]},
                {"argv": ["zeros", "--t-max", "300", "--tol", "1e-6"]},
                {"argv": ["norm", "--input", "-", "--p", "2"], "stdin": pair},
                {"stop": True}]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT), str(tmp_path / "spans")],
        input="".join(json.dumps(r) + "\n" for r in requests), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, gram, approx, zeros, norm, done = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    assert gram["code"] == 0 and approx["code"] == 0, (gram["err"], approx["err"])
    assert zeros["code"] == 0, zeros["err"]
    assert norm["code"] == 0, norm["err"]
    assert json.loads(zeros["out"])["result"]["count"] == 138
    layers = done["layers"]
    # gram, approx and norm --p 2: the norm must look gram_system up on the
    # gram module, not hold a name bound before the tracer wrapped it
    assert layers["gram.gram_system.calls"] == 3
    assert layers["approx.gram_builds_per_approx"] == 1
    assert layers["approx.solve.calls"] == 1
    # the scan's span: the CLI must reach it as ``cli.find_critical_zeros``
    assert layers["zeta.find_critical_zeros.self_s"] > 0
