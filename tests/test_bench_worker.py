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
    requests = [{"argv": ["gram", "--dilations", "1,2,3"]},
                {"argv": ["approx", "--dilations", "1,1.4142135623730951"]},
                {"argv": ["zeros", "--t-max", "300", "--tol", "1e-6"]},
                {"stop": True}]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT), str(tmp_path / "spans")],
        input="".join(json.dumps(r) + "\n" for r in requests), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, gram, approx, zeros, done = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    assert gram["code"] == 0 and approx["code"] == 0, (gram["err"], approx["err"])
    assert zeros["code"] == 0, zeros["err"]
    assert json.loads(zeros["out"])["result"]["count"] == 138
    layers = done["layers"]
    assert layers["gram.gram_system.calls"] == 2
    assert layers["approx.gram_builds_per_approx"] == 1
    assert layers["approx.solve.calls"] == 1
    # the scan's span: the CLI must reach it as ``cli.find_critical_zeros``
    assert layers["zeta.find_critical_zeros.self_s"] > 0
