import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_bench_worker_starts_and_stops(tmp_path):
    # bench/tracing.py wraps nblab functions by attribute name, and
    # ``pytest bench`` never installs it: a renamed function would otherwise
    # show only in a traced benchmark run
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT), str(tmp_path / "spans")],
        input=json.dumps({"stop": True}) + "\n", capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, done = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    assert "layers" in done
