"""Benchmark worker: one process that imports nblab from ``<root>/src``,
fills its lazy caches, and then runs one in-process CLI call per request.

    python3 bench/worker.py <root> <spans-path or ->

The protocol is one JSON object per line.  The worker first answers
``{"ready": true}``.  A request ``{"argv": [...], "stdin": str | null}`` is
answered by ``{"code", "out", "err", "s"}``, where ``s`` is the wall time of
``nblab.cli.run`` alone.  The request ``{"stop": true}`` is answered by the
worker's peak resident memory and, when traced, its per-layer metrics; then
the worker exits.  A spans path other than ``-`` turns tracing on and names
the file the spans are written to at the end.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

#: exit code reported for a CLI call that raised instead of returning
CRASHED = -1

#: small calls of every subcommand the workloads use, run once before timing
_WARM_UP = (
    (["zeros", "--t-max", "20"], None),
    (["gram", "--dilations", "1,2,3"], None),
    (["gram", "--dilations", "1,1.4142135623730951", "--target", "1e-4"], None),
    (["approx", "--dilations", "1,2,3"], None),
    (["sweep", "--family", "explicit", "--dilations", "1,1.5,2", "--n", "2,3"], None),
    (["moment", "--input", "-"], '{"terms": [{"h": 1, "l": 1}, {"h": -2, "l": 2}], "constrained": true}'),
    (["norm", "--input", "-", "--p", "1.5"], '{"terms": [{"h": 1, "l": 1}, {"h": -2, "l": 2}], "constrained": true}'),
)


def _import_nblab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nblab

    if os.path.commonpath([os.path.abspath(nblab.__file__), src]) != src:
        raise ImportError(f"nblab was imported from {nblab.__file__}, not from {src}")
    return nblab


def warm_up(nblab, cli) -> None:
    """Fill the caches a user's first call would fill: the moment constant
    and the Borwein coefficients of every term count up to t = 600."""
    nblab.moment_constant()
    for t in range(601):
        nblab.xi(complex(0.5, t))
    for argv, stdin in _WARM_UP:
        code, _out, err, _s = call(cli, argv, stdin)
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}: {err}")


def call(cli, argv, stdin, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    gc.collect()  # collect the previous call's garbage outside the timed region
    span = tracer.open("cli.run") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        code = cli.run(list(argv), out=out, err=err)
    except Exception:  # a crash is one failed operation, not the end of the run
        code = CRASHED
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span, float(len(out.getvalue().encode())))
    return code, out.getvalue(), err.getvalue(), seconds


def main() -> int:
    root, spans_path = sys.argv[1], sys.argv[2]
    requests = sys.stdin  # call() swaps sys.stdin for each CLI call
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # nothing but the protocol goes to the channel

    def reply(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    nblab = _import_nblab(root)
    cli = importlib.import_module("nblab.cli")
    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    warm_up(nblab, cli)
    if tracer is not None:
        tracer.clear()
    reply({"ready": True})
    for line in requests:
        req = json.loads(line)
        if req.get("stop"):
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            done = {"max_rss_mb": rss_mb}
            if tracer is not None:
                done["layers"] = tracer.metrics()
                tracer.save(spans_path)
            reply(done)
            return 0
        code, out, err, seconds = call(cli, req["argv"], req.get("stdin"), tracer)
        reply({"code": code, "out": out, "err": err, "s": seconds})
    return 1


if __name__ == "__main__":
    sys.exit(main())
