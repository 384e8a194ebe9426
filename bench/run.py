"""End-to-end benchmark of the nblab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One worker process (BLAS pinned to
one thread) imports nblab from ``src/`` and runs each operation as an
in-process call of ``nblab.cli.run``; this process sends the operations one
at a time (a closed loop with one caller) and checks every output against
the oracles in ``oracles.py`` between calls, outside the timed region.

A run is a fixed number of rounds, set by ``--seconds`` and the workload's
nominal round time, so the same arguments do the same work on any machine;
the seed only orders the operations inside each round.  Times are scaled
by the host's speed, measured with a reference kernel from ``kernels.py``
between rounds (see README); the raw wall times go on a ``#`` line.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from ``tracing.py`` with ``--trace 1``.
Spans of traced runs and the raw latencies of every run are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time

import kernels
import oracles
import tracing
from workloads import WORKLOADS, interleave

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: worker start-ups per run; setup_s is their median
SETUP_SAMPLES = 3
#: a run that is not done after this many seconds is abandoned
DEADLINE_S = 170.0
#: operations that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: least number of reference-kernel timings per run, the same number before
#: every round
KERNEL_SAMPLES = 16

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                    "max_rss_mb": "MB"}


class WorkerError(Exception):
    """The worker died, broke the protocol or ran past the deadline."""


class Worker:
    """One worker process; ``setup_s`` is the time from spawn to ready."""

    def __init__(self, deadline: float, spans_path: str = "-"):
        self.deadline = deadline
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, spans_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        try:
            if not self._read().get("ready"):
                raise WorkerError("worker did not report ready")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
            raise WorkerError("deadline passed")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("worker closed its input") from exc
        return self._read()

    def call(self, argv, stdin):
        reply = self.request({"argv": list(argv), "stdin": stdin})
        return reply["code"], reply["out"], reply["err"], reply["s"]

    def stop(self) -> dict:
        """Ask the worker for its final report and wait for it to exit."""
        try:
            done = self.request({"stop": True})
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            return done
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Tally:
    """Outcome of the rounds one or more workers ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.attempted = 0
        #: (chain, step) -> failures, and the first reason given for them
        self.failed_steps: dict[tuple[int, int], int] = {}
        self.reasons: dict[tuple[int, int], str] = {}

    @property
    def failed(self) -> int:
        return sum(self.failed_steps.values())

    def fail(self, key: tuple[int, int], step, reason: str) -> None:
        self.failed_steps[key] = self.failed_steps.get(key, 0) + 1
        self.reasons.setdefault(key, f"{' '.join(step.argv)}: {reason}")

    def consistent(self) -> bool:
        """Every step that failed, failed in every round (each step runs
        once per round), so the failures are a fault, not chance."""
        return all(n == len(self.round_s) for n in self.failed_steps.values())

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.round_s += other.round_s
        self.attempted += other.attempted
        for key, n in other.failed_steps.items():
            self.failed_steps[key] = self.failed_steps.get(key, 0) + n
            self.reasons.setdefault(key, other.reasons[key])


def run_round(call, chains, order, tally: Tally) -> None:
    """Run one round.  ``call(argv, stdin)`` returns (code, out, err, seconds).

    A step fails when its exit code is not 0 or an oracle rejects its output;
    the steps after it in its chain then fail without running."""
    prior: list[list] = [[] for _ in chains]
    broken = [False] * len(chains)
    busy = 0.0
    for ci, si in order:
        step = chains[ci][si]
        tally.attempted += 1
        if broken[ci]:
            tally.fail((ci, si), step, "an earlier step of its chain failed")
            continue
        code, out, err, seconds = call(step.argv, step.stdin(prior[ci]) if step.stdin else None)
        busy += seconds
        tally.latencies.append(seconds)
        try:
            if code != 0:
                raise oracles.CheckFailed(f"exit {code}: {err.strip()[-200:]}")
            result = json.loads(out)["result"]
            step.check(result, prior[ci])
        except (oracles.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            broken[ci] = True
            tally.fail((ci, si), step, f"{type(exc).__name__}: {exc}")
            continue
        prior[ci].append(result)
    tally.round_s.append(busy)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def plan(workload, seed: int, seconds: float):
    chains = workload.chains()
    per_round = sum(len(c) for c in chains)
    rounds = max(workload.rounds(seconds), math.ceil(4 * TAIL_BEYOND / per_round))
    rng = random.Random(f"{workload.name}/{seed}")
    return chains, [interleave(chains, rng) for _ in range(rounds)]


def measure(workload, seed: int, seconds: float, deadline: float) -> tuple[Tally, dict]:
    chains, orders = plan(workload, seed, seconds)
    setups, setup_kernel_s = [], []
    for i in range(SETUP_SAMPLES):
        # start-up is interpreter-bound: scale each sample by the py kernel just before it
        setup_kernel_s.append(kernels.time_kernel("py"))
        worker = Worker(deadline)
        setups.append(worker.setup_s)
        if i < SETUP_SAMPLES - 1:
            worker.stop()
    tally = Tally()
    kernel_samples = []
    per_round = math.ceil(KERNEL_SAMPLES / len(orders))
    try:
        for order in orders:
            for _ in range(per_round):
                kernel_samples.append(kernels.time_kernel(workload.kernel))
            run_round(worker.call, chains, order, tally)
    finally:
        done = worker.stop()
    value, pct = tail(tally.latencies)
    raw = {"setup_s": statistics.median(setups),
           "run_s": statistics.median(tally.round_s),
           "op_s_p50": statistics.median(tally.latencies),
           "op_s_tail": value}
    kernel_s = statistics.median(kernel_samples)
    scale = kernels.NOMINAL_S[workload.kernel] / kernel_s
    print(f"# op_s_tail is p{pct:.2f} of {len(tally.latencies)} operations "
          f"({len(orders)} rounds)")
    print(f"# wall {json.dumps(raw)}; {workload.kernel} kernel {kernel_s:.6f} s "
          f"(nominal {kernels.NOMINAL_S[workload.kernel]} s), run and op times scaled by "
          f"{scale:.4f}")
    metrics = {"setup_s": statistics.median(
                   s * kernels.NOMINAL_S["py"] / k for s, k in zip(setups, setup_kernel_s)),
               **{k: raw[k] * scale for k in ("run_s", "op_s_p50", "op_s_tail")},
               "max_rss_mb": done["max_rss_mb"]}
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_traced(workload, seed: int, seconds: float, deadline: float) -> tuple[Tally, dict]:
    """Alternate rounds between an untraced and a traced worker (half the
    rounds each); the traced one gives the per-layer metrics."""
    chains, orders = plan(workload, seed, seconds)
    orders = orders[: max(1, len(orders) // 2)]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.npz")
    plain_tally, traced_tally = Tally(), Tally()
    plain = Worker(deadline)
    try:
        traced = Worker(deadline, spans_path)
        try:
            for order in orders:
                run_round(plain.call, chains, order, plain_tally)
                run_round(traced.call, chains, order, traced_tally)
        finally:
            layers = traced.stop()["layers"]
    finally:
        plain.stop()
    layers["trace.overhead_s"] = (statistics.median(traced_tally.round_s)
                                  - statistics.median(plain_tally.round_s))
    plain_tally.merge(traced_tally)
    return plain_tally, {k: {"value": layers[k], "unit": u}
                         for k, u in tracing.LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    run = measure_traced if args.trace else measure
    try:
        tally, metrics = run(workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    for key, count in sorted(tally.failed_steps.items()):
        print(f"failed x{count}: {tally.reasons[key]}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"latencies-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(tally.latencies, fh)
    print(json.dumps({"correct": tally.consistent(), "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
