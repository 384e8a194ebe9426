"""Spans around the public functions of each nblab layer, and the per-layer
metrics computed from them.

The tracer replaces a function at the name its caller looks up (for example
``nblab.zeta.xi``, which the zero scan calls through its module globals) by a
wrapper that records one span per call: a name, start and end times, the
index of the enclosing span, and one number taken from the call (the output
bytes of a CLI call, err/tol of a Gram entry, terms used by xi, ordinates
returned by the zero scan).  Spans are kept in flat arrays in memory and
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its child spans; calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

from oracles import rational_ratio

#: per-layer metric name -> unit, in the order they are printed
LAYER_METRICS = {
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.out_bytes": "bytes",
    "approx.solve.calls": "count",
    "approx.solve.s": "s",
    "approx.gram_builds_per_approx": "ratio",
    "gram.gram_system.calls": "count",
    "gram.gram_system.self_s": "s",
    "gram.entry_comm.calls": "count",
    "gram.entry_comm.s": "s",
    "gram.entry_comm.err_over_tol": "ratio",
    "gram.entry_incomm.calls": "count",
    "gram.entry_incomm.s": "s",
    "gram.entry_incomm.err_over_tol": "ratio",
    "zeta.find_critical_zeros.self_s": "s",
    "zeta.xi.calls": "count",
    "zeta.xi.s": "s",
    "zeta.xi.terms_mean": "terms",
    "zeta.xi_per_zero": "ratio",
    "gammafn.gamma.calls": "count",
    "gammafn.gamma.s": "s",
    "moments.moment_report.s": "s",
    "moments.weighted_norm_report.calls": "count",
    "moments.weighted_norm_report.s": "s",
    "fracsum.eval.calls": "count",
    "fracsum.eval.s": "s",
    "trace.overhead_s": "s",
}

SPAN_NAMES = (
    "cli.run",
    "approx.best_approximation",
    "approx.solve",
    "gram.gram_system",
    "gram.entry_comm",
    "gram.entry_incomm",
    "zeta.find_critical_zeros",
    "zeta.xi",
    "gammafn.gamma",
    "moments.moment_report",
    "moments.weighted_norm_report",
    "fracsum.eval",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    """Spans of one worker, in flat arrays; ``open``/``close`` nest."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.value[idx] = value
        self._stack.pop()

    def wrap(self, fn, name_of, value_of=None):
        """Wrapper recording a span named ``name_of(args)`` around ``fn``;
        ``value_of(args, result)`` gives the number stored with the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_of(args))
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                value = 0.0 if value_of is None or result is None else value_of(args, result)
                self.close(idx, value)
            return result

        return traced

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end, self.value):
            del arr[:]

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), value=np.asarray(self.value))

    def metrics(self) -> dict[str, float]:
        return layer_metrics(np.asarray(self.name), np.asarray(self.parent),
                             np.asarray(self.end) - np.asarray(self.start),
                             np.asarray(self.value))


def _entry_name(args) -> str:
    a, b = float(args[0]), float(args[1])
    return "gram.entry_comm" if rational_ratio(a, b) else "gram.entry_incomm"


def install(tracer: Tracer) -> None:
    """Wrap the public function of every layer at the name its caller uses."""
    mod = {name: importlib.import_module(f"nblab.{name}")
           for name in ("cli", "approx", "gram", "zeta", "moments", "fracsum")}

    def patch(owner, attr, name, value_of=None, name_of=None):
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(original, name_of or (lambda _a: name), value_of))

    patch(mod["approx"], "best_approximation", "approx.best_approximation")
    patch(mod["approx"], "best_approximation_from_gram", "approx.solve")
    gram_system = tracer.wrap(mod["gram"].gram_system, lambda _a: "gram.gram_system")
    mod["gram"].gram_system = gram_system  # looked up by the CLI
    mod["approx"].gram_system = gram_system  # looked up by best_approximation and sweep
    patch(mod["gram"], "pair_product_integral", None,
          value_of=lambda args, res: res[1] / float(args[2]), name_of=_entry_name)
    patch(mod["cli"], "find_critical_zeros", "zeta.find_critical_zeros",
          value_of=lambda _a, res: float(len(res)))
    patch(mod["zeta"], "xi", "zeta.xi", value_of=lambda _a, res: float(res.terms_used))
    patch(mod["zeta"], "gamma", "gammafn.gamma")
    patch(mod["moments"], "moment_report", "moments.moment_report")
    patch(mod["moments"], "weighted_norm_report", "moments.weighted_norm_report")
    patch(mod["fracsum"].DilatedFracSum, "__call__", "fracsum.eval")


def layer_metrics(name, parent, dur, value) -> dict[str, float]:
    """Per-layer metrics (without ``trace.overhead_s``) from span arrays."""
    child = np.zeros(len(name))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def sel(span):
        return name == _ID[span]

    def calls(span):
        return float(np.count_nonzero(sel(span)))

    def total(arr, span):
        return float(np.sum(arr[sel(span)]))

    def mean_value(span):
        n = calls(span)
        return total(value, span) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    approx_spans = np.flatnonzero(sel("approx.best_approximation"))
    builds_in_approx = np.count_nonzero(sel("gram.gram_system") & np.isin(parent, approx_spans))
    xi_in_scan = np.count_nonzero(
        sel("zeta.xi") & np.isin(parent, np.flatnonzero(sel("zeta.find_critical_zeros"))))
    return {
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_s": total(self_s, "cli.run"),
        "cli.out_bytes": total(value, "cli.run"),
        "approx.solve.calls": calls("approx.solve"),
        "approx.solve.s": total(dur, "approx.solve"),
        "approx.gram_builds_per_approx": ratio(builds_in_approx, len(approx_spans)),
        "gram.gram_system.calls": calls("gram.gram_system"),
        "gram.gram_system.self_s": total(self_s, "gram.gram_system"),
        "gram.entry_comm.calls": calls("gram.entry_comm"),
        "gram.entry_comm.s": total(dur, "gram.entry_comm"),
        "gram.entry_comm.err_over_tol": mean_value("gram.entry_comm"),
        "gram.entry_incomm.calls": calls("gram.entry_incomm"),
        "gram.entry_incomm.s": total(dur, "gram.entry_incomm"),
        "gram.entry_incomm.err_over_tol": mean_value("gram.entry_incomm"),
        "zeta.find_critical_zeros.self_s": total(self_s, "zeta.find_critical_zeros"),
        "zeta.xi.calls": calls("zeta.xi"),
        "zeta.xi.s": total(dur, "zeta.xi"),
        "zeta.xi.terms_mean": mean_value("zeta.xi"),
        "zeta.xi_per_zero": ratio(xi_in_scan, total(value, "zeta.find_critical_zeros")),
        "gammafn.gamma.calls": calls("gammafn.gamma"),
        "gammafn.gamma.s": total(dur, "gammafn.gamma"),
        "moments.moment_report.s": total(dur, "moments.moment_report"),
        "moments.weighted_norm_report.calls": calls("moments.weighted_norm_report"),
        "moments.weighted_norm_report.s": total(dur, "moments.weighted_norm_report"),
        "fracsum.eval.calls": calls("fracsum.eval"),
        "fracsum.eval.s": total(dur, "fracsum.eval"),
    }
