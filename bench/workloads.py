"""The three workloads: the operations of one round and how each is checked.

A round is a fixed list of chains, built once per run.  A chain is a list of steps that run in
order; a later step may read the outputs of earlier ones (the
``approx | moment`` pipe).  The seed only decides how the chains of a round
interleave, so every seed does exactly the same work, and a run is a fixed
number of rounds set by ``--seconds`` alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

SQRT2 = repr(math.sqrt(2.0))
PHI = repr((1.0 + math.sqrt(5.0)) / 2.0)
E = repr(math.e)
PI = repr(math.pi)


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``stdin(prior)`` gives its standard input from the
    results of the earlier steps of its chain; ``check(result, prior)``
    raises ``oracles.CheckFailed`` when the result is wrong."""

    argv: tuple[str, ...]
    check: Callable[[dict, list], None]
    stdin: Callable[[list], str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: nominal seconds of one round; fixes the number of rounds per run
    round_s: float
    chains: Callable[[], list[list[Step]]]
    #: reference kernel whose speed tracks the host's speed for this work
    kernel: str

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


def interleave(chains: list[list[Step]], rng: random.Random) -> list[tuple[int, int]]:
    """(chain, step) indices of a random merge of the chains that keeps each
    chain's own order."""
    slots = [i for i, chain in enumerate(chains) for _ in chain]
    rng.shuffle(slots)
    cursor = [0] * len(chains)
    order = []
    for i in slots:
        order.append((i, cursor[i]))
        cursor[i] += 1
    return order


# ------------------------------------------------------------ commensurate


def _sweep(args: list[str], target: float = 1e-6) -> list[Step]:
    return [Step(("sweep", *args), lambda res, _p: oracles.check_sweep_output(res, target))]


def _approx(dils: str, rational: bool, target: float = 1e-6) -> list[Step]:
    return [Step(("approx", "--dilations", dils),
                 lambda res, _p: oracles.check_approx_output(res, target, rational))]


def _gram(dils: str, rational: bool, target: str | None = None) -> list[Step]:
    extra = ("--target", target) if target else ()
    return [Step(("gram", "--dilations", dils, *extra),
                 lambda res, _p: oracles.check_gram_output(res, rational))]


def _ints(n: int) -> str:
    return ",".join(str(k) for k in range(1, n + 1))


def commensurate_chains() -> list[list[Step]]:
    return [
        _sweep(["--family", "integers", "--n", "2,5,10,20"]),
        _sweep(["--family", "integers", "--n", "3,6,12"]),
        _sweep(["--family", "geometric", "--ratio", "1.5", "--n", "2,4,6"]),
        _sweep(["--family", "geometric", "--ratio", "2", "--n", "2,4,8"]),
        _sweep(["--family", "explicit", "--dilations", "1,1.5,2,2.5,3,3.5,4,4.5,5",
                "--n", "3,6,9"]),
        _approx(_ints(12), rational=True),
        _approx("1,1.5,2,2.5,3,4,5,6", rational=True),
        _gram(_ints(6), rational=True),
        _gram("1,1.5,2,2.5,3,3.5", rational=True),
    ]


# ------------------------------------------------------------ critical line

#: 300 and 500 twice, so that the median and the tail each fall inside a
#: group of equal scans rather than between two heights
ZERO_HEIGHTS = (100, 200, 300, 300, 400, 500, 500)
ZERO_TOL = 1e-6


def zeros_chains() -> list[list[Step]]:
    oracle = oracles.ZeroOracle()  # one per run: its memo serves every round
    return [
        [Step(("zeros", "--t-max", str(t), "--tol", repr(ZERO_TOL)),
              lambda res, _p, t=t: oracle.check_zeros_output(res, float(t), ZERO_TOL))]
        for t in ZERO_HEIGHTS
    ]


# ------------------------------------------------------------ incommensurate


#: segment budget of the norms; a norm then costs about as much as the
#: 1.2e-7 gram calls, so the median falls among both
NORM_SEGMENTS = "4000000"


def _bstar(prior: list) -> str:
    return json.dumps(prior[0]["bstar"])


def _pipe_chain(dils: str) -> list[Step]:
    """approx, then moment and norm (p = 2 and p = 1.5) on its bstar."""
    norm = ("norm", "--input", "-", "--max-segments", NORM_SEGMENTS)
    return [
        Step(("approx", "--dilations", dils),
             lambda res, _p: oracles.check_approx_output(res, 1e-6, rational=False)),
        Step(("moment", "--input", "-"),
             lambda res, p: oracles.check_moment_output(res, p[0]["bstar"]), _bstar),
        Step((*norm, "--p", "2"),
             lambda res, p: oracles.check_norm2_output(res, p[0], p[1]), _bstar),
        Step((*norm, "--p", "1.5"),
             lambda res, p: oracles.check_norm_p_output(res, p[2]), _bstar),
    ]


def irrational_chains() -> list[list[Step]]:
    return [
        _pipe_chain(f"1,{SQRT2}"),
        _pipe_chain(f"1,{PHI}"),
        _gram(f"1,{SQRT2}", rational=False, target="1.2e-7"),
        _gram(f"1,{PHI}", rational=False, target="1.2e-7"),
        _gram(f"{E},{PI}", rational=False, target="2.5e-8"),  # costs about one approx
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("commensurate-sweep",
                 "the paper's d_N sweeps: commensurate Gram entries by lattice walk, the work a "
                 "closed form for rational ratios would remove; zeta is idle",
                 1.45, commensurate_chains, "np"),
        Workload("critical-zeros",
                 "zero scans of xi up to t = 500: all time in zeta and gammafn, none in gram; "
                 "the scan to 500 undercounts today and counts as failed",
                 3.0, zeros_chains, "py"),
        Workload("irrational-verify",
                 "incommensurate Gram entries (cost grows as 1/tol, memory-bound) and the moment "
                 "and norm quadratures on approx's bstar; a commensurate closed form leaves it alone",
                 4.5, irrational_chains, "np"),
    )
}
