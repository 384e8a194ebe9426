"""Command-line front end: every operation as a subcommand with
machine-readable output.

Output contract: JSON runs print a single object {"config": ..., "result": ...}
with sorted keys, so identical argv produce byte-identical bytes.
CSV runs print one comment line ``# config: <compact json>`` followed by a
header row and data rows.  Exit codes: 0 success, 1 domain error,
2 precision failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import approx as _approx
from . import fracsum as _fracsum
from . import gram as _gram
from . import moments as _moments
from .errors import DomainError, NblabError, PrecisionUnreachable
from .zeta import find_critical_zeros, functional_equation_residual, xi, zeta

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PRECISION = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1e-3" and "-inf" are values: no nblab option starts with a digit, inf or nan
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)

    def error(self, message):
        raise _UsageError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"bad numeric list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}") from exc


def _read_fracsum(path: str) -> _fracsum.DilatedFracSum:
    if path == "-":
        payload = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON input: {exc}") from exc
    return _fracsum.DilatedFracSum.from_dict(data)


#: the ``ApproximationResult.to_dict`` keys a sweep record carries
_SWEEP_KEYS = ("distance", "theta_log_sum", "gap", "gram_condition", "certified_error",
               "dilations", "h_star")


def _sweep_family(args: argparse.Namespace, n_max: int) -> tuple[list[float], str]:
    """The ascending dilation list ``--family`` names, long enough for N up
    to n_max, and its label: 1..n_max, ratio^0..ratio^(n_max - 1), or the
    whole ``--dilations`` list."""
    if args.family == "integers":
        return [float(k) for k in range(1, n_max + 1)], "integers"
    if args.family == "geometric":
        if not args.ratio > 1.0:
            raise DomainError("geometric families need ratio > 1")
        return [args.ratio**k for k in range(n_max)], f"geometric(ratio={args.ratio!r})"
    dilations = _parse_floats(args.dilations)
    if not dilations:
        raise DomainError("explicit families need a dilation list")
    if any(y <= x for x, y in zip(dilations, dilations[1:])):
        raise DomainError("explicit dilations must be strictly ascending")
    if n_max > len(dilations):
        raise DomainError(f"explicit family holds only {len(dilations)} dilations")
    return dilations, f"explicit(n={len(dilations)})"


def build_parser() -> _Parser:
    parser = _Parser(prog="nblab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("zeta", help="zeta(s) with certified absolute error")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--target", type=float, default=1e-12)

    p = add("xi", help="completed symmetric xi(s)")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)

    p = add("fe-check", help="relative residual of the reflection formula")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)

    p = add("zeros", help="critical-line zero ordinates up to t-max")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("constants", help="gamma, lambda = 1 - gamma, and a trace")
    p.add_argument("--target", type=float, default=1e-12)

    p = add("lemma1", help="closed-form first moment of {t/l} under dt/t^2")
    p.add_argument("--l", type=float, required=True)

    p = add("moment", help="moment report of a constrained sum (JSON input)")
    p.add_argument("--input", required=True, help="path to the sum JSON, or - for stdin")

    p = add("norm", help="weighted p-norm of a sum (JSON input)")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--max-segments", type=int, default=1_000_000)

    p = add("gram", help="Gram matrix, moment vector, constraint vector")
    p.add_argument("--dilations", required=True, help="comma-separated ascending list")
    p.add_argument("--target", type=float, default=1e-9,
                   help="entry error target for pairs whose exact ratio has a denominator "
                        "above 2^20; the others are exact to roundoff")

    p = add("approx", help="best constrained approximation of 1")
    p.add_argument("--dilations", required=True)
    p.add_argument("--target", type=float, default=1e-6)

    p = add("sweep", help="distance sweep over a nested family")
    p.add_argument("--family", choices=("integers", "geometric", "explicit"),
                   default="integers")
    p.add_argument("--n", required=True, help="comma-separated N values")
    p.add_argument("--ratio", type=float, default=2.0)
    p.add_argument("--dilations", default="", help="for explicit families")
    p.add_argument("--target", type=float, default=1e-6)
    return parser


def _run_subcommand(args: argparse.Namespace) -> dict:
    if args.subcommand == "zeta":
        rep = zeta(complex(args.re, args.im), args.target)
        return {"re": rep.value.real, "im": rep.value.imag,
                "abs_error_estimate": rep.abs_error_estimate,
                "terms_used": rep.terms_used}
    if args.subcommand == "xi":
        rep = xi(complex(args.re, args.im))
        return {"re": rep.value.real, "im": rep.value.imag,
                "abs_error_estimate": rep.abs_error_estimate,
                "terms_used": rep.terms_used}
    if args.subcommand == "fe-check":
        residual, bound = functional_equation_residual(complex(args.re, args.im))
        return {"residual": residual, "abs_error_bound": bound}
    if args.subcommand == "zeros":
        ts = find_critical_zeros(args.t_max, args.tol)
        return {"ordinates": ts, "count": len(ts)}
    if args.subcommand == "constants":
        return _moments.constants_report(args.target).to_dict()
    if args.subcommand == "lemma1":
        return {"l": args.l, "moment": _moments.dilated_frac_moment(args.l),
                "lambda_used": _moments.moment_constant()}
    if args.subcommand == "moment":
        phi = _read_fracsum(args.input)
        return _moments.moment_report(phi).to_dict()
    if args.subcommand == "norm":
        phi = _read_fracsum(args.input)
        rep = _moments.weighted_norm_report(phi, args.p, args.max_segments)
        return {"p": args.p, "norm": rep.value,
                "abs_error_bound": rep.abs_error_bound, "truncation": rep.truncation}
    if args.subcommand == "gram":
        system = _gram.gram_system(_parse_floats(args.dilations), args.target)
        return system.to_dict()
    if args.subcommand == "approx":
        res = _approx.best_approximation(_parse_floats(args.dilations), args.target)
        out = res.to_dict()
        out["bstar"] = _fracsum.DilatedFracSum(
            terms=tuple(zip(res.h_star.tolist(), res.dilations)), constrained=True
        ).to_dict()
        return out
    if args.subcommand == "sweep":
        ns = _parse_ints(args.n)
        # at least one dilation, so that N values below 1 reach sweep's own check
        dilations, label = _sweep_family(args, max([1, *ns]))
        return {"records": [
            {"N": len(res.dilations), "dilation_family": label,
             **{key: value for key, value in res.to_dict().items() if key in _SWEEP_KEYS}}
            for res in _approx.sweep(dilations, ns, args.target)
        ]}
    raise DomainError(f"unknown subcommand {args.subcommand!r}")


def _emit_csv(config: dict, result: dict, out) -> None:
    print(f"# config: {json.dumps(config, sort_keys=True)}", file=out)
    if "records" in result:  # sweep table
        print("N,distance,theta_log_sum,gap,gram_condition,certified_error", file=out)
        for r in result["records"]:
            print(f"{r['N']},{r['distance']!r},{r['theta_log_sum']!r},"
                  f"{r['gap']!r},{r['gram_condition']!r},{r['certified_error']!r}", file=out)
        return
    if "matrix" in result:  # gram tables
        print("kind,i,j,value", file=out)
        n = len(result["dilations"])
        for i in range(n):
            print(f"dilation,{i},,{result['dilations'][i]!r}", file=out)
        for i in range(n):
            for j in range(n):
                print(f"G,{i},{j},{result['matrix'][i][j]!r}", file=out)
        for i in range(n):
            for j in range(n):
                print(f"entry_error,{i},{j},{result['entry_error_bounds'][i][j]!r}", file=out)
        for i in range(n):
            print(f"g,{i},,{result['g_vector'][i]!r}", file=out)
        for i in range(n):
            print(f"c,{i},,{result['c_vector'][i]!r}", file=out)
        return
    print("key,value", file=out)
    for key in sorted(result):
        print(f"{key},{json.dumps(result[key], sort_keys=True)}", file=out)


def run(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    config = vars(args)
    try:
        for key, value in config.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"non-finite argument --{key.replace('_', '-')} {value!r}")
        result = _run_subcommand(args)
    except PrecisionUnreachable as exc:
        print(f"precision failure: {exc}", file=err)
        return EXIT_PRECISION
    except NblabError as exc:
        print(f"domain error: {exc}", file=err)
        return EXIT_DOMAIN
    if args.format == "csv":
        _emit_csv(config, result, out)
    else:
        print(json.dumps({"config": config, "result": result}, sort_keys=True, indent=2),
              file=out)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
