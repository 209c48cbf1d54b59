"""Command-line front end.

Subcommands cover the computational surface (row, value, shifted,
valuation, predict, harmonic, scan) plus the verification driver
(verify). Global flags work before or after the subcommand. Exit
codes: 0 success, 1 verification failure or internal inconsistency,
2 usage or domain error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import harmonic as harmonic_mod
from . import stirling_core as stirling_mod
from .cache import CacheEntry, cache_load, cache_store
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .formulas import predict_valuation
from .padic import INFINITE, vp_rat
from .verifier import SUITE_IDS, CheckReport, run_suite


def _val_str(v) -> str:
    return "inf" if v == INFINITE else str(v)


def _jsonable(v):
    if v == INFINITE:
        return "inf"
    return v


def _global_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    parent.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="directory for persistent row cache (or env STIRVAL_CACHE_DIR)",
    )
    parent.add_argument(
        "--max-n",
        type=int,
        default=argparse.SUPPRESS,
        help="override the row and table size caps",
    )
    parent.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        help="verifier worker processes (default: available cores)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _global_flags()
    parser = argparse.ArgumentParser(
        prog="stirval",
        description="Exact Stirling numbers of the first kind and their 2-adic valuations.",
        parents=[parent],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("row", parents=[parent], help="print a full row s(n, 0..n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("product_tree", "recurrence"), default="product_tree")

    p = sub.add_parser("value", parents=[parent], help="print a single s(n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("shifted", parents=[parent], help="print a shifted row s_m(n, 0..n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="print only this coefficient")

    p = sub.add_parser("valuation", parents=[parent], help="p-adic valuation of a literal")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", required=True, help="integer or fraction literal, e.g. 5040 or 35/24")

    p = sub.add_parser("predict", parents=[parent], help="predicted v2 of s(2**n, t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("harmonic", parents=[parent], help="table H(n, 0..n) of exact rationals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="print only this entry")

    p = sub.add_parser("scan", parents=[parent], help="observational scan of v_p(H(n, k))")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("verify", parents=[parent], help="run brute-force verification suites")
    p.add_argument("--suite", choices=SUITE_IDS + ("all",), default="all")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)

    return parser


def _row_coeffs(n: int, shift: int, cache_dir: str | None, engine: str = "product_tree"):
    # The cache stores product-tree expansions as built, not checked
    # against the recurrence; its checksum only guards the file. An
    # explicit recurrence request always computes fresh.
    usable = cache_dir and engine == "product_tree"
    if usable:
        entry = cache_load(n, shift, cache_dir)
        if entry is not None:
            return entry.coeffs
    if shift:
        coeffs = stirling_mod.shifted_row_expand(shift, n).coeffs
    elif engine == "recurrence":
        coeffs = stirling_mod.row_recurrence(n).coeffs
    else:
        coeffs = stirling_mod.row_product_tree(n).coeffs
    if usable:
        cache_store(CacheEntry.for_row(n, shift, coeffs), cache_dir)
    return coeffs


def _emit_indexed(pairs, fmt: str, json_meta: dict) -> None:
    if fmt == "json":
        print(json.dumps(json_meta))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("k", "value"))
        writer.writerows(pairs)
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


def _cmd_row(args, cache_dir) -> int:
    coeffs = _row_coeffs(args.n, 0, cache_dir, args.engine)
    meta = {"n": args.n, "shift": 0, "engine": args.engine, "coeffs": list(coeffs)}
    _emit_indexed(list(enumerate(coeffs)), args.format, meta)
    return 0


def _cmd_value(args, cache_dir) -> int:
    if args.n < 0:
        raise DomainError(f"row index must be >= 0, got {args.n}")
    if 0 <= args.k <= args.n:
        value = _row_coeffs(args.n, 0, cache_dir)[args.k]
    else:
        value = 0
    if args.format == "json":
        print(json.dumps({"n": args.n, "k": args.k, "value": value}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("n", "k", "value"))
        writer.writerow((args.n, args.k, value))
    else:
        print(value)
    return 0


def _cmd_shifted(args, cache_dir) -> int:
    if args.m < 0:
        raise DomainError(f"shift must be >= 0, got {args.m}")
    coeffs = _row_coeffs(args.n, args.m, cache_dir)
    if args.k is not None:
        if not 0 <= args.k <= args.n:
            raise DomainError(f"need 0 <= k <= n, got k={args.k}")
        if args.format == "json":
            print(json.dumps({"m": args.m, "n": args.n, "k": args.k, "value": coeffs[args.k]}))
        else:
            print(coeffs[args.k])
        return 0
    meta = {"m": args.m, "n": args.n, "coeffs": list(coeffs)}
    _emit_indexed(list(enumerate(coeffs)), args.format, meta)
    return 0


def _parse_rational(text: str) -> tuple[int, int]:
    num, slash, den = text.partition("/")
    try:
        if slash:
            return int(num), int(den)
        return int(text), 1
    except ValueError:
        raise DomainError(f"not an integer or fraction literal: {text!r}") from None


def _cmd_valuation(args, cache_dir) -> int:
    v = vp_rat(args.p, _parse_rational(args.x))
    if args.format == "json":
        print(json.dumps({"p": args.p, "x": args.x, "valuation": _jsonable(v)}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("p", "x", "valuation"))
        writer.writerow((args.p, args.x, _val_str(v)))
    else:
        print(_val_str(v))
    return 0


def _cmd_predict(args, cache_dir) -> int:
    record = predict_valuation(args.n, args.t)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": record.n,
                    "t": record.t,
                    "predicted": record.predicted,
                    "source": record.source,
                }
            )
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("n", "t", "predicted", "source"))
        writer.writerow((record.n, record.t, record.predicted, record.source))
    else:
        print(record.predicted)
    return 0


def _cmd_harmonic(args, cache_dir) -> int:
    table = harmonic_mod.harmonic_table(args.n)
    if args.k is not None:
        if not 0 <= args.k <= args.n:
            raise DomainError(f"need 0 <= k <= n, got k={args.k}")
        value = table.values[args.k]
        if args.format == "json":
            print(json.dumps({"n": args.n, "k": args.k, "value": str(value)}))
        else:
            print(value)
        return 0
    meta = {"n": args.n, "values": [str(v) for v in table.values]}
    _emit_indexed([(k, v) for k, v in enumerate(table.values)], args.format, meta)
    return 0


def _cmd_scan(args, cache_dir) -> int:
    records = harmonic_mod.conjecture_scan(args.p, args.k, args.n_max)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": n, "valuation": _jsonable(v), "ratio": ratio}
                    for n, v, ratio in records
                ]
            )
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("n", "valuation", "ratio"))
        for n, v, ratio in records:
            writer.writerow((n, _val_str(v), repr(ratio)))
    else:
        for n, v, ratio in records:
            print(f"{n} {_val_str(v)} {ratio:.6f}")
    return 0


def _report_json(report: CheckReport) -> dict:
    return {
        "suite": report.suite,
        "range": list(report.range),
        "total": report.total,
        "failures_total": report.failures_total,
        "failures": [
            {
                "check_id": r.check_id,
                "n": r.instance[0],
                "instance": list(r.instance),
                "expected": _jsonable(r.expected),
                "actual": _jsonable(r.actual),
                "passed": r.passed,
            }
            for r in report.failures
        ],
        "elapsed_ms": int(report.elapsed * 1000),
    }


def _emit_report(report: CheckReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_report_json(report)))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("check_id", "n", "instance", "expected", "actual", "passed"))
        for r in report.failures:
            writer.writerow(
                (r.check_id, r.instance[0], repr(r.instance), r.expected, _val_str(r.actual), r.passed)
            )
    else:
        status = "PASS" if not report.failures else "FAIL"
        print(
            f"{status} suite={report.suite} range={report.range} total={report.total} "
            f"failures={report.failures_total} elapsed_ms={int(report.elapsed * 1000)} "
            f"engine={report.ground_truth_engine}"
        )
        for r in report.failures:
            print(
                f"  FAIL {r.check_id} instance={r.instance} "
                f"expected={r.expected} actual={_val_str(r.actual)}"
            )


def _cmd_verify(args, cache_dir) -> int:
    checks = "all" if args.suite == "all" else [args.suite]
    report = run_suite(args.n_min, args.n_max, checks, jobs=args.jobs)
    _emit_report(report, args.format)
    return 1 if report.failures else 0


_COMMANDS = {
    "row": _cmd_row,
    "value": _cmd_value,
    "shifted": _cmd_shifted,
    "valuation": _cmd_valuation,
    "predict": _cmd_predict,
    "harmonic": _cmd_harmonic,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    """Parse argv, run one subcommand, and return the exit status."""
    # Exact values pass Python's 4300-digit int<->str limit well inside
    # the row cap. The limit stays lifted after return, because callers
    # in the same process go on to format the values printed here.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # global flags use SUPPRESS so a value given before the subcommand
    # survives the subparser pass; fill the gaps here
    for dest, fallback in (("format", "text"), ("cache_dir", None), ("max_n", None), ("jobs", None)):
        if not hasattr(args, dest):
            setattr(args, dest, fallback)
    if args.max_n is not None:
        if args.max_n < 0:
            print("error: --max-n must be >= 0", file=sys.stderr)
            return 2
        stirling_mod.ROW_CAP = args.max_n
        harmonic_mod.TABLE_CAP = args.max_n
    cache_dir = args.cache_dir or os.environ.get("STIRVAL_CACHE_DIR")
    try:
        return _COMMANDS[args.command](args, cache_dir)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
