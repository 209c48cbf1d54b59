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
import ctypes
import json
import os
import sys
from dataclasses import asdict

from . import harmonic as harmonic_mod
from . import stirling_core as stirling_mod
from .cache import CacheEntry, cache_load, cache_store, stored_rows
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .formulas import predict_valuation
from .padic import INFINITE, vp_rat
from .verifier import SUITE_IDS, run_suite


def _jsonable(v):
    # JSON has no infinity; text and CSV print "inf" for INFINITE too.
    if v == INFINITE:
        return "inf"
    return v


# glibc's mallopt parameter number for the mmap threshold.
_M_MMAP_THRESHOLD = -3


def _load_mallopt():
    # None where the C library has no mallopt (macOS, Windows).
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


_MALLOPT = _load_mallopt()


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
        help="override the row size cap",
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

    p = sub.add_parser("verify", parents=[parent], help="run brute-force verification suites (in one process)")
    p.add_argument("--suite", choices=SUITE_IDS + ("all",), default="all")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)

    return parser


# Built once per process; every dispatch parses with this one parser.
_PARSER = build_parser()


def _extend_cached(n: int, shift: int, cache_dir: str) -> tuple[int, ...] | None:
    """Row (n, shift) built from the largest cached row (m, shift) with
    m < n, or None when none loads or the product tree is faster.

    Row (m, shift) holds the coefficients of (x+shift)_m, so
    (x+shift+m)...(x+shift+n-1) times it is row (n, shift); those are
    recurrence steps. Only on the int backend below _CHAIN_BELOW_N, or
    _CHAIN_BELOW_N_TWO_CORES where the tree runs in two processes, do
    they beat a fresh product tree, whatever m is. Candidates load
    largest first, each fully checked; cache_load warns about a corrupt
    one, which is then passed over, not deleted.
    """
    if stirling_mod._two_cores(n):
        below = stirling_mod._CHAIN_BELOW_N_TWO_CORES
    else:
        below = stirling_mod._CHAIN_BELOW_N
    if stirling_mod._mpz is not int or n >= below:
        return None
    for m in sorted((m for m in stored_rows(shift, cache_dir) if m < n), reverse=True):
        lower = cache_load(m, shift, cache_dir)
        if lower is not None:
            return tuple(stirling_mod._expand_chain(shift + m, shift + n, lower.coeffs))
    return None


def _row_coeffs(
    n: int, shift: int, cache_dir: str | None, engine: str = "product_tree", k: int | None = None
):
    """Row (n, shift) as a tuple, or only its coefficient k when k is given.

    The caps are checked before the cache is read, so a row stored
    under a larger --max-n is refused just as a fresh build would be. A
    hit for one coefficient converts only that line of the file.
    """
    stirling_mod._check_row_args(n, shift)
    # The cache stores product-tree expansions and rows extended from a
    # smaller cached row by recurrence steps (_extend_cached), both as
    # built: neither kind is checked against the other engine, and the
    # checksum only guards the file. An explicit recurrence request
    # always computes fresh.
    usable = cache_dir and engine == "product_tree"
    coeffs = None
    if usable:
        hit = cache_load(n, shift, cache_dir, k=k)
        if hit is not None:
            return hit if k is not None else hit.coeffs
        coeffs = _extend_cached(n, shift, cache_dir)
    if coeffs is None:
        if shift:
            coeffs = stirling_mod.shifted_row_expand(shift, n).coeffs
        elif engine == "recurrence":
            coeffs = stirling_mod.row_recurrence(n).coeffs
        else:
            coeffs = stirling_mod.row_product_tree(n).coeffs
    if usable:
        cache_store(CacheEntry.for_row(n, shift, coeffs), cache_dir)
    return coeffs if k is None else coeffs[k]


def _emit(fmt: str, doc, header, rows, lines) -> None:
    """Print one command's result in the form fmt names.

    doc is the JSON document, header and rows the CSV table, lines the
    text output. rows and lines may be generators; only the form printed
    is consumed.
    """
    if fmt == "json":
        print(json.dumps(doc))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


def _emit_record(fmt: str, record: dict, text_key: str) -> None:
    # One result: the record is the JSON object, its keys the CSV header
    # and its values the one CSV row; text prints record[text_key].
    _emit(fmt, record, record, [record.values()], [record[text_key]])


def _emit_indexed(fmt: str, doc: dict, values) -> None:
    _emit(fmt, doc, ("k", "value"), enumerate(values), (f"{k}: {v}" for k, v in enumerate(values)))


def _cmd_row(args, cache_dir) -> int:
    coeffs = _row_coeffs(args.n, 0, cache_dir, args.engine)
    doc = {"n": args.n, "shift": 0, "engine": args.engine, "coeffs": list(coeffs)}
    _emit_indexed(args.format, doc, coeffs)
    return 0


def _cmd_value(args, cache_dir) -> int:
    if args.n < 0:
        raise DomainError(f"row index must be >= 0, got {args.n}")
    if 0 <= args.k <= args.n:
        value = _row_coeffs(args.n, 0, cache_dir, k=args.k)
    else:
        value = 0
    _emit_record(args.format, {"n": args.n, "k": args.k, "value": value}, "value")
    return 0


def _cmd_shifted(args, cache_dir) -> int:
    if args.m < 0:
        raise DomainError(f"shift must be >= 0, got {args.m}")
    if args.k is None:
        coeffs = _row_coeffs(args.n, args.m, cache_dir)
        _emit_indexed(args.format, {"m": args.m, "n": args.n, "coeffs": list(coeffs)}, coeffs)
        return 0
    if not 0 <= args.k <= args.n:
        raise DomainError(f"need 0 <= k <= n, got k={args.k}")
    value = _row_coeffs(args.n, args.m, cache_dir, k=args.k)
    _emit_record(args.format, {"m": args.m, "n": args.n, "k": args.k, "value": value}, "value")
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
    _emit_record(args.format, {"p": args.p, "x": args.x, "valuation": _jsonable(v)}, "valuation")
    return 0


def _cmd_predict(args, cache_dir) -> int:
    _emit_record(args.format, asdict(predict_valuation(args.n, args.t)), "predicted")
    return 0


def _cmd_harmonic(args, cache_dir) -> int:
    if args.k is not None and not 0 <= args.k <= args.n:
        raise DomainError(f"need 0 <= k <= n, got k={args.k}")
    # Row n + 1 goes through the disk cache like any other row, so the
    # table's checks (s(n+1, 1) = n! and the row sum) also guard rows
    # read from disk. Below n = 1 the table raises its own usage error.
    row = _row_coeffs(args.n + 1, 0, cache_dir) if args.n >= 1 else None
    table = harmonic_mod.harmonic_table(args.n, row=row)
    if args.k is None:
        doc = {"n": args.n, "values": [str(v) for v in table.values]}
        _emit_indexed(args.format, doc, table.values)
        return 0
    value = str(table.values[args.k])
    _emit_record(args.format, {"n": args.n, "k": args.k, "value": value}, "value")
    return 0


def _cmd_scan(args, cache_dir) -> int:
    header = ("n", "valuation", "ratio")
    scan = harmonic_mod.conjecture_scan(args.p, args.k, args.n_max)
    rows = [(n, _jsonable(v), ratio) for n, v, ratio in scan]
    lines = (f"{n} {v} {ratio:.6f}" for n, v, ratio in rows)
    _emit(args.format, [dict(zip(header, row)) for row in rows], header, rows, lines)
    return 0


def _cmd_verify(args, cache_dir) -> int:
    report = run_suite(args.n_min, args.n_max, args.suite)
    failures = report.failures
    elapsed_ms = int(report.elapsed * 1000)
    doc = {
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
            for r in failures
        ],
        "elapsed_ms": elapsed_ms,
    }
    header = ("check_id", "n", "instance", "expected", "actual", "passed")
    rows = (
        (r.check_id, r.instance[0], repr(r.instance), r.expected, r.actual, r.passed)
        for r in failures
    )
    lines = [
        f"{'FAIL' if failures else 'PASS'} suite={report.suite} range={report.range} "
        f"total={report.total} failures={report.failures_total} elapsed_ms={elapsed_ms} "
        f"engine={report.ground_truth_engine}",
        *(
            f"  FAIL {r.check_id} instance={r.instance} expected={r.expected} actual={r.actual}"
            for r in failures
        ),
    ]
    _emit(args.format, doc, header, rows, lines)
    return 1 if failures else 0


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
    # glibc serves blocks of 128 KiB and more with mmap at first, but
    # raises that threshold to the size of each such block freed. Once
    # the product tree has freed its first multi-megabyte packs and
    # products, later ones come from the heap, and what earlier
    # commands left there decides whether they fit into free space or
    # grow it: a `value` on a row near 1600 then peaks at about 49 or
    # about 59 MB depending only on which rows came before it. Fixing
    # the threshold keeps large blocks mapped and returned on free.
    # Like the digit limit it stays set after return; glibc offers no
    # way to read the old value back.
    if _MALLOPT is not None:
        _MALLOPT(_M_MMAP_THRESHOLD, 128 * 1024)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # global flags use SUPPRESS so a value given before the subcommand
    # survives the subparser pass; fill the gaps here
    for dest, fallback in (("format", "text"), ("cache_dir", None), ("max_n", None)):
        if not hasattr(args, dest):
            setattr(args, dest, fallback)
    if args.max_n is not None and args.max_n < 0:
        print("error: --max-n must be >= 0", file=sys.stderr)
        return 2
    # --max-n moves the row cap, the one size cap (harmonic tables and
    # scans are bounded through row n + 1), for this command only; later
    # calls in the same process see the cap they had before.
    row_cap = stirling_mod.ROW_CAP
    if args.max_n is not None:
        stirling_mod.ROW_CAP = args.max_n
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
    finally:
        stirling_mod.ROW_CAP = row_cap


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
