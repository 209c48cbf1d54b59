"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python3 perfbench/passes.py '<json spec>'

The spec names the workload, the seed, the mode and the sizes. The
process imports stirval, builds the workload's inputs from the seed,
prints READY, and (unless the mode is "setup") runs the pass and prints
one JSON line with its measurements. A fresh process per pass means no
pass sees the lru_caches or the harmonic frontier left by another.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
from collections import Counter
from time import perf_counter

# Sizes of the full benchmark and of the self-test. The row-size
# windows keep each seed's work within a few percent of every other
# seed's, so that seed-to-seed spread stays well inside the bounds.
SIZES = {
    "full": {
        "paper-verify": {"n_min": 2, "n_max": 10},
        "dual-engine-rows": {"lo": 1024, "hi": 2048, "jitter": 16},
        "cli-cache": {"lo": 256, "hi": 1792, "pool": 4, "jitter": 16, "requests": 120},
    },
    "toy": {
        "paper-verify": {"n_min": 2, "n_max": 4},
        "dual-engine-rows": {"lo": 32, "hi": 64, "jitter": 2},
        "cli-cache": {"lo": 16, "hi": 112, "pool": 4, "jitter": 2, "requests": 24},
    },
}


def expected_checks(n_min: int, n_max: int) -> int:
    """Instance count of run_suite(n_min, n_max, "all"), from the claims' ranges.

    Per row 2**n: theorem1 and theorem2 check every column, lemma24 two
    conditions per column, lemma25 half the columns, inequalities
    2**n - 3 step bounds plus three families over all columns. The
    identity sweep runs once over m, n <= n_max.
    """
    total = 0
    for n in range(n_min, n_max + 1):
        top = 2 ** n
        total += 2 * top  # theorem1, theorem2
        if n >= 2:
            total += 2 * top + top // 2 + 4 * top - 3  # lemma24, lemma25, inequalities
    axis = range(n_max + 1)
    total += sum(m + n + 1 for m in axis for n in axis)  # convolution
    total += sum(n + 1 for _ in axis for n in axis)  # shifted sum
    total += sum(n // 2 for n in range(1, n_max + 1))  # half sum
    total += sum(n + 1 for _ in range(1, n_max + 1) for n in axis)  # congruence mod m
    return total


def _stratified(rng: random.Random, lo: int, hi: int, parts: int, jitter: int) -> list[int]:
    # One size per equal part of [lo, hi], near the part's middle.
    width = (hi - lo) / parts
    return [round(lo + width * (i + 0.5)) + rng.randint(-jitter, jitter) for i in range(parts)]


def make_inputs(workload: str, seed: int, size: dict) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-verify":
        return dict(size)
    if workload == "dual-engine-rows":
        return {"rows": _stratified(rng, size["lo"], size["hi"], 3, size["jitter"])}
    pool = _stratified(rng, size["lo"], size["hi"], size["pool"], size["jitter"])
    # Zipf weights 1/rank, the smallest size most popular. Counts are
    # fixed from the weights and only the order is drawn, so every seed
    # has the same mix of cheap and expensive requests.
    weights = [1 / rank for rank in range(1, len(pool) + 1)]
    counts = [round(size["requests"] * w / sum(weights)) for w in weights]
    stream = [n for n, c in zip(pool, counts) for _ in range(c)]
    rng.shuffle(stream)
    return {"pool": pool, "requests": [(n, rng.randint(0, n)) for n in stream]}


class _Tally:
    """Checks made, failed and wrong in one pass, request latencies and engine seconds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: list[float] = []
        self.engine_s: Counter = Counter()

    def check(self, ok: bool, count: int = 1, wrong: bool = True) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.wrong += count if wrong else 0


def _paper_verify(inputs: dict, tally: _Tally, counts) -> None:
    from stirval import verifier

    expected = expected_checks(inputs["n_min"], inputs["n_max"])
    start = perf_counter()
    try:
        report = verifier.run_suite(inputs["n_min"], inputs["n_max"], "all", jobs=1)
    except Exception as exc:  # counted, never hidden
        print(f"paper-verify raised {exc!r}", file=sys.stderr)
        tally.check(False, expected)
        return
    finally:
        tally.latencies.append(perf_counter() - start)
    counts["verifier.checks"] += report.total
    # The report keeps at most FAILURE_CAP failures; a wrong total
    # counts as that many failed checks as well.
    bad = len(report.failures) + abs(report.total - expected)
    tally.check(True, expected - min(bad, expected))
    tally.check(False, min(bad, expected))


def _dual_engine_rows(inputs: dict, tally: _Tally, counts) -> None:
    from stirval import stirling_core

    for n in inputs["rows"]:
        checks = n + 1 + 4
        start = perf_counter()
        try:
            rec = stirling_core.row_recurrence(n).coeffs
            middle = perf_counter()
            tree = stirling_core.row_product_tree(n).coeffs
        except Exception as exc:
            print(f"row {n} raised {exc!r}", file=sys.stderr)
            tally.latencies.append(perf_counter() - start)
            tally.check(False, checks)
            continue
        end = perf_counter()
        tally.latencies.append(end - start)
        tally.engine_s["recurrence_s"] += middle - start
        tally.engine_s["product_tree_s"] += end - middle
        agree = sum(a == b for a, b in zip(rec, tree))
        tally.check(True, agree)
        tally.check(False, n + 1 - agree)
        fact = math.factorial(n)
        first = math.factorial(n - 1)
        for row in (rec, tree):
            tally.check(sum(row) == fact)
            tally.check(len(row) > 1 and row[1] == first)


def _cli_cache(inputs: dict, tally: _Tally, counts) -> None:
    from stirval import cli

    ref = inputs["ref"]
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=inputs["out_dir"])
    try:
        for n, k in inputs["requests"]:
            argv = ["value", "--n", str(n), "--k", str(k), "--cache-dir", cache_dir]
            buf = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.dispatch(argv)
            except Exception as exc:  # the command would exit 1 with a traceback
                print(f"value --n {n} --k {k} raised {exc!r}", file=sys.stderr)
                code = None
            tally.latencies.append(perf_counter() - start)
            if code != 0:
                tally.check(False, wrong=False)
                continue
            try:
                expected = f"{ref[n][k]}\n"
            except ValueError:  # too many digits to print: output cannot be right
                expected = None
            tally.check(buf.getvalue() == expected)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _inject_fault(fault: dict) -> None:
    """Add 1 to one coefficient of every row the named engines build."""
    from stirval import stirling_core, verifier

    column = fault["column"]

    def corrupt(build):
        def faulty(n):
            row = build(n)
            coeffs = list(row.coeffs)
            if column < len(coeffs):
                coeffs[column] += 1
            return type(row)(row.n, tuple(coeffs), row.engine)

        return faulty

    for engine in fault["engines"]:
        attr = f"row_{engine}"
        for module in (stirling_core, verifier):
            setattr(module, attr, corrupt(getattr(module, attr)))


RUNNERS = {
    "paper-verify": _paper_verify,
    "dual-engine-rows": _dual_engine_rows,
    "cli-cache": _cli_cache,
}


def main(spec: dict) -> None:
    import stirval
    from stirval import stirling_core

    from tracer import Tracer

    workload, mode, out_dir = spec["workload"], spec["mode"], spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    inputs = make_inputs(workload, spec["seed"], SIZES[spec["sizes"]][workload])
    if workload == "cli-cache":
        inputs["ref"] = {n: stirling_core.row_recurrence(n).coeffs for n in inputs["pool"]}
        inputs["out_dir"] = out_dir
    print("READY", flush=True)
    if mode == "setup":
        return
    if spec["fault"]:
        _inject_fault(spec["fault"])
    tally, tracer = _Tally(), Tracer()
    with tracer if mode == "traced" else contextlib.nullcontext():
        start = perf_counter()
        RUNNERS[workload](inputs, tally, tracer.counts)
        wall = perf_counter() - start
    stamp = {
        "workload": workload,
        "seed": spec["seed"],
        "backend": "int" if stirling_core._mpz is int else "gmpy2",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "stirval": stirval.__version__,
    }
    result = {
        "stamp": stamp,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "latencies": tally.latencies,
        "engine_s": dict(tally.engine_s),
        "checks": tracer.counts["verifier.checks"],
    }
    if mode == "traced":
        result["layers"] = tracer.layer_metrics()
        tracer.dump(os.path.join(out_dir, f"trace-{workload}.jsonl"), stamp)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
