"""Self-test of the benchmark at toy sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks that:
  - every workload prints exactly the metrics BENCHMARK.json names, each
    with its unit, untraced and traced, and passes its gates;
  - a row engine that adds 1 to one coefficient is caught on every
    workload (failed > 0 and correct is false), so no gate is vacuous;
  - without the stirval sources the command exits non-zero and prints
    no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import passes
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _expect(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _report(summary: dict) -> tuple[dict, dict]:
    """The result line, and unit by name from the readable lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = json.loads(run.report(summary))
    lines = buf.getvalue().splitlines()[1:]
    return out, {line.split()[0]: line.split()[2] for line in lines}


def check_metrics(failures: list) -> None:
    for trace, key, units in ((False, "end_to_end", run.END_TO_END_UNITS),
                              (True, "per_layer", run.LAYER_UNITS)):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        _expect(wanted == units, f"{key} names and units match BENCHMARK.json", failures)
        for workload in run.WORKLOADS:
            out, printed = _report(run.measure(workload, 7, 0, trace, sizes="toy"))
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            _expect(got == wanted, f"{workload} trace={int(trace)} writes every {key} metric", failures)
            shown = {**wanted, "fail_ratio": "ratio"}
            if not trace:
                shown.update(run.WORKLOAD_METRICS[workload])
            _expect(printed == shown, f"{workload} trace={int(trace)} prints {sorted(set(shown) - set(wanted))}"
                    " and every written metric, with units", failures)
            _expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                    f"{workload} trace={int(trace)} passes its gates", failures)
            if not trace:
                _expect(all(m["value"] > 0 for m in out["metrics"].values()),
                        f"{workload} end-to-end metrics are all non-zero", failures)


def check_faults(failures: list) -> None:
    toy = passes.SIZES["toy"]
    first_k = passes.make_inputs("cli-cache", 7, toy["cli-cache"])["requests"][0][1]
    faults = [
        ("paper-verify", {"engines": ["product_tree"], "column": 1}),
        ("paper-verify", {"engines": ["recurrence", "product_tree"], "column": 1}),
        ("dual-engine-rows", {"engines": ["product_tree"], "column": 5}),
        ("dual-engine-rows", {"engines": ["recurrence", "product_tree"], "column": 5}),
        ("cli-cache", {"engines": ["product_tree"], "column": first_k}),
    ]
    for workload, fault in faults:
        out, _ = _report(run.measure(workload, 7, 0, False, sizes="toy", fault=fault))
        _expect(out["failed"] > 0 and not out["correct"],
                f"{workload} counts +1 on column {fault['column']} of {'+'.join(fault['engines'])}"
                f" ({out['failed']}/{out['attempted']} failed)", failures)


def check_bare_directory(failures: list) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0 and not proc.stdout.strip(),
            f"without sources: exit {proc.returncode}, no result printed", failures)


def main() -> int:
    failures: list = []
    check_metrics(failures)
    check_faults(failures)
    check_bare_directory(failures)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
