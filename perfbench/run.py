"""The stirval benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

  paper-verify      run_suite(2, 10, "all", jobs=1), the paper's own check
                    range; the seed is ignored
  dual-engine-rows  three rows, one near the middle of each third of
                    [1024, 2048], built by both engines and compared
                    coefficient by coefficient
  cli-cache         120 `value --n N --k K --cache-dir D` requests through
                    stirval.cli.dispatch, Zipf-weighted over four row sizes
                    in [256, 1792], into a new empty cache directory

Every pass runs in a fresh interpreter (perfbench/passes.py). Passes
repeat while another one fits in --seconds, and at least one runs.
Set-up (interpreter start, imports, inputs and, for cli-cache, the
reference rows) is sampled three to nine times.

With --trace 0 the run reports wall_s, setup_s and peak_rss_mb on every
workload, and also checks_per_s on paper-verify, recurrence_s and
product_tree_s on dual-engine-rows, and request_p50_s and request_p90_s
on cli-cache. With --trace 1 one untraced and one traced pass run and
the per-layer metrics are reported, with trace.overhead_ratio. Every
metric is printed by name with its unit and sample count, then
fail_ratio (failed over attempted operations). The last line of
standard output is one JSON object with correct, attempted, failed and
the metrics that BENCHMARK.json lists.

The benchmark calls only stirval's public functions; the traced pass
also wraps the names through which its modules call each other (see
tracer.py). Nothing under src/ is changed. Timing uses
time.perf_counter only. Numbers from the int and
gmpy2 backends are not comparable; each result is stamped with the
backend, the Python version, the core count and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
WORKLOADS = ("paper-verify", "dual-engine-rows", "cli-cache")
# Set-up is sampled at least three times, and up to nine while the
# samples take under two seconds, so cheap set-ups get a steadier median.
SETUP_SAMPLES = (3, 9)
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170  # the whole run must end within 180 s

# Printed and written to the result line on every workload; gated by
# the bounds in BENCHMARK.json.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Printed (not in the result line) on the workloads they describe: on
# any other workload they would be zero or restate wall_s.
WORKLOAD_METRICS = {
    "paper-verify": {"checks_per_s": "1/s"},
    "dual-engine-rows": {"recurrence_s": "s", "product_tree_s": "s"},
    "cli-cache": {"request_p50_s": "s", "request_p90_s": "s"},
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The int-to-str digit limit is part of what the CLI does by default.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def _read_line(stream, deadline: float) -> bytes:
    # Byte by byte from the unbuffered pipe, so that nothing after the
    # line is held in a buffer that communicate() would not see.
    line = b""
    while not line.endswith(b"\n"):
        if not select.select([stream], [], [], max(0.0, deadline - perf_counter()))[0]:
            raise subprocess.TimeoutExpired(stream, deadline)
        byte = stream.read(1)
        if not byte:
            break
        line += byte
    return line


def run_child(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one fresh interpreter; return (set-up seconds, pass result)."""
    cmd = [sys.executable, str(HERE / "passes.py"), json.dumps(spec)]
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = _read_line(proc.stdout, deadline)
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not end before the deadline: {spec}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"READY\n" or proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {spec}")
    if spec["mode"] == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    # With one sample, that sample.
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _spec(workload, seed, mode, sizes, fault=None) -> dict:
    return {"workload": workload, "seed": seed, "mode": mode, "sizes": sizes,
            "out_dir": str(OUT_DIR), "fault": fault}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: str = "full", fault: dict | None = None) -> dict:
    """Run the passes of one benchmark run and return its summary."""
    deadline = perf_counter() + DEADLINE_S
    # Untimed: lets the interpreter write its bytecode caches.
    run_child(_spec("paper-verify", seed, "setup", sizes), deadline)
    setups, passes, traced = [], [], None
    if trace:
        for mode in ("pass", "traced"):
            setup_s, result = run_child(_spec(workload, seed, mode, sizes, fault), deadline)
            setups.append(setup_s)
            passes.append(result)
        traced = passes[-1]
    else:
        while not passes or sum(p["wall_s"] for p in passes) + statistics.median(
                p["wall_s"] for p in passes) <= seconds:
            setup_s, result = run_child(_spec(workload, seed, "pass", sizes, fault), deadline)
            setups.append(setup_s)
            passes.append(result)
    low, high = SETUP_SAMPLES
    while len(setups) < low or (len(setups) < high and sum(setups) < SETUP_BUDGET_S):
        setups.append(run_child(_spec(workload, seed, "setup", sizes), deadline)[0])

    untraced = [p for p in passes if "layers" not in p]
    walls = [p["wall_s"] for p in untraced]
    if traced is None:
        written = END_TO_END_UNITS
        units = {**written, **WORKLOAD_METRICS[workload]}
        latencies = [x for p in untraced for x in p["latencies"]]
        engine_s = {key: statistics.median(p["engine_s"].get(key, 0) for p in untraced)
                    for key in ("recurrence_s", "product_tree_s")}
        every = {
            "wall_s": (statistics.median(walls), len(walls)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in untraced), len(walls)),
            "checks_per_s": (statistics.median(p["checks"] / p["wall_s"] for p in untraced), len(walls)),
            **{key: (value, len(walls)) for key, value in engine_s.items()},
            "request_p50_s": (statistics.median(latencies), len(latencies)),
            "request_p90_s": (_p90(latencies), len(latencies)),
        }
    else:
        written = units = LAYER_UNITS
        layers = {**traced["layers"], "trace.overhead_ratio": traced["wall_s"] / walls[0]}
        every = {name: (value, 1) for name, value in layers.items()}
    attempted = sum(p["attempted"] for p in passes)
    return {
        "stamp": passes[0]["stamp"],
        "passes": len(passes),
        "printed": [(name, *every[name], unit) for name, unit in units.items()],
        "metrics": {name: {"value": every[name][0], "unit": unit} for name, unit in written.items()},
        "correct": all(p["wrong"] == 0 for p in passes) and attempted > 0,
        "attempted": attempted,
        "failed": sum(p["failed"] for p in passes),
    }


def report(summary: dict) -> str:
    """Print the readable lines; return the result line."""
    print(" ".join(f"{k}={v}" for k, v in summary["stamp"].items()) + f" passes={summary['passes']}")
    for name, value, n, unit in summary["printed"]:
        print(f"{name} {value:.6g} {unit} (median of {n})")
    failed, attempted = summary["failed"], summary["attempted"]
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} operations)")
    return json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stirval" / "__init__.py").is_file():
        print(f"error: no stirval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
