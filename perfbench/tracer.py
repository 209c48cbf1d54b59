"""Layer tracing for the stirval benchmark, from outside the package.

The traced pass replaces, on the imported modules, the names through
which one stirval module calls the next (for example the verifier's
``row_product_tree`` or the CLI's ``cache_load``) with wrappers that
record one span per call: name, start, end and the span that caused
it. Spans stay in memory and are written out once the pass ends. Self
time is a span's duration minus the time covered by its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from time import perf_counter

SUITES = ("theorem1", "theorem2", "lemma24", "lemma25", "identities", "inequalities")
ROW_ENGINES = ("recurrence", "product_tree", "shifted")


def _coeff_mbit(row) -> float:
    return sum(c.bit_length() for c in row.coeffs) / 1e6


def _count_out_mbit(tracer, name, args, result):
    tracer.counts[f"{name}.out_mbit"] += _coeff_mbit(result)


def _count_checksum(tracer, name, args, result):
    tracer.counts["cache.checksum.mbyte"] += len(args[0]) / 1e6


def _count_load(tracer, name, args, result):
    from stirval.cache import entry_path

    n, shift, directory = args
    if result is not None:
        tracer.counts["cache.hits"] += 1
    elif os.path.exists(entry_path(n, shift, directory)):
        tracer.counts["cache.discarded"] += 1


def _count_store(tracer, name, args, result):
    from stirval.cache import entry_path

    entry, directory = args
    tracer.counts["cache.bytes_written"] += os.path.getsize(entry_path(entry.n, entry.shift, directory))


# (module, attribute, span name, counter hook). Each entry is one call
# boundary between two stirval modules, or between the benchmark and
# the module it drives.
_BOUNDARIES = [
    ("stirval.stirling_core", "row_recurrence", "stirling_core.recurrence", _count_out_mbit),
    ("stirval.verifier", "row_recurrence", "stirling_core.recurrence", _count_out_mbit),
    ("stirval.stirling_core", "row_product_tree", "stirling_core.product_tree", _count_out_mbit),
    ("stirval.verifier", "row_product_tree", "stirling_core.product_tree", _count_out_mbit),
    ("stirval.stirling_core", "shifted_row_expand", "stirling_core.shifted", None),
    ("stirval.verifier", "shifted_row_expand", "stirling_core.shifted", None),
    ("stirval.verifier", "_expand_chain", "stirling_core.shifted", None),
    ("stirval.harmonic", "harmonic_table", "harmonic.table", None),
    ("stirval.verifier", "bound_margin", "harmonic.bound_margin", None),
    ("stirval.verifier", "vp_int", "padic.vp_int", None),
    ("stirval.formulas", "vp_int", "padic.vp_int", None),
    ("stirval.harmonic", "vp_rat", "padic.vp_rat", None),
    ("stirval.verifier", "predict_valuation", "formulas.predict", None),
    ("stirval.cli", "dispatch", "cli.dispatch", None),
    ("stirval.cli", "cache_load", "cache.load", _count_load),
    ("stirval.cli", "cache_store", "cache.store", _count_store),
    ("stirval.cache", "fnv1a64", "cache.checksum", _count_checksum),
] + [("stirval.verifier", f"check_{suite}", f"verifier.{suite}", None) for suite in SUITES]

# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "stirling_core.recurrence.busy_s": "s",
    "stirling_core.recurrence.calls": "count",
    "stirling_core.recurrence.out_mbit": "Mbit",
    "stirling_core.product_tree.busy_s": "s",
    "stirling_core.product_tree.calls": "count",
    "stirling_core.product_tree.out_mbit": "Mbit",
    "stirling_core.shifted.busy_s": "s",
    "stirling_core.shifted.calls": "count",
    "harmonic.table.busy_s": "s",
    "harmonic.table.calls": "count",
    "harmonic.bound_margin.self_s": "s",
    "padic.vp_int.busy_s": "s",
    "padic.vp_int.calls": "count",
    "padic.vp_rat.busy_s": "s",
    "padic.vp_rat.calls": "count",
    "formulas.predict.busy_s": "s",
    "formulas.predict.calls": "count",
    **{f"verifier.{suite}.{kind}": "s" for suite in SUITES for kind in ("busy_s", "self_s")},
    "verifier.checks": "count",
    **{f"verifier.rows_built.{engine}": "count" for engine in ROW_ENGINES},
    "cache.load.busy_s": "s",
    "cache.load.calls": "count",
    "cache.store.busy_s": "s",
    "cache.store.calls": "count",
    "cache.checksum.busy_s": "s",
    "cache.checksum.mbyte": "MB",
    "cache.hit_ratio": "ratio",
    "cache.discarded": "count",
    "cache.bytes_written": "B",
    "cli.dispatch.self_s": "s",
    "cli.requests": "count",
    "trace.overhead_ratio": "ratio",
}


def _install(wrap) -> list:
    """Replace every boundary name with wrap(original, ...); return an undo list."""
    undo = []
    for module_name, attr, name, hook in _BOUNDARIES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, wrap(original, name, hook))
    return undo


def _restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Records one span per boundary call while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, original, name, hook):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on exit
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if hook is not None:
                hook(self, name, args, result)
            return result

        return traced

    def __enter__(self):
        self._undo = _install(self._wrap)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)

    def layer_metrics(self) -> dict[str, float]:
        busy: Counter = Counter()
        child: Counter = Counter()
        calls: Counter = Counter()
        rows_built: Counter = Counter()
        names = {s[0]: s[2] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        for sid, parent, name, start, end in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[names[parent]] += end - start
            engine = name.removeprefix("stirling_core.")
            if engine in ROW_ENGINES and self._under_verifier(parent, names, parents):
                rows_built[engine] += 1
        loads = calls["cache.load"]
        out = {}
        for metric in LAYER_UNITS:
            layer, _, kind = metric.rpartition(".")
            if kind == "busy_s":
                out[metric] = busy[layer]
            elif kind == "self_s":
                out[metric] = busy[layer] - child[layer]
            elif kind == "calls":
                out[metric] = calls[layer]
            elif layer == "verifier.rows_built":
                out[metric] = rows_built[kind]
            elif metric == "cli.requests":
                out[metric] = calls["cli.dispatch"]
            elif metric == "cache.hit_ratio":
                out[metric] = self.counts["cache.hits"] / loads if loads else 0.0
            elif metric != "trace.overhead_ratio":
                out[metric] = self.counts[metric]
        return out

    @staticmethod
    def _under_verifier(sid: int, names: dict, parents: dict) -> bool:
        while sid >= 0:
            if names[sid].startswith("verifier."):
                return True
            sid = parents[sid]
        return False

    def dump(self, path: str, stamp: dict) -> None:
        """Write the stamp and then one JSON line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(stamp) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
