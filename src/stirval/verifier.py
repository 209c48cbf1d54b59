"""Brute-force verification of the valuation claims against exact rows.

Every check follows the same shape: build the relevant rows exactly,
derive the claimed quantity, compare. Ground-truth rows are always
computed by BOTH engines (recurrence and product tree) and must agree
coefficientwise before any claim is evaluated; shifted rows are
likewise expanded twice, once balanced and once sequentially. A report
carries the total number of instances checked, the true number that
failed, and a sample of the failing ones (capped), never just the
first failure, because diagnosing a systematic off-by-one needs the
full pattern.

Available checks:

  theorem1      predicted v2 of every column of s(2**n, .)
  theorem2      v2 transfer from row 2**n to row 2**n + 1
  lemma24       shifted row s_{2**n}(2**n, .) valuation match and lift
  lemma25       odd/even column pairing within a row
  identities    convolution, shifted-sum, half-sum, mod-m congruence
  inequalities  two-step lower bound, adjacent drop bound, row maximum
                at column 1, harmonic upper bound (read from the integer
                row 2**n + 1 via n! * H(n,k) = s(n+1,k+1), not from the
                rational table)
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .formulas import predict_valuation
from .harmonic import bound_margin
from .padic import INFINITE, vp_int
from .stirling_core import (
    _expand_chain,
    convolution_rhs,
    lemma21_rhs,
    row_product_tree,
    row_recurrence,
    shifted_row_expand,
    shifted_value_sum,
)

FAILURE_CAP = 100
GROUND_TRUTH_ENGINE = "recurrence+product_tree"
SUITE_IDS = ("theorem1", "theorem2", "lemma24", "lemma25", "identities", "inequalities")

# Smallest n each per-n check is defined for; run_suite skips below it.
_SUITE_MIN_N = {
    "theorem1": 1,
    "theorem2": 1,
    "lemma24": 2,
    "lemma25": 2,
    "inequalities": 2,
}

_IDENTITY_SWEEP_CAP = 64


@dataclass(frozen=True)
class CheckResult:
    """One verified instance; expected may be a predicate description."""

    check_id: str
    instance: tuple
    expected: object
    actual: object
    passed: bool


@dataclass
class CheckReport:
    suite: str
    range: tuple
    total: int
    failures_total: int
    failures: list[CheckResult]
    elapsed: float
    ground_truth_engine: str = GROUND_TRUTH_ENGINE


@dataclass
class _Collector:
    total: int = 0
    failed: int = 0
    failures: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, instance: tuple, expected, actual, passed: bool) -> None:
        self.total += 1
        if passed:
            return
        self.failed += 1
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(CheckResult(check_id, instance, expected, actual, passed))

    def report(self, suite: str, sweep: tuple, started: float) -> CheckReport:
        ordered = sorted(self.failures, key=lambda r: (r.check_id, r.instance))
        return CheckReport(suite, sweep, self.total, self.failed, ordered, time.perf_counter() - started)


@lru_cache(maxsize=256)
def _verified_plain_coeffs(n: int) -> tuple[int, ...]:
    rec = row_recurrence(n)
    tree = row_product_tree(n)
    if rec.coeffs != tree.coeffs:
        raise ConsistencyError(f"engines disagree on row {n}")
    return rec.coeffs


@lru_cache(maxsize=2048)
def _verified_shifted_coeffs(m: int, n: int) -> tuple[int, ...]:
    tree = shifted_row_expand(m, n)
    chain = tuple(_expand_chain(m, m + n))
    if tree.coeffs != chain:
        raise ConsistencyError(f"expansions disagree on shifted row ({m}, {n})")
    return tree.coeffs


def check_theorem1(n: int) -> CheckReport:
    """Compare predicted v2 against the actual row s(2**n, .)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    started = time.perf_counter()
    col = _Collector()
    row = _verified_plain_coeffs(2 ** n)
    for t in range(1, 2 ** n + 1):
        expected = predict_valuation(n, t).predicted
        actual = vp_int(2, row[t])
        col.add("theorem1", (n, t), expected, actual, expected == actual)
    return col.report("theorem1", (n,), started)


def check_theorem2(n: int) -> CheckReport:
    """Check v2(s(2**n + 1, k+1)) = v2(s(2**n, k)) for every k."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    started = time.perf_counter()
    col = _Collector()
    base = _verified_plain_coeffs(2 ** n)
    lifted = _verified_plain_coeffs(2 ** n + 1)
    for k in range(1, 2 ** n + 1):
        expected = vp_int(2, base[k])
        actual = vp_int(2, lifted[k + 1])
        col.add("theorem2", (n, k), expected, actual, expected == actual)
    return col.report("theorem2", (n,), started)


def check_lemma24(n: int) -> CheckReport:
    """Check the shifted row s_{2**n}(2**n, .) against the plain row.

    Two conditions per column t: equal valuations, and the difference
    of the two numbers gains at least two extra factors of 2. A zero
    difference has valuation INFINITE and passes trivially.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    started = time.perf_counter()
    col = _Collector()
    plain = _verified_plain_coeffs(2 ** n)
    shifted = _verified_shifted_coeffs(2 ** n, 2 ** n)
    for t in range(1, 2 ** n + 1):
        v_plain = vp_int(2, plain[t])
        v_shift = vp_int(2, shifted[t])
        col.add("lemma24", (n, t, "eq"), v_plain, v_shift, v_plain == v_shift)
        v_diff = vp_int(2, shifted[t] - plain[t])
        col.add(
            "lemma24",
            (n, t, "lift"),
            f">= {v_plain + 2}",
            v_diff,
            v_diff >= v_plain + 2,
        )
    return col.report("lemma24", (n,), started)


def check_lemma25(n: int) -> CheckReport:
    """Check v2(s(2**n, 2i-1)) = v2(s(2**n, 2i)) + n - 1 for all pairs."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    started = time.perf_counter()
    col = _Collector()
    row = _verified_plain_coeffs(2 ** n)
    for i in range(1, 2 ** (n - 1) + 1):
        expected = vp_int(2, row[2 * i]) + n - 1
        actual = vp_int(2, row[2 * i - 1])
        col.add("lemma25", (n, i), expected, actual, expected == actual)
    return col.report("lemma25", (n,), started)


def check_identities(m_max: int, n_max: int) -> CheckReport:
    """Sweep the algebraic identities over all shifts and sizes in range.

    Covers four families: the convolution s(m+n,k) = sum s(m,i)
    s_m(n,k-i); the shifted-sum formula for s_m(n,k); the half-sum
    formula for s(n,k) with n+k odd; and s_m(n,k) = s(n,k) (mod m).
    Capped at 64 per axis because the sweep is quartic.
    """
    if m_max < 0 or n_max < 0:
        raise DomainError(f"sweep bounds must be >= 0, got ({m_max}, {n_max})")
    if m_max > _IDENTITY_SWEEP_CAP or n_max > _IDENTITY_SWEEP_CAP:
        raise ResourceLimitError(f"identity sweep capped at {_IDENTITY_SWEEP_CAP} per axis")
    started = time.perf_counter()
    col = _Collector()
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            merged = _verified_plain_coeffs(m + n)
            for k in range(m + n + 1):
                expected = merged[k]
                actual = convolution_rhs(m, n, k)
                col.add("convolution", (n, m, k), expected, actual, expected == actual)
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            shifted = _verified_shifted_coeffs(m, n)
            for k in range(n + 1):
                expected = shifted[k]
                actual = shifted_value_sum(m, n, k)
                col.add("shifted_sum", (n, m, k), expected, actual, expected == actual)
    for n in range(1, n_max + 1):
        row = _verified_plain_coeffs(n)
        for k in range(1, n + 1):
            if (n + k) % 2 == 0:
                continue
            expected = row[k]
            actual = lemma21_rhs(n, k)
            col.add("half_sum", (n, k), expected, actual, expected == actual)
    for m in range(1, m_max + 1):
        for n in range(n_max + 1):
            shifted = _verified_shifted_coeffs(m, n)
            plain = _verified_plain_coeffs(n)
            for k in range(n + 1):
                residue = (shifted[k] - plain[k]) % m
                col.add("shift_congruence", (n, m, k), 0, residue, residue == 0)
    return col.report("identities", (m_max, n_max), started)


def check_inequalities(n: int) -> CheckReport:
    """Check the valuation inequalities on row s(2**n, .).

    Four families: v2(s(2**n,i+1)) >= v2(s(2**n,i-1)) - 2n + 4 for
    3 <= i <= 2**n - 1; v2(s(2**n,k+1)) > v2(s(2**n,k)) - n for
    1 <= k <= 2**n (the entry above the top is 0, valuation INFINITE);
    v2(s(2**n,k)) <= v2(s(2**n,1)); and v2(H(2**n,k)) + n <= 0, where
    bound_margin reads v2(H(2**n,k)) from the integer row 2**n + 1
    through (2**n)! * H(2**n,k) = s(2**n+1,k+1) and Legendre's formula.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    started = time.perf_counter()
    col = _Collector()
    top = 2 ** n
    row = _verified_plain_coeffs(top)
    vals = [INFINITE] + [vp_int(2, row[t]) for t in range(1, top + 1)]
    for i in range(3, top):
        bound = vals[i - 1] - 2 * n + 4
        col.add("step_lower_bound", (n, i), f">= {bound}", vals[i + 1], vals[i + 1] >= bound)
    for k in range(1, top + 1):
        above = vals[k + 1] if k + 1 <= top else INFINITE
        bound = vals[k] - n
        col.add("adjacent_drop_bound", (n, k), f"> {bound}", above, above > bound)
    v_first = vals[1]
    for k in range(1, top + 1):
        col.add("max_at_first_index", (n, k), f"<= {v_first}", vals[k], vals[k] <= v_first)
    for k in range(1, top + 1):
        margin = bound_margin(n, k)
        col.add("harmonic_bound", (n, k), "<= 0", margin, margin <= 0)
    return col.report("inequalities", (n,), started)


def _run_task(task: tuple) -> CheckReport:
    kind, arg = task
    if kind == "identities":
        return check_identities(*arg)
    runner = {
        "theorem1": check_theorem1,
        "theorem2": check_theorem2,
        "lemma24": check_lemma24,
        "lemma25": check_lemma25,
        "inequalities": check_inequalities,
    }[kind]
    return runner(arg)


def run_suite(n_min: int, n_max: int, checks="all", jobs: int | None = 1) -> CheckReport:
    """Run the selected checks for every n in [n_min, n_max] and merge.

    checks is "all" or an iterable of ids from SUITE_IDS. The
    identities sweep does not depend on a single n, so it runs once
    with both axes set to n_max. Per-n checks are skipped for n below
    their smallest valid argument. jobs > 1 fans independent tasks out
    to worker processes; the merged report is identical either way.
    """
    if n_min < 1 or n_min > n_max:
        raise DomainError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if checks == "all":
        selected = list(SUITE_IDS)
    else:
        selected = sorted(set(checks))
        unknown = [c for c in selected if c not in SUITE_IDS]
        if unknown:
            raise DomainError(f"unknown check ids: {', '.join(map(str, unknown))}")
    started = time.perf_counter()
    tasks: list[tuple] = []
    for check in selected:
        if check == "identities":
            tasks.append(("identities", (n_max, n_max)))
            continue
        for n in range(max(n_min, _SUITE_MIN_N[check]), n_max + 1):
            tasks.append((check, n))

    if jobs is None:
        jobs = _available_cores()
    if jobs > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_run_task, tasks))
        except (OSError, PermissionError) as exc:
            warnings.warn(f"worker pool unavailable ({exc}); running serially")
            reports = [_run_task(t) for t in tasks]
    else:
        reports = [_run_task(t) for t in tasks]

    total = sum(r.total for r in reports)
    failures: list[CheckResult] = []
    for r in reports:
        failures.extend(r.failures)
    failures.sort(key=lambda r: (r.check_id, r.instance))
    del failures[FAILURE_CAP:]
    failed = sum(r.failures_total for r in reports)
    suite = "all" if checks == "all" else "+".join(selected)
    return CheckReport(suite, (n_min, n_max), total, failed, failures, time.perf_counter() - started)


def _available_cores() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1
