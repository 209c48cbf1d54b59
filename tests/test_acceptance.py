"""Acceptance gate: one test per shipped claim, reported as a checklist.

Each test exercises one end-to-end criterion against brute-force ground
truth and records a PASS/FAIL line that pytest prints in its terminal
summary. Failures here mean the library does not deliver what the
README promises.
"""

import math
import time

from conftest import record_criterion

import stirval.formulas as formulas_mod
from stirval.formulas import (
    corollary13_valuation,
    komatsu_young_valuation,
    lengyel_small_k,
    predict_valuation,
    theorem1_valuation,
)
from stirval.harmonic import bound_margin
from stirval.padic import factorial_valuation, vp_int
from stirval.stirling_core import row_product_tree, row_recurrence, shifted_row_expand, stirling
from stirval.verifier import (
    check_identities,
    check_lemma24,
    check_lemma25,
    check_theorem1,
    run_suite,
)


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    record_criterion(num, description, passed)
    assert passed, f"criterion {num} failed: {description} {detail}".rstrip()


def test_criterion_1_interior_predictions_match_brute_force():
    desc = "closed-form v2 predictions match every column of rows 4..1024"
    report = run_suite(2, 10, ["theorem1"])
    spot = vp_int(2, stirling(4, 2)) == 0 and vp_int(2, stirling(4, 1)) == 1
    ok = report.total == 2044 and report.failures == [] and spot and report.elapsed < 120
    _report(1, desc, ok, f"total={report.total} failures={len(report.failures)} elapsed={report.elapsed:.1f}s")


def test_criterion_2_row_extension_transfer():
    desc = "v2 transfers unchanged from row 2**n to row 2**n + 1 for n=1..10"
    report = run_suite(1, 10, ["theorem2"])
    ok = report.total == 2046 and report.failures == []
    _report(2, desc, ok, f"total={report.total} failures={len(report.failures)}")


def test_criterion_3_specializations_agree():
    desc = "slice, power-column, and small-column formulas agree with the general one for n<=16"
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 17):
        for k in range(2, 2 ** (n - 1) + 2):
            ok = ok and corollary13_valuation(n, k) == theorem1_valuation(n, n, k)
        for m in range(1, n):
            ok = ok and theorem1_valuation(n, m + 1, 2**m) == komatsu_young_valuation(n, m)
        for k in (2, 3):
            ok = ok and lengyel_small_k(n, k) == predict_valuation(n, k).predicted
    elapsed = time.perf_counter() - t0
    ok = ok and vp_int(2, stirling(8, 4)) == 0 == komatsu_young_valuation(3, 2)
    ok = ok and vp_int(2, stirling(16, 4)) == 4 == komatsu_young_valuation(4, 2)
    ok = ok and elapsed < 1.0
    _report(3, desc, ok, f"elapsed={elapsed:.3f}s")


def test_criterion_4_extremal_column_and_harmonic_bound():
    desc = "column 1 maximizes v2 in rows 2..1024 and v2(H(2**n,k)) <= -n throughout"
    ok = True
    for n in range(1, 11):
        row = row_product_tree(2**n).coeffs
        vals = [vp_int(2, row[k]) for k in range(1, 2**n + 1)]
        ok = ok and max(vals) == vals[0]
        ok = ok and all(bound_margin(n, k) <= 0 for k in range(1, 2**n + 1))
    _report(4, desc, ok)


def test_criterion_5_identity_sweep_and_shifted_fixtures():
    desc = "identity sweep at (32,32) and shifted-row valuation checks for n=2..8"
    ok = check_identities(32, 32).failures == []
    for n in range(2, 9):
        ok = ok and check_lemma24(n).failures == []
        ok = ok and check_lemma25(n).failures == []
    fixture = shifted_row_expand(4, 4).coeffs
    ok = ok and fixture[3] == 22 == 2 * (3 * 4 - 1)
    ok = ok and fixture[0] == 840 == math.factorial(7) // math.factorial(3)
    _report(5, desc, ok)


def test_criterion_6_step_and_drop_inequalities():
    desc = "step and drop inequalities hold across rows 4..1024"
    report = run_suite(2, 10, ["inequalities"])
    ok = report.failures == [] and report.total > 0
    _report(6, desc, ok, f"total={report.total} failures={len(report.failures)}")


def test_criterion_7_dual_engine_equivalence():
    desc = "both row engines agree for all n<=512 and at n in {1000, 2048, 4096}"
    ok = True
    for n in list(range(0, 513)) + [1000, 2048, 4096]:
        ok = ok and row_recurrence(n).coeffs == row_product_tree(n).coeffs
        if not ok:
            break
    _report(7, desc, ok, f"first divergence near n={n}" if not ok else "")


def test_criterion_8_digit_sum_valuation_of_factorials():
    desc = "digit-sum valuation of n! matches direct v2 for all n<=2000"
    ok = True
    f = 1
    for n in range(1, 2001):
        f *= n
        if factorial_valuation(2, n) != vp_int(2, f):
            ok = False
            break
    _report(8, desc, ok, f"first mismatch at n={n}" if not ok else "")


def test_criterion_9_mutation_sensitivity(monkeypatch):
    desc = "a +1 mutation of the interior formula is detected for every n=2..6"
    original = formulas_mod.theorem1_valuation
    monkeypatch.setattr(
        formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
    )
    ok = all(len(check_theorem1(n).failures) >= 1 for n in range(2, 7))
    _report(9, desc, ok)
