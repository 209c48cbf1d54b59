"""Brute-force verification suites: totals, fixtures, failure plumbing."""

import warnings

import pytest

import stirval.formulas as formulas_mod
from stirval.errors import DomainError
from stirval.padic import INFINITE, vp_int
from stirval.stirling_core import row_product_tree, shifted_row_expand
from stirval.verifier import (
    FAILURE_CAP,
    SUITE_IDS,
    CheckReport,
    CheckResult,
    check_identities,
    check_inequalities,
    check_lemma24,
    check_lemma25,
    check_theorem1,
    check_theorem2,
    run_suite,
)

V_ROW_8 = [4, 2, 2, 0, 3, 1, 2, 0]  # v2(s(8, k)) for k = 1..8


class TestTheorem1Check:
    def test_row_4(self):
        r = check_theorem1(2)
        assert r.total == 4
        assert r.failures == []

    def test_row_2_boundaries_only(self):
        r = check_theorem1(1)
        assert r.total == 2
        assert r.failures == []

    def test_row_8_against_known_valuations(self):
        row = row_product_tree(8).coeffs
        assert [vp_int(2, row[k]) for k in range(1, 9)] == V_ROW_8
        r = check_theorem1(3)
        assert r.total == 8
        assert r.failures == []

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_theorem1(0)


class TestTheorem2Check:
    def test_small_rows(self):
        r = check_theorem2(1)
        assert r.total == 2 and not r.failures
        r = check_theorem2(3)
        assert r.total == 8 and not r.failures

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_theorem2(0)


class TestLemma24Check:
    def test_row_4(self):
        r = check_lemma24(2)
        # one equality and one lifting check per column
        assert r.total == 8
        assert r.failures == []

    def test_fixture_column_3(self):
        # shifted coefficient 22 vs plain 6: equal v2, difference 16
        shifted = shifted_row_expand(4, 4).coeffs
        assert shifted[3] == 22
        assert vp_int(2, 22) == vp_int(2, 6) == 1
        assert vp_int(2, 22 - 6) == 4 >= 1 + 2

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_lemma24(1)


class TestLemma25Check:
    def test_row_4(self):
        r = check_lemma25(2)
        assert r.total == 2
        assert r.failures == []

    def test_pairing_shape_row_8(self):
        # odd columns sit exactly n-1 above their even neighbours
        for i in range(1, 5):
            assert V_ROW_8[2 * i - 2] == V_ROW_8[2 * i - 1] + 2

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_lemma25(1)


class TestIdentitiesCheck:
    def test_small_sweep(self):
        r = check_identities(2, 2)
        assert r.total == 58
        assert r.failures == []

    def test_check_ids_present(self):
        # force a failure-free run and inspect the spread via a mutant below;
        # here just confirm the sweep covers all four families at tiny size
        r = check_identities(1, 1)
        assert r.total > 0 and not r.failures

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            check_identities(-1, 2)
        from stirval.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            check_identities(65, 2)


class TestInequalitiesCheck:
    def test_totals(self):
        assert check_inequalities(2).total == 13
        assert check_inequalities(3).total == 29

    def test_row_8_bounds_by_hand(self):
        vals = [INFINITE] + V_ROW_8
        n = 3
        for i in range(3, 8):
            assert vals[i + 1] >= vals[i - 1] - 2 * n + 4
        for k in range(1, 8):
            assert vals[k + 1] > vals[k] - n
        assert max(V_ROW_8) == V_ROW_8[0]

    def test_no_failures_through_row_32(self):
        for n in (2, 3, 4, 5):
            assert check_inequalities(n).failures == []

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_inequalities(1)


class TestRunSuite:
    def test_all_suites_tiny_range(self):
        r = run_suite(2, 2, "all", jobs=1)
        assert isinstance(r, CheckReport)
        assert r.suite == "all"
        assert r.range == (2, 2)
        assert r.total == 89
        assert r.failures == []
        assert r.elapsed >= 0
        assert r.ground_truth_engine == "recurrence+product_tree"

    def test_subset_selection_and_name(self):
        r = run_suite(2, 3, ["theorem1", "lemma25"], jobs=1)
        assert r.suite == "lemma25+theorem1"
        assert r.total == 18
        assert not r.failures

    def test_min_n_filtering(self):
        # lemma suites only start at n = 2; n = 1 contributes nothing to them
        r1 = run_suite(1, 2, ["lemma25"], jobs=1)
        r2 = run_suite(2, 2, ["lemma25"], jobs=1)
        assert r1.total == r2.total

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite(2, 3, ["nonsense"], jobs=1)

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            run_suite(3, 2, "all", jobs=1)
        with pytest.raises(DomainError):
            run_suite(0, 2, "all", jobs=1)

    def test_parallel_matches_serial(self):
        serial = run_suite(2, 4, "all", jobs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pool may be unavailable in a sandbox
            parallel = run_suite(2, 4, "all", jobs=2)
        assert parallel.suite == serial.suite
        assert parallel.range == serial.range
        assert parallel.total == serial.total
        assert parallel.failures == serial.failures

    def test_suite_ids_constant(self):
        assert set(SUITE_IDS) == {
            "theorem1",
            "theorem2",
            "lemma24",
            "lemma25",
            "identities",
            "inequalities",
        }


class TestFailurePlumbing:
    def test_mutant_formula_is_caught(self, monkeypatch):
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(
            formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
        )
        r = check_theorem1(2)
        assert r.total == 4
        # boundary columns bypass the mutated formula, interior ones fail
        assert len(r.failures) == 2
        for f in r.failures:
            assert isinstance(f, CheckResult)
            assert not f.passed
            assert f.check_id == "theorem1"
            assert f.expected == f.actual + 1

    def test_failures_sorted_and_capped(self, monkeypatch):
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(
            formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
        )
        r = run_suite(2, 8, ["theorem1"], jobs=1)
        assert len(r.failures) == FAILURE_CAP == 100
        # the true count goes past the sample cap: every column but the
        # two boundary ones fails
        assert r.failures_total == sum(2**n - 2 for n in range(2, 9)) > FAILURE_CAP
        assert r.failures == sorted(r.failures, key=lambda f: (f.check_id, f.instance))
        # totals still count every instance, not just retained failures
        assert r.total == sum(2**n for n in range(2, 9))
