"""Elementary symmetric functions of 1, 1/2, ..., 1/n and related checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stirval.harmonic as harmonic_mod
import stirval.stirling_core as stirling_mod
from stirval.errors import ConsistencyError, DomainError, ResourceLimitError
from stirval.harmonic import (
    HarmonicTable,
    bound_margin,
    conjecture_scan,
    harmonic_table,
    identity_residual,
)
from stirval.padic import vp_rat
from stirval.stirling_core import row_recurrence, stirling


class TestHarmonicTable:
    def test_small_tables(self):
        assert harmonic_table(1).values == (Fraction(1), Fraction(1))
        t = harmonic_table(2)
        assert t.values == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        t = harmonic_table(4)
        assert t.n == 4
        assert t.values[1] == Fraction(25, 12)
        assert t.values[2] == Fraction(35, 24)
        assert t.values[4] == Fraction(1, 24)

    def test_types_and_shape(self):
        t = harmonic_table(7)
        assert isinstance(t, HarmonicTable)
        assert len(t.values) == 8
        assert all(isinstance(v, Fraction) for v in t.values)
        assert t.values[0] == 1

    def test_last_entry_is_reciprocal_factorial(self):
        for n in (1, 2, 5, 9, 30):
            assert harmonic_table(n).values[n] == Fraction(1, math.factorial(n))

    def test_positivity_and_newton_log_concavity(self):
        n = 12
        t = harmonic_table(n)
        assert all(v > 0 for v in t.values)
        # normalized entries of a real-rooted polynomial are log-concave
        norm = [t.values[k] / math.comb(n, k) for k in range(n + 1)]
        for k in range(1, n):
            assert norm[k] ** 2 >= norm[k - 1] * norm[k + 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic_table(0)
        with pytest.raises(DomainError):
            harmonic_table(-1)

    def test_table_cap(self, monkeypatch):
        # table n reads row n + 1, so the row cap limits it through that row
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 9)
        with pytest.raises(ResourceLimitError):
            harmonic_table(9)
        assert harmonic_table(8).n == 8
        # the cap holds even for a row that is already cached
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 8)
        with pytest.raises(ResourceLimitError):
            harmonic_table(8)

    def test_reads_row_not_fold(self, monkeypatch):
        def refuse(e, i):
            raise AssertionError("harmonic_table folded")

        monkeypatch.setattr(harmonic_mod, "_fold", refuse)
        harmonic_mod._cached_values.cache_clear()
        assert harmonic_table(40).values[40] == Fraction(1, math.factorial(40))

    def test_equals_fold(self):
        # the table reads integer rows; the fold shares no code with them
        e = [Fraction(1)] + [Fraction(0)] * 256
        for i in range(1, 257):
            harmonic_mod._fold(e, i)
            assert harmonic_table(i).values == tuple(e[: i + 1]), i

    def test_shared_step_fault_fails_row_invariants(self, monkeypatch):
        # (x + c + 1) in the step both row routes share builds
        # (x+1)(x+2)...(x+n+1): s(n+1, 1) and the row sum both come out wrong
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        stirling_mod._cached_coeffs.cache_clear()
        try:
            with pytest.raises(ConsistencyError):
                harmonic_table(20)
        finally:
            stirling_mod._cached_coeffs.cache_clear()

    def test_row_sum_checked(self, monkeypatch):
        # a wrong top coefficient leaves s(n+1, 1) = n! but not the sum
        bad = row_recurrence(21).coeffs[:-1] + (2,)
        monkeypatch.setattr(harmonic_mod, "_cached_coeffs", lambda n, shift: bad)
        with pytest.raises(ConsistencyError, match="sum"):
            harmonic_table(20)

    def test_given_row(self):
        for n in (1, 5, 20):
            assert harmonic_table(n, row=row_recurrence(n + 1).coeffs) == harmonic_table(n)
        row = row_recurrence(9).coeffs
        for bad in (row[:-1], row + (0,)):
            with pytest.raises(DomainError):
                harmonic_table(8, row=bad)
        # a given row meets the same checks as a read one
        with pytest.raises(ConsistencyError, match="sum"):
            harmonic_table(8, row=row[:-1] + (2,))

    def test_requests_out_of_order(self):
        # a smaller table requested after a larger one must still be exact
        harmonic_table(40)
        t = harmonic_table(6)
        assert t.values[1] == Fraction(49, 20)
        assert t.values[6] == Fraction(1, 720)
        assert harmonic_table(6).values == t.values

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=60))
    def test_defining_recursion(self, n):
        # H(n, k) = H(n-1, k) + H(n-1, k-1) / n
        prev = harmonic_table(n - 1).values
        cur = harmonic_table(n).values
        for k in range(1, n):
            assert cur[k] == prev[k] + prev[k - 1] / n


class TestIdentityResidual:
    def test_examples(self):
        assert identity_residual(4, 2) == 0
        assert identity_residual(1, 1) == 0
        assert identity_residual(7, 3) == 0

    def test_sweep(self):
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert identity_residual(n, k) == 0, (n, k)

    def test_definition(self):
        # residual is n! * H(n, k) - s(n+1, k+1), always an integer
        n, k = 5, 2
        expected = math.factorial(5) * harmonic_table(5).values[2] - stirling(6, 3)
        assert identity_residual(n, k) == expected == 0

    def test_row_cap_before_fold(self, monkeypatch):
        def refuse(n):
            raise AssertionError("fold built for a row over the cap")

        monkeypatch.setattr(harmonic_mod, "_cached_values", refuse)
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 16)
        with pytest.raises(ResourceLimitError):
            identity_residual(16, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            identity_residual(0, 1)
        with pytest.raises(DomainError):
            identity_residual(4, 0)
        with pytest.raises(DomainError):
            identity_residual(4, 5)


class TestBoundMargin:
    def test_examples(self):
        assert bound_margin(2, 2) == -1
        assert bound_margin(2, 1) == 0
        assert bound_margin(1, 1) == 0

    def test_definition(self):
        # margin = v2(H(2**n, k)) + n, checked against the rational fold
        # (harmonic_table reads the same integer rows as bound_margin)
        for n in range(1, 9):
            values = harmonic_mod._cached_values(2**n)
            for k in range(1, 2**n + 1):
                assert bound_margin(n, k) == vp_rat(2, values[k]) + n, (n, k)

    def test_does_not_build_table(self, monkeypatch):
        expected = [vp_rat(2, v) + 5 for v in harmonic_mod._cached_values(32)[1:]]

        def refuse(n):
            raise AssertionError("bound_margin built a table")

        monkeypatch.setattr(harmonic_mod, "harmonic_table", refuse)
        assert [bound_margin(5, k) for k in range(1, 33)] == expected

    def test_given_row_matches_own_row(self):
        for n in range(1, 7):
            row = row_recurrence(2**n + 1).coeffs
            for k in range(1, 2**n + 1):
                assert bound_margin(n, k, row=row) == bound_margin(n, k), (n, k)

    def test_given_row_of_wrong_length(self):
        row = row_recurrence(9).coeffs
        for bad in (row[:-1], row + (0,), row_recurrence(8).coeffs):
            with pytest.raises(DomainError):
                bound_margin(3, 1, row=bad)

    def test_sweep_nonpositive(self):
        for n in range(1, 7):
            for k in range(1, 2**n + 1):
                assert bound_margin(n, k) <= 0, (n, k)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            bound_margin(0, 1)
        with pytest.raises(DomainError):
            bound_margin(2, 0)
        with pytest.raises(DomainError):
            bound_margin(2, 5)


class TestConjectureScan:
    def test_first_column_fixture(self):
        records = conjecture_scan(2, 1, 4)
        assert [(n, v) for n, v, _ in records] == [(1, 0), (2, -1), (3, -1), (4, -2)]
        ratios = [r for _, _, r in records]
        assert ratios[0] == 0.0
        assert ratios[1] == pytest.approx(1 / math.log(2))
        assert ratios[2] == pytest.approx(1 / math.log(3))
        assert ratios[3] == pytest.approx(2 / math.log(4))

    def test_starts_at_k(self):
        records = conjecture_scan(2, 3, 6)
        assert [n for n, _, _ in records] == [3, 4, 5, 6]

    def test_first_column_closed_form_large(self):
        # v2 of the first column is -floor(log2 n), checked far out
        for n, v, _ in conjecture_scan(2, 1, 4096):
            assert v == -(n.bit_length() - 1), n

    def test_odd_prime(self):
        records = conjecture_scan(3, 1, 9)
        vals = {n: v for n, v, _ in records}
        # H(3,1) = 11/6 and H(9,1) = 7129/2520 each carry one factor of 3 below
        assert vals[3] == -1
        assert vals[9] == -2

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            conjecture_scan(4, 1, 10)
        with pytest.raises(DomainError):
            conjecture_scan(2, 0, 10)

    def test_empty_when_bound_below_k(self):
        assert conjecture_scan(2, 5, 4) == []

    def test_cap(self, monkeypatch):
        # the last value is H(17, 1), whose table reads row 18
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 17)
        with pytest.raises(ResourceLimitError):
            conjecture_scan(2, 1, 17)
