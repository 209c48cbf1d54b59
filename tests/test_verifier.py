"""Brute-force verification suites: totals, fixtures, failure plumbing."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirval
import stirval.formulas as formulas_mod
import stirval.stirling_core as stirling_mod
import stirval.verifier as verifier_mod
from stirval.errors import ConsistencyError, DomainError, ResourceLimitError
from stirval.padic import INFINITE, vp_int
from stirval.stirling_core import row_product_tree, row_recurrence, shifted_row_expand
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

    def test_shared_step_fault_raises(self, monkeypatch, fresh_caches):
        # (x + c + 1) in the step both engines share: they agree on
        # (x+1)...(x+n), whose column 0 is n!, not 0, and whose sum is
        # (n+1)!; the half-sum check alone used to be all that failed
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        with pytest.raises(ConsistencyError, match=r"^row 1 fails its invariants: s\(n, 0\) = \[n = 0\], sum = n!$"):
            check_identities(4, 4)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process path needs os.fork")
    def test_shared_step_fault_raises_on_two_processes(self, monkeypatch, fresh_caches):
        # The workers inherit the planted step through fork, so both
        # engines still build (x+1)...(x+n) and agree on it.
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with pytest.raises(
            ConsistencyError,
            match=r"^row 40 fails its invariants: s\(n, 0\) = \[n = 0\], s\(n, 1\) = \(n-1\)!, sum = n!$",
        ):
            verifier_mod._verified_plain_coeffs(40)
        assert forks == [1, 1]

    def test_fault_in_both_engines_fails_the_sums(self, monkeypatch, fresh_caches):
        # +1 on column 2 of every plain row from both engines: only the
        # row sum and the alternating sum see it
        for attr in ("row_recurrence", "row_product_tree"):
            build = getattr(verifier_mod, attr)

            def faulty(n, build=build):
                row = build(n)
                coeffs = list(row.coeffs)
                if n >= 3:
                    coeffs[2] += 1
                return type(row)(row.n, tuple(coeffs), row.engine)

            monkeypatch.setattr(verifier_mod, attr, faulty)
        with pytest.raises(ConsistencyError, match=r"^row 3 fails its invariants: sum = n!, alternating sum = 0$"):
            check_identities(4, 4)

    def test_shifted_fault_fails_the_sum(self, monkeypatch, fresh_caches):
        # both expansions of (x + m)_n shifted by one more: (x + m + 1)_n
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        with pytest.raises(ConsistencyError, match=r"^shifted row \(2, 1\) fails its invariants: sum = \(m\+n\)!/m!$"):
            verifier_mod._verified_shifted_coeffs(2, 1)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            check_identities(-1, 2)
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


def _clear_row_caches():
    for cache in (
        verifier_mod._verified_plain_coeffs,
        verifier_mod._verified_shifted_coeffs,
        verifier_mod._truncated_rows,
        verifier_mod._truncated_lifted,
        stirling_mod._cached_coeffs,
    ):
        cache.cache_clear()


@pytest.fixture
def fresh_caches():
    # Rows built under a planted fault or forced precision must not
    # outlive the test that built them.
    _clear_row_caches()
    yield
    _clear_row_caches()


def _plant_next_factor_in_both_routes(monkeypatch):
    # (x + c + 1) for (x + c) in both truncated routes: the masked chain
    # runs over factors shifted by one, and each doubling returns
    # (x + 1)_{2N}, expanded exactly and reduced to its targets.
    chain = verifier_mod._chain_masked
    monkeypatch.setattr(verifier_mod, "_chain_masked", lambda lo, hi, *args: chain(lo + 1, hi + 1, *args))
    monkeypatch.setattr(
        verifier_mod,
        "_double_masked",
        lambda coeffs, bits, targets, p: stirling_mod._masked(
            stirling_mod._expand_chain(1, len(targets)), stirling_mod._masks(targets)
        ),
    )


def _reduced(coeffs, bits):
    return tuple(c % (1 << b) for c, b in zip(coeffs, bits, strict=True))


def _taylor_bits(bits, n):
    # B'_k = min over i >= k of B_i + n(i - k), straight from the definition
    return tuple(min(bits[i] + n * (i - k) for i in range(k, len(bits))) for k in range(len(bits)))


VALUATION_SUITES = ["theorem1", "theorem2", "lemma24", "lemma25", "inequalities"]


def _valuation_checks(n_min, n_max):
    # Instances of the five valuation suites over [n_min, n_max], n_min >= 2:
    # theorem1 and theorem2 one per column, lemma24 two, lemma25 half,
    # inequalities 2**n - 3 step bounds and three families of 2**n.
    return sum(2 * 2**n + 2 * 2**n + 2 ** (n - 1) + 3 * 2**n + 2**n - 3 for n in range(n_min, n_max + 1))


class TestLiftedRow:
    def test_lift_matches_recurrence(self):
        for n in (1, 3, 5, 6):
            lifted = verifier_mod._truncated_lifted(n)
            assert lifted.coeffs == _reduced(row_recurrence(2**n + 1).coeffs, lifted.bits)

    def test_row_2n_plus_1_never_built_from_scratch(self, monkeypatch, fresh_caches):
        n = 5
        calls = []
        for module in (stirling_mod, verifier_mod):
            for attr in ("row_recurrence", "row_product_tree"):
                build = getattr(module, attr)

                def counted(m, build=build, attr=attr):
                    calls.append((attr, m))
                    return build(m)

                monkeypatch.setattr(module, attr, counted)
        chain, double = verifier_mod._chain_masked, verifier_mod._double_masked

        def counted_chain(lo, hi, *args):
            calls.append(("_chain_masked", hi - lo))
            return chain(lo, hi, *args)

        def counted_double(coeffs, *args):
            calls.append(("_double_masked", 2 * (len(coeffs) - 1)))
            return double(coeffs, *args)

        monkeypatch.setattr(verifier_mod, "_chain_masked", counted_chain)
        monkeypatch.setattr(verifier_mod, "_double_masked", counted_double)
        r = run_suite(n, n, ["theorem2", "inequalities"])
        assert r.total > 0 and r.failures_total == 0
        assert not [c for c in calls if c[1] == 2**n + 1]
        # row 2**n is built once by each masked route, and never exactly:
        # the chain from the factors [0, 1), [1, 2), [2, 4), ..., [16, 32),
        # the doubling route through rows 2, 4, ..., 32
        blocks = [("_chain_masked", 1)] + [("_chain_masked", 2**j) for j in range(n)]
        assert sorted(calls) == sorted(blocks + [("_double_masked", 2**j) for j in range(1, n + 1)])

    def test_disagreeing_lift_paths_raise(self, monkeypatch, fresh_caches):
        n = 5

        def off_by_one(a, b):
            out = stirling_mod._poly_mul(a, b)
            out[3] += 1
            return out

        monkeypatch.setattr(verifier_mod, "_poly_mul", off_by_one)
        with pytest.raises(ConsistencyError, match=f"row {2**n + 1}"):
            check_theorem2(n)
        with pytest.raises(ConsistencyError, match=f"row {2**n + 1}"):
            check_inequalities(n)

    def test_row_cap_holds_for_lifted_row(self, fresh_caches):
        # row 8 fits under the cap, row 9 does not
        saved = stirling_mod.ROW_CAP
        try:
            stirling_mod.ROW_CAP = 8
            with pytest.raises(ResourceLimitError):
                check_theorem2(3)
            with pytest.raises(ResourceLimitError):
                check_inequalities(3)
        finally:
            stirling_mod.ROW_CAP = saved

    def test_filled_caches_refuse_rows_above_lowered_cap(self, fresh_caches):
        # rows 16, 17 and the shifted row (16, 16) are cached under the
        # default cap; each must be refused once the cap drops below it
        saved = stirling_mod.ROW_CAP
        try:
            assert check_theorem2(4).failures_total == 0
            assert check_lemma24(4).failures_total == 0
            verifier_mod._verified_shifted_coeffs(16, 16)
            stirling_mod.ROW_CAP = 16
            with pytest.raises(ResourceLimitError):
                check_theorem2(4)
            with pytest.raises(ResourceLimitError):
                check_inequalities(4)
            assert check_theorem1(4).failures_total == 0
            stirling_mod.ROW_CAP = 8
            for check in (check_theorem1, check_lemma24, check_lemma25):
                with pytest.raises(ResourceLimitError):
                    check(4)
            with pytest.raises(ResourceLimitError):
                verifier_mod._truncated_shifted(4)
            with pytest.raises(ResourceLimitError):
                verifier_mod._verified_shifted_coeffs(16, 16)
        finally:
            stirling_mod.ROW_CAP = saved


class TestTruncatedRows:
    def test_rows_equal_exact_rows_reduced(self):
        for n in range(1, 11):
            top = 2**n
            plain = verifier_mod._truncated_plain(n)
            assert plain.bits == verifier_mod._precisions(n)
            assert list(plain.bits) == sorted(plain.bits, reverse=True)
            assert plain.bits[0] == plain.bits[1]
            assert plain.coeffs == _reduced(row_recurrence(top).coeffs, plain.bits)
            shifted = verifier_mod._truncated_shifted(n)
            assert shifted.bits == plain.bits
            assert shifted.coeffs == _reduced(shifted_row_expand(top, top).coeffs, plain.bits)
            lifted = verifier_mod._truncated_lifted(n)
            assert lifted.coeffs == _reduced(row_recurrence(top + 1).coeffs, lifted.bits)

    def test_steep_precisions_reduce_exactly(self, monkeypatch, fresh_caches):
        # Any non-increasing B keeps the residues exact. Here B drops by
        # 8 > n + 1 per column, so the lifted row's column k + 1 is
        # bounded by B_{k+1} + n, not by B_k as under the predictions,
        # and the Taylor-shifted row knows only B'_k < B_k bits.
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: tuple(8 * (2**n - k) + 1 for k in range(2**n + 1)))
        for n in (3, 4, 5):
            top = 2**n
            plain = verifier_mod._truncated_plain(n)
            assert plain.coeffs == _reduced(row_recurrence(top).coeffs, plain.bits)
            shifted = verifier_mod._truncated_shifted(n)
            assert shifted.bits == _taylor_bits(plain.bits, n) != plain.bits
            assert shifted.coeffs == _reduced(shifted_row_expand(top, top).coeffs, shifted.bits)
            lifted = verifier_mod._truncated_lifted(n)
            assert lifted.bits[1:-1] == tuple(b + n for b in plain.bits[1:])
            assert lifted.coeffs == _reduced(row_recurrence(top + 1).coeffs, lifted.bits)

    def test_forced_precisions_truncate_the_shift(self, monkeypatch, fresh_caches):
        # B drops faster than n = 3 per column, so the Taylor shift knows
        # fewer bits than B: column 1, for one, only B_3 + 2n = 10.
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: (20, 20, 8, 4, 2, 1, 1, 1, 1))
        plain = verifier_mod._truncated_plain(3)
        assert plain.coeffs == _reduced(row_recurrence(8).coeffs, plain.bits)
        shifted = verifier_mod._truncated_shifted(3)
        assert shifted.bits == (13, 10, 7, 4, 2, 1, 1, 1, 1) == _taylor_bits(plain.bits, 3)
        assert shifted.coeffs == _reduced(shifted_row_expand(8, 8).coeffs, shifted.bits)

    def test_lemma24_reads_the_difference_at_the_shifted_precision(self, monkeypatch, fresh_caches):
        # Column 5 of row 8 is known to 20 bits, its shift only to
        # B'_5 = 1 + 3 = 4. The exact difference has v2 = 5, which meets
        # the lift bound v2(s(8, 5)) + 2 = 5, but 4 bits cannot prove it.
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: (20,) * 6 + (1,) * 3)
        assert verifier_mod._truncated_shifted(3).bits[5] == 4
        lifts = {f.instance[1]: f for f in check_lemma24(3).failures if f.instance[2] == "lift"}
        assert lifts[5].expected == ">= 5" and lifts[5].actual == ">= 4"

    def test_zero_bits_fail_every_check(self, monkeypatch, fresh_caches):
        # nothing known: every column unresolved, so nothing may pass
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: (0,) * (2**n + 1))
        r = run_suite(2, 5, VALUATION_SUITES)
        assert r.total == _valuation_checks(2, 5)
        assert r.failures_total == r.total

    def test_one_bit_passes_only_what_parity_proves(self, monkeypatch, fresh_caches):
        # Mod 2, (x)_N = x**(N/2) (x+1)**(N/2) for N = 2**n, so columns
        # N/2 and N are odd and resolve to v2 = 0, which theorem1
        # predicts; every other column is even and stays unresolved.
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: (1,) * (2**n + 1))
        for n in range(2, 6):
            top = 2**n
            r = check_theorem1(n)
            assert r.failures_total == top - 2
            assert {f.instance[1] for f in r.failures} == set(range(1, top + 1)) - {top // 2, top}
            assert all(f.actual == ">= 1" for f in r.failures)
            assert check_lemma25(n).failures_total == top // 2
            lifts = [f for f in check_lemma24(n).failures if f.instance[2] == "lift"]
            assert len(lifts) == top

    @pytest.mark.parametrize("route", ["_chain_masked", "_double_masked"])
    def test_planted_route_fault_names_row(self, monkeypatch, fresh_caches, route):
        # The first output of either route with a column 3 is its row 4.
        original = getattr(verifier_mod, route)

        def plus_one(*args):
            out = original(*args)
            if len(out) > 3:
                out[3] += 1
            return out

        monkeypatch.setattr(verifier_mod, route, plus_one)
        with pytest.raises(ConsistencyError, match="truncated routes disagree on row 4$"):
            check_theorem1(5)

    @pytest.mark.parametrize("route", ["_chain_masked", "_taylor_shift_masked"])
    def test_planted_shifted_route_fault_names_row(self, monkeypatch, fresh_caches, route):
        # The shifted row's routes are the masked recurrence from 32 and
        # the Taylor shift of the checked row 32; build that row first.
        check_theorem1(5)
        original = getattr(verifier_mod, route)

        def plus_one(*args):
            out = original(*args)
            (out[0] if route == "_taylor_shift_masked" else out)[3] += 1
            return out

        monkeypatch.setattr(verifier_mod, route, plus_one)
        with pytest.raises(ConsistencyError, match=r"truncated routes disagree on shifted row \(32, 32\)$"):
            check_lemma24(5)

    def test_shifted_row_builds_no_product_tree(self, monkeypatch, fresh_caches):
        # Row 64 is built by both masked routes; the shifted row then
        # reuses it and never reaches a masked tree or a Kronecker multiply.
        n = 6
        expected = shifted_row_expand(2**n, 2**n).coeffs
        verifier_mod._truncated_plain(n)
        calls = []
        for module, attr in ((stirling_mod, "_expand_range"), (stirling_mod, "_poly_mul")):
            route = getattr(module, attr)

            def counted(*args, route=route, attr=attr):
                calls.append(attr)
                return route(*args)

            monkeypatch.setattr(module, attr, counted)
        shifted = verifier_mod._truncated_shifted(n)
        assert calls == []
        assert shifted.coeffs == _reduced(expected, shifted.bits)

    def test_shared_step_fault_fails_an_invariant(self, monkeypatch, fresh_caches):
        # (x + c + 1) in both routes builds (x+1)...(x+N), which the
        # routes agree on and whose valuations Theorem 2 maps onto the
        # right ones; its column 0 is N!, not 0 mod 2**B. The build
        # checks every row 2**j on the way, so row 2 fails first.
        _plant_next_factor_in_both_routes(monkeypatch)
        for n in range(2, 11):
            with pytest.raises(ConsistencyError, match="row 2 fails its invariant at column 0$"):
                check_theorem1(n)

    def test_step_fault_in_times_linear_only_splits_the_routes(self, monkeypatch, fresh_caches):
        # The masked chain steps its own head and bands, so (x + c + 1)
        # in _times_linear reaches only the Horner steps of P(x + 1) in
        # the doubling route; the first doubling that takes one is row 4's.
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        with pytest.raises(ConsistencyError, match="truncated routes disagree on row 4$"):
            check_theorem1(5)

    @pytest.mark.parametrize("head_bits", [None, 64])
    @pytest.mark.parametrize("fault", ["no_headroom", "carry_after_step", "carry_dropped"])
    def test_packed_step_fault_splits_the_routes(self, monkeypatch, fresh_caches, fault, head_bits):
        # Row 256's columns are all narrow enough to pack; with a 64-bit
        # crossover the widest stay in the head, whose carry feeds band 0.
        if head_bits is not None:
            monkeypatch.setattr(stirling_mod, "_PACK_SLOT_BITS", head_bits)
        if fault == "no_headroom":
            layout = stirling_mod._band_layout
            monkeypatch.setattr(stirling_mod, "_band_layout", lambda bits, factor_bits: layout(bits, -1))
        else:

            def step(packed, c, carry, bands):
                out = []
                for p, (width, top, mask) in zip(packed, bands):
                    out.append(((p << width) + c * p + carry) & mask)
                    carry = (out[-1] if fault == "carry_after_step" else p) >> top
                    if fault == "carry_dropped":
                        carry = 0
                return out

            monkeypatch.setattr(stirling_mod, "_band_step", step)
        with pytest.raises(ConsistencyError, match="truncated routes disagree on row "):
            check_theorem1(8)

    def test_valuation_suites_pass_at_n_11(self):
        r = run_suite(11, 11, VALUATION_SUITES)
        assert r.total == _valuation_checks(11, 11) == 17405
        assert r.failures_total == 0


class TestSharedBuild:
    def test_rows_equal_exact_rows_reduced(self):
        exact = {j: row_recurrence(2**j).coeffs for j in range(1, 11)}
        shifted = {j: shifted_row_expand(2**j, 2**j).coeffs for j in range(1, 10)}
        for top in range(1, 11):
            rows = verifier_mod._truncated_rows(top)
            assert len(rows) == top + 1 and rows[0] is None
            for j in range(1, top + 1):
                plain = rows[j]
                assert plain.bits == verifier_mod._precisions(j)
                assert plain.coeffs == _reduced(exact[j], plain.bits)
                assert verifier_mod._truncated_plain(j, top) is plain
            for j in range(1, top):
                row = verifier_mod._truncated_shifted(j, top)
                assert row.bits == _taylor_bits(rows[j].bits, j)
                assert row.coeffs == _reduced(shifted[j], row.bits)

    def test_joint_precisions_cover_every_row(self, monkeypatch, fresh_caches):
        # Smaller rows get more bits here than the top row: the build
        # must keep the most any row needs, or rows 2**j < 2**top come
        # out known to fewer bits than they claim.
        monkeypatch.setattr(verifier_mod, "_precisions", lambda n: (60 - 5 * n,) * (2**n + 1))
        rows = verifier_mod._truncated_rows(6)
        for j in range(1, 7):
            assert rows[j].bits == (60 - 5 * j,) * (2**j + 1)
            assert rows[j].coeffs == _reduced(row_recurrence(2**j).coeffs, rows[j].bits)
        for j in range(1, 6):
            row = verifier_mod._truncated_shifted(j, 6)
            assert row.coeffs == _reduced(shifted_row_expand(2**j, 2**j).coeffs, row.bits)

    def test_paper_range_runs_one_chain_and_one_doubling_per_row(self, monkeypatch, fresh_caches):
        # The chain covers the factors [0, 1024) once, block by block; the
        # doubling route takes rows 1, 2, .., 512 each one step up; lemma24
        # runs one shifted chain per n. No masked tree is built: the only
        # product trees are the exact rows of identities, all below 21.
        chains, doublings, trees = [], [], []
        chain, double, expand = verifier_mod._chain_masked, verifier_mod._double_masked, stirling_mod._expand_range

        def counted_chain(lo, hi, *args):
            chains.append((lo, hi))
            return chain(lo, hi, *args)

        def counted_double(coeffs, bits, targets, p):
            doublings.append((len(coeffs) - 1, p))
            return double(coeffs, bits, targets, p)

        def counted_expand(lo, hi):
            trees.append(hi)
            return expand(lo, hi)

        monkeypatch.setattr(verifier_mod, "_chain_masked", counted_chain)
        monkeypatch.setattr(verifier_mod, "_double_masked", counted_double)
        monkeypatch.setattr(stirling_mod, "_expand_range", counted_expand)
        r = run_suite(2, 10, "all")
        assert (r.total, r.failures_total) == (20089, 0)
        blocks = [(0, 1)] + [(2**j, 2 ** (j + 1)) for j in range(10)]
        assert chains == blocks + [(2**n, 2 ** (n + 1)) for n in range(2, 11)]
        assert [size for size, _ in doublings] == [2**j for j in range(10)]
        # p = 2 top = 20 at every step; a slack plan would show here
        assert max(p for _, p in doublings) <= 20
        assert trees and max(trees) <= 20

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_planted_right_child_fault_names_shifted_row(self, monkeypatch, fresh_caches, j):
        # The doubling's right factor is P(x + 1), the odd factors of
        # (x)_{2N}. +1 in its column 3 at N = 2**j leaves every row up to
        # N right and fails row 2N against the chain: j = 2 names row 8.
        original = stirling_mod._at_x_plus_one

        def plus_one(coeffs, p):
            out = original(coeffs, p)
            if len(out) == 2**j + 1:
                out[3] += 1
            return out

        monkeypatch.setattr(stirling_mod, "_at_x_plus_one", plus_one)
        with pytest.raises(ConsistencyError, match=f"truncated routes disagree on row {2 ** (j + 1)}$"):
            check_theorem1(5)

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_bad_stored_child_fails_where_it_is_read(self, monkeypatch, fresh_caches, j):
        # The right child (x + 2**j)_{2**j} of row 2**(j+1) is built where
        # it is read: lemma24 runs the masked chain over [2**j, 2**(j+1)),
        # below top as at top, and a bad child fails there against the
        # Taylor shift of row 2**j.
        verifier_mod._truncated_rows(5)
        chain = verifier_mod._chain_masked

        def plus_one(lo, hi, *args):
            out = chain(lo, hi, *args)
            out[3] += 1
            return out

        monkeypatch.setattr(verifier_mod, "_chain_masked", plus_one)
        with pytest.raises(ConsistencyError, match=rf"truncated routes disagree on shifted row \({2**j}, {2**j}\)$"):
            verifier_mod._truncated_shifted(j, 5)

    @pytest.mark.parametrize("j", range(5))
    def test_planned_p_one_bit_short_raises(self, monkeypatch, fresh_caches, j):
        # The plan's p is exactly what the doubling route's own residues
        # need at every step (2 top = 10 here), so one bit less raises.
        plan = verifier_mod._doubling_plan

        def short(*args):
            steps = plan(*args)
            targets, p = steps[j]
            steps[j] = (targets, p - 1)
            return steps

        monkeypatch.setattr(verifier_mod, "_doubling_plan", short)
        with pytest.raises(ConsistencyError, match=rf"doubling to row {2 ** (j + 1)} needs 10 bits .*, planned 9$"):
            check_theorem1(5)

    @pytest.mark.parametrize("fault", ["doubled", "zeroed"])
    @pytest.mark.parametrize("j", [0, 3, 7])
    def test_plan_fed_raised_valuations_never_passes(self, monkeypatch, fresh_caches, fault, j):
        # The plan reads w off the chain's row 2**j. Raising those
        # valuations (every residue doubled, or zeroed to w = M*) for the
        # plan alone shortens p_j; the doubling route recomputes p from
        # its own residues and refuses the step.
        plan = verifier_mod._doubling_plan

        def raised(chain, joint, bits):
            chain = list(chain)
            chain[j] = [2 * c if fault == "doubled" else 0 for c in chain[j]]
            return plan(chain, joint, bits)

        monkeypatch.setattr(verifier_mod, "_doubling_plan", raised)
        with pytest.raises(ConsistencyError, match=rf"doubling to row {2 ** (j + 1)} needs"):
            check_theorem1(8)

    def test_taylor_shifts_run_only_for_rows_lemma24_reads(self, monkeypatch, fresh_caches):
        # The build takes no Taylor shift; lemma24 takes one per n it
        # reads, and only it runs the shifted chain at top.
        shifts, chains = [], []
        taylor, chain = verifier_mod._taylor_shift_masked, verifier_mod._chain_masked

        def counted_taylor(coeffs, bits, n):
            shifts.append(n)
            return taylor(coeffs, bits, n)

        def counted_chain(lo, hi, *args):
            chains.append((lo, hi))
            return chain(lo, hi, *args)

        monkeypatch.setattr(verifier_mod, "_taylor_shift_masked", counted_taylor)
        monkeypatch.setattr(verifier_mod, "_chain_masked", counted_chain)
        r = run_suite(2, 10, ["theorem1", "theorem2", "lemma25", "inequalities"])
        assert r.total > 0 and r.failures_total == 0
        assert shifts == [] and (1024, 2048) not in chains
        _clear_row_caches()
        r = run_suite(2, 10, "all")
        assert (r.total, r.failures_total) == (20089, 0)
        assert sorted(shifts) == list(range(2, 11))

    def test_top_below_n_rejected(self):
        with pytest.raises(DomainError, match="top"):
            check_theorem1(5, top=4)


class TestReadTimeFaults:
    # Faults on the paths that check a shifted row where lemma24 reads
    # it, and on the lift: each must raise or be reported, never pass.

    def test_wrong_binomial_in_the_taylor_shift(self, monkeypatch, fresh_caches):
        # The j = 1 term, p[k+1] C(k+1, k) 2**n, added once more to every
        # column: caught against the kept right child below top and
        # against the shifted chain at top.
        taylor = verifier_mod._taylor_shift_masked

        def twice_j1(coeffs, bits, n):
            out, shifted_bits = taylor(coeffs, bits, n)
            for k in range(len(out) - 1):
                out[k] = (out[k] + ((coeffs[k + 1] * (k + 1)) << n)) & ((1 << shifted_bits[k]) - 1)
            return out, shifted_bits

        monkeypatch.setattr(verifier_mod, "_taylor_shift_masked", twice_j1)
        for n in range(2, 9):
            with pytest.raises(ConsistencyError, match=rf"truncated routes disagree on shifted row \({2**n}, {2**n}\)$"):
                check_lemma24(n, top=8)

    @pytest.mark.parametrize("top", [2, 5, 8])
    def test_off_by_one_top_shifted_chain(self, monkeypatch, fresh_caches, top):
        # The build is made first, so the planted bounds reach only the
        # chain over [2**top, 2**(top+1)) that lemma24 runs at top.
        check_theorem1(top)
        chain, calls = verifier_mod._chain_masked, []

        def shifted_by_one(lo, hi, *args):
            calls.append((lo, hi))
            return chain(lo + 1, hi + 1, *args)

        monkeypatch.setattr(verifier_mod, "_chain_masked", shifted_by_one)
        with pytest.raises(ConsistencyError, match=rf"truncated routes disagree on shifted row \({2**top}, {2**top}\)$"):
            check_lemma24(top)
        assert calls == [(2**top, 2 ** (top + 1))]

    def test_wrong_lift_factor_in_both_paths(self, monkeypatch, fresh_caches):
        # x + N + 1 for x + N in both paths of _truncated_lifted: the
        # paths agree, but the lifted row's column 1 is (N + 1)(N - 1)!,
        # not N!. The difference (N - 1)! has v2 = N - 1 - n, below the
        # column's B, so the row invariant refuses it for every suite
        # that reads row N + 1.
        times_linear, poly_mul = verifier_mod._times_linear, verifier_mod._poly_mul
        monkeypatch.setattr(verifier_mod, "_times_linear", lambda coeffs, c: times_linear(coeffs, c + 1))
        monkeypatch.setattr(verifier_mod, "_poly_mul", lambda a, b: poly_mul(a, [b[0] + 1, *b[1:]]))
        for n in range(2, 9):
            for check in (check_theorem2, check_inequalities):
                with pytest.raises(ConsistencyError, match=f"truncated row {2**n + 1} fails its invariant at column 1$"):
                    check(n)


class TestRunSuite:
    def test_all_suites_tiny_range(self):
        r = run_suite(2, 2, "all")
        assert isinstance(r, CheckReport)
        assert r.suite == "all"
        assert r.range == (2, 2)
        assert r.total == 89
        assert r.failures == []
        assert r.elapsed >= 0
        assert r.ground_truth_engine == "exact:recurrence+product_tree;mod2^B:chain+doubling;shifted:chain+taylor_shift"

    def test_subset_selection_and_name(self):
        r = run_suite(2, 3, ["theorem1", "lemma25"])
        assert r.suite == "lemma25+theorem1"
        assert r.total == 18
        assert not r.failures

    def test_min_n_filtering(self):
        # lemma suites only start at n = 2; n = 1 contributes nothing to them
        r1 = run_suite(1, 2, ["lemma25"])
        r2 = run_suite(2, 2, ["lemma25"])
        assert r1.total == r2.total

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite(2, 3, ["nonsense"])

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            run_suite(3, 2, "all")
        with pytest.raises(DomainError):
            run_suite(0, 2, "all")

    @pytest.mark.parametrize("jobs", (0, -4, 2))
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(DomainError, match="one process"):
            run_suite(2, 2, "all", jobs=jobs)

    def test_paper_range_never_forks(self, monkeypatch, fresh_caches):
        # Its exact rows stop at 20 factors, far below _FORK_MIN_N, so the
        # paper's range runs in one process even where two CPUs are usable.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_suite forked a worker"))
        r = run_suite(2, 10, "all")
        assert (r.total, r.failures_total) == (20089, 0)

    def test_bare_suite_id_is_one_id(self):
        a, b = run_suite(2, 3, "theorem1"), run_suite(2, 3, ["theorem1"])
        assert (a.suite, a.range, a.total, a.failures_total, a.failures) == (
            b.suite, b.range, b.total, b.failures_total, b.failures
        )

    def test_checks_are_looked_up_at_call_time(self, monkeypatch):
        # A wrapper set on the module, as the benchmark's tracer sets
        # one, must see every per-n call.
        calls = []
        check = verifier_mod.check_lemma25
        monkeypatch.setattr(verifier_mod, "check_lemma25", lambda n, **kw: calls.append(n) or check(n, **kw))
        run_suite(1, 4, "lemma25")
        assert calls == [2, 3, 4]

    def test_every_check_reads_the_one_build_for_n_max(self, fresh_caches, monkeypatch, tmp_path):
        # A +1 in the formula gives failures past the sample cap: the
        # report counts them all but keeps only FAILURE_CAP. Every
        # check reads the rows of one build, for n_max.
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1)
        log = tmp_path / "reads"
        read = verifier_mod._truncated_rows

        @functools.wraps(read)
        def logged(top):
            with open(log, "a") as f:
                f.write(f"{top}\n")
            return read(top)

        monkeypatch.setattr(verifier_mod, "_truncated_rows", logged)
        r = run_suite(2, 7, "all")
        assert r.failures_total == sum(2**n - 2 for n in range(2, 8)) > FAILURE_CAP
        assert len(r.failures) == FAILURE_CAP
        assert set(log.read_text().splitlines()) == {"7"}

    def test_serial_run_never_loads_multiprocessing(self):
        # Verification runs in one process and never imports a pool.
        src = str(Path(stirval.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = (
            "import sys, stirval; r = stirval.run_suite(2, 3, 'all');"
            "print(r.total, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == f"{run_suite(2, 3, 'all').total} []\n"

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
        r = run_suite(2, 8, ["theorem1"])
        assert len(r.failures) == FAILURE_CAP == 100
        # the true count goes past the sample cap: every column but the
        # two boundary ones fails
        assert r.failures_total == sum(2**n - 2 for n in range(2, 9)) > FAILURE_CAP
        assert r.failures == sorted(r.failures, key=lambda f: (f.check_id, f.instance))
        # totals still count every instance, not just retained failures
        assert r.total == sum(2**n for n in range(2, 9))
