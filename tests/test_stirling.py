"""Row generation engines, shifted rows, and cross-check identities."""

import math
import os
import re
import signal
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stirval.stirling_core as stirling_mod
from stirval.errors import DomainError, ResourceLimitError
from stirval.harmonic import bound_margin
from stirval.stirling_core import (
    ShiftedRow,
    StirlingRow,
    convolution_rhs,
    lemma21_rhs,
    row_product_tree,
    row_recurrence,
    shifted_row_expand,
    shifted_value_sum,
    special_value,
    stirling,
)

ROW_4 = (0, 6, 11, 6, 1)
ROW_5 = (0, 24, 50, 35, 10, 1)
ROW_8 = (0, 5040, 13068, 13132, 6769, 1960, 322, 28, 1)


class TestEngines:
    def test_base_rows(self):
        for engine in (row_recurrence, row_product_tree):
            assert engine(0).coeffs == (1,)
            assert engine(1).coeffs == (0, 1)
            assert engine(4).coeffs == ROW_4
            assert engine(8).coeffs == ROW_8

    def test_engine_tags(self):
        assert row_recurrence(3).engine == "recurrence"
        assert row_product_tree(3).engine == "product_tree"
        assert isinstance(row_recurrence(3), StirlingRow)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            row_recurrence(-1)
        with pytest.raises(DomainError):
            row_product_tree(-2)

    def test_row_cap(self, monkeypatch):
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 16)
        with pytest.raises(ResourceLimitError):
            row_recurrence(17)
        with pytest.raises(ResourceLimitError):
            row_product_tree(17)
        assert row_product_tree(16).n == 16

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=128))
    def test_engines_agree(self, n):
        assert row_recurrence(n).coeffs == row_product_tree(n).coeffs

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=100))
    def test_row_invariants(self, n):
        row = row_product_tree(n).coeffs
        assert len(row) == n + 1
        assert row[0] == 0
        assert row[n] == 1
        assert row[1] == math.factorial(n - 1)
        assert row[n - 1] == n * (n - 1) // 2
        assert sum(row) == math.factorial(n)
        # alternating evaluation is the falling factorial at 1: zero for n >= 2
        assert sum(c * (-1) ** k for k, c in enumerate(row)) == 0


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Coefficients that fill a decimal or binary slot to its last digit.
_slot_filling = st.integers(min_value=1, max_value=400).flatmap(
    lambda j: st.sampled_from([10**j - 1, 2**j - 1])
)
_coeff = st.one_of(st.just(0), st.integers(min_value=0, max_value=2**80), _slot_filling)
_long = stirling_mod._SCHOOLBOOK_LEN + 1
_poly = st.one_of(
    st.lists(_coeff, min_size=_long, max_size=48),
    st.integers(min_value=_long, max_value=48).map(lambda k: [0] * k),
)


class TestDecimalMultiply:
    """The libmpdec route of _poly_mul, forced on whatever the backend."""

    @settings(deadline=None, max_examples=150)
    @given(_poly, _poly)
    @example([0] * _long, [0] * _long)
    @example([10**50 - 1] * _long, [10**50 - 1] * (_long + 3))
    @example([2**128 - 1] * (_long + 5), [0, 2**128 - 1] * _long)
    @example([2**64 - 1] * 15, [2**64 - 1] * 15)  # a product coefficient near 2**slot_bits
    @example([10**6 - 1, 0] * _long, [1] + [0] * _long)
    def test_matches_convolution(self, a, b):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stirling_mod, "_mpz", int)
            mp.setattr(stirling_mod, "_DECIMAL_BITS", 0)
            assert stirling_mod._poly_mul(a, b) == _convolve(a, b)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_rows_under_lowest_str_digit_limit(self, monkeypatch):
        # Row 600 has coefficients of about 4700 bits (1400 digits),
        # well past a 640-digit limit, so packing or unpacking through a
        # plain str(int)/int(str) would raise here.
        monkeypatch.setattr(stirling_mod, "_mpz", int)
        sizes = []
        real = stirling_mod._decimal_kronecker
        monkeypatch.setattr(
            stirling_mod,
            "_decimal_kronecker",
            lambda a, b, slot_bits: sizes.append(slot_bits * (len(a) + len(b))) or real(a, b, slot_bits),
        )
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            tree = row_product_tree(600).coeffs
        finally:
            sys.set_int_max_str_digits(old)
        assert max(sizes) > 600 * 4000
        assert max(tree).bit_length() > 4000
        assert tree == row_recurrence(600).coeffs


def _edge(hi):
    # The b at which a column's slot need, max(b_{k-1}, b_k) +
    # bits(hi - 1) + 1, meets _PACK_SLOT_BITS.
    return stirling_mod._PACK_SLOT_BITS - (hi - 1).bit_length() - 1


@st.composite
def _chain_cases(draw):
    # (lo, hi, bits, start) with bit counts that never grow; some sit at
    # the pack crossover.
    lo = draw(st.one_of(st.integers(0, 40), st.integers(2**20, 2**64)))
    hi = lo + draw(st.integers(1, 40))
    edge = _edge(hi)
    bit = st.one_of(
        st.just(0),
        st.integers(0, 64),
        st.sampled_from([edge - 1, edge, edge + 1]),
        st.integers(0, 2 * edge),
    )
    start = draw(st.lists(st.integers(0, 2**1200), min_size=1, max_size=12))
    bits = draw(st.lists(bit, max_size=len(start) + hi - lo + 4))
    return lo, hi, sorted(bits, reverse=True), start


class TestMaskedChain:
    @settings(deadline=None, max_examples=200)
    @given(_chain_cases())
    @example((0, 30, [3000] * 20, [1]))  # all head
    @example((3, 40, [200] * 10 + [9] * 30, [5, 7]))  # all packed
    @example((0, 25, [90] * 4 + [0] * 30, [1]))  # zero-bit columns
    @example((7, 37, [_edge(37) + 1] * 3 + [_edge(37)] * 3 + [_edge(37) - 1] * 3, [2**1100] * 4))
    @example((0, 9, [40] * 3, [3**50] * 10))  # start longer than bits
    @example((2**60, 2**60 + 30, [700] * 20 + [60] * 12, [1]))  # large lo
    def test_equals_masked_exact_chain(self, case):
        lo, hi, bits, start = case
        expected = stirling_mod._masked(stirling_mod._expand_chain(lo, hi, start), bits)
        assert stirling_mod._chain_masked(lo, hi, bits, start) == expected

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.integers(0, 3000), max_size=60).map(lambda b: sorted(b, reverse=True)),
        st.integers(0, 64),
    )
    def test_layout_slots_hold_every_step(self, bits, factor_bits):
        head, bands = stirling_mod._band_layout(bits, factor_bits)
        needs = [max(prev, b) + factor_bits + 1 for prev, b in zip([0, *bits], bits)]
        assert all(need > stirling_mod._PACK_SLOT_BITS for need in needs[:head])
        assert [k for first, stop, _ in bands for k in range(first, stop)] == list(range(head, len(bits)))
        for first, stop, width in bands:
            assert width % 8 == 0
            assert all(needs[k] <= width for k in range(first, stop))

    def test_column_at_the_crossover_is_packed(self):
        factor_bits = 10
        edge = stirling_mod._PACK_SLOT_BITS - factor_bits - 1
        head, bands = stirling_mod._band_layout([edge + 1, edge + 1, edge, edge, 3, 0], factor_bits)
        # column 2 still needs edge + 1 for its neighbour below
        assert head == 3
        assert bands[0][0] == 3 and bands[0][2] == stirling_mod._PACK_SLOT_BITS

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=12).map(lambda b: sorted(b, reverse=True)),
        st.integers(1, 50),
        st.integers(1, 20),
        st.data(),
    )
    def test_growing_masks_refused(self, bits, grow, steps, data):
        k = data.draw(st.integers(0, len(bits) - 1))
        bits = bits[: k + 1] + [bits[k] + grow] + bits[k + 1 :]
        with pytest.raises(DomainError, match="never grows"):
            stirling_mod._chain_masked(0, steps, bits, [1] * len(bits))

    def test_negative_factor_refused(self):
        with pytest.raises(DomainError, match="c >= 0"):
            stirling_mod._chain_masked(-1, 4, [4, 3, 2], [1])

    def test_empty_range_returns_start(self):
        assert stirling_mod._chain_masked(5, 5, [1], [7, 9]) == [7, 9]


def _taylor_reference(coeffs, bits, n):
    # Every term of p(x + 2**n), with math.comb, reduced to B'_k =
    # min over i >= k of bits[i] + n(i - k).
    top = len(coeffs) - 1
    shifted = [min(bits[i] + n * (i - k) for i in range(k, top + 1)) for k in range(top + 1)]
    out = [
        sum(coeffs[i] * math.comb(i, k) << (n * (i - k)) for i in range(k, top + 1)) % (1 << b)
        for k, b in enumerate(shifted)
    ]
    return out, tuple(shifted)


@st.composite
def _taylor_cases(draw):
    # (n, residues, bits): any bit profile, so B' cuts wherever bits
    # drops by more than n per column.
    bits = draw(st.lists(st.integers(0, 400), min_size=1, max_size=40))
    coeffs = [draw(st.integers(0, (1 << b) - 1)) for b in bits]
    return draw(st.integers(1, 12)), coeffs, bits


class TestTaylorShift:
    @settings(deadline=None, max_examples=150)
    @given(_taylor_cases())
    @example((3, [2**60 - 1, 2**50 - 1, 2**10 - 1, 2**9 - 1, 3, 0], [60, 50, 10, 9, 2, 0]))  # drops of 40 and 8 cut B'
    @example((1, [0, 0, 0], [0, 0, 0]))
    def test_matches_comb_reference(self, case):
        n, coeffs, bits = case
        assert stirling_mod._taylor_shift_masked(coeffs, bits, n) == _taylor_reference(coeffs, bits, n)


class TestStirlingAccessor:
    def test_values(self):
        assert stirling(8, 5) == 1960
        assert stirling(4, 2) == 11
        assert stirling(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert stirling(5, 7) == 0
        assert stirling(5, -1) == 0
        assert stirling(0, 1) == 0

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            stirling(-1, 0)

    def test_cached_rows_refused_above_lowered_cap(self, monkeypatch):
        # rows 16 and 5 are cached under the default cap first
        assert stirling(16, 3) == 6165817614720
        assert lemma21_rhs(16, 3) == 6165817614720
        assert bound_margin(2, 1) == 0
        monkeypatch.setattr(stirling_mod, "ROW_CAP", 4)
        for call in (lambda: stirling(16, 3), lambda: lemma21_rhs(16, 3), lambda: bound_margin(2, 1)):
            with pytest.raises(ResourceLimitError):
                call()


class TestShiftedRows:
    def test_examples(self):
        assert shifted_row_expand(4, 4).coeffs == (840, 638, 179, 22, 1)
        assert shifted_row_expand(2, 2).coeffs == (6, 5, 1)
        assert shifted_row_expand(0, 5).coeffs == row_product_tree(5).coeffs

    def test_metadata(self):
        row = shifted_row_expand(3, 2)
        assert isinstance(row, ShiftedRow)
        assert row.m == 3 and row.n == 2
        assert len(row.coeffs) == 3

    def test_empty_product(self):
        assert shifted_row_expand(7, 0).coeffs == (1,)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            shifted_row_expand(-1, 3)
        with pytest.raises(DomainError):
            shifted_row_expand(2, -1)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
    def test_constant_term_and_congruence(self, m, n):
        row = shifted_row_expand(m, n).coeffs
        # constant term is the rising factorial of m itself
        assert row[0] == math.factorial(m + n - 1) // math.factorial(m - 1)
        plain = row_product_tree(n).coeffs
        for k in range(n + 1):
            assert (row[k] - plain[k]) % m == 0

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    def test_matches_sum_route(self, m, n):
        row = shifted_row_expand(m, n).coeffs
        for k in range(n + 1):
            assert row[k] == shifted_value_sum(m, n, k)


class TestShiftedValueSum:
    def test_examples(self):
        assert shifted_value_sum(2, 2, 1) == 5
        assert shifted_value_sum(4, 4, 0) == 840
        assert shifted_value_sum(3, 4, 4) == 1

    def test_out_of_range_k_is_empty_sum(self):
        assert shifted_value_sum(2, 3, 5) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            shifted_value_sum(-1, 2, 1)
        with pytest.raises(DomainError):
            shifted_value_sum(2, -1, 0)
        with pytest.raises(DomainError):
            shifted_value_sum(2, 3, -1)


class TestConvolution:
    def test_examples(self):
        assert convolution_rhs(2, 2, 2) == 11
        assert convolution_rhs(4, 4, 1) == 5040
        assert convolution_rhs(0, 5, 3) == 35

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=24),
    )
    def test_reconstructs_combined_row(self, m, n):
        combined = row_product_tree(m + n).coeffs
        for k in range(m + n + 1):
            assert convolution_rhs(m, n, k) == combined[k]


class TestHalfSum:
    def test_examples(self):
        assert lemma21_rhs(8, 5) == 1960
        assert lemma21_rhs(4, 1) == 6
        assert lemma21_rhs(2, 1) == 1

    def test_rejects_even_parity(self):
        # defined only when n + k is odd
        with pytest.raises(DomainError):
            lemma21_rhs(4, 2)
        with pytest.raises(DomainError):
            lemma21_rhs(5, 1)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=60))
    def test_matches_row_for_odd_parity(self, n):
        row = row_product_tree(n).coeffs
        for k in range(1, n + 1):
            if (n + k) % 2 == 1:
                assert lemma21_rhs(n, k) == row[k]


class TestSpecialValues:
    def test_selectors_match_rows(self):
        for n in range(1, 80):
            row = row_product_tree(n).coeffs
            assert special_value(n, "1") == row[1]
            assert special_value(n, "n-1") == row[n - 1]
            assert special_value(n, "n") == row[n]
            if n >= 2:
                assert special_value(n, "2") == row[2]
                assert special_value(n, "n-2") == row[n - 2]

    def test_examples(self):
        assert special_value(8, "1") == 5040
        assert special_value(8, "2") == 13068
        assert special_value(8, "n-2") == 322
        assert special_value(8, "n-1") == 28
        assert special_value(8, "n") == 1

    def test_rejects_bad_selector(self):
        with pytest.raises(DomainError):
            special_value(5, "3")
        with pytest.raises(DomainError):
            special_value(5, "k")

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            special_value(1, "2")
        with pytest.raises(DomainError):
            special_value(1, "n-2")
        with pytest.raises(DomainError):
            special_value(0, "1")


def _no_child_left():
    # Every worker has been reaped: the process has no children at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _builders(n):
    return {
        "recurrence": lambda: row_recurrence(n).coeffs,
        "product_tree": lambda: row_product_tree(n).coeffs,
        "shifted": lambda: shifted_row_expand(7, n).coeffs,
    }


def _chain_rows(n):
    # The same rows by recurrence steps alone, in this process.
    plain = tuple(stirling_mod._expand_chain(0, n))
    return {"recurrence": plain, "product_tree": plain, "shifted": tuple(stirling_mod._expand_chain(7, 7 + n))}


@pytest.fixture
def deadline():
    # A hung pipe fails the test in seconds instead of stalling the run.
    def expire(signum, frame):
        raise TimeoutError("two-process build did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    # Counts the workers started.
    started = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: started.append(1) or real())
    return started


@pytest.fixture
def two_cpus(monkeypatch, forks):
    # Rows from 32 factors up take the two-process path.
    monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process path needs os.fork")
class TestTwoProcesses:
    def test_rows_equal_serial_rows(self, monkeypatch, forks, deadline):
        # Through n = 8 the cut is 1 and the root split h = 1, their
        # smallest values; n = 20 sends exactly one full carry batch.
        # Row 0 takes no recurrence step, so it never forks.
        sizes = list(range(41)) + [100, 257, 600]
        serial = {n: {name: build() for name, build in _builders(n).items()} for n in sizes}
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for n in sizes:
            for name, build in _builders(n).items():
                assert build() == serial[n][name], (name, n)
            _no_child_left()
        assert len(forks) == 3 * len(sizes) - 1
        assert shifted_row_expand(2**40, 12).coeffs == tuple(stirling_mod._expand_chain(2**40, 2**40 + 12))

    @pytest.mark.parametrize("shift", [0, 7])
    def test_steps_equal_the_serial_chain(self, monkeypatch, forks, deadline, shift):
        # Row 40 is cut at column 11, so start rows of 1, 11 and 31
        # columns are shorter than, as long as and longer than the cut.
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert int(40 * stirling_mod._RECURRENCE_CUT) == 11
        for m in (0, 10, 30):
            start = tuple(stirling_mod._expand_chain(shift, shift + m))
            serial = stirling_mod._expand_chain(shift + m, shift + 40, start)
            assert stirling_mod._steps(shift + m, shift + 40, start) == serial, m
            _no_child_left()
        assert len(forks) == 3
        # No step at all returns the start row and never forks.
        row = tuple(stirling_mod._expand_chain(shift, shift + 40))
        assert stirling_mod._steps(shift + 40, shift + 40, row) == list(row)
        assert len(forks) == 3

    @pytest.mark.parametrize("engine", ["recurrence", "product_tree", "shifted"])
    @pytest.mark.parametrize("fault", ["raise", "exit", "exit_after_send"])
    def test_worker_failure_names_the_row(self, monkeypatch, two_cpus, deadline, engine, fault):
        parent = os.getpid()
        if fault == "exit_after_send":
            send = stirling_mod._Channel.send

            def faulty_send(channel, obj):
                send(channel, obj)
                if os.getpid() != parent:
                    os._exit(3)

            monkeypatch.setattr(stirling_mod._Channel, "send", faulty_send)
        else:
            step = stirling_mod._times_linear

            def faulty(coeffs, c):
                if os.getpid() != parent:
                    if fault == "exit":
                        os._exit(3)
                    raise RuntimeError("planted in the worker")
                return step(coeffs, c)

            monkeypatch.setattr(stirling_mod, "_times_linear", faulty)
        what = "shifted row (7, 40)" if engine == "shifted" else "row 40"
        with pytest.raises(stirling_mod.ConsistencyError, match=rf"^{re.escape(what)}: ") as caught:
            _builders(40)[engine]()
        if (engine, fault) == ("recurrence", "exit_after_send"):
            # The whole result arrived; only the exit status shows the fault.
            assert str(caught.value) == "row 40: the worker exited with status 3"
        assert two_cpus == [1]
        _no_child_left()

    @pytest.mark.parametrize("engine", ["recurrence", "product_tree", "shifted"])
    def test_parent_failure_kills_the_worker(self, monkeypatch, two_cpus, deadline, engine):
        # The worker is still busy when the parent raises, so only a kill
        # ends it before the deadline.
        parent = os.getpid()
        step = stirling_mod._times_linear

        def faulty(coeffs, c):
            if os.getpid() != parent:
                time.sleep(600)
            elif c >= 30:
                raise RuntimeError("planted in the parent")
            return step(coeffs, c)

        monkeypatch.setattr(stirling_mod, "_times_linear", faulty)
        with pytest.raises(RuntimeError, match="planted in the parent"):
            _builders(40)[engine]()
        assert two_cpus == [1]
        _no_child_left()

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", None)
        assert {name: build() for name, build in _builders(40).items()} == _chain_rows(40)

    def test_another_thread_means_serial(self, two_cpus):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert {name: build() for name, build in _builders(40).items()} == _chain_rows(40)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert two_cpus == []

    @pytest.mark.parametrize("cpus, forked", [(1, False), (2, True), (None, False)])
    def test_cpu_count_stands_in_for_affinity(self, monkeypatch, forks, deadline, cpus, forked):
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 32)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert row_product_tree(40).coeffs == tuple(stirling_mod._expand_chain(0, 40))
        assert forks == ([1] if forked else [])
        _no_child_left()

    def test_no_fork_call_means_serial(self, monkeypatch):
        monkeypatch.setattr(stirling_mod, "_FORK_MIN_N", 32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert {name: build() for name, build in _builders(40).items()} == _chain_rows(40)
