"""Brute-force verification of the valuation claims.

Every check follows the same shape: build the relevant rows, derive
the claimed quantity, compare. A report carries the total number of
instances checked, the true number that failed, and a sample of the
failing ones (capped), never just the first failure, because
diagnosing a systematic off-by-one needs the full pattern. run_suite
runs the selected checks one after another in one process, all of
them reading the rows of one build for the run's largest n.

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

Ground truth for identities is exact. Every row is computed by BOTH
engines (recurrence and product tree), which must agree
coefficientwise; shifted rows are expanded twice, once balanced and
once sequentially. Each row must then meet invariants that no engine
computes: s(n, 0) = [n = 0], s(n, n) = 1, s(n, 1) = (n-1)!, row sum n!
and, for n >= 2, alternating sum 0; s_m(n, n) = 1 and row sum
(m+n)!/m! for shifted rows.

The other five suites read only 2-adic valuations, so their ground
truth is truncated: column k of row N = 2**n is kept only modulo
2**B_k. Why that is sound:

  Precision. B_k = (max over j >= k of predict_valuation(n, j)) + 3,
      and B_0 = B_1, computed once per n (_precisions). B never grows
      with k. The margin of 3 lets a zero residue prove lemma24's lift
      bound v2 >= v2(s(N, t)) + 2. A run whose largest n is top builds
      every row 2**j, j <= top, at once (_truncated_rows). Its masked
      recurrence runs at the joint precisions M*_k = max B^(j)_k over
      the j <= top with 2**j >= k. M* never grows with k either, and
      each row 2**j is then reduced to its own B^(j) <= M*.
  Masking is exact. Reduction mod 2**b is a ring homomorphism, and
      column k of a product reads only columns <= k of its factors,
      each kept modulo 2**B_j with B_j >= B_k. So reducing column k
      mod 2**B_k after every product leaves every kept residue equal
      to the exact coefficient's residue, and reducing a residue mod
      2**M*_k further to 2**B_k gives the residue mod 2**B_k.
  Two routes. Rows 2**j come from one masked recurrence over
      [0, 2**top) (stirling_core._chain_masked, carried on from row
      2**j to row 2**(j+1)) and from doubling
      (stirling_core._double_masked): (x)_{2N} = P(x) P(x + 1) with
      P(x) = 2**N (x/2)_N, the even factors, so P_i = s(N, i) << (N - i)
      and P(x + 1) is the odd factors. The doubling route starts from
      (x)_1 = x and keeps row 2**j modulo 2**tau_j; the chain keeps
      every row modulo 2**M*. The two share no step: the chain steps
      its wide columns one int each and its narrow ones as packed
      bands, while a doubling takes P(x + 1) mod 2**p by Horner's rule
      and one binomial row, and P-hat Q-hat by one _poly_mul. They must
      agree on every row 2**j at B^(j), and the row must meet
      invariants that neither route computes: s(N, 0) = 0,
      s(N, 1) = (N-1)! and s(N, N) = 1 mod 2**B_k.
  The doubling rule. With row N known as r_i mod 2**pi_i and
      w_i = min(v2(r_i), pi_i), a proven lower bound on v2(s(N, i)),
      let win_i = max tau'[i .. i+N] for the next row's targets tau'.
      Column k of P-hat Q-hat, with P_i kept mod 2**win_i and P(x + 1)
      mod 2**p, is s(2N, k) mod 2**tau'_k whenever, for every i,
      pi_i + N - i >= max(win_i, p) and p >= win_i - (N - i) - w_i.
  The plan (stirling_core._doubling_plan). Once the chain has reached
      row 2**top, the precisions are set top-down: tau_top = B^(top);
      p_j is the largest win_i - (N - i) - w_i (or 0), with w read from
      the chain's row 2**j; tau_j[i] = max(B^(j)_i, win_i - (N - i),
      p_j - (N - i)), so both conditions hold and row 2**j can be
      compared at B^(j). While the predictions hold, p_j = 2 top at
      every step.
  Why reading the chain's valuations cannot pass a wrong row. Each
      doubling recomputes p from its own residues and raises
      ConsistencyError when the planned p is short; it never reads the
      chain's values. On correct rows it never raises: where
      v = v2(s(N, i)) <= pi_i its own w_i is v, at least the chain's
      min(v, M*_i), and otherwise its term win_i - (N - i) - pi_i is at
      most 0 by the plan's choice of pi. So a fault in the chain
      that raises its valuations can only shorten p, which raises. Any
      other fault in one route either changes some row 2**j at its
      B^(j), where the routes disagree before any check result, or
      changes no residue that a check reads.
  Shifted rows. Each shifted row (x + N)_N, N = 2**n, is checked where
      lemma24 reads it (_truncated_shifted): the masked recurrence over
      x + N .. x + 2N - 1, kept modulo row N's B, is compared with the
      truncated Taylor shift of the checked row N by N
      (_taylor_shift_masked): s_N(N, k) = sum_{i >= k} s(N, i) C(i, k)
      N**(i-k). Term i of column k is known modulo 2**(B_i + n(i-k)),
      so the shift knows column k modulo 2**B'_k, with
      B'_k = min(B_k, B'_{k+1} + n), and sums only the terms with
      n(i-k) < B'_k. The two must agree modulo 2**B', B' <= B. By the
      drop bound B falls by less than n per column, so B' = B whenever
      the predictions hold; by Lemma 2.4 the shifted row's valuations
      are row N's. The row must also meet s_N(N, 0) = (2N-1)!/(N-1)!
      and s_N(N, N) = 1 mod 2**B'_k.
  Lifted row. Row N + 1 is row N times (x + N), computed by two paths
      (_truncated_lifted) that must agree exactly. Column k + 1 is
      N * r[k+1] + r[k], known modulo 2**min(B_k, B_{k+1} + n). It
      must meet s(N+1, 0) = 0, s(N+1, 1) = N! and s(N+1, N+1) = 1
      there; a wrong factor both paths share, x + N + 1, moves column 1
      by (N-1)!, whose v2 of N - 1 - n is below that column's B.
  One gate. Rows 2**j and shifted rows once their routes agree
      (_agreed), and lifted rows, all pass _truncated, which reduces
      the row to its bits and checks the invariants above.
  Reading a residue (_v2_mod). A nonzero residue mod 2**b gives the
      exact valuation. A zero residue proves only v2 >= b: it fails
      every equality and every upper bound, and passes a lower bound
      only when b meets that bound. A bound drawn from an unresolved
      column fails, and two unresolved sides never pass an equality.
      The harmonic bound reads a zero residue as INFINITE, which fails
      <= 0.
  Wrong predictions cannot pass. Every pass is implied by true facts
      about the exact numbers, whatever B is; B decides only how many
      columns resolve. Since B comes from the predictions under test,
      a wrong prediction gives either a resolved mismatch or an
      unresolved column, and both are failures. While the predictions
      hold, every column of row N resolves (B_k >= v2 + 3), and so
      does every column of row N + 1 (Theorem 2 and the drop bound
      put its valuations below min(B_k, B_{k+1} + n)). The truncated
      rows then pass and fail exactly the checks that exact rows do.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .formulas import predict_valuation
from .harmonic import bound_margin
from .padic import INFINITE, Valuation, vp_int
from .stirling_core import (
    _capped_cache,
    _chain_masked,
    _check_row_args,
    _double_masked,
    _doubling_plan,
    _expand_chain,
    _masked,
    _poly_mul,
    _taylor_shift_masked,
    _times_linear,
    convolution_rhs,
    lemma21_rhs,
    row_product_tree,
    row_recurrence,
    shifted_row_expand,
    shifted_value_sum,
)

FAILURE_CAP = 100
# The routes the ground truth comes from (see the module docstring):
# identities reads exact rows from the recurrence and the product tree;
# the valuation suites read rows 2**n from the masked chain and
# doubling, modulo 2**B_k; shifted rows come from the masked chain and
# the Taylor shift.
GROUND_TRUTH_ENGINE = "exact:recurrence+product_tree;mod2^B:chain+doubling;shifted:chain+taylor_shift"
SUITE_IDS = ("theorem1", "theorem2", "lemma24", "lemma25", "identities", "inequalities")

# Smallest n of each per-n check (the check refuses less, run_suite
# skips it) and the check_<suite> that runs it, which run_suite looks
# up in this module's globals at call time, so a wrapper set on the
# module (as a tracer does) sees every call.
_PER_N_CHECKS = {
    "theorem1": (1, "check_theorem1"),
    "theorem2": (1, "check_theorem2"),
    "lemma24": (2, "check_lemma24"),
    "lemma25": (2, "check_lemma25"),
    "inequalities": (2, "check_inequalities"),
}

_IDENTITY_SWEEP_CAP = 64


def _check_n(suite: str, n: int) -> None:
    first = _PER_N_CHECKS[suite][0]
    if n < first:
        raise DomainError(f"need n >= {first}, got {n}")


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


def _require_exact(name: str, facts: dict[str, bool]) -> None:
    # Invariants of an exact row that neither engine computes.
    broken = [fact for fact, holds in facts.items() if not holds]
    if broken:
        raise ConsistencyError(f"{name} fails its invariants: {', '.join(broken)}")


@_capped_cache(256, _check_row_args)
def _verified_plain_coeffs(n: int) -> tuple[int, ...]:
    """Row n from both engines, which must agree and meet row invariants.

    (x)_n is 0 at x = 0 for n >= 1, n! at x = 1 and, for n >= 2, 0 at
    x = -1 (the factor x + 1); its top column is 1 and its column 1 is
    (n-1)!. A fault in the step both engines share (such as multiplying
    by x + c + 1) builds a row they agree on but that breaks these.
    """
    rec = row_recurrence(n)
    tree = row_product_tree(n)
    if rec.coeffs != tree.coeffs:
        raise ConsistencyError(f"engines disagree on row {n}")
    c = rec.coeffs
    _require_exact(f"row {n}", {
        "s(n, 0) = [n = 0]": c[0] == (n == 0),
        "s(n, n) = 1": c[n] == 1,
        "s(n, 1) = (n-1)!": n == 0 or c[1] == math.factorial(n - 1),
        "sum = n!": sum(c) == math.factorial(n),
        "alternating sum = 0": n < 2 or sum(c[::2]) == sum(c[1::2]),
    })
    return c


@_capped_cache(2048, lambda m, n: _check_row_args(n, m))
def _verified_shifted_coeffs(m: int, n: int) -> tuple[int, ...]:
    """Shifted row (m, n) expanded twice, checked against (x + m)_n at x = 1."""
    tree = shifted_row_expand(m, n)
    chain = tuple(_expand_chain(m, m + n))
    if tree.coeffs != chain:
        raise ConsistencyError(f"expansions disagree on shifted row ({m}, {n})")
    c = tree.coeffs
    _require_exact(f"shifted row ({m}, {n})", {
        "s_m(n, n) = 1": c[n] == 1,
        "sum = (m+n)!/m!": sum(c) == math.perm(m + n, n),
    })
    return c


@dataclass(frozen=True)
class _Truncated:
    """A row whose column k is known only modulo 2**bits[k]."""

    coeffs: tuple[int, ...]
    bits: tuple[int, ...]

    def v2(self, k: int) -> tuple[Valuation, bool]:
        return _v2_mod(self.coeffs[k], self.bits[k])


def _v2_mod(residue: int, bits: int) -> tuple[Valuation, bool]:
    """(v, True) with v the exact v2, or (bits, False) when only v2 >= bits is known.

    The number is known modulo 2**bits. A nonzero residue r fixes the
    valuation: the number is r + 2**bits * q, and v2(r) < bits.
    """
    residue %= 1 << bits
    return (vp_int(2, residue), True) if residue else (bits, False)


def _same(a: tuple, b: tuple) -> bool:
    # Equality needs both sides resolved: two unresolved sides never pass.
    return a[1] and b[1] and a[0] == b[0]


def _at_least(v: tuple, bound: tuple) -> bool:
    # A resolved bound, met by the exact value or by the proven v >= bits.
    return bound[1] and v[0] >= bound[0]


def _at_most(v: tuple, bound: tuple) -> bool:
    # An upper bound needs both sides resolved.
    return v[1] and bound[1] and v[0] <= bound[0]


def _shown(v: tuple):
    return v[0] if v[1] else f">= {v[0]}"


def _shown_bound(op: str, bound: tuple) -> str:
    return f"{op} {bound[0]}" if bound[1] else "unresolved bound"


def _precisions(n: int) -> tuple[int, ...]:
    """B_0..B_N for row N = 2**n: B_k = max_{j >= k} predicted v2(s(N, j)) + 3, B_0 = B_1."""
    top = 2 ** n
    bits = [0] * (top + 1)
    need = 0
    for t in range(top, 0, -1):
        need = max(need, predict_valuation(n, t).predicted)
        bits[t] = need + 3
    bits[0] = bits[1]
    return tuple(bits)


def _truncated(name: str, row: Sequence[int], bits: Sequence[int], known: dict[int, int]) -> _Truncated:
    """row modulo 2**bits, once column k meets known[k] for each k in known (see One gate)."""
    row = _masked(row, bits)
    for k, value in known.items():
        if row[k] != value % (1 << bits[k]):
            raise ConsistencyError(f"truncated {name} fails its invariant at column {k}")
    return _Truncated(tuple(row), tuple(bits[: len(row)]))


def _agreed(
    name: str, route: list[int], other: list[int], bits: Sequence[int], known: dict[int, int]
) -> _Truncated:
    """The row both routes give modulo 2**bits, once they agree and meet the invariants."""
    if _masked(route, bits) != _masked(other, bits):
        raise ConsistencyError(f"truncated routes disagree on {name}")
    return _truncated(name, route, bits, known)


@_capped_cache(32, lambda top: _check_row_args(2 ** top))
def _truncated_rows(top: int) -> tuple[_Truncated | None, ...]:
    """Every truncated row 2**j, j <= top, of a run whose largest n is top (index 0 is None).

    One masked recurrence over [0, 2**top), at the joint precisions M*,
    passes through every row 2**j. The doubling route starts from
    (x)_1 = x and doubles row 2**j to row 2**(j+1) (_double_masked) at
    the precisions _doubling_plan reads off the chain's rows. Row 2**j
    from each route is reduced to its own B^(j), and the two must agree
    and meet the invariants. See the module docstring (Precision, Two
    routes) for why this is sound.
    """
    bits = [(0, 0), *(_precisions(j) for j in range(1, top + 1))]
    joint = [max(col) for col in zip_longest(*bits, fillvalue=0)]
    chain = [_chain_masked(0, 1, joint)]
    for j in range(top):
        chain.append(_chain_masked(2**j, 2 ** (j + 1), joint, chain[j]))
    plan = _doubling_plan(chain, joint, bits)
    row: list[int] = [0, 1]
    plain: list[_Truncated | None] = [None]
    for j, ((tau, p), (targets, _)) in enumerate(zip(plan, plan[1:]), 1):
        size = 2**j
        row = _double_masked(row, tau, targets, p)
        plain.append(_agreed(f"row {size}", chain[j], row, bits[j], {0: 0, 1: math.factorial(size - 1), size: 1}))
    return tuple(plain)


def _truncated_plain(n: int, top: int | None = None) -> _Truncated:
    """Row 2**n modulo 2**B_k, read from the build for top, the run's largest n (n by default)."""
    if top is None:
        top = n
    elif top < n:
        raise DomainError(f"need top >= n, got top={top}, n={n}")
    return _truncated_rows(top)[n]


def _truncated_shifted(n: int, top: int | None = None) -> _Truncated:
    """Shifted row (x + 2**n)_{2**n} modulo 2**B'_k, checked here, where it is read.

    One route is the truncated Taylor shift of the checked row 2**n by
    2**n (_taylor_shift_masked): (x + N)_N is (x)_N at x + N. The shift
    knows column k only modulo 2**B'_k, B'_k = min(B_k, B'_{k+1} + n),
    so both routes are compared, and the invariants checked, modulo
    2**B'. The other route is the masked recurrence over the factors
    x + 2**n .. x + 2**(n+1) - 1, kept modulo row 2**n's B. Under the
    predictions B drops by less than n per column, so B' = B.
    """
    size = 2 ** n
    plain = _truncated_plain(n, top)
    taylor, bits = _taylor_shift_masked(plain.coeffs, plain.bits, n)
    route = _chain_masked(size, 2 * size, plain.bits)
    known = {0: math.perm(2 * size - 1, size), size: 1}
    return _agreed(f"shifted row ({size}, {size})", route, taylor, bits, known)


@_capped_cache(32, lambda n, top=None: _check_row_args(2 ** n + 1))
def _truncated_lifted(n: int, top: int | None = None) -> _Truncated:
    """Row 2**n + 1, lifted from the truncated row 2**n.

    Row N + 1 is row N times (x + N), the rising factorial's next
    factor. The one step is computed twice by paths that share no
    code: _times_linear (the recurrence step) and _poly_mul with a
    two-term operand (its schoolbook branch). Column k + 1 of the
    product is N * r[k+1] + r[k]; with N = 2**n, N * r[k+1] is known
    modulo 2**(B_{k+1} + n) and r[k] modulo 2**B_k, so the column is
    known modulo 2**min(B_k, B_{k+1} + n). Column 0 is N * r[0] and the
    top column is r[N].
    """
    size = 2 ** n
    base = _truncated_plain(n, top)
    step = _times_linear(base.coeffs, size)
    if step != _poly_mul(list(base.coeffs), [size, 1]):
        raise ConsistencyError(f"lift paths disagree on row {size + 1}")
    b = base.bits
    bits = (b[0] + n, *(min(lo, hi + n) for lo, hi in zip(b, b[1:])), b[-1])
    return _truncated(f"row {size + 1}", step, bits, {0: 0, 1: math.factorial(size), size + 1: 1})


def check_theorem1(n: int, *, top: int | None = None) -> CheckReport:
    """Compare predicted v2 against the truncated row s(2**n, .).

    top, here and in the other per-n checks, is the largest n of the
    run (n by default): the rows are read from the one build for top.
    """
    _check_n("theorem1", n)
    started = time.perf_counter()
    col = _Collector()
    row = _truncated_plain(n, top)
    for t in range(1, 2 ** n + 1):
        expected = predict_valuation(n, t).predicted
        actual = row.v2(t)
        col.add("theorem1", (n, t), expected, _shown(actual), _same((expected, True), actual))
    return col.report("theorem1", (n,), started)


def check_theorem2(n: int, *, top: int | None = None) -> CheckReport:
    """Check v2(s(2**n + 1, k+1)) = v2(s(2**n, k)) for every k.

    Row 2**n is the truncated row of both masked routes; row 2**n + 1
    is lifted from it by the two checked paths of _truncated_lifted.
    """
    _check_n("theorem2", n)
    started = time.perf_counter()
    col = _Collector()
    lifted = _truncated_lifted(n, top)
    base = _truncated_plain(n, top)
    for k in range(1, 2 ** n + 1):
        expected = base.v2(k)
        actual = lifted.v2(k + 1)
        col.add("theorem2", (n, k), _shown(expected), _shown(actual), _same(expected, actual))
    return col.report("theorem2", (n,), started)


def check_lemma24(n: int, *, top: int | None = None) -> CheckReport:
    """Check the shifted row s_{2**n}(2**n, .) against the plain row.

    Two conditions per column t: equal valuations, and the difference
    of the two numbers gains at least two extra factors of 2. The
    difference is known modulo 2**B'_t, the shifted row's precision
    (B' <= B), so a zero residue proves only v2 >= B'_t, which meets
    the bound whenever the predictions hold.
    """
    _check_n("lemma24", n)
    started = time.perf_counter()
    col = _Collector()
    plain = _truncated_plain(n, top)
    shifted = _truncated_shifted(n, top)
    for t in range(1, 2 ** n + 1):
        v_plain = plain.v2(t)
        v_shift = shifted.v2(t)
        col.add("lemma24", (n, t, "eq"), _shown(v_plain), _shown(v_shift), _same(v_plain, v_shift))
        v_diff = _v2_mod(shifted.coeffs[t] - plain.coeffs[t], shifted.bits[t])
        bound = (v_plain[0] + 2, v_plain[1])
        col.add(
            "lemma24",
            (n, t, "lift"),
            _shown_bound(">=", bound),
            _shown(v_diff),
            _at_least(v_diff, bound),
        )
    return col.report("lemma24", (n,), started)


def check_lemma25(n: int, *, top: int | None = None) -> CheckReport:
    """Check v2(s(2**n, 2i-1)) = v2(s(2**n, 2i)) + n - 1 for all pairs."""
    _check_n("lemma25", n)
    started = time.perf_counter()
    col = _Collector()
    row = _truncated_plain(n, top)
    for i in range(1, 2 ** (n - 1) + 1):
        even = row.v2(2 * i)
        expected = (even[0] + n - 1, even[1])
        actual = row.v2(2 * i - 1)
        col.add("lemma25", (n, i), _shown(expected), _shown(actual), _same(expected, actual))
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


def check_inequalities(n: int, *, top: int | None = None) -> CheckReport:
    """Check the valuation inequalities on row s(2**n, .).

    Four families: v2(s(2**n,i+1)) >= v2(s(2**n,i-1)) - 2n + 4 for
    3 <= i <= 2**n - 1; v2(s(2**n,k+1)) > v2(s(2**n,k)) - n for
    1 <= k <= 2**n (the entry above the top is 0, valuation INFINITE);
    v2(s(2**n,k)) <= v2(s(2**n,1)); and v2(H(2**n,k)) + n <= 0, where
    bound_margin reads v2(H(2**n,k)) from the integer row 2**n + 1
    through (2**n)! * H(2**n,k) = s(2**n+1,k+1) and Legendre's formula.
    Both rows are the truncated ones theorem2 reads. A lower bound
    passes on a proven v2 >= B; every bound drawn from an unresolved
    column, and every upper bound on one, fails.
    """
    _check_n("inequalities", n)
    started = time.perf_counter()
    col = _Collector()
    size = 2 ** n
    lifted = _truncated_lifted(n, top)
    row = _truncated_plain(n, top)
    vals = [None] + [row.v2(t) for t in range(1, size + 1)] + [(INFINITE, True)]
    for i in range(3, size):
        bound = (vals[i - 1][0] - 2 * n + 4, vals[i - 1][1])
        col.add(
            "step_lower_bound",
            (n, i),
            _shown_bound(">=", bound),
            _shown(vals[i + 1]),
            _at_least(vals[i + 1], bound),
        )
    for k in range(1, size + 1):
        bound = (vals[k][0] - n, vals[k][1])
        above = vals[k + 1]
        col.add(
            "adjacent_drop_bound",
            (n, k),
            _shown_bound(">", bound),
            _shown(above),
            _at_least(above, (bound[0] + 1, bound[1])),
        )
    v_first = vals[1]
    for k in range(1, size + 1):
        col.add(
            "max_at_first_index",
            (n, k),
            _shown_bound("<=", v_first),
            _shown(vals[k]),
            _at_most(vals[k], v_first),
        )
    for k in range(1, size + 1):
        margin = bound_margin(n, k, row=lifted.coeffs)
        col.add("harmonic_bound", (n, k), "<= 0", margin, margin <= 0)
    return col.report("inequalities", (n,), started)


def run_suite(n_min: int, n_max: int, checks="all", jobs: int = 1) -> CheckReport:
    """Run the selected checks for every n in [n_min, n_max] and merge.

    checks is "all", one id from SUITE_IDS, or an iterable of such ids.
    The identities sweep does not depend on a single n, so it runs once
    with both axes set to n_max. Per-n checks are skipped for n below
    their smallest valid argument, and read their truncated rows from
    one build for n_max, made by the first check that needs it. A
    selection that would run no check raises DomainError.

    Verification runs in one process, in this call: every check reads
    the same build, so a worker pool would only repeat it. jobs is kept
    because callers such as perfbench/passes.py pass jobs=1; any other
    value raises DomainError.
    """
    if n_min < 1 or n_min > n_max:
        raise DomainError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if jobs != 1:
        raise DomainError(f"verification runs in one process: need jobs == 1, got {jobs}")
    if checks == "all":
        selected = list(SUITE_IDS)
    else:
        selected = sorted({checks} if isinstance(checks, str) else set(checks))
        unknown = [c for c in selected if c not in SUITE_IDS]
        if unknown:
            raise DomainError(f"unknown check ids: {', '.join(map(str, unknown))}")
        if not selected:
            raise DomainError("no check ids given")
    suite = "all" if checks == "all" else "+".join(selected)
    first = min(1 if c == "identities" else _PER_N_CHECKS[c][0] for c in selected)
    if first > n_max:
        raise DomainError(f"suite {suite} starts at n = {first}, so [{n_min}, {n_max}] runs no check")
    started = time.perf_counter()
    reports: list[CheckReport] = []
    for check in selected:
        if check == "identities":
            reports.append(check_identities(n_max, n_max))
            continue
        n_first, name = _PER_N_CHECKS[check]
        for n in range(max(n_min, n_first), n_max + 1):
            reports.append(globals()[name](n, top=n_max))

    total = sum(r.total for r in reports)
    failures: list[CheckResult] = []
    for r in reports:
        failures.extend(r.failures)
    failures.sort(key=lambda r: (r.check_id, r.instance))
    del failures[FAILURE_CAP:]
    failed = sum(r.failures_total for r in reports)
    return CheckReport(suite, (n_min, n_max), total, failed, failures, time.perf_counter() - started)

