"""Elementary symmetric functions of 1, 1/2, ..., 1/n as exact rationals.

H(n,k) is the sum of products of k distinct reciprocals from the first
n. The bridge to the rest of the package is the identity
n! * H(n,k) = s(n+1, k+1): the coefficients of x(x+1)...(x+n) are
n! times those of (1 + x)(1 + x/2)...(1 + x/n), shifted up one power.
harmonic_table therefore reads the integer row n+1 and divides it by
n!, and the row cap limits it through that row.

The one-variable-at-a-time recurrence e_k <- e_k + (1/i) * e_{k-1},
folding in i = 1..n, is kept as the route that shares no code with the
rows: identity_residual checks the identity against it, and
conjecture_scan folds only e_0..e_k. Its cost is dominated by gcd
reductions on ever-larger rationals and grows about tenfold per
doubling of n, which is why neither the table nor the harmonic upper
bound (bound_margin) is built from it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .padic import Valuation, _require_prime, factorial_valuation, vp_int, vp_rat
from .stirling_core import _cached_coeffs, _check_row_args, stirling


@dataclass(frozen=True)
class HarmonicTable:
    """All values H(n,0..n) for one n, with H(n,0) = 1."""

    n: int
    values: tuple[Fraction, ...]


def _fold(e: list[Fraction], i: int) -> None:
    # Fold the variable 1/i into the state e_0..e_{len(e)-1}. Entries
    # update downward so each e[j-1] is still the previous value when
    # e[j] reads it; entries above i are still zero and left alone.
    inv = Fraction(1, i)
    for j in range(min(i, len(e) - 1), 0, -1):
        e[j] += e[j - 1] * inv


@lru_cache(maxsize=32)
def _cached_values(n: int) -> tuple[Fraction, ...]:
    # H(n,0..n) by the full fold; only identity_residual reads it.
    e = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        _fold(e, i)
    return tuple(e)


def harmonic_table(n: int, *, row: Sequence[int] | None = None) -> HarmonicTable:
    """Build the full table H(n,0..n) from the integer row n+1.

    H(n,k) = s(n+1, k+1) / n!. The table has no route of its own, so the
    row, given or read, is first checked against two invariants that no
    engine computes: s(n+1, 1) = n!, which makes H(n,0) = 1, and
    sum_k s(n+1, k) = (n+1)!.

    Args:
        n: Table size, n >= 1, with row n+1 within the row cap.
        row: The coefficients s(n+1, 0..n+1), when the caller already
            holds them (the CLI passes the row from its disk cache).
            Without it the row comes from the same capped cache that
            stirling() reads.

    Returns:
        HarmonicTable with n+1 reduced Fraction values.

    Raises:
        DomainError: If n < 1, or row does not have n+2 entries.
        ResourceLimitError: If row n+1 exceeds the row cap.
        ConsistencyError: If the row fails either invariant.
    """
    if n < 1:
        raise DomainError(f"table size must be >= 1, got {n}")
    if row is None:
        row = _cached_coeffs(n + 1, 0)
    elif len(row) != n + 2:
        raise DomainError(f"row {n + 1} has {n + 2} entries, got {len(row)}")
    n_factorial = math.factorial(n)
    if row[1] != n_factorial:
        raise ConsistencyError(f"s({n + 1}, 1) is not {n}!")
    if sum(row) != (n + 1) * n_factorial:
        raise ConsistencyError(f"row {n + 1} does not sum to {n + 1}!")
    return HarmonicTable(n, tuple(Fraction(c, n_factorial) for c in row[1:]))


def identity_residual(n: int, k: int) -> int:
    """Return n! * H(n,k) - s(n+1,k+1); zero whenever both sides are right.

    H(n,k) comes from the rational fold, never from harmonic_table: the
    two sides then come from unrelated code paths (rational recurrence
    versus polynomial expansion), so a nonzero residual pins a bug. The
    row is read first, so the row cap holds before any fold is built or
    served from its cache.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    rhs = stirling(n + 1, k + 1)
    lhs = math.factorial(n) * _cached_values(n)[k]
    if lhs.denominator != 1:
        raise ConsistencyError(f"n! * H({n},{k}) is not an integer: {lhs}")
    return int(lhs) - rhs


def bound_margin(n: int, k: int, *, row: Sequence[int] | None = None) -> Valuation:
    """Return v2(H(2**n, k)) + n; the upper-bound claim says <= 0.

    Read exactly from the integer row 2**n + 1; no table is built.
    With N = 2**n, the identity N! * H(N,k) = s(N+1, k+1) and
    additivity of valuations give v2(H(N,k)) = v2(s(N+1, k+1)) - v2(N!).
    For 1 <= k <= N the Stirling number s(N+1, k+1) is positive, so its
    valuation is finite. Legendre's formula gives v2(N!) = N - d2(N) =
    2**n - 1 without forming N!. On an exact row nothing is truncated,
    so the result is the one the rational fold gives;
    identity_residual checks the identity itself against that fold.

    The row may also hold residues: column j known only modulo some
    2**b_j, as in the verifier's truncated row. A nonzero residue has
    the exact valuation, so the margin is exact. A zero residue reads as
    INFINITE, and the margin then fails the <= 0 claim, so a column the
    residues do not resolve can never pass the bound.

    Args:
        n: Row exponent, n >= 1.
        k: Column, 1 <= k <= 2**n.
        row: The coefficients s(2**n + 1, 0..2**n + 1), or residues of
            them, when the caller already holds them (the verifier
            passes its cross-checked truncated row). Without it the
            exact row comes from stirling().

    Raises:
        DomainError: If n < 1, k is outside 1..2**n, or row does not
            have 2**n + 2 entries.
        ResourceLimitError: If row 2**n + 1 exceeds the row cap.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 1 <= k <= 2 ** n:
        raise DomainError(f"need 1 <= k <= 2**{n}, got {k}")
    top = 2 ** n
    if row is None:
        value = stirling(top + 1, k + 1)
    elif len(row) != top + 2:
        raise DomainError(f"row 2**{n} + 1 has {top + 2} entries, got {len(row)}")
    else:
        value = row[k + 1]
    return vp_int(2, value) - factorial_valuation(2, top) + n


def conjecture_scan(p: int, k: int, n_max: int) -> list[tuple[int, Valuation, float]]:
    """Record (n, v_p(H(n,k)), -v_p(H(n,k))/ln n) for n = k..n_max.

    Purely observational: the logarithmic-decay conjecture this probes
    is open, so the scan asserts nothing. The ratio column uses the
    natural log; divide by ln of your preferred base to rescale. At
    n = 1 the ratio is reported as 0.0 (ln 1 = 0, and v_p(H(1,1)) = 0
    anyway).
    """
    # p is checked here, not first by vp_rat, so that an empty scan
    # refuses a bad p too.
    _require_prime(p)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    # The last value is H(n_max, k), and harmonic_table(n_max) needs
    # row n_max + 1, so the scan obeys the same row cap. A bound below
    # 0 scans nothing, as one below k does.
    _check_row_args(max(n_max, 0) + 1)
    # Only e_0..e_k are tracked; the full table is never built.
    e = [Fraction(1)] + [Fraction(0)] * k
    out = []
    for i in range(1, n_max + 1):
        _fold(e, i)
        if i >= k:
            v = vp_rat(p, e[k])
            ratio = 0.0 if i == 1 else -v / math.log(i)
            out.append((i, v, ratio))
    return out
