"""Elementary symmetric functions of 1, 1/2, ..., 1/n as exact rationals.

H(n,k) is the sum of products of k distinct reciprocals from the first
n. Tables are built by the one-variable-at-a-time recurrence
e_k <- e_k + (1/i) * e_{k-1}, folding in i = 1..n; every entry stays a
reduced rational after each update. The bridge to the rest of the
package is the identity n! * H(n,k) = s(n+1, k+1).

The rational table is the independent oracle for that identity: it
backs identity_residual, the CLI harmonic command and the tests. Its
cost is dominated by gcd reductions on ever-larger rationals and grows
about tenfold per doubling of n, so the harmonic upper bound
(bound_margin) does not build it and reads integer rows instead.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .padic import Valuation, factorial_valuation, vp_int, vp_rat
from .stirling_core import stirling

# Tables above this n are refused. Reassign to move the cap.
TABLE_CAP = 2 ** 12


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
    e = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        _fold(e, i)
    return tuple(e)


def harmonic_table(n: int) -> HarmonicTable:
    """Build (or fetch) the full table H(n,0..n).

    Args:
        n: Table size, 1 <= n <= TABLE_CAP.

    Returns:
        HarmonicTable with n+1 reduced Fraction values.

    Raises:
        DomainError: If n < 1.
        ResourceLimitError: If n exceeds TABLE_CAP.
    """
    if n < 1:
        raise DomainError(f"table size must be >= 1, got {n}")
    if n > TABLE_CAP:
        raise ResourceLimitError(f"table size {n} exceeds cap {TABLE_CAP}")
    return HarmonicTable(n, _cached_values(n))


def identity_residual(n: int, k: int) -> int:
    """Return n! * H(n,k) - s(n+1,k+1); zero whenever both sides are right.

    The two sides come from unrelated code paths (rational recurrence
    versus polynomial expansion), so a nonzero residual pins a bug.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    lhs = math.factorial(n) * harmonic_table(n).values[k]
    if lhs.denominator != 1:
        raise ConsistencyError(f"n! * H({n},{k}) is not an integer: {lhs}")
    return int(lhs) - stirling(n + 1, k + 1)


def bound_margin(n: int, k: int, *, row: Sequence[int] | None = None) -> Valuation:
    """Return v2(H(2**n, k)) + n; the upper-bound claim says <= 0.

    Read exactly from the integer row 2**n + 1, never from the rational
    table. With N = 2**n, the identity N! * H(N,k) = s(N+1, k+1) and
    additivity of valuations give v2(H(N,k)) = v2(s(N+1, k+1)) - v2(N!).
    For 1 <= k <= N the Stirling number s(N+1, k+1) is positive, so its
    valuation is finite. Legendre's formula gives v2(N!) = N - d2(N) =
    2**n - 1 without forming N!. On an exact row nothing is truncated,
    so the result is the one the rational table gives;
    identity_residual checks the identity itself against that table.

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
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if n_max > TABLE_CAP:
        raise ResourceLimitError(f"scan bound {n_max} exceeds cap {TABLE_CAP}")
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
