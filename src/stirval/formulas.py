"""Closed-form 2-adic valuation predictions for rows s(2**n, .).

The central fact implemented here: for 2 <= m <= n and
2 <= k <= 2**(m-1) + 1 (the index set T_n), writing the target column
as t = 2**m - k,

    v2(s(2**n, 2**m - k)) = 2**n - 2**m - (n-m)*(2**m - 2*floor(k/2))
                            + m - 2 - v2(floor(k/2)) + (n-1)*eps_k

with eps_k = 0 for even k and 1 for odd k. Every t in [1, 2**n - 2]
has exactly one such (m, k); the two remaining columns are the
boundaries v2(s(2**n, 2**n)) = 0 and v2(s(2**n, 2**n - 1)) = n - 1.

The specializations (m = n; t a power of two; t in {2, 3}) reproduce
the classical Komatsu-Young and Lengyel valuations, and the transfer
rule v2(s(2**n + 1, k + 1)) = v2(s(2**n, k)) extends predictions to
rows of index 2**n + 1. Everything here is plain bounded integer
arithmetic; no Stirling number is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .padic import vp_int


@dataclass(frozen=True)
class IndexDecomposition:
    """The unique (m, k) in T_n with t = 2**m - k, plus the parity bit."""

    n: int
    t: int
    m: int
    k: int
    epsilon_k: int


@dataclass(frozen=True)
class PredictionRecord:
    """A predicted valuation for column t of row s(2**n, .).

    source is "theorem1" for interior columns, "boundary_top" for
    t = 2**n, and "boundary_next" for t = 2**n - 1.
    """

    n: int
    t: int
    predicted: int
    source: str


def decompose_index(n: int, t: int) -> IndexDecomposition:
    """Write column t as 2**m - k with (m, k) in T_n.

    m is forced: it is the unique integer with 2**(m-1) - 1 <= t
    <= 2**m - 2, i.e. the bit length of t + 1. For every t in
    [1, 2**n - 2] the pair then lies in T_n, so the checks on n and t
    are the only ones needed:
      - t >= 1 gives t + 1 >= 2, so m >= 2; t <= 2**n - 2 gives
        t + 1 < 2**n, so m <= n;
      - k = 2**m - t with t <= 2**m - 2 gives k >= 2, and with
        t >= 2**(m-1) - 1 gives k <= 2**(m-1) + 1.
    theorem1_valuation checks both ranges again with DomainError.
    """
    if n < 2:
        raise DomainError(f"decomposition needs n >= 2, got {n}")
    if not 1 <= t <= 2 ** n - 2:
        raise DomainError(f"column {t} outside [1, 2**{n} - 2]")
    m = (t + 1).bit_length()
    k = 2 ** m - t
    return IndexDecomposition(n, t, m, k, k % 2)


def theorem1_valuation(n: int, m: int, k: int) -> int:
    """Predicted v2(s(2**n, 2**m - k)) for (m, k) in T_n."""
    if not 2 <= m <= n:
        raise DomainError(f"need 2 <= m <= n, got m={m}, n={n}")
    if not 2 <= k <= 2 ** (m - 1) + 1:
        raise DomainError(f"need 2 <= k <= 2**(m-1) + 1, got k={k}, m={m}")
    half = k // 2
    eps = k % 2
    return (
        2 ** n
        - 2 ** m
        - (n - m) * (2 ** m - 2 * half)
        + m
        - 2
        - vp_int(2, half)
        + (n - 1) * eps
    )


def predict_valuation(n: int, t: int) -> PredictionRecord:
    """Predicted v2(s(2**n, t)) for any column 1 <= t <= 2**n.

    The two top columns are fixed directly (s(2**n, 2**n) = 1 and
    s(2**n, 2**n - 1) = C(2**n, 2)); everything below goes through the
    decomposition. For n = 1 the boundaries are the whole row, which
    matches v2(s(2,1)) = v2(s(2,2)) = 0.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    top = 2 ** n
    if not 1 <= t <= top:
        raise DomainError(f"column {t} outside [1, 2**{n}]")
    if t == top:
        return PredictionRecord(n, t, 0, "boundary_top")
    if t == top - 1:
        return PredictionRecord(n, t, n - 1, "boundary_next")
    dec = decompose_index(n, t)
    return PredictionRecord(n, t, theorem1_valuation(n, dec.m, dec.k), "theorem1")


def corollary13_valuation(n: int, k: int) -> int:
    """Predicted v2(s(2**n, 2**n - k)), the m = n slice.

    Equals n - 1 - v2(k) for even k and 2n - 2 - v2(k-1) for odd k,
    which is theorem1_valuation(n, n, k) with the formula collapsed.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 2 <= k <= 2 ** (n - 1) + 1:
        raise DomainError(f"need 2 <= k <= 2**(n-1) + 1, got k={k}, n={n}")
    if k % 2 == 0:
        return n - 1 - vp_int(2, k)
    return 2 * n - 2 - vp_int(2, k - 1)


def komatsu_young_valuation(n: int, m: int) -> int:
    """v2(s(2**n, 2**m)) = 2**n - 2**m * (n - m + 1) for 1 <= m <= n."""
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    return 2 ** n - 2 ** m * (n - m + 1)


def lengyel_small_k(n: int, k: int) -> int:
    """v2(s(2**n, k)) for the two smallest columns k = 2 and k = 3."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if k == 2:
        return 2 ** n - 2 * n
    if k == 3:
        return 2 ** n - 3 * n + 3
    raise DomainError(f"closed form only covers k in {{2, 3}}, got {k}")


def theorem2_predicted(n: int, k: int) -> int:
    """Predicted v2(s(2**n + 1, k + 1)), via the transfer to row 2**n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 1 <= k <= 2 ** n:
        raise DomainError(f"need 1 <= k <= 2**{n}, got {k}")
    return predict_valuation(n, k).predicted


def lengyel_step(n: int, k: int) -> int:
    """Increment of v2(s(2**n, 2**n - k)) when n grows by one.

    Computed as the difference of the m = n slice at n+1 and n; the
    closed forms make it 1 for even k and 2 for odd k.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 2 <= k <= 2 ** (n - 1) + 1:
        raise DomainError(f"need 2 <= k <= 2**(n-1) + 1, got k={k}, n={n}")
    return corollary13_valuation(n + 1, k) - corollary13_valuation(n, k)
