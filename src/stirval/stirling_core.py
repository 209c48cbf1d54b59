"""Exact Stirling numbers of the first kind and their shifted variants.

Everything here is coefficient extraction from rising factorials: the
row s(n,0..n) lists the coefficients of (x)_n = x(x+1)...(x+n-1), and
the shifted row s_m(n,0..n) those of (x+m)_n. Two independent engines
build plain rows:

  recurrence    one row at a time via s(n+1,k) = n*s(n,k) + s(n,k-1),
                pure Python ints throughout
  product_tree  balanced divide-and-conquer product of the linear
                factors, with the single big multiply per node routed
                through gmpy2 when available, and otherwise, once the
                packed operands reach _DECIMAL_BITS (2**18, the
                measured crossover), through libmpdec's
                number-theoretic-transform multiply in base 10**W

The engines share only _times_linear, the multiply by one factor
(x + c): the recurrence is that step repeated, while the product tree
uses it only inside leaves of fewer than _TREE_BASE factors and joins
the leaves with _poly_mul, which the recurrence never calls. A fault
in the shared step slips past the engines' cross-check only if it
still multiplies by some fixed polynomial (say x + c + 1); the tests
pin rows against closed-form columns and n!, which such a fault
breaks.

From _FORK_MIN_N factors up, where os.fork exists, two CPUs are usable
and no other thread runs, each engine builds its row in two processes
through _in_two_processes, which forks one worker joined by two pipes.
The recurrence splits the columns: the parent steps the low ones and
streams the column below the cut to the worker, which steps the rest
with the same step. The tree builds its two halves in the two
processes and splits the root product between them. Each engine is
still its own arithmetic, cut in two: the recurrence still never packs
and shares only _times_linear with the tree, whose worker still joins
leaves only by _poly_mul. The helper moves finished numbers and
computes none, so a fault in it breaks the two engines differently,
and the worker inherits any fault planted in the parent. Anywhere else
the serial code runs unchanged.

Coefficients reach hundreds of kilobits near the configured cap, so
rows are handled as flat lists and multiplied via Kronecker
substitution (pack the coefficients of a polynomial into one giant
integer, multiply once, slice the product back apart).

Three masked routes keep column k only modulo a power of two:
_chain_masked (recurrence steps carried on from a start row, with its
own step: columns wider than _PACK_SLOT_BITS one int each, the rest
packed into bands of slots that one shift, one multiply and one AND
step at once; its precisions never grow with k), _double_masked (row
2N from row N by (x)_{2N} = P(x) P(x + 1), P(x) = 2**N (x/2)_N, with
P(x + 1) kept only to the p bits that _doubling_need shows enough)
and _taylor_shift_masked (p(x) to p(x + 2**n)). Each states the
precision it keeps. The chain and the doubling share no arithmetic.
The verifier builds every 2-adically truncated row 2**j of a run by
one masked chain and by doubling, plans the doubling's precisions
from the chain's rows, checks each shifted row (x + 2**j)_{2**j}
against the Taylor shift of row 2**j only where it reads that row,
and argues their soundness.
"""

from __future__ import annotations

import contextlib
import decimal
import math
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import accumulate

from .errors import ConsistencyError, DomainError, ResourceLimitError

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpz = int

# Rows above this n are refused; a full row at 2**13 is already tens of
# megabytes. Reassign (e.g. from the CLI --max-n flag) to move the cap.
ROW_CAP = 2 ** 13

# Shifts enter coefficient sizes only logarithmically, but keep them in
# a sane fixed-width range anyway.
SHIFT_CAP = 2 ** 62

# Below this many linear factors, balanced splitting loses to a plain
# sequential chain because the coefficients are still small.
_TREE_BASE = 16

# Schoolbook multiplication beats packing overhead when either operand
# has at most this many coefficients.
_SCHOOLBOOK_LEN = 8

# Without gmpy2, packed operands of at least this many bits (slot width
# times total coefficient count) are multiplied as Decimals: libmpdec's
# number-theoretic transform beats CPython's Karatsuba int from about
# here on (break-even between 2**17 and 2**18.3 on Python 3.11, 3x
# faster at 2**21, 11x at 2**25).
_DECIMAL_BITS = 2 ** 18

# Without gmpy2, the whole recurrence in one process builds rows below
# these n about as fast as the product tree or faster, so multiplying a
# cached row m < n up to row n by recurrence steps, a tail of that
# recurrence, beats a fresh tree. _CHAIN_BELOW_N holds where the tree
# runs in one process (medians of three to six runs on Python 3.11:
# 2.0 against 2.7 s at n = 2048, 4.6 against 4.4 s at 2560, 5.6 against
# 5.9 s at 2816; the tree wins at 4096), _CHAIN_BELOW_N_TWO_CORES where
# it runs in two (medians of five on 2 cores: 0.92 against 0.87 s at
# 1792, 1.47 against 1.18 s at 2048). With gmpy2 the tree is about ten
# times faster and no row is built this way.
_CHAIN_BELOW_N = 3072
_CHAIN_BELOW_N_TWO_CORES = 1792

# Exact builds from this many linear factors up run in two processes
# where _two_cores allows. Two-process
# time over one-process time, recurrence and tree, medians of seven to
# fifteen alternating runs on 2 cores: 0.78 and 0.75 at 768, 0.75 and
# 0.64 at 1024; from 384 to 704 the ratios ranged from 0.75 to 1.23.
_FORK_MIN_N = 768

# The two-process recurrence steps columns [0, n * _RECURRENCE_CUT) in
# the parent and the rest in the worker, and sends the carry column
# over in batches of _CARRY_BATCH steps. The parent's columns hold the
# larger numbers, hence a cut below n/2; cuts from 0.22 to 0.36 timed
# within run-to-run noise of each other. Near row 1900 a batch of 64
# carries outgrew the 64 KiB a pipe buffers, so each send waited for
# the worker to finish the batch before; 16 leaves room for several.
_RECURRENCE_CUT = 0.28
_CARRY_BATCH = 16

# The two-process tree's worker multiplies the left half A by the first
# len(B) * _ROOT_SPLIT coefficients of the right half B, and the parent
# A by the rest. The low columns of B are the widest; near row 1900 the
# two products took 0.52 and 0.60 s at 0.3, 0.57 and 0.48 s at 0.4.
_ROOT_SPLIT = 0.35

# Multiplies in this context are exact or raise: the precision and the
# exponent range are the largest libmpdec has, and every signal that
# would mean a rounded or invalid result is trapped.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)

# int(str) on at most this many digits works under every int/str digit
# limit Python lets a process set (sys.set_int_max_str_digits refuses
# anything lower except 0, which means no limit).
_INT_STR_DIGITS = 640


@dataclass(frozen=True)
class StirlingRow:
    """One full row s(n,0..n), tagged with the engine that built it."""

    n: int
    coeffs: tuple[int, ...]
    engine: str


@dataclass(frozen=True)
class ShiftedRow:
    """One full shifted row s_m(n,0..n) for the shift m."""

    m: int
    n: int
    coeffs: tuple[int, ...]


def _check_row_args(n: int, shift: int = 0) -> None:
    if n < 0:
        raise DomainError(f"row index must be >= 0, got {n}")
    if n > ROW_CAP:
        raise ResourceLimitError(f"row index {n} exceeds cap {ROW_CAP}")
    if shift < 0:
        raise DomainError(f"shift must be >= 0, got {shift}")
    if shift > SHIFT_CAP:
        raise ResourceLimitError(f"shift {shift} exceeds cap {SHIFT_CAP}")


def _times_linear(coeffs: Sequence[int], c: int) -> list[int]:
    """Coefficients of coeffs * (x + c), lowest power first.

    This is one step of s(n+1,k) = n*s(n,k) + s(n,k-1): new[k] =
    c*old[k] + old[k-1]. The list comprehension keeps the loop body in C.
    """
    return [c * coeffs[0]] + [c * v + u for u, v in zip(coeffs, coeffs[1:])] + [coeffs[-1]]


def _two_cores(n: int) -> bool:
    """Whether an exact build from n linear factors runs in two processes.

    Never while another thread runs: a forked worker could inherit a
    lock that thread holds.
    """
    if n < _FORK_MIN_N or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


class _Channel:
    """Pickled frames between the parent and its worker, one pipe each way."""

    def __init__(self, what: str, read_fd: int, write_fd: int):
        import pickle  # not at module level: see _in_two_processes

        self.what = what
        self._dump, self._load = pickle.dump, pickle.load
        self._read = open(read_fd, "rb")
        self._write = open(write_fd, "wb")

    def send(self, obj) -> None:
        try:
            self._dump(obj, self._write)
            self._write.flush()
        except BrokenPipeError:
            raise ConsistencyError(f"{self.what}: the other process closed its pipe early") from None

    def recv(self):
        try:
            return self._load(self._read)
        except EOFError:
            raise ConsistencyError(f"{self.what}: the other process closed its pipe early") from None

    def close(self) -> None:
        self._read.close()
        # Bytes still buffered for a process that is gone are not needed.
        with contextlib.suppress(BrokenPipeError):
            self._write.close()


def _in_two_processes(
    what: str, worker: Callable[[_Channel], None], parent: Callable[[_Channel], list[int]]
) -> list[int]:
    """parent(channel) here, worker(channel) in one forked process; parent's result.

    The worker inherits the whole process, including any monkeypatch,
    and leaves by os._exit: status 0 once worker returns, 1 if it
    raised (its traceback goes to file descriptor 2). The parent always
    reaps it, and kills it first if parent raised. A worker that exits
    non-zero or closes its pipe early makes the parent raise
    ConsistencyError naming what was being built.
    """
    # Imported here and in _Channel, not at module level: only builds
    # that fork need them, and every process that imports this module,
    # such as each CLI command, would pay for them at start-up.
    import signal
    import traceback

    down_read, down_write = os.pipe()
    up_read, up_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (down_read, down_write, up_read, up_write):
            os.close(fd)
        raise
    if pid == 0:  # pragma: no cover - runs in the worker, which never returns
        code = 1
        try:
            os.close(down_write)
            os.close(up_read)
            worker(_Channel(what, down_read, up_write))
            code = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(down_read)
    os.close(up_write)
    channel = _Channel(what, up_read, down_write)
    try:
        result = parent(channel)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        channel.close()
        status = os.waitpid(pid, 0)[1]
    if status:
        raise ConsistencyError(f"{what}: the worker exited with status {os.waitstatus_to_exitcode(status)}")
    return result


def _recurrence_in_two_processes(n: int) -> list[int]:
    # Columns [0, cut) step here and stream column cut - 1, the carry
    # into column cut, to the worker, which steps columns [cut, n] as
    # the tail of [carry, *high]. Column cut - 1 first exists in row
    # cut - 1, so the worker takes steps cut - 1 .. n - 1.
    cut = max(1, int(n * _RECURRENCE_CUT))

    def low(channel: _Channel) -> list[int]:
        row, batch = [1], []
        for i in range(n):
            if i >= cut - 1:
                batch.append(row[cut - 1])
                if len(batch) == _CARRY_BATCH:
                    channel.send(batch)
                    batch = []
            row = _times_linear(row, i)[:cut]
        if batch:
            channel.send(batch)
        return row + channel.recv()

    def high(channel: _Channel) -> None:
        row, c = [], cut - 1
        while c < n:
            for carry in channel.recv():
                row = _times_linear([carry, *row], c)[1:]
                c += 1
        channel.send(row)

    return _in_two_processes(f"row {n}", high, low)


def row_recurrence(n: int) -> StirlingRow:
    """Build s(n,0..n) bottom-up from the two-term recurrence."""
    _check_row_args(n)
    if _two_cores(n):
        return StirlingRow(n, tuple(_recurrence_in_two_processes(n)), "recurrence")
    row = [1]
    for i in range(n):
        row = _times_linear(row, i)
    return StirlingRow(n, tuple(row), "recurrence")


def _digits_to_int(digits: str, pow10: dict[int, int]) -> int:
    # Halve until each int() call stays within _INT_STR_DIGITS, so the
    # conversion never depends on the process's int/str digit limit.
    if len(digits) <= _INT_STR_DIGITS:
        return int(digits)
    k = len(digits) // 2
    if k not in pow10:
        pow10[k] = 10 ** k
    return _digits_to_int(digits[:-k], pow10) * pow10[k] + _digits_to_int(digits[-k:], pow10)


def _decimal_kronecker(a: list[int], b: list[int], slot_bits: int) -> list[int]:
    # Kronecker substitution in base 10**W, most significant slot first.
    # 30103/100000 > log10(2), so 10**W > 2**slot_bits.
    w = slot_bits * 30103 // 100000 + 1
    pa = decimal.Decimal("".join([str(decimal.Decimal(c)).zfill(w) for c in reversed(a)]))
    pb = decimal.Decimal("".join([str(decimal.Decimal(c)).zfill(w) for c in reversed(b)]))
    out_len = len(a) + len(b) - 1
    digits = str(_EXACT.multiply(pa, pb)).zfill(out_len * w)
    del pa, pb  # free the operands before the coefficients are rebuilt
    pow10: dict[int, int] = {}
    return [_digits_to_int(digits[i - w : i], pow10) for i in range(out_len * w, 0, -w)]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Exact product of two polynomials with nonnegative coefficients.

    All inputs here come from products of (x+c) with c >= 0. Short
    operands go schoolbook; the rest by Kronecker substitution: each
    coefficient gets a slot of slot_bits bits, where bits(max a) +
    bits(max b) + bits(min(len a, len b)) bound every coefficient of
    the product, so no slot carries into the next and slicing the one
    big product recovers the coefficients exactly.

    The big multiply runs on gmpy2 when it is installed. Without it,
    packs of at least _DECIMAL_BITS bits go through libmpdec in base
    10**W with 10**W > 2**slot_bits (the same slot bound), multiplied
    in the _EXACT context, which raises rather than rounds. Smaller
    packs stay on bytes and int. Either route is then checked
    independently: verifier._verified_plain_coeffs compares every
    product-tree row it uses against the recurrence, which never packs
    and multiplies each coefficient only by a row index, and the
    verifier's truncated rows compare the doubling route, whose
    products go through here, with the masked recurrence the same way.
    """
    if min(len(a), len(b)) <= _SCHOOLBOOK_LEN:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    slot_bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
    if _mpz is int and slot_bits * (len(a) + len(b)) >= _DECIMAL_BITS:
        return _decimal_kronecker(a, b, slot_bits)
    width = (slot_bits + 7) // 8
    pa = b"".join(c.to_bytes(width, "little") for c in a)
    pb = b"".join(c.to_bytes(width, "little") for c in b)
    big = int(_mpz(int.from_bytes(pa, "little")) * _mpz(int.from_bytes(pb, "little")))
    out_len = len(a) + len(b) - 1
    raw = big.to_bytes(out_len * width + width, "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i in range(out_len)
    ]


def _expand_chain(lo: int, hi: int, start: Sequence[int] = (1,)) -> list[int]:
    # Sequential expansion of start * prod_{c in [lo, hi)} (x + c).
    coeffs = list(start)
    for c in range(lo, hi):
        coeffs = _times_linear(coeffs, c)
    return coeffs


def _expand_range(lo: int, hi: int) -> list[int]:
    # Balanced expansion of prod_{c in [lo, hi)} (x + c).
    count = hi - lo
    if count < _TREE_BASE:
        return _expand_chain(lo, hi)
    mid = lo + count // 2
    return _poly_mul(_expand_range(lo, mid), _expand_range(mid, hi))


def _expand(lo: int, hi: int, what: str) -> list[int]:
    """_expand_range(lo, hi), its top call split over two processes when _two_cores.

    The worker builds the left half A and the parent the right half B.
    The root product is split too: the worker multiplies A by B[:h] and
    the parent A by B[h:]; the parent adds the two, the second shifted
    up by h columns.
    """
    if not _two_cores(hi - lo):
        return _expand_range(lo, hi)
    mid = lo + (hi - lo) // 2

    def left(channel: _Channel) -> None:
        a = _expand_range(lo, mid)
        channel.send(a)
        channel.send(_poly_mul(a, channel.recv()))

    def right(channel: _Channel) -> list[int]:
        b = _expand_range(mid, hi)
        a = channel.recv()
        h = max(1, int(len(b) * _ROOT_SPLIT))
        channel.send(b[:h])
        out = _poly_mul(a, b[h:])
        low = channel.recv()
        out = low[:h] + out
        for i, c in enumerate(low[h:], h):
            out[i] += c
        return out

    return _in_two_processes(what, left, right)


# The masked chain's per-element head reduces its columns once per this
# many steps; in between, each grows by at most this many times the bit
# length of the largest factor, which stays small beside its masks.
_MASK_EVERY = 32

# The masked chain keeps a column whose slot would be wider than this
# many bits as one int, and packs narrower columns into bands. Narrow
# columns are bound by per-int overhead, wide ones by arithmetic, which
# a band does several times over: both chains of a build at top = 12
# took 3.0-3.4 s with this crossover, 3.8-4.5 s packing every column
# and 3.1-3.8 s packing none (three interleaved runs, Python 3.11).
_PACK_SLOT_BITS = 2 ** 10

# A column whose slot need, times this, falls below its band's slot
# width starts a new band. Ratios 1.25, 1.5 and 2 timed within a few %.
_BAND_RATIO = 1.5


def _masked(coeffs: Sequence[int], masks: Sequence[int]) -> list[int]:
    """Column k of coeffs reduced modulo masks[k] + 1 (a power of two).

    Reduction mod 2**b is a ring homomorphism, and column k of a
    product reads only columns <= k of its factors. So when the masks
    never grow with k, reducing after every product leaves each kept
    residue exactly what reducing the exact product would give.
    """
    return [c & m for c, m in zip(coeffs, masks)]


def _masks(bits: Sequence[int]) -> list[int]:
    return [(1 << b) - 1 for b in bits]


def _band_layout(bits: Sequence[int], factor_bits: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Split a masked row into its per-element head and its bands.

    Column k is kept to bits[k] bits, which never grow with k, and
    factors have at most factor_bits bits. A step writes c*a_k + a_{k-1}
    into column k, so its slot needs max(bits[k-1], bits[k]) +
    factor_bits + 1 bits. Returns the head's length, the leading columns
    whose need exceeds _PACK_SLOT_BITS, and (first, stop, width) for
    each band over the rest: width is the band's first (largest) need
    rounded up to whole bytes, and a column whose need times _BAND_RATIO
    falls below it starts the next band.
    """
    needs = [max(prev, b) + factor_bits + 1 for prev, b in zip([0, *bits], bits)]
    head = 0
    while head < len(needs) and needs[head] > _PACK_SLOT_BITS:
        head += 1
    bands = []
    first = head
    while first < len(needs):
        width = -(-needs[first] // 8) * 8
        stop = first + 1
        while stop < len(needs) and needs[stop] * _BAND_RATIO >= width:
            stop += 1
        bands.append((first, stop, width))
        first = stop
    return head, bands


def _band_step(packed: list[int], c: int, carry: int, bands: Sequence[tuple[int, int, int]]) -> list[int]:
    """One step a_k <- c*a_k + a_{k-1} of every band.

    bands holds (slot width, offset of the top slot, packed masks) per
    band; carry is the column before the first band. Each band's carry
    is the previous band's top slot from before the step.
    """
    out = []
    for p, (width, top, mask) in zip(packed, bands):
        out.append(((p << width) + c * p + carry) & mask)
        carry = p >> top
    return out


def _pack(values: Sequence[int], width: int) -> int:
    # values as slots of width bits (whole bytes), the first one lowest.
    nbytes = width // 8
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")


def _chain_masked(lo: int, hi: int, masks: Sequence[int], start: Sequence[int] = (1,)) -> list[int]:
    """start * prod_{c in [lo, hi)} (x + c) by recurrence steps, reduced by masks.

    A start row carries a chain on from where an earlier call left it.
    The result has one column per mask at most, each reduced, so it
    equals _masked(_expand_chain(lo, hi, start), masks) whenever
    hi > lo. Masks must be 2**b_k - 1 with b_k never growing with k;
    other masks raise DomainError, as does a factor x + c with c < 0.

    The row is held at its final length, zero-padded. _band_layout keeps
    its leading columns whose slots would be wider than _PACK_SLOT_BITS
    as a list, the head, stepped one int per column and reduced after
    every _MASK_EVERY steps and the last one. The other columns go into
    bands: one int per band, slot i at bit i*W, holding column first + i.
    Each step replaces band p by ((p << W) + c*p + carry) & packed_masks.
    That is exact:
      - Slot i then holds c*a_i + a_{i-1}, with a_{i-1} the slot below
        or, for slot 0, the carry. Every a_j is below 2**b_j, c below
        2**bits(hi - 1), and W is at least the max b over the band's
        columns and the column before it plus bits(hi - 1) + 1, so the
        sum is below 2**W and no slot carries into the next.
      - The AND is the column-wise reduction mod 2**b_k. Reducing after
        every step is exact only because the masks never grow with k
        (see _masked); with growing ones a column would read its
        neighbour at fewer bits than it keeps, hence the refusal.
      - The slot shifted out of a band's top is the band's last column
        before the step, which is exactly what the next band's first
        column adds, so the next band's carry is that slot taken before
        the step. The first band's carry is the head's last column
        before the step, reduced by its mask.
    The chain shares no arithmetic with the doubling route.
    """
    if hi <= lo:
        return list(start)
    if lo < 0:
        raise DomainError(f"masked chain needs factors x + c with c >= 0, got lo={lo}")
    size = min(len(start) + hi - lo, len(masks))
    masks = masks[:size]
    bits = [m.bit_length() for m in masks]
    if any(m < 0 or m & (m + 1) for m in masks) or any(b < after for b, after in zip(bits, bits[1:])):
        raise DomainError("masked chain needs masks 2**b - 1 whose b never grows with the column")
    row = _masked(start, masks)
    row += [0] * (size - len(row))
    head_len, layout = _band_layout(bits, (hi - 1).bit_length())
    head = row[:head_len]
    packed = [_pack(row[first:stop], width) for first, stop, width in layout]
    bands = [
        (width, width * (stop - first - 1), _pack(masks[first:stop], width))
        for first, stop, width in layout
    ]
    last = masks[head_len - 1] if head else 0
    carry = 0
    for block in range(lo, hi, _MASK_EVERY):
        for c in range(block, min(block + _MASK_EVERY, hi)):
            if head:
                carry = head[-1] & last
                head = [c * head[0]] + [c * v + u for u, v in zip(head, head[1:])]
            packed = _band_step(packed, c, carry, bands)
        head = _masked(head, masks)
    for p, (first, stop, width) in zip(packed, layout):
        nbytes = width // 8
        raw = p.to_bytes((stop - first) * nbytes, "little")
        head += [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
    return head


def _at_x_plus_one(coeffs: Sequence[int], p: int) -> list[int]:
    """q(x + 1) modulo 2**p, from q's columns modulo 2**p.

    Column k is sum_{i >= k} q[i] C(i, k). Terms below q's lowest
    nonzero column, low, are zero. Horner's rule over the rest gives
    h(x) = sum_{i >= low} q[i] (x + 1)**(i - low), and q(x + 1) is
    h(x) (x + 1)**low: one _poly_mul by the binomials C(low, k), each
    built from the one before and reduced mod 2**p.
    """
    mask = (1 << p) - 1
    low = next((i for i, c in enumerate(coeffs) if c), len(coeffs) - 1)
    h = [coeffs[-1]]
    for c in reversed(coeffs[low:-1]):
        h = _times_linear(h, 1)
        h[0] += c
    binoms, binom = [], 1
    for k in range(low + 1):
        binoms.append(binom & mask)
        binom = binom * (low - k) // (k + 1)
    return [c & mask for c in _poly_mul(h, binoms)]


def _doubling_need(coeffs: Sequence[int], bits: Sequence[int], targets: Sequence[int]) -> tuple[list[int], int]:
    """The windows win and the bits p of P(x + 1) that _double_masked needs.

    Row N is known as coeffs[i] modulo 2**bits[i], and row 2N is wanted
    modulo 2**targets[k]. P_i enters columns i .. i + N of the product,
    so win_i = max targets[i .. i + N]; every such window holds column
    N, so it is the larger of a running max down to N and one up from
    it. w_i = min(v2(coeffs[i]), bits[i]) is a proven lower bound on
    v2(s(N, i)), and p = max(0, max_i(win_i - (N - i) - w_i)).
    """
    n = len(coeffs) - 1
    down = list(accumulate(reversed(targets[: n + 1]), max))[::-1]
    up = accumulate(targets[n:], max)
    win = [max(a, b) for a, b in zip(down, up)]
    need = 0
    for i, (c, b, x) in enumerate(zip(coeffs, bits, win)):
        c &= (1 << b) - 1
        need = max(need, x - (n - i) - ((c & -c).bit_length() - 1 if c else b))
    return win, need


def _doubling_plan(
    chain: Sequence[Sequence[int]], joint: Sequence[int], bits: Sequence[Sequence[int]]
) -> list[tuple[list[int], int]]:
    """(tau_j, p_j) for each row 2**j, j <= top, of doubling from (x)_1 = x.

    chain[j] is row 2**j from another route, known modulo 2**joint, and
    bits[j] is the least precision row 2**j must have (bits[0] = (0, 0):
    row 1 = x is exact). Top-down: tau_top = bits[top]. Doubling row
    N = 2**j to reach tau_{j+1} takes p_j, _doubling_need's p with w
    read from chain[j], and row N known to tau_j[i] = max(bits[j][i],
    win_i - (N - i), p_j - (N - i)), which is what _double_masked needs
    for that p. p_top is unused.
    """
    top = len(chain) - 1
    targets = list(bits[top])
    plan = [(targets, 0)]
    for j in range(top - 1, -1, -1):
        size = 2**j
        win, p = _doubling_need(chain[j], joint[: size + 1], targets)
        targets = [max(b, x - (size - i), p - (size - i)) for i, (b, x) in enumerate(zip(bits[j], win))]
        plan.append((targets, p))
    return plan[::-1]


def _double_masked(coeffs: Sequence[int], bits: Sequence[int], targets: Sequence[int], p: int) -> list[int]:
    """Row 2N from row N by (x)_{2N} = P(x) P(x + 1), column k modulo 2**targets[k].

    The even factors x, x + 2, .., x + 2N - 2 of (x)_{2N} multiply to
    P(x) = 2**N (x/2)_N, so P_i = s(N, i) << (N - i), and the odd ones
    to P(x + 1). Every power of two sits in P: P_i = 0 mod 2**p for
    i <= N - p, so P(x + 1) mod 2**p (_at_x_plus_one) reads only the
    top p columns. Row N is known as coeffs[i] modulo 2**bits[i]; with
    win and p from _doubling_need, keep P_i mod 2**win_i (P-hat) and
    P(x + 1) mod 2**p (Q-hat). Column k of P-hat Q-hat is then s(2N, k)
    mod 2**targets[k], because every term P_i Q_l with i + l = k has
    targets[k] <= win_i and
      - P_i is known mod 2**(bits[i] + N - i), at least win_i and p;
      - its error, times Q_l, is a multiple of 2**win_i;
      - Q_l's error is a multiple of 2**p and v2(P_i) >= w_i + N - i,
        so with p >= win_i - (N - i) - w_i, P_i times that error is a
        multiple of 2**win_i too.
    A p short of what these residues need raises ConsistencyError, and
    bits too few for win or p raise DomainError. The product is one
    _poly_mul, whose slots hold about max win + p bits.
    """
    n = len(coeffs) - 1
    win, need = _doubling_need(coeffs, bits, targets)
    if need > p:
        raise ConsistencyError(f"doubling to row {2 * n} needs {need} bits of P(x + 1), planned {p}")
    if any(b + n - i < max(x, p) for i, (b, x) in enumerate(zip(bits, win))):
        raise DomainError(f"row {n} is known to too few bits to double to row {2 * n}")
    big = [c << (n - i) for i, c in enumerate(coeffs)]
    q = _at_x_plus_one([c & ((1 << p) - 1) for c in big], p)
    return _masked(_poly_mul(_masked(big, _masks(win)), q), _masks(targets))


def _taylor_shift_masked(
    coeffs: Sequence[int], bits: Sequence[int], n: int
) -> tuple[list[int], tuple[int, ...]]:
    """p(x + 2**n) from p's column residues, with the precision that survives.

    Column k of p(x + 2**n) is sum_{i >= k} p[i] * C(i, k) * 2**(n(i-k)).
    With p[i] known modulo 2**bits[i], term i is known modulo
    2**(bits[i] + n(i-k)), so column k is known modulo 2**B'_k with
    B'_k = min(bits[k], min_{i > k} (bits[i] + n(i-k))), which is
    min(bits[k], B'_{k+1} + n), computed right to left. Terms with
    n(i-k) >= B'_k vanish modulo 2**B'_k and are never formed. Returns
    the residues and B'. B' equals bits wherever bits drops by at most
    n per column. Each binomial comes from the one before it,
    C(k+j+1, j+1) = C(k+j, j) * (k+j+1) / (j+1), an exact division.
    """
    top = len(coeffs) - 1
    shifted_bits = list(bits)
    for k in range(top - 1, -1, -1):
        shifted_bits[k] = min(bits[k], shifted_bits[k + 1] + n)
    out = []
    for k, b in enumerate(shifted_bits):
        total, binom = 0, 1
        for j in range(min(top - k, (b - 1) // n) + 1):
            total += (coeffs[k + j] * binom) << (n * j)
            binom = binom * (k + j + 1) // (j + 1)
        out.append(total & ((1 << b) - 1))
    return out, tuple(shifted_bits)


def row_product_tree(n: int) -> StirlingRow:
    """Build s(n,0..n) by balanced expansion of x(x+1)...(x+n-1)."""
    _check_row_args(n)
    return StirlingRow(n, tuple(_expand(0, n, f"row {n}")), "product_tree")


def shifted_row_expand(m: int, n: int) -> ShiftedRow:
    """Expand (x+m)(x+m+1)...(x+m+n-1) into s_m(n,0..n)."""
    _check_row_args(n, m)
    return ShiftedRow(m, n, tuple(_expand(m, m + n, f"shifted row ({m}, {n})")))


def _capped_cache(maxsize: int, check):
    """lru_cache that runs check(*args) before every lookup.

    A bare lru_cache reaches the row cap only on a miss, inside the
    engines, so a row cached under a raised cap would still be served
    after the cap drops back. Every row cache, here and in the
    verifier, is built by this.
    """

    def decorate(build):
        cached = lru_cache(maxsize=maxsize)(build)

        @wraps(build)
        def lookup(*args):
            check(*args)
            return cached(*args)

        lookup.cache_clear = cached.cache_clear
        return lookup

    return decorate


@_capped_cache(32, _check_row_args)
def _cached_coeffs(n: int, shift: int) -> tuple[int, ...]:
    # Memoized product-tree rows keyed by (n, shift). lru_cache gives
    # the single-writer/concurrent-reader safety the accessors need.
    if shift:
        return shifted_row_expand(shift, n).coeffs
    return row_product_tree(n).coeffs


def stirling(n: int, k: int) -> int:
    """Return s(n,k); zero outside 0 <= k <= n and for k = 0, n >= 1."""
    if n < 0:
        raise DomainError(f"row index must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return _cached_coeffs(n, 0)[k]


def shifted_value_sum(m: int, n: int, k: int) -> int:
    """Evaluate s_m(n,k) as sum_{i=k}^{n} s(n,i) * C(i,i-k) * m**(i-k).

    Independent of shifted_row_expand, which makes the two routes a
    usable identity check against each other.
    """
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    _check_row_args(n, m)
    if k > n:
        return 0
    row = _cached_coeffs(n, 0)
    return sum(row[i] * math.comb(i, i - k) * m ** (i - k) for i in range(k, n + 1))


def convolution_rhs(m: int, n: int, k: int) -> int:
    """Evaluate sum_{i=0}^{k} s(m,i) * s_m(n,k-i).

    Splitting (x)_{m+n} at position m shows this equals s(m+n,k).
    """
    if not 0 <= k <= m + n:
        raise DomainError(f"need 0 <= k <= m+n, got k={k}, m={m}, n={n}")
    _check_row_args(m)
    _check_row_args(n, m)
    left = _cached_coeffs(m, 0)
    right = _cached_coeffs(n, m)
    lo = max(0, k - n)
    hi = min(k, m)
    return sum(left[i] * right[k - i] for i in range(lo, hi + 1))


def lemma21_rhs(n: int, k: int) -> int:
    """Half-sum identity for s(n,k) when n + k is odd.

    Evaluates (1/2) * sum_{i=k+1}^{n} s(n,i) * C(i-1,i-k) * n**(i-k)
    * (-1)**(n-i) in pure integer arithmetic. The sum is provably even;
    an odd total means the implementation is broken, not the input.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if (n + k) % 2 == 0:
        raise DomainError(f"n + k must be odd, got n={n}, k={k}")
    row = _cached_coeffs(n, 0)
    total = 0
    for i in range(k + 1, n + 1):
        term = row[i] * math.comb(i - 1, i - k) * n ** (i - k)
        total += -term if (n - i) % 2 else term
    half, rem = divmod(total, 2)
    if rem:
        raise ConsistencyError(f"half-sum for (n={n}, k={k}) came out odd: {total}")
    return half


# Selectors for the closed-form columns; each maps n to (k, value).
_SPECIAL_MIN_N = {"1": 1, "2": 2, "n-2": 2, "n-1": 1, "n": 1}


def special_value(n: int, selector: str) -> int:
    """Closed-form s(n,k) for the columns k in {1, 2, n-2, n-1, n}.

    Selectors are the literal strings "1", "2", "n-2", "n-1", "n":
    (n-1)! for k=1, (n-1)! * (1 + 1/2 + ... + 1/(n-1)) for k=2,
    (3n-1)*C(n,3)/4 for k=n-2, C(n,2) for k=n-1, and 1 for k=n.
    """
    if selector not in _SPECIAL_MIN_N:
        raise DomainError(f"unknown selector {selector!r}")
    if n < _SPECIAL_MIN_N[selector]:
        raise DomainError(f"selector {selector!r} needs n >= {_SPECIAL_MIN_N[selector]}, got {n}")
    if selector == "1":
        return math.factorial(n - 1)
    if selector == "2":
        fact = math.factorial(n - 1)
        return sum(fact // j for j in range(1, n))
    if selector == "n-1":
        return math.comb(n, 2)
    if selector == "n":
        return 1
    value, rem = divmod((3 * n - 1) * math.comb(n, 3), 4)
    if rem:
        raise ConsistencyError(f"(3n-1)*C(n,3) not divisible by 4 at n={n}")
    return value
