"""Checksummed on-disk storage for computed rows.

One file per (shift, n) pair, named row_s<shift>_n<n>.stirval. The
format is line-oriented and human-inspectable:

    STIRVAL 2 <n> <shift> <checksum>
    0:<hex>
    1:<hex>
    ...

Coefficients are lowercase hex without prefix, most significant digit
first. The checksum is a 64-bit BLAKE2b digest of the payload bytes
(all the coefficient lines), written as 16 hex digits. Writes go
through a temp file plus rename so a crash never leaves a half-written
row; any file that fails the checksum or does not parse is reported as
a warning and treated as absent, never returned as data. Files of
format version 1 (FNV-1a checksum) fail the version check and are
discarded and rebuilt the same way.

A load may ask for one coefficient instead of the whole row. It then
converts only that line from hex, but checks the file exactly as a
full load does: the header, the line count and the checksum over the
whole payload, plus the key of the line it reads. Only a file that
passes every check is served, in part or in full.

A row is stored as it was built, by either of two routes in the CLI:
a product-tree expansion, or, on the int backend for n below
stirling_core._CHAIN_BELOW_N (_CHAIN_BELOW_N_TWO_CORES where the tree
runs in two processes), the largest smaller cached row of the same
shift that passes a full load, extended by recurrence steps.
Neither kind is checked against the other engine; the checksum guards
only the file. stored_rows lists the candidates for the second route
by file name.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MAGIC = "STIRVAL"
_VERSION = "2"


@dataclass(frozen=True)
class CacheEntry:
    """A serializable row: coefficients plus payload checksum."""

    n: int
    shift: int
    checksum: int
    coeffs: tuple[int, ...]
    # The payload the checksum was taken of, kept so that cache_store
    # need not serialize the row a second time. Only for_row sets it;
    # it is not an __init__ argument, so it always matches coeffs.
    payload: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_row(cls, n: int, shift: int, coeffs: tuple[int, ...]) -> "CacheEntry":
        payload = _payload(coeffs)
        entry = cls(n, shift, blake2b64(payload), coeffs)
        object.__setattr__(entry, "payload", payload)
        return entry


def blake2b64(*chunks: bytes) -> int:
    """64-bit BLAKE2b digest of the chunks joined, read as a big-endian int."""
    digest = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        digest.update(chunk)
    return int.from_bytes(digest.digest(), "big")


# Off the load/store path; kept because the benchmark tracer wraps it by name.
def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _payload(coeffs: tuple[int, ...]) -> bytes:
    return "".join(f"{k}:{c:x}\n" for k, c in enumerate(coeffs)).encode("ascii")


def entry_path(n: int, shift: int, directory: str) -> str:
    return os.path.join(directory, f"row_s{shift}_n{n}.stirval")


_ENTRY_NAME = re.compile(r"row_s[0-9]+_n([0-9]+)\.stirval")


def stored_rows(shift: int, directory: str) -> list[int]:
    """The n of every file in directory that entry_path(n, shift, directory) names.

    Only names are read, so each row must still pass cache_load. Temp
    files, other shifts and names entry_path would not write (such as
    n with a leading zero) are left out; a missing directory holds none.
    """
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        match = _ENTRY_NAME.fullmatch(name)
        if match and entry_path(int(match[1]), shift, directory) == os.path.join(directory, name):
            found.append(int(match[1]))
    return found


def cache_store(entry: CacheEntry, directory: str) -> None:
    """Atomically write one row file; overwrites any existing entry.

    An entry not built by for_row is serialized here and refused if its
    checksum does not match its coefficients.
    """
    payload = entry.payload
    if payload is None:
        payload = _payload(entry.coeffs)
        if blake2b64(payload) != entry.checksum:
            raise ValueError("entry checksum does not match its coefficients")
    header = f"{_MAGIC} {_VERSION} {entry.n} {entry.shift} {entry.checksum:016x}\n"
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(payload)
        os.replace(tmp, entry_path(entry.n, entry.shift, directory))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_load(n: int, shift: int, directory: str, *, k: int | None = None) -> CacheEntry | int | None:
    """Load one row, or None if it is missing or fails validation.

    With k (0 <= k <= n), return only the coefficient s(n, k) of the
    row, or None. The file gets the same checks either way; only the
    hex conversion is limited to line k.
    """
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    path = entry_path(n, shift, directory)
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return None
    # Line by line: a row file of megabytes is never held as one block
    # (nor copied into a payload and a text block), only as one short
    # bytes object per coefficient.
    checksum = _checked_checksum(lines, n, shift)
    if checksum is None:
        result = None
    elif k is None:
        result = _parse_row(lines, n, shift, checksum)
    else:
        result = _parse_coeff(lines[1 + k], k)
    if result is None:
        warnings.warn(f"discarding corrupt cache file {path}", stacklevel=2)
    return result


def _checked_checksum(lines: list[bytes], n: int, shift: int) -> int | None:
    """The file's checksum if its header names row (n, shift), it has
    n + 1 coefficient lines and the checksum matches them; else None."""
    if not lines or not lines[0].endswith(b"\n"):
        return None
    fields = lines[0][:-1].decode("ascii", errors="replace").split(" ")
    if len(fields) != 5 or fields[0] != _MAGIC or fields[1] != _VERSION:
        return None
    try:
        file_n, file_shift, checksum = int(fields[2]), int(fields[3]), int(fields[4], 16)
    except ValueError:
        return None
    if file_n != n or file_shift != shift or len(lines) != n + 2:
        return None
    if blake2b64(*lines[1:]) != checksum:
        return None
    return checksum


def _parse_coeff(line: bytes, k: int) -> int | None:
    """The value on a line that reads `k:<hex>`, or None."""
    key, sep, hexval = line.partition(b":")
    if not sep or key != b"%d" % k:
        return None
    try:
        return int(hexval, 16)
    except ValueError:
        return None


def _parse_row(lines: list[bytes], n: int, shift: int, checksum: int) -> CacheEntry | None:
    coeffs = []
    for k, line in enumerate(lines[1:]):
        value = _parse_coeff(line, k)
        if value is None:
            return None
        coeffs.append(value)
    return CacheEntry(n, shift, checksum, tuple(coeffs))
