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
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass

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

    @classmethod
    def for_row(cls, n: int, shift: int, coeffs: tuple[int, ...]) -> "CacheEntry":
        return cls(n, shift, blake2b64(_payload(coeffs)), coeffs)


def blake2b64(data: bytes) -> int:
    """64-bit BLAKE2b digest of a byte string, read as a big-endian int."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


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


def cache_store(entry: CacheEntry, directory: str) -> None:
    """Atomically write one row file; overwrites any existing entry."""
    payload = _payload(entry.coeffs)
    checksum = blake2b64(payload)
    if checksum != entry.checksum:
        raise ValueError("entry checksum does not match its coefficients")
    header = f"{_MAGIC} {_VERSION} {entry.n} {entry.shift} {checksum:016x}\n"
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


def cache_load(n: int, shift: int, directory: str) -> CacheEntry | None:
    """Load one row, or None if it is missing or fails validation."""
    path = entry_path(n, shift, directory)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    entry = _parse(raw, n, shift)
    if entry is None:
        warnings.warn(f"discarding corrupt cache file {path}", stacklevel=2)
    return entry


def _parse(raw: bytes, n: int, shift: int) -> CacheEntry | None:
    head, sep, body = raw.partition(b"\n")
    fields = head.decode("ascii", errors="replace").split(" ")
    if not sep or len(fields) != 5 or fields[0] != _MAGIC or fields[1] != _VERSION:
        return None
    try:
        file_n, file_shift, checksum = int(fields[2]), int(fields[3]), int(fields[4], 16)
    except ValueError:
        return None
    if file_n != n or file_shift != shift or blake2b64(body) != checksum:
        return None
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError:
        return None
    coeffs = []
    for idx, line in enumerate(text.splitlines()):
        key, sep2, hexval = line.partition(":")
        if not sep2 or key != str(idx):
            return None
        try:
            coeffs.append(int(hexval, 16))
        except ValueError:
            return None
    if len(coeffs) != n + 1:
        return None
    return CacheEntry(n, shift, checksum, tuple(coeffs))
