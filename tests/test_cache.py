"""Persistent row cache: format, round-trips, corruption handling."""

import os

import pytest

from stirval.cache import CacheEntry, blake2b64, cache_load, cache_store, entry_path, fnv1a64
from stirval.cli import dispatch
from stirval.stirling_core import row_product_tree, shifted_row_expand

ROW_8 = (0, 5040, 13068, 13132, 6769, 1960, 322, 28, 1)


class TestChecksum:
    def test_fnv1a64_known_vectors(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_blake2b64_known_vectors(self):
        # first 8 bytes of BLAKE2b with an 8-byte digest, big-endian
        assert blake2b64(b"") == 0xE4A6A0577479B2B4
        assert blake2b64(b"abc") == 0xD8BB14D833D59559

    def test_for_row_is_deterministic(self):
        a = CacheEntry.for_row(8, 0, ROW_8)
        b = CacheEntry.for_row(8, 0, ROW_8)
        assert a == b
        assert a.checksum == b.checksum
        assert CacheEntry.for_row(8, 1, ROW_8).checksum == a.checksum  # payload only


class TestRoundTrip:
    def test_plain_row(self, tmp_path):
        entry = CacheEntry.for_row(8, 0, ROW_8)
        cache_store(entry, str(tmp_path))
        loaded = cache_load(8, 0, str(tmp_path))
        assert loaded == entry
        assert loaded.coeffs == ROW_8

    def test_shifted_row(self, tmp_path):
        coeffs = shifted_row_expand(4, 4).coeffs
        entry = CacheEntry.for_row(4, 4, coeffs)
        cache_store(entry, str(tmp_path))
        loaded = cache_load(4, 4, str(tmp_path))
        assert loaded.coeffs == coeffs
        assert loaded.shift == 4

    def test_file_naming_and_format(self, tmp_path):
        entry = CacheEntry.for_row(4, 0, row_product_tree(4).coeffs)
        cache_store(entry, str(tmp_path))
        path = entry_path(4, 0, str(tmp_path))
        assert os.path.basename(path) == "row_s0_n4.stirval"
        lines = open(path).read().splitlines()
        assert lines[0] == f"STIRVAL 2 4 0 {entry.checksum:016x}"
        assert lines[1:] == ["0:0", "1:6", "2:b", "3:6", "4:1"]

    def test_missing_returns_none(self, tmp_path):
        assert cache_load(9, 0, str(tmp_path)) is None

    def test_wrong_key_does_not_match(self, tmp_path):
        cache_store(CacheEntry.for_row(4, 0, row_product_tree(4).coeffs), str(tmp_path))
        assert cache_load(4, 2, str(tmp_path)) is None
        assert cache_load(5, 0, str(tmp_path)) is None

    def test_store_rejects_bad_checksum(self, tmp_path):
        entry = CacheEntry(4, 0, 0xDEADBEEF, row_product_tree(4).coeffs)
        with pytest.raises(ValueError):
            cache_store(entry, str(tmp_path))


class TestCorruption:
    def _store(self, tmp_path):
        entry = CacheEntry.for_row(8, 0, ROW_8)
        cache_store(entry, str(tmp_path))
        return entry_path(8, 0, str(tmp_path))

    def test_flipped_payload_byte(self, tmp_path):
        path = self._store(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None

    def test_truncated_file(self, tmp_path):
        path = self._store(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None

    def test_mangled_header(self, tmp_path):
        path = self._store(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(b"NOTMAGIC" + data[8:])
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None

    def test_header_row_mismatch(self, tmp_path):
        # file claims a different n than its name: reject
        path = self._store(tmp_path)
        data = open(path, "rb").read().replace(b"STIRVAL 2 8 0", b"STIRVAL 2 9 0", 1)
        open(path, "wb").write(data)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None

    def test_non_ascii_garbage(self, tmp_path):
        path = self._store(tmp_path)
        open(path, "wb").write(b"\xff\xfe\x00\x01garbage\n")
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None

    def test_version_1_file_is_discarded_and_rebuilt(self, tmp_path, capsys):
        # a genuine file of the previous format: FNV-1a over the same payload
        payload = "".join(f"{k}:{c:x}\n" for k, c in enumerate(ROW_8)).encode("ascii")
        path = entry_path(8, 0, str(tmp_path))
        with open(path, "wb") as fh:
            fh.write(f"STIRVAL 1 8 0 {fnv1a64(payload):016x}\n".encode("ascii") + payload)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache_load(8, 0, str(tmp_path)) is None
        with pytest.warns(UserWarning, match="corrupt"):
            code = dispatch(["value", "--n", "8", "--k", "5", "--cache-dir", str(tmp_path)])
        assert code == 0 and capsys.readouterr().out.strip() == "1960"
        with open(path, "rb") as fh:
            assert fh.readline().startswith(b"STIRVAL 2 8 0 ")
        assert cache_load(8, 0, str(tmp_path)).coeffs == ROW_8
