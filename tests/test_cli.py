"""Command-line interface: output formats, exit codes, cache wiring."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import stirval
import stirval.cache as cache_mod
import stirval.cli as cli_mod
import stirval.formulas as formulas_mod
import stirval.harmonic as harmonic_mod
import stirval.stirling_core as stirling_mod
import stirval.verifier as verifier_mod
from stirval.cli import dispatch
from stirval.verifier import FAILURE_CAP


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValueAndRow:
    def test_value_text(self, capsys):
        code, out, _ = run(capsys, "value", "--n", "8", "--k", "5")
        assert code == 0 and out.strip() == "1960"

    def test_value_out_of_range_is_zero(self, capsys):
        code, out, _ = run(capsys, "value", "--n", "5", "--k", "9")
        assert code == 0 and out.strip() == "0"

    def test_value_json(self, capsys):
        code, out, _ = run(capsys, "value", "--n", "8", "--k", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 8, "k": 5, "value": 1960}

    def test_row_text(self, capsys):
        code, out, _ = run(capsys, "row", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["0: 0", "1: 6", "2: 11", "3: 6", "4: 1"]

    def test_row_json_flag_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "row", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["coeffs"] == [0, 6, 11, 6, 1]
        assert data["engine"] == "product_tree"

    def test_row_csv(self, capsys):
        code, out, _ = run(capsys, "row", "--n", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "value"]
        assert rows[1:] == [["0", "0"], ["1", "2"], ["2", "3"], ["3", "1"]]

    def test_row_engine_choice(self, capsys):
        code_a, out_a, _ = run(capsys, "row", "--n", "16", "--engine", "recurrence")
        code_b, out_b, _ = run(capsys, "row", "--n", "16", "--engine", "product_tree")
        assert code_a == code_b == 0 and out_a == out_b


@pytest.mark.parametrize(
    "argv, expected",
    (
        (("value", "--n", "8", "--k", "5"), "n,k,value\r\n8,5,1960\r\n"),
        (("value", "--n", "5", "--k", "9"), "n,k,value\r\n5,9,0\r\n"),
        (("valuation", "--p", "2", "--x", "35/24"), "p,x,valuation\r\n2,35/24,-3\r\n"),
        (("valuation", "--p", "3", "--x", "0/7"), "p,x,valuation\r\n3,0/7,inf\r\n"),
        (("predict", "--n", "3", "--t", "5"), "n,t,predicted,source\r\n3,5,3,theorem1\r\n"),
        (("shifted", "--m", "4", "--n", "4", "--k", "3"), "m,n,k,value\r\n4,4,3,22\r\n"),
        (("harmonic", "--n", "4", "--k", "2"), "n,k,value\r\n4,2,35/24\r\n"),
    ),
    ids=("value", "value-zero", "valuation", "valuation-inf", "predict", "shifted-k", "harmonic-k"),
)
def test_single_value_csv_is_header_and_one_row(capsys, argv, expected):
    assert run(capsys, *argv, "--format", "csv") == (0, expected, "")


class TestShifted:
    def test_full_row(self, capsys):
        code, out, _ = run(capsys, "shifted", "--m", "4", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["0: 840", "1: 638", "2: 179", "3: 22", "4: 1"]

    def test_single_coefficient(self, capsys):
        code, out, _ = run(capsys, "shifted", "--m", "4", "--n", "4", "--k", "3")
        assert code == 0 and out.strip() == "22"

    def test_value_beyond_str_digit_limit(self, capsys):
        # s_m(250, 0) = m(m+1)...(m+249) has more than 4300 digits
        m = 2**62
        code, out, _ = run(capsys, "shifted", "--m", str(m), "--n", "250", "--k", "0")
        assert code == 0
        assert int(out) == math.prod(range(m, m + 250))

    def test_zero_shift_matches_row(self, capsys):
        code, out_s, _ = run(capsys, "shifted", "--m", "0", "--n", "5")
        code2, out_r, _ = run(capsys, "row", "--n", "5")
        assert code == code2 == 0 and out_s == out_r


class TestValuation:
    def test_integer(self, capsys):
        code, out, _ = run(capsys, "valuation", "--p", "2", "--x", "5040")
        assert code == 0 and out.strip() == "4"

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "valuation", "--p", "2", "--x", "35/24")
        assert code == 0 and out.strip() == "-3"

    def test_zero_prints_inf(self, capsys):
        code, out, _ = run(capsys, "valuation", "--p", "2", "--x", "0")
        assert code == 0 and out.strip() == "inf"

    def test_json_inf(self, capsys):
        code, out, _ = run(capsys, "valuation", "--p", "3", "--x", "0/7", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"p": 3, "x": "0/7", "valuation": "inf"}

    def test_literal_beyond_str_digit_limit(self, capsys):
        code, out, _ = run(capsys, "valuation", "--p", "2", "--x", "1" + "0" * 4400)
        assert code == 0 and out.strip() == "4400"

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "valuation", "--p", "2", "--x", "abc")
        assert code == 2 and "literal" in err

    def test_composite_p(self, capsys):
        code, _, err = run(capsys, "valuation", "--p", "6", "--x", "12")
        assert code == 2 and "prime" in err


class TestPredict:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "predict", "--n", "3", "--t", "5")
        assert code == 0 and out.strip() == "3"

    def test_json_sources(self, capsys):
        code, out, _ = run(capsys, "predict", "--n", "3", "--t", "8", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "t": 8, "predicted": 0, "source": "boundary_top"}

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "predict", "--n", "3", "--t", "9")
        assert code == 2 and err


class TestHarmonicAndScan:
    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "harmonic", "--n", "4", "--k", "2")
        assert code == 0 and out.strip() == "35/24"

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "harmonic", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0: 1", "1: 3/2", "2: 1/2"]

    def test_table_json_strings(self, capsys):
        code, out, _ = run(capsys, "harmonic", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == ["1", "25/12", "35/24", "5/12", "1/24"]

    def test_k_out_of_range_before_table(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("table built for a k outside 0..n")

        monkeypatch.setattr(harmonic_mod, "harmonic_table", refuse)
        code, _, err = run(capsys, "harmonic", "--n", "4", "--k", "9")
        assert code == 2 and "0 <= k <= n" in err

    def test_shared_step_fault_exits_one(self, capsys, monkeypatch):
        original = stirling_mod._times_linear
        monkeypatch.setattr(stirling_mod, "_times_linear", lambda coeffs, c: original(coeffs, c + 1))
        stirling_mod._cached_coeffs.cache_clear()
        try:
            code, out, err = run(capsys, "harmonic", "--n", "20")
        finally:
            stirling_mod._cached_coeffs.cache_clear()
        assert code == 1 and out == ""
        assert err.startswith("internal consistency failure")

    def test_cache_dir_round_trip(self, capsys, tmp_path, monkeypatch):
        built = []
        tree = stirling_mod.row_product_tree
        monkeypatch.setattr(stirling_mod, "row_product_tree", lambda n: built.append(n) or tree(n))
        argv = ("harmonic", "--n", "64", "--format", "json", "--cache-dir", str(tmp_path))
        code, first, _ = run(capsys, *argv)
        assert code == 0 and built == [65]
        assert cache_mod.cache_load(65, 0, str(tmp_path)).coeffs == stirling_mod.row_recurrence(65).coeffs
        # the second call is a hit
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == first and built == [65]
        # a file that fails its checksum is recomputed and written back
        path = tmp_path / "row_s0_n65.stirval"
        path.write_bytes(path.read_bytes().replace(b"\n2:", b"\n2:1", 1))
        with pytest.warns(UserWarning, match="corrupt"):
            code, out, _ = run(capsys, *argv)
        assert code == 0 and out == first and built == [65, 65]
        # one that passes it with a wrong row fails the table's row checks
        body = path.read_bytes().splitlines(keepends=True)[1:]
        body[2] = b"2:1" + body[2][2:]
        _rewrite_body(path, body)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err == "internal consistency failure: row 65 does not sum to 65!\n"

    def test_scan_text(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "2", "--k", "1", "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["1", "0", "0.000000"]
        assert lines[1].startswith("2 -1 1.44")
        assert lines[3].startswith("4 -2 1.44")

    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "2", "--k", "1", "--n-max", "2", "--format", "json")
        assert code == 0
        assert out == (
            '[{"n": 1, "valuation": 0, "ratio": 0.0}, '
            '{"n": 2, "valuation": -1, "ratio": 1.4426950408889634}]\n'
        )

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "2", "--k", "2", "--n-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "valuation", "ratio"]
        assert [r[0] for r in rows[1:]] == ["2", "3"]

    @pytest.mark.parametrize("k", ("1", "5"))
    def test_scan_bad_p_usage_error(self, capsys, k):
        # k = 5 > n-max scans nothing; p is refused all the same
        code, out, err = run(capsys, "scan", "--p", "4", "--k", k, "--n-max", "3")
        assert code == 2 and out == "" and "prime" in err


class TestVerifyCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "4")
        assert code == 0
        assert out.startswith("PASS suite=theorem1")

    def test_json_report_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "theorem2", "--n-min", "1", "--n-max", "3")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"suite", "range", "total", "failures_total", "failures", "elapsed_ms"}
        assert report["suite"] == "theorem2"
        assert report["range"] == [1, 3]
        assert report["total"] == 14
        assert report["failures_total"] == 0
        assert report["failures"] == []
        assert isinstance(report["elapsed_ms"], int)

    def test_failures_exit_one_and_csv(self, capsys, monkeypatch):
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(
            formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
        )
        code, out, _ = run(
            capsys, "verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "2",
            "--format", "csv",
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check_id", "n", "instance", "expected", "actual", "passed"]
        assert len(rows) == 3  # two interior columns fail
        assert all(r[0] == "theorem1" and r[5] == "False" for r in rows[1:])
        code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "2")
        assert code == 1
        head, *lines = out.splitlines()
        assert head.startswith("FAIL suite=theorem1 range=(2, 2) total=4 failures=2 elapsed_ms=")
        assert head.endswith(" engine=exact:recurrence+product_tree;mod2^B:chain+doubling;shifted:chain+taylor_shift")
        assert lines == [
            "  FAIL theorem1 instance=(2, 1) expected=2 actual=1",
            "  FAIL theorem1 instance=(2, 2) expected=1 actual=0",
        ]

    def test_true_failure_count_past_cap(self, capsys, monkeypatch):
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(
            formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
        )
        argv = ("verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "8")
        failed = sum(2**n - 2 for n in range(2, 9))  # all but the two boundary columns
        code, out, _ = run(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert f" failures={failed} " in lines[0]
        assert len(lines) == 1 + FAILURE_CAP
        code, out, _ = run(capsys, "--format", "json", *argv)
        report = json.loads(out)
        assert report["failures_total"] == failed
        assert len(report["failures"]) == FAILURE_CAP

    def test_shared_step_fault_is_an_internal_consistency_failure(self, capsys, monkeypatch):
        # (x + c + 1) in both row routes, the masked chain through its
        # factors and the doubling route returning (x + 1)_{2N}: the
        # routes agree, and Theorem 2 maps the wrong row's valuations
        # onto the right ones, so only the row invariants can catch it
        chain = verifier_mod._chain_masked
        monkeypatch.setattr(verifier_mod, "_chain_masked", lambda lo, hi, *args: chain(lo + 1, hi + 1, *args))
        monkeypatch.setattr(
            verifier_mod,
            "_double_masked",
            lambda coeffs, bits, targets, p: stirling_mod._masked(
                stirling_mod._expand_chain(1, len(targets)), stirling_mod._masks(targets)
            ),
        )
        truncated = (verifier_mod._truncated_rows, verifier_mod._truncated_lifted)
        for cache in truncated:
            cache.cache_clear()
        try:
            code, out, err = run(capsys, "verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "8")
        finally:
            for cache in truncated:
                cache.cache_clear()
        assert code == 1 and out == ""
        assert err.startswith("internal consistency failure: truncated row 2 fails its invariant")

    def test_same_report_under_optimize_flag(self):
        # `assert` vanishes under -O; a check that relies on it would
        # change the report, so run the CLI both ways and compare.
        src = str(Path(stirval.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = ["-m", "stirval.cli", "verify", "--suite", "all", "--n-min", "2", "--n-max", "5", "--format", "json"]
        reports = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, *argv], capture_output=True, text=True, env=env, check=True
            )
            report = json.loads(proc.stdout)
            del report["elapsed_ms"]
            reports.append(report)
        assert reports[0]["total"] > 0
        assert reports[0] == reports[1]

    def test_default_run_never_loads_multiprocessing(self):
        # verify runs in one process and never imports a pool.
        src = str(Path(stirval.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = (
            "import sys; from stirval import cli;"
            "code = cli.dispatch(['verify', '--suite', 'all', '--n-min', '2', '--n-max', '3']);"
            "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.startswith("PASS suite=all")
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("jobs", ("0", "-4", "1", "2"))
    def test_bad_jobs_usage_error(self, capsys, jobs):
        # --jobs is gone: verify runs in one process, whatever the value.
        code, out, err = run(capsys, "verify", "--suite", "theorem1", "--n-max", "2", "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs" in err

    def test_bad_suite_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestGlobalFlags:
    def test_max_n_caps_rows(self, capsys):
        code, _, err = run(capsys, "--max-n", "4", "row", "--n", "8")
        assert code == 3 and "cap" in err

    def test_max_n_caps_harmonic(self, capsys):
        code, _, err = run(capsys, "harmonic", "--n", "40", "--max-n", "10")
        assert code == 3
        # table n reads row n + 1, so --max-n M allows n up to M - 1
        code, out, _ = run(capsys, "--max-n", "10", "harmonic", "--n", "9", "--k", "9")
        assert code == 0 and out.strip() == "1/362880"
        code, _, err = run(capsys, "--max-n", "10", "harmonic", "--n", "10")
        assert code == 3 and "row index 11 exceeds cap 10" in err

    def test_max_n_lasts_one_command(self, capsys):
        assert stirling_mod.ROW_CAP == 2**13
        code, out, _ = run(capsys, "--max-n", "16", "value", "--n", "4", "--k", "2")
        assert code == 0 and out.strip() == "11"
        assert stirling_mod.ROW_CAP == 2**13
        code, _, _ = run(capsys, "--max-n", "4", "row", "--n", "8")
        assert code == 3
        assert stirling_mod.ROW_CAP == 2**13

    def test_fixes_mmap_threshold(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_mod, "_MALLOPT", lambda param, value: calls.append((param, value)))
        code, out, _ = run(capsys, "value", "--n", "4", "--k", "2")
        assert code == 0 and out.strip() == "11"
        assert calls == [(cli_mod._M_MMAP_THRESHOLD, 128 * 1024)]

    def test_negative_max_n(self, capsys):
        code, _, err = run(capsys, "--max-n", "-1", "row", "--n", "2")
        assert code == 2

    def test_cache_dir_flag_round_trip(self, capsys, tmp_path):
        code, out1, _ = run(capsys, "row", "--n", "10", "--cache-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "row_s0_n10.stirval").exists()
        code, out2, _ = run(capsys, "row", "--n", "10", "--cache-dir", str(tmp_path))
        assert code == 0 and out2 == out1

    def test_cache_dir_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STIRVAL_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "value", "--n", "9", "--k", "2")
        assert code == 0 and out.strip() == "109584"
        assert (tmp_path / "row_s0_n9.stirval").exists()

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        run(capsys, "row", "--n", "8", "--cache-dir", str(tmp_path))
        path = tmp_path / "row_s0_n8.stirval"
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="corrupt"):
            code, out, _ = run(capsys, "value", "--n", "8", "--k", "5", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == "1960"

    def test_recurrence_engine_skips_cache(self, capsys, tmp_path):
        code, _, _ = run(capsys, "row", "--n", "6", "--engine", "recurrence", "--cache-dir", str(tmp_path))
        assert code == 0
        assert not (tmp_path / "row_s0_n6.stirval").exists()

    def test_unusable_cache_dir_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run(capsys, "row", "--n", "6", "--cache-dir", str(blocker))
        assert code == 2 and "i/o error" in err


def _rewrite_body(path, body):
    # Keep the header's n and shift, recompute the checksum over body.
    header = path.read_bytes().split(b"\n", 1)[0].rsplit(b" ", 1)[0]
    payload = b"".join(body)
    path.write_bytes(header + b" %016x\n" % cache_mod.blake2b64(payload) + payload)


class TestSingleCoefficientHits:
    ROW_8 = (0, 5040, 13068, 13132, 6769, 1960, 322, 28, 1)
    REQUESTS = (
        ("value", "--n", "8", "--k", "5"),
        ("shifted", "--m", "4", "--n", "4", "--k", "3"),
    )

    @pytest.mark.parametrize("request_argv", REQUESTS)
    @pytest.mark.parametrize("fmt", ("text", "json", "csv"))
    def test_hit_prints_as_miss(self, capsys, tmp_path, monkeypatch, request_argv, fmt):
        def no_rebuild():
            raise AssertionError("dispatch rebuilt the parser")

        monkeypatch.setattr(cli_mod, "build_parser", no_rebuild)
        argv = (*request_argv, "--format", fmt, "--cache-dir", str(tmp_path))
        code, miss, _ = run(capsys, *argv)
        assert code == 0 and len(list(tmp_path.iterdir())) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, hit, _ = run(capsys, *argv)
        assert code == 0 and hit == miss
        assert hit == run(capsys, *request_argv, "--format", fmt)[1]

    def test_hit_parses_one_coefficient(self, capsys, tmp_path, monkeypatch):
        run(capsys, "row", "--n", "8", "--cache-dir", str(tmp_path))
        seen = []
        real = cache_mod._parse_coeff
        monkeypatch.setattr(cache_mod, "_parse_coeff", lambda line, k: seen.append(k) or real(line, k))
        # a hit builds nothing, fresh or from a lower row
        for name in ("row_product_tree", "row_recurrence", "shifted_row_expand", "_times_linear"):
            monkeypatch.setattr(stirling_mod, name, None)
        code, out, _ = run(capsys, "value", "--n", "8", "--k", "5", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == "1960"
        assert seen == [5]

    def _corrupt_then_recover(self, capsys, tmp_path, corrupt):
        code, _, _ = run(capsys, "value", "--n", "8", "--k", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        path = tmp_path / "row_s0_n8.stirval"
        corrupt(path)
        with pytest.warns(UserWarning, match="corrupt"):
            code, out, _ = run(capsys, "value", "--n", "8", "--k", "5", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == "1960"
        # the recomputed row was written back and now serves every column
        assert cache_mod.cache_load(8, 0, str(tmp_path)).coeffs == self.ROW_8

    def test_flipped_byte_in_another_line(self, capsys, tmp_path):
        def corrupt(path):
            # 13068 = 0x330c on line 2; still valid hex, so only the checksum sees it
            path.write_bytes(path.read_bytes().replace(b"\n2:330c\n", b"\n2:330d\n"))

        self._corrupt_then_recover(capsys, tmp_path, corrupt)

    def test_wrong_key_on_line_k(self, capsys, tmp_path):
        def corrupt(path):
            body = path.read_bytes().splitlines(keepends=True)[1:]
            body[5] = b"6" + body[5][1:]
            _rewrite_body(path, body)

        self._corrupt_then_recover(capsys, tmp_path, corrupt)

    def test_body_one_line_short(self, capsys, tmp_path):
        def corrupt(path):
            _rewrite_body(path, path.read_bytes().splitlines(keepends=True)[1:-1])

        self._corrupt_then_recover(capsys, tmp_path, corrupt)

    def test_truncated_file(self, capsys, tmp_path):
        def corrupt(path):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

        self._corrupt_then_recover(capsys, tmp_path, corrupt)

    @pytest.mark.parametrize(
        "argv",
        (
            ("value", "--n", "40", "--k", "3"),
            ("shifted", "--m", "2", "--n", "40", "--k", "3"),
            ("shifted", "--m", "2", "--n", "40"),
            ("row", "--n", "40"),
        ),
    )
    def test_warm_cache_keeps_row_cap(self, capsys, tmp_path, argv):
        code, _, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and len(list(tmp_path.iterdir())) == 1
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path), "--max-n", "20")
        assert code == 3 and out == "" and "cap" in err


def _forbid_trees(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a product tree")

    monkeypatch.setattr(stirling_mod, "row_product_tree", refuse)
    monkeypatch.setattr(stirling_mod, "shifted_row_expand", refuse)


def _spy_loads(monkeypatch):
    # (n, shift) of every cache_load the CLI makes. perfbench/tracer.py
    # wraps cli.cache_load and unpacks exactly (n, shift, directory).
    loads = []
    real = cli_mod.cache_load

    def spy(*args, **kwargs):
        n, shift, directory = args
        loads.append((n, shift))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "cache_load", spy)
    return loads


class TestMissFromLowerRow:
    """A miss on row (n, shift) extends the largest cached row (m < n, shift)."""

    @pytest.fixture(autouse=True)
    def int_backend(self, monkeypatch):
        # The route is taken only on the int backend; run the tests on it
        # under gmpy2 as well (its products stay exact either way).
        monkeypatch.setattr(stirling_mod, "_mpz", int)

    @pytest.mark.parametrize(
        "build",
        (("row", "--n"), ("shifted", "--m", "5", "--n")),
        ids=("plain", "shifted"),
    )
    def test_extended_row_equals_fresh_build(self, capsys, tmp_path, monkeypatch, build):
        warm, fresh = tmp_path / "warm", tmp_path / "fresh"
        assert run(capsys, *build, "13", "--cache-dir", str(warm))[0] == 0
        code, expected, _ = run(capsys, *build, "40", "--format", "json", "--cache-dir", str(fresh))
        assert code == 0
        _forbid_trees(monkeypatch)
        code, out, _ = run(capsys, *build, "40", "--format", "json", "--cache-dir", str(warm))
        assert code == 0 and out == expected
        name = os.path.basename(cache_mod.entry_path(40, 5 if build[0] == "shifted" else 0, ""))
        assert (warm / name).read_bytes() == (fresh / name).read_bytes()
        if build[0] == "row":
            assert json.loads(out)["coeffs"] == list(stirling_mod.row_recurrence(40).coeffs)

    def test_largest_lower_row_is_used(self, capsys, tmp_path, monkeypatch):
        for n in ("5", "20", "12"):
            run(capsys, "value", "--n", n, "--k", "1", "--cache-dir", str(tmp_path))
        loads = _spy_loads(monkeypatch)
        _forbid_trees(monkeypatch)
        code, out, _ = run(capsys, "value", "--n", "30", "--k", "7", "--cache-dir", str(tmp_path))
        assert code == 0 and int(out) == stirling_mod.row_recurrence(30).coeffs[7]
        assert loads == [(30, 0), (20, 0)]

    @pytest.mark.parametrize("lower", ((20,), (12, 20)), ids=("fresh", "next-lower"))
    def test_corrupt_lower_row_is_skipped(self, capsys, tmp_path, monkeypatch, lower):
        for n in lower:
            run(capsys, "row", "--n", str(n), "--cache-dir", str(tmp_path))
        path = tmp_path / "row_s0_n20.stirval"
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x04
        path.write_bytes(bytes(data))
        loads = _spy_loads(monkeypatch)
        with pytest.warns(UserWarning, match="corrupt"):
            code, out, _ = run(capsys, "value", "--n", "30", "--k", "7", "--cache-dir", str(tmp_path))
        assert code == 0 and int(out) == stirling_mod.row_recurrence(30).coeffs[7]
        assert loads == [(30, 0), *((m, 0) for m in sorted(lower, reverse=True))]
        assert path.read_bytes() == bytes(data)  # passed over, not deleted
        assert cache_mod.cache_load(30, 0, str(tmp_path)).coeffs == stirling_mod.row_recurrence(30).coeffs

    def test_other_shifts_tmp_files_and_higher_rows_are_ignored(self, capsys, tmp_path, monkeypatch):
        run(capsys, "shifted", "--m", "1", "--n", "20", "--cache-dir", str(tmp_path))
        run(capsys, "row", "--n", "40", "--cache-dir", str(tmp_path))
        run(capsys, "row", "--n", "20", "--cache-dir", str(tmp_path))
        row_20 = tmp_path / "row_s0_n20.stirval"
        for name in ("row_s0_n020.stirval", "row_s00_n20.stirval", "row_s0_n20.stirval.tmp", "tmp1x.tmp"):
            (tmp_path / name).write_bytes(row_20.read_bytes())
        row_20.unlink()
        loads = _spy_loads(monkeypatch)
        code, out, _ = run(capsys, "value", "--n", "30", "--k", "7", "--cache-dir", str(tmp_path))
        assert code == 0 and int(out) == stirling_mod.row_recurrence(30).coeffs[7]
        assert loads == [(30, 0)]

    def test_missing_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "not" / "yet"
        code, out, _ = run(capsys, "value", "--n", "30", "--k", "7", "--cache-dir", str(cache_dir))
        assert code == 0 and int(out) == stirling_mod.row_recurrence(30).coeffs[7]
        assert (cache_dir / "row_s0_n30.stirval").exists()

    @pytest.mark.parametrize(
        "patches",
        (
            {"_CHAIN_BELOW_N": 30},
            {"_mpz": type("mpz", (int,), {})},
            # the tree runs in two processes, which moves the crossover
            {"_CHAIN_BELOW_N_TWO_CORES": 30, "_two_cores": lambda n: True},
        ),
        ids=("at-crossover", "not-int-backend", "at-two-process-crossover"),
    )
    def test_product_tree_where_the_chain_loses(self, capsys, tmp_path, monkeypatch, patches):
        run(capsys, "row", "--n", "20", "--cache-dir", str(tmp_path))
        for attr, value in patches.items():
            monkeypatch.setattr(stirling_mod, attr, value)
        built = []
        real = stirling_mod.row_product_tree
        monkeypatch.setattr(stirling_mod, "row_product_tree", lambda n: built.append(n) or real(n))
        loads = _spy_loads(monkeypatch)
        code, out, _ = run(capsys, "value", "--n", "30", "--k", "7", "--cache-dir", str(tmp_path))
        assert code == 0 and int(out) == stirling_mod.row_recurrence(30).coeffs[7]
        assert built == [30] and loads == [(30, 0)]

    def test_max_n_refuses_before_any_lower_row_is_read(self, capsys, tmp_path, monkeypatch):
        run(capsys, "row", "--n", "20", "--cache-dir", str(tmp_path))
        loads = _spy_loads(monkeypatch)
        monkeypatch.setattr(cli_mod, "stored_rows", None)
        code, out, err = run(capsys, "value", "--n", "30", "--k", "7", "--max-n", "25", "--cache-dir", str(tmp_path))
        assert code == 3 and out == "" and "cap" in err
        assert loads == []
