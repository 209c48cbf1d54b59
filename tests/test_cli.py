"""Command-line interface: output formats, exit codes, cache wiring."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirval
import stirval.formulas as formulas_mod
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

    def test_scan_text(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "2", "--k", "1", "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["1", "0", "0.000000"]
        assert lines[1].startswith("2 -1 1.44")
        assert lines[3].startswith("4 -2 1.44")

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "2", "--k", "2", "--n-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "valuation", "ratio"]
        assert [r[0] for r in rows[1:]] == ["2", "3"]


class TestVerifyCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "4", "--jobs", "1")
        assert code == 0
        assert out.startswith("PASS suite=theorem1")

    def test_json_report_schema(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--suite", "theorem2", "--n-min", "1", "--n-max", "3", "--jobs", "1"
        )
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
            "--jobs", "1", "--format", "csv",
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check_id", "n", "instance", "expected", "actual", "passed"]
        assert len(rows) == 3  # two interior columns fail
        assert all(r[0] == "theorem1" and r[5] == "False" for r in rows[1:])

    def test_true_failure_count_past_cap(self, capsys, monkeypatch):
        original = formulas_mod.theorem1_valuation
        monkeypatch.setattr(
            formulas_mod, "theorem1_valuation", lambda n, m, k: original(n, m, k) + 1
        )
        argv = ("verify", "--suite", "theorem1", "--n-min", "2", "--n-max", "8", "--jobs", "1")
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
    @pytest.fixture
    def restore_caps(self, monkeypatch):
        # --max-n mutates the module caps for the life of the process;
        # re-set them to themselves so monkeypatch undoes the mutation
        import stirval.harmonic as harmonic_mod
        import stirval.stirling_core as stirling_mod

        monkeypatch.setattr(stirling_mod, "ROW_CAP", stirling_mod.ROW_CAP)
        monkeypatch.setattr(harmonic_mod, "TABLE_CAP", harmonic_mod.TABLE_CAP)

    def test_max_n_caps_rows(self, capsys, restore_caps):
        code, _, err = run(capsys, "--max-n", "4", "row", "--n", "8")
        assert code == 3 and "cap" in err

    def test_max_n_caps_harmonic(self, capsys, restore_caps):
        code, _, err = run(capsys, "harmonic", "--n", "40", "--max-n", "10")
        assert code == 3

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
