"""CLI parsing, exit codes, output formats, and the result cache."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import supercong
from supercong import cli
from supercong.cli import RunConfig, UsageError, main, parse_args

# the child interpreter imports the same package as this one
_SRC = str(Path(supercong.__file__).resolve().parent.parent)


def _run_cli(*args):
    """Run `python -m supercong.cli args` in a child process."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "supercong.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def _run(config):
    buf = io.StringIO()
    code = main(config, out=buf)
    return code, buf.getvalue()


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args([])
        assert cfg.command == "verify"
        assert (cfg.prime_lo, cfg.prime_hi) == (7, 500)
        assert cfg.digits == 6
        assert cfg.format == "table"
        assert len(cfg.check_ids) >= 25

    def test_explicit_verify(self):
        cfg = parse_args(
            ["verify", "--checks", "eq-1-1", "--primes", "7..500",
             "--digits", "6", "--format", "jsonl"]
        )
        assert cfg.check_ids == ("eq-1-1",)
        assert (cfg.prime_lo, cfg.prime_hi) == (7, 500)
        assert cfg.format == "jsonl"

    def test_flags_without_subcommand_mean_verify(self):
        cfg = parse_args(["--checks", "eq-1-1", "--primes", "7..11"])
        assert cfg.command == "verify"
        assert cfg.check_ids == ("eq-1-1",)

    def test_bad_prime_range(self):
        with pytest.raises(UsageError):
            parse_args(["verify", "--primes", "500..7"])
        with pytest.raises(UsageError):
            parse_args(["verify", "--primes", "x..7"])

    def test_unknown_check(self):
        with pytest.raises(UsageError):
            parse_args(["verify", "--checks", "nope"])

    def test_unknown_subcommand(self):
        with pytest.raises(UsageError):
            parse_args(["frobnicate"])

    def test_digits_too_small_for_mod_p4_checks(self):
        with pytest.raises(UsageError):
            parse_args(["verify", "--checks", "eq-1-1", "--digits", "3"])
        # a mod-p check still needs the floor of 4
        with pytest.raises(UsageError):
            parse_args(["verify", "--checks", "lem-bridge", "--digits", "3"])
        cfg = parse_args(["verify", "--checks", "lem-bridge", "--digits", "4"])
        assert cfg.digits == 4

    def test_jobs_validation(self):
        with pytest.raises(UsageError):
            parse_args(["verify", "--jobs", "0"])

    def test_jobs_clamped_to_cpu_count(self):
        # an absurd --jobs asks for no more workers than there are CPUs
        cpus = os.cpu_count() or 1
        assert parse_args(["verify", "--jobs", "1000000"]).jobs == cpus
        assert parse_args(["verify", "--jobs", "1"]).jobs == 1

    def test_a_samples(self):
        cfg = parse_args(["verify", "--a-samples", "-1/2, 5"])
        assert cfg.a_samples == (Fraction(-1, 2), Fraction(5))
        with pytest.raises(UsageError):
            parse_args(["verify", "--a-samples", "1/0"])

    def test_identities(self):
        cfg = parse_args(["identities", "--n-max", "20"])
        assert cfg.command == "identities"
        assert cfg.n_max == 20
        with pytest.raises(UsageError):
            parse_args(["identities", "--n-max", "0"])


class TestVerifyCommand:
    def test_passing_run_exit_zero(self):
        cfg = RunConfig(check_ids=("eq-1-1", "lem-bridge"), prime_lo=7, prime_hi=31)
        code, out = _run(cfg)
        assert code == 0
        assert "pass" in out

    def test_jsonl_rows(self):
        cfg = RunConfig(
            check_ids=("eq-1-1",), prime_lo=7, prime_hi=13, format="jsonl"
        )
        code, out = _run(cfg)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in rows] == [7, 11, 13]
        for r in rows:
            assert set(r) >= {"check", "p", "params", "status", "lhs", "rhs", "modulus"}
            assert r["status"] == "pass"
            assert r["modulus"].endswith("^4")

    def test_diagnostic_mode_exit_one(self):
        cfg = RunConfig(
            check_ids=("thm11-full",), prime_lo=7, prime_hi=7,
            t_sign_diagnostic=True, format="jsonl"
        )
        code, out = _run(cfg)
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "fail" for r in rows)
        assert all("not p-integral" in r["note"] for r in rows)

    def test_fail_fast_stops_after_first_bad_prime(self):
        cfg = RunConfig(
            check_ids=("thm11-full",), prime_lo=7, prime_hi=31,
            t_sign_diagnostic=True, fail_fast=True, format="jsonl", stats=True
        )
        code, out = _run(cfg)
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert {r["p"] for r in rows} == {7}

    def test_fail_fast_byte_identical_across_jobs(self):
        outs = []
        for jobs in (1, 2):
            cfg = RunConfig(
                check_ids=("thm11-full", "eq-1-1"), prime_lo=7, prime_hi=31,
                t_sign_diagnostic=True, fail_fast=True, jobs=jobs, format="jsonl"
            )
            outs.append(_run(cfg))
        assert outs[0] == outs[1]
        assert outs[0][0] == 1

    def test_byte_identical_across_jobs(self):
        outs = []
        for jobs in (1, 8):
            cfg = RunConfig(
                check_ids=("eq-1-1", "known-viii-b"), prime_lo=7, prime_hi=31,
                jobs=jobs, format="jsonl"
            )
            outs.append(_run(cfg)[1])
        assert outs[0] == outs[1]


class TestCache:
    def test_round_trip_zero_evaluations(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        cfg = RunConfig(
            check_ids=("eq-1-1", "lem-bridge"), prime_lo=7, prime_hi=19,
            cache=cache, stats=True, format="jsonl"
        )
        code1, rows_out1 = _run(cfg)
        out1 = rows_out1 + capsys.readouterr().err
        code2, rows_out2 = _run(cfg)
        out2 = rows_out2 + capsys.readouterr().err
        assert code1 == code2 == 0

        def split(text):
            rows = [l for l in text.splitlines() if l.startswith("{")]
            stats = [l for l in text.splitlines() if l.startswith("#")]
            return rows, stats

        rows1, stats1 = split(out1)
        rows2, stats2 = split(out2)
        assert rows1 == rows2
        assert "# evaluations: 0" in stats2
        assert any("cached rows reused: " in s and "reused: 0" not in s for s in stats2)
        assert "# evaluations: 0" not in stats1

    def test_cache_keyed_on_digits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        base = dict(check_ids=("lem-bridge",), prime_lo=7, prime_hi=7,
                    cache=cache, stats=True)
        _run(RunConfig(**base))
        capsys.readouterr()
        code, _ = _run(RunConfig(**base, digits=5))
        out = capsys.readouterr().err
        assert code == 0
        assert "# evaluations: 1" in out  # different digits -> recompute

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", '{"k": {"check": "lem-bridge"}}', "\udcff"]
    )
    def test_corrupt_cache_is_io_error(self, tmp_path, text):
        cache = tmp_path / "cache.json"
        cache.write_text(text, encoding="utf-8", errors="surrogateescape")
        proc = _run_cli(
            "verify", "--checks", "lem-bridge", "--primes", "7..11", "--jobs", "1",
            "--cache", str(cache),
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: corrupt cache file")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_missing_cache_directory_is_io_error_before_sweep(self, tmp_path, monkeypatch):
        cache = tmp_path / "absent" / "x.json"
        monkeypatch.setattr(cli, "sweep", _no_sweep)
        code, out = _run(RunConfig(check_ids=("lem-bridge",), prime_lo=7, prime_hi=300,
                                   cache=str(cache)))
        assert code == 3
        assert out == ""
        proc = _run_cli(
            "verify", "--checks", "lem-bridge", "--primes", "7..11", "--cache", str(cache),
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: cache directory {cache.parent} does not exist\n"
        assert proc.stdout == ""
        assert not cache.parent.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("sweep ran although its rows could not be cached")


class TestEndToEnd:
    def test_console_entry_point(self):
        proc = _run_cli("list-checks")
        assert proc.returncode == 0
        assert "eq-1-1" in proc.stdout
        assert "thm11-full" in proc.stdout

    def test_usage_error_exit_2(self):
        proc = _run_cli("verify", "--primes", "500..7")
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    def test_jsonl_stats_keeps_stdout_to_rows(self):
        proc = _run_cli(
            "verify", "--checks", "lem-bridge", "--primes", "7..13", "--jobs", "1",
            "--format", "jsonl", "--stats",
        )
        assert proc.returncode == 0
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["p"] for r in rows] == [7, 11, 13]
        assert "# evaluations: 3" in proc.stderr.splitlines()

    def test_identities_subcommand(self):
        proc = _run_cli("identities", "--n-max", "15")
        assert proc.returncode == 0
        assert "all identities hold exactly" in proc.stdout
