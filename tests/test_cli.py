"""CLI parsing, exit codes, output formats, and the result cache."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercong
from supercong import checks, cli
from supercong.checks import CheckResult, registry
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

    @pytest.mark.parametrize("argv", [
        ["--a-samples", "-1/2,1/3"],
        ["--a-samples=-1/2,1/3"],
        ["--a-samples", "5", "--a-samples", "-1/2,1/3"],
    ])
    def test_a_samples_starting_with_minus(self, argv):
        # a value that starts with "-" is still the flag's value, in either form
        assert parse_args(["verify", *argv]).a_samples == (Fraction(-1, 2), Fraction(1, 3))
        proc = _run_cli("verify", "--checks", "thm11-full", "--primes", "7..11",
                        "--jobs", "1", "--format", "jsonl", *argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert [json.loads(line)["params"]["a"] for line in proc.stdout.splitlines()] == [
            "-1/2", "1/3"
        ] * 2

    @pytest.mark.parametrize("argv, message", [
        (["--a-samples"], "expected one argument"),
        (["--a-samples", "-1/2,x"], "usage error: bad a-samples '-1/2,x'"),
        # the flag takes the next word, so the one after it is left over
        (["--a-samples", "--jobs", "1"], "unrecognized arguments: 1"),
    ])
    def test_a_samples_usage_errors_exit_2(self, argv, message):
        proc = _run_cli("verify", "--checks", "thm11-full", "--primes", "7..11", *argv)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["--a-samples="], ["--a-samples=,"], ["--a-samples", ""], ["--a-samples", " , "],
    ])
    def test_empty_a_samples_exit_2(self, argv):
        # no samples would run the parameterized checks with no rows and exit 0,
        # as "--checks ," would run no check
        with pytest.raises(UsageError, match="no a-samples"):
            parse_args(["verify", *argv])
        proc = _run_cli("verify", "--checks", "thm11-full", "--primes", "7..11",
                        "--jobs", "1", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: no a-samples given in ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("text", ["1/3,1/3", "1/3,2/6", "5,-1/2,5.0"])
    def test_repeated_a_samples(self, text):
        # a repeated value would print its rows twice under one (check, p, params)
        with pytest.raises(UsageError, match="repeated"):
            parse_args(["verify", "--a-samples", text])
        proc = _run_cli("verify", "--checks", "thm11-full", "--primes", "7..11",
                        "--jobs", "1", "--a-samples", text)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: repeated value in a-samples")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unknown_field(self):
        with pytest.raises(TypeError):
            RunConfig(nope=1)

    def test_verify_defaults_are_the_records_defaults(self):
        # argparse's defaults and RunConfig's agree on every field not given
        argv = ["verify", "--checks", "eq-1-1", "--primes", "7..11", "--jobs", "1"]
        assert parse_args(argv) == RunConfig(
            check_ids=("eq-1-1",), prime_lo=7, prime_hi=11, jobs=1
        )

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
    def test_run_without_cached_rows_builds_no_keys(self, monkeypatch):
        # row keys are only looked up in a cache that holds rows
        def unused(*args):
            raise AssertionError("row keys built without cached rows")

        monkeypatch.setattr(cli, "row_params", unused)
        code, out = _run(RunConfig(check_ids=("eq-1-1",), prime_lo=7, prime_hi=13, jobs=1))
        assert code == 0
        assert out.count("pass") == 3

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

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"k": {"check": "lem-bridge"}}', "\udcff",
        # one object of complete rows, as the cache was before it held JSONL
        pytest.param(json.dumps({
            f"lem-bridge|{p}||6|minus": {
                "check": "lem-bridge", "p": p, "params": [], "status": "fail",
                "lhs": "stale", "rhs": "stale", "modulus": f"{p}^1", "note": "",
            }
            for p in (7, 11, 13)
        }), id="pre-jsonl-rows"),
    ])
    def test_corrupt_cache_is_io_error(self, tmp_path, text):
        cache = tmp_path / "cache.json"
        cache.write_text(text, encoding="utf-8", errors="surrogateescape")
        before = cache.read_bytes()
        proc = _run_cli(
            "verify", "--checks", "lem-bridge", "--primes", "7..11", "--jobs", "1",
            "--cache", str(cache),
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: corrupt cache file")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert cache.read_bytes() == before

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


class TestCacheFile:
    """The cache file is a header line and the rows --format jsonl prints,
    appended per prime, so a stopped run resumes from it."""

    BASE = dict(check_ids=("eq-1-1", "lem-bridge"), prime_lo=7, prime_hi=19, jobs=1,
                format="jsonl", stats=True)

    @staticmethod
    def _stats(capsys):
        return [line for line in capsys.readouterr().err.splitlines() if line.startswith("#")]

    def test_rows_after_the_header_are_the_jsonl_rows(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        ids = ("eq-1-1", "known-vi", "lem-bridge")
        code, out = _run(RunConfig(check_ids=ids, prime_lo=7, prime_hi=13,
                                   format="jsonl", cache=str(cache)))
        assert code == 0
        header, *rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(header) == {"digits": 6, "stamp": cli._cache_stamp(),
                                      "t_sign": "minus"}
        assert "".join(rows) == out
        # the table prints a cached row's params in catalog order
        table = RunConfig(check_ids=ids, prime_lo=7, prime_hi=13)
        assert _run(table._replace(cache=str(cache))) == _run(table)

    @pytest.mark.parametrize("stop", ["interrupt", "closed-stdout"])
    def test_stopped_sweep_resumes(self, tmp_path, capsys, monkeypatch, stop):
        cache = tmp_path / "cache.jsonl"
        _, want = _run(RunConfig(**self.BASE))
        capsys.readouterr()
        run = RunConfig(**self.BASE, cache=str(cache))
        if stop == "interrupt":
            def stopped(ids, primes, on_prime, **kwargs):
                def after(p, rows):
                    on_prime(p, rows)
                    if p == 11:
                        raise KeyboardInterrupt
                checks.sweep(ids, primes, on_prime=after, **kwargs)

            with monkeypatch.context() as killed, pytest.raises(KeyboardInterrupt):
                killed.setattr(cli, "sweep", stopped)
                main(run, out=io.StringIO())
        else:
            class Closed(io.StringIO):
                def write(self, text):
                    if '"p": 13' in text:
                        raise BrokenPipeError
                    return super().write(text)

            assert main(run, out=Closed()) == 3
        rows = cache.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["p"] for line in rows] == [7, 7, 11, 11]
        capsys.readouterr()
        assert _run(run) == (0, want)
        assert self._stats(capsys) == ["# evaluations: 6", "# cached rows reused: 4"]

    def test_torn_last_line_is_cut_off(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        run = RunConfig(**self.BASE, cache=str(cache))
        _, want = _run(run)
        # a run killed in the middle of the last row, prime 19's second
        text = cache.read_bytes()
        cache.write_bytes(text[:-20])
        capsys.readouterr()
        assert _run(run) == (0, want)
        assert self._stats(capsys) == ["# evaluations: 2", "# cached rows reused: 8"]
        # the recomputed prime's first row was held, and is not appended twice
        assert cache.read_bytes() == text
        assert _run(run) == (0, want)
        assert self._stats(capsys) == ["# evaluations: 0", "# cached rows reused: 10"]

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"k": {"check": "lem-bridge"}}', "\udcff",
        # a malformed complete line is not a torn one
        "HEADER\n{\"check\": \"lem-bridge\"\n{}\n",
        # one complete row of a file from before the header does not make one
        '{"a": {"check": "lem-bridge", "p": 7, "params": [], "status": "pass", "lhs": "",'
        ' "rhs": "", "modulus": "7^1", "note": ""}, "k": {"check": "lem-bridge"}}',
    ])
    def test_corrupt_file_is_left_as_it_is(self, tmp_path, capsys, monkeypatch, text):
        header = json.dumps({"digits": 6, "stamp": cli._cache_stamp(), "t_sign": "minus"})
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(text.replace("HEADER", header).encode("utf-8", "surrogateescape"))
        before = cache.read_bytes()
        monkeypatch.setattr(cli, "sweep", _no_sweep)
        assert _run(RunConfig(**self.BASE, cache=str(cache))) == (3, "")
        assert capsys.readouterr().err.startswith("error: corrupt cache file")
        assert cache.read_bytes() == before


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

    def test_closed_stdout_stops_quietly(self):
        # `verify ... | head -1`: the run stops at the first failed write, says
        # nothing on stderr, exits 3 and leaves no pool process behind.  The
        # whole output is larger than a pipe's buffer, so a write must fail.
        path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "supercong.cli", "verify", "--checks", "eq-1-1",
             "--primes", "7..3000", "--format", "jsonl", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path}, start_new_session=True,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, 9)
                proc.wait()
            proc.stderr.close()
        assert json.loads(first)["p"] == 7
        assert code == 3
        assert err == b""
        # the run had its own process group: no member of it is left
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_traced_run_prints_the_plain_run_bytes(self, tmp_path):
        # perfbench/tracer.py rebinds the kernels, harmonic.mhs, binomial.s_sum
        # and bernoulli.mhs by name and counts kernel work from their
        # positional parameters; its run must still give the plain CLI's rows
        args = ["verify", "--format", "jsonl", "--checks", "all", "--primes", "7..13",
                "--jobs", "1"]
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        traced = subprocess.run(
            [sys.executable, str(tracer), "trace", str(tmp_path / "s.tsv"), *args],
            capture_output=True, env=env,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "supercong.cli", *args], capture_output=True, env=env
        )
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0, plain.stderr
        report = json.loads(traced.stdout)
        assert (report["exit"], report["rows_bad"]) == (0, 0)
        assert report["digest"] == hashlib.sha256(plain.stdout).hexdigest()


# (format, scenario) -> sha256 of stdout, recorded before rows were streamed,
# when every row was printed after the whole sweep
STREAM_DIGESTS = {
    ("jsonl", "no-cache"): "d7237fce408874cfd3cd26f5aee49c3851d2b9e61bc00484bfc2ec17750ec2c5",
    ("jsonl", "full-cache"): "d7237fce408874cfd3cd26f5aee49c3851d2b9e61bc00484bfc2ec17750ec2c5",
    ("jsonl", "partial-cache"): "d7237fce408874cfd3cd26f5aee49c3851d2b9e61bc00484bfc2ec17750ec2c5",
    ("jsonl", "fail-fast"): "4de4ed748943d2280bfb226ee1a7122714e8e532289769e2692652e554628f10",
    ("jsonl", "below-min-prime"): "99e2121540e39ab2622180118202fddbfa201cf34f4d6d45f968f0d70fddae6e",
    ("table", "no-cache"): "c2a506c67c89e4aee27a485478ee7fcc3958c0a98f20b5e46fb80cbfc5399eab",
    ("table", "full-cache"): "c2a506c67c89e4aee27a485478ee7fcc3958c0a98f20b5e46fb80cbfc5399eab",
    ("table", "partial-cache"): "c2a506c67c89e4aee27a485478ee7fcc3958c0a98f20b5e46fb80cbfc5399eab",
    ("table", "fail-fast"): "cc77fd978fe9e6424413eb18849d70ed1c5d3e39abc7ebe2af42f78ebd468a05",
    ("table", "below-min-prime"): "aef6563f78a6277c12ec309f7b47c69e3fa388d19e93ddea6e4f644c010f4480",
}

_STREAM_IDS = ("eq-1-1", "lem-bridge", "thm11-full")


def _stream_scenario(name, fmt, folder):
    """Run one scenario in this process; the prep runs fill its cache first."""
    cache = str(folder / f"{name}-{fmt}.json")
    base = dict(check_ids=_STREAM_IDS, jobs=1, format=fmt)
    preps, run = {
        "no-cache": ([], dict(prime_lo=7, prime_hi=43)),
        "full-cache": ([(7, 43)], dict(prime_lo=7, prime_hi=43, cache=cache)),
        # cached primes below, between and above the computed ones
        "partial-cache": (
            [(7, 11), (23, 29), (41, 43)], dict(prime_lo=7, prime_hi=43, cache=cache)
        ),
        # the first computed prime (11) fails; cached primes lie on both sides
        "fail-fast": (
            [(7, 7), (23, 43)],
            dict(prime_lo=7, prime_hi=43, cache=cache, fail_fast=True,
                 t_sign_diagnostic=True),
        ),
        "below-min-prime": ([], dict(prime_lo=2, prime_hi=13)),
    }[name]
    for lo, hi in preps:
        prep = {**run, "prime_lo": lo, "prime_hi": hi, "fail_fast": False}
        main(RunConfig(**base, **prep), out=io.StringIO())
    return _run(RunConfig(**base, **run))


class TestStreaming:
    @pytest.mark.parametrize("fmt,name", sorted(STREAM_DIGESTS))
    def test_stdout_unchanged(self, tmp_path, fmt, name):
        code, out = _stream_scenario(name, fmt, tmp_path)
        assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DIGESTS[fmt, name]
        assert code == (1 if name == "fail-fast" else 0)

    def test_fail_fast_prints_cached_primes_above_the_stop(self, tmp_path):
        _, out = _stream_scenario("fail-fast", "jsonl", tmp_path)
        primes = [json.loads(line)["p"] for line in out.splitlines()]
        assert sorted(set(primes)) == [7, 11, 23, 29, 31, 37, 41, 43]
        assert primes == sorted(primes)

    def test_table_header_without_rows(self):
        code, out = _run(RunConfig(check_ids=("eq-1-1",), prime_lo=8, prime_hi=10))
        assert code == 0
        assert out.startswith("check ") and out.count("\n") == 1

    def test_first_prime_flushed_before_last_prime_starts(self, monkeypatch):
        events = []

        class Recorder(io.StringIO):
            def write(self, text):
                events.append(("write", text))
                return super().write(text)

            def flush(self):
                events.append(("flush",))
                super().flush()

        run_prime = checks._run_prime

        def recorded(args):
            events.append(("start", args[0]))
            return run_prime(args)

        monkeypatch.setattr(checks, "_run_prime", recorded)
        cfg = RunConfig(check_ids=("eq-1-1", "lem-bridge"), prime_lo=7, prime_hi=19,
                        jobs=1, format="jsonl")
        assert main(cfg, out=Recorder()) == 0
        first_flush = events.index(("flush",))
        rows = [json.loads(e[1]) for e in events[:first_flush] if e[0] == "write"]
        assert [(r["p"], r["check"]) for r in rows] == [(7, "eq-1-1"), (7, "lem-bridge")]
        assert first_flush < events.index(("start", 19))

    def test_rows_of_finished_primes_stay_after_an_error(self, monkeypatch, capsys):
        run_prime = checks._run_prime

        def failing(args):
            if args[0] == 13:
                raise OSError("disk gone")
            return run_prime(args)

        monkeypatch.setattr(checks, "_run_prime", failing)
        code, out = _run(RunConfig(check_ids=("lem-bridge",), prime_lo=7, prime_hi=19,
                                   jobs=1, format="jsonl"))
        assert code == 3
        assert [json.loads(line)["p"] for line in out.splitlines()] == [7, 11]
        assert capsys.readouterr().err == "error: disk gone\n"


class TestStaleCache:
    BASE = dict(check_ids=("lem-bridge",), prime_lo=7, prime_hi=13, stats=True,
                format="jsonl")

    def _rerun(self, cache, capsys):
        capsys.readouterr()
        code, out = _run(RunConfig(**self.BASE, cache=cache))
        return code, out, capsys.readouterr().err.splitlines()

    def test_rows_of_another_version_are_recomputed(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "cache.json")
        with monkeypatch.context() as old:
            old.setattr(cli, "__version__", "0.0.1")
            _, want = _run(RunConfig(**self.BASE, cache=cache))
        code, out, err = self._rerun(cache, capsys)
        assert (code, out) == (0, want)
        assert "# evaluations: 3" in err
        assert [line for line in err if line.startswith(f"cache: ignoring {cache}, ")]
        assert len([line for line in err if not line.startswith("#")]) == 1
        # the rewritten file holds only this version's rows and is reused
        assert "# evaluations: 0" in self._rerun(cache, capsys)[2]

    def test_rows_of_another_catalog_are_recomputed(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "cache.json")
        edited = [
            d._replace(description=d.description + " (old wording)")
            if d.id == "lem-bridge" else d
            for d in registry()
        ]
        with monkeypatch.context() as old:
            old.setattr(cli, "registry", lambda: edited)
            _run(RunConfig(**self.BASE, cache=cache))
        code, _, err = self._rerun(cache, capsys)
        assert code == 0
        assert "# evaluations: 3" in err


class TestRowCounts:
    """The exit code and --stats counts, now that computed rows are counted
    per prime and not kept: all passing rows, one precision_error row, and
    cached rows next to computed ones."""

    BASE = dict(check_ids=("eq-1-1", "lem-bridge"), prime_lo=7, prime_hi=19,
                stats=True, format="jsonl", jobs=1)

    @staticmethod
    def _spoil(monkeypatch, prime):
        """Turn the first row at prime into a precision_error."""
        run_prime = checks._run_prime

        def spoiled(args):
            rows = run_prime(args)
            if args[0] == prime:
                rows[0] = rows[0]._replace(status="precision_error", note="spoiled")
            return rows

        monkeypatch.setattr(checks, "_run_prime", spoiled)

    def _counts(self, capsys, **extra):
        capsys.readouterr()
        code, out = _run(RunConfig(**{**self.BASE, **extra}))
        err = capsys.readouterr().err.splitlines()
        stats = [line for line in err if line.startswith("#")]
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        return code, statuses, stats

    def test_all_pass(self, capsys):
        code, statuses, stats = self._counts(capsys)
        assert (code, statuses) == (0, ["pass"] * 10)
        assert stats == ["# evaluations: 10", "# cached rows reused: 0"]

    def test_precision_error_row(self, capsys, monkeypatch):
        self._spoil(monkeypatch, 13)
        code, statuses, stats = self._counts(capsys)
        assert code == 1
        assert statuses.count("precision_error") == 1 and len(statuses) == 10
        assert stats == ["# evaluations: 10", "# cached rows reused: 0"]

    def test_cached_and_computed_mix(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "cache.json")
        self._counts(capsys, prime_hi=11, cache=cache)
        code, statuses, stats = self._counts(capsys, cache=cache)
        assert (code, statuses) == (0, ["pass"] * 10)
        assert stats == ["# evaluations: 6", "# cached rows reused: 4"]
        # a bad row read from the cache sets the exit code as a computed one does
        bad_cache = str(tmp_path / "bad.json")
        with monkeypatch.context() as spoiled:
            self._spoil(spoiled, 7)
            assert self._counts(capsys, prime_hi=7, cache=bad_cache)[0] == 1
        code, statuses, stats = self._counts(capsys, cache=bad_cache)
        assert code == 1 and statuses.count("precision_error") == 1
        assert stats == ["# evaluations: 8", "# cached rows reused: 2"]
        # and a bad computed row next to cached good ones
        self._spoil(monkeypatch, 17)
        code, statuses, stats = self._counts(capsys, cache=cache)
        assert code == 0 and stats == ["# evaluations: 0", "# cached rows reused: 10"]
        fresh = str(tmp_path / "fresh.json")
        self._counts(capsys, prime_hi=11, cache=fresh)
        code, statuses, stats = self._counts(capsys, cache=fresh)
        assert code == 1 and statuses.count("precision_error") == 1
        assert stats == ["# evaluations: 6", "# cached rows reused: 4"]


def _row_dict(r):
    """The --format jsonl row of r as a dict, built from its fields here, not
    by the writer: params as an object, note only when not empty."""
    row = {"check": r.check, "p": r.prime, "params": dict(s.split("=", 1) for s in r.params),
           "status": r.status, "lhs": r.lhs, "rhs": r.rhs, "modulus": r.modulus}
    if r.note:
        row["note"] = r.note
    return row


class TestJsonlWriter:
    """--format jsonl rows written from a CheckResult's fields have the bytes
    json.dumps(_row_dict(r), sort_keys=True) gives them."""

    ROWS = [
        CheckResult("eq-1-1", 13, (), "pass", "13^1 * 5 mod 13^4", "13^1 * 5 mod 13^4", "13^4"),
        CheckResult("thm11-full", 7, ("a=-1/2",), "fail", "7^0 * 3 mod 7^4", "0", "7^4",
                    "plus-sign t = 5/14 is not p-integral"),
        CheckResult("known-i", 7, ("a=5", "r=1"), "skipped", "", "", "", "requires p > 7"),
        CheckResult("sun-param", 11, ("a=1/3",), "precision_error", "", "", "",
                    "all digits cancelled below p^3; value not provably zero"),
        CheckResult("thm11-half", 13, ("a=-1",), "precision_error", "0 mod 13^3", "0 mod 13^3",
                    "13^4", "verified only mod p^3 of p^4"),
        # three keys, written sorted whatever their order in the row
        CheckResult("known-vi", 11, ("a=1", "b=2", "variant=neg-first"), "pass",
                    "11^0 * 4 mod 11^1", "11^0 * 4 mod 11^1", "11^1"),
        CheckResult("known-vi", 11, ("variant=neg-second", "b=4", "a=1"), "pass", "0", "0",
                    "11^1"),
        # a note that needs escaping, a value holding "=", a repeated key
        CheckResult("x", 7, ("member=H(1,2)", "k=a=b", "member=last"), "fail", "l", "r",
                    "7^1", 'quote " backslash \\ tab \t and \u00e9\u2264\U0001d400'),
        CheckResult("lem26", 5, (), "skipped", "", "", "", "p below min_prime 7"),
    ]

    @staticmethod
    def _want(r):
        return json.dumps(_row_dict(r), sort_keys=True) + "\n"

    @pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r.check}-{r.status}")
    def test_row_bytes(self, row):
        assert cli._jsonl_row(row) == self._want(row)

    def test_every_status_with_and_without_a_note(self):
        kinds = {(r.status, bool(r.note)) for r in self.ROWS}
        assert {status for status, _ in kinds} == {"pass", "fail", "skipped", "precision_error"}
        assert {has_note for _, has_note in kinds} == {True, False}

    def test_write_rows_is_the_rows_in_order(self):
        out = io.StringIO()
        cli._write_rows(self.ROWS, "jsonl", out)
        assert out.getvalue() == "".join(map(self._want, self.ROWS))

    def test_sweep_rows(self):
        # every check at two primes, with plus-sign notes and skipped rows
        rows = checks.sweep([d.id for d in registry()], [7, 13], t_sign="plus")
        assert {r.status for r in rows} >= {"pass", "skipped"}
        assert any("=" in r.note for r in rows)
        for r in rows:
            assert cli._jsonl_row(r) == self._want(r)

    @settings(max_examples=200)
    @given(
        st.text(), st.integers(0, 10**9),
        st.lists(st.tuples(st.text(max_size=2).filter(lambda k: "=" not in k), st.text()),
                 max_size=4),
        st.sampled_from(["pass", "fail", "skipped", "precision_error"]),
        st.text(), st.text(), st.text(), st.text(),
    )
    def test_any_strings(self, check, p, params, status, lhs, rhs, modulus, note):
        r = CheckResult(check, p, tuple(f"{k}={v}" for k, v in params), status,
                        lhs, rhs, modulus, note)
        assert cli._jsonl_row(r) == self._want(r)


class TestRetriedRow:
    def test_row_retried_at_digits_prints_the_full_context_row(self):
        # thm11-full at a = -1, p = 13 runs out of precision mod 13^4; the
        # row printed at --digits 6 is the one a context at 6 digits gives
        a = Fraction(-1)
        ctx = checks.PrimeContext(13, digits=6, a_samples=(a,))
        row = checks._evaluate(ctx, checks._BY_ID["thm11-full"], {"a": a})
        assert row.status == "pass"
        code, out = _run(RunConfig(check_ids=("thm11-full",), prime_lo=13, prime_hi=13,
                                   digits=6, a_samples=(a,), jobs=1, format="jsonl"))
        assert code == 0
        assert out == json.dumps(_row_dict(row), sort_keys=True) + "\n"


class TestSampleEndpoints:
    """Rows whose sums end at <a>_p = 0 (a = 0), rows retried at --digits
    (a = -1) and plus-sign t.  A PrimeContext fixes every endpoint it reads
    when it is built, and a read at any other n raises KeyError; these
    digests were recorded while a context could still add endpoints."""

    ARGV = ["verify", "--format", "jsonl", "--checks", "all", "--primes", "7..60",
            "--a-samples", "1/2,3,-7/5,-1,-3,0,7,49/3", "--jobs", "1"]

    @pytest.mark.parametrize("extra, code, digest", [
        (["--digits", "9"], 0,
         "a7afba17ff41d44909923105b899a8084e10d929ce442504bfdcbce35ab0b0fe"),
        (["--t-sign-diagnostic"], 1,
         "0ae730dba783fa387b9fb0a4e60f875f4153134c8d1a6bd4f3cd466dad5f3ec5"),
    ])
    def test_stdout_pinned(self, extra, code, digest):
        got, out = _run(parse_args(self.ARGV + extra))
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestStdoutPinned:
    """sha256 of stdout and the exit code of whole runs: the seed-0 window of
    each benchmark workload, and the full catalog as a table and as jsonl,
    at --digits 4 with odd samples, and with plus-sign t; the three
    expansions at samples where a t-polynomial vanishes (t = -1, 7/6); and
    the full catalog at the Wieferich and Wolstenholme primes."""

    _ODD = ["--a-samples", "1/2,3,-7/5,-1,-3,0,7,49/3"]
    _TSIGN = ["verify", "--checks", "all", "--primes", "7..200", "--t-sign-diagnostic"]

    @pytest.mark.parametrize("name", ["catalog-small", "catalog-bernoulli", "main-large"])
    def test_benchmark_window(self, name):
        # the seed-0 window of each benchmark workload, against its digest
        workload = _workloads()[name]
        got, out = _run(parse_args(workload.verify_argv(0, jobs=1)))
        assert got == 0
        assert hashlib.sha256(out.encode()).hexdigest() == workload.window(0)[2]

    @pytest.mark.parametrize("argv, code, digest", [
        (["verify", "--checks", "all", "--primes", "2..200", "--jobs", "1"], 0,
         "27cc76bdf1802b9e6326de1f95cee07916b73144ec7ce6149c03984501069e74"),
        (["verify", "--format", "jsonl", "--checks", "all", "--primes", "2..200",
          "--jobs", "2"], 0,
         "2c9c5a0ba497eb952289f93f26d7e846c9f1516a7857da255f668ad7cc700719"),
        (["verify", "--format", "jsonl", "--checks", "all", "--primes", "7..300",
          *_ODD, "--digits", "4", "--jobs", "1"], 1,
         "46aeaf3f2e8e628a057a3c68f3a5e201b683347673084a77b04688bafb103c68"),
        ([*_TSIGN, "--jobs", "1"], 1,
         "517dc544d1280ca9decf88a3f8056c940fd1e5a5741f206725ce8cbcdbd9b4c4"),
        ([*_TSIGN, "--fail-fast", "--jobs", "2"], 1,
         "3d6798b403b2a571e6e770b5b9c29ee796dc5c74bbeb73ede8150d2d8acd27a1"),
        (["verify", "--checks", "thm11-full,thm11-half,lem24-half", "--primes", "7..60",
          "--a-samples", "49/6,-2,-11", "--digits", "7", "--jobs", "1"], 0,
         "07b10e60c92614c65a570bb5de3072c7ab1199da4389bd740f76ad1a9b083ecc"),
    ])
    def test_run(self, argv, code, digest):
        got, out = _run(parse_args(argv))
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p, digest", [
        # Wieferich primes: q_2 = 0 mod p
        (1093, "d21bc75db8ea8b801644d9bfc293367252a365a573e866b329e87a12d29a0b26"),
        (3511, "8cdeb8cf3acc873553c6f5f05f508028385c325b2470f2327b7ee5da35ba8158"),
        # the first Wolstenholme prime: p | B_{p-3}, H_{p-1} = 0 mod p^3
        (16843, "7855259e5c5993e367427952f74eff2ffe1f8f591f8da59eb52f35bd6c8a45dd"),
    ])
    def test_exceptional_prime(self, p, digest):
        # the full catalog at one prime where a constant vanishes mod p
        argv = ["verify", "--format", "jsonl", "--checks", "all", "--primes", f"{p}..{p}",
                "--jobs", "1"]
        got, out = _run(parse_args(argv))
        assert got == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_SAMPLE_ROWS = "a=-1/2 a=1/3 a=-1/3 a=2/5 a=-2/3 a=5 a=1/4"
_AB_ROWS = "a=1;b=2 a=1;b=4 a=2;b=1 a=2;b=3 a=3;b=2 a=4;b=1"


class TestCatalogPinned:
    """The catalog's bytes: a moved id, order, exponent, description or
    parameter row fails here, and so does any change to the cache stamp."""

    # sha256 of `supercong list-checks` stdout
    LIST_CHECKS_SHA256 = "6c74de44087007cf689b6e23165884d8e2e40e384c23135f2422a4e5c06b6b53"
    CACHE_STAMP = "0.1.0+ab83d7891a64ca45"
    # row_params(id, 13, DEFAULT_A_SAMPLES) per check, in catalog order: rows
    # apart by one space, the "name=value" strings of a row by ";"
    ROWS_AT_13 = [
        ("known-i", "a=1;r=1 a=1;r=2 a=1;r=3 a=1;r=4 a=1;r=5 a=1;r=6 a=2;r=1 "
                    "a=2;r=2 a=2;r=3 a=3;r=1 a=3;r=2 a=4;r=1 a=5;r=1 a=6;r=1"),
        ("known-ii", "a=1 a=2 a=3 a=4 a=5"),
        ("known-iii", _AB_ROWS),
        ("known-iv", _AB_ROWS),
        ("known-v", "a=2 a=3 a=4 a=5"),
        ("known-vi", " ".join(
            f"{ab};variant={v}" for ab in _AB_ROWS.split() for v in ("neg-first", "neg-second")
        )),
        ("known-vii-zero", "member=H(-4) member=H(2,2) member=H(1,3)"),
        ("known-vii-2m1", ""),
        ("known-vii-cluster", "member=H(1,2) member=H(2,1) member=H(-3) member=H(1,-2)"),
        ("known-viii-a", "member=harmonic-number member=full-range member=half-range"),
        ("known-viii-b", ""),
        ("tauraso-6k", ""),
        ("sun-6k-tail", ""),
        ("tauraso-param", _SAMPLE_ROWS),
        ("sun-param", _SAMPLE_ROWS),
        ("thm11-full", _SAMPLE_ROWS),
        ("thm11-half", _SAMPLE_ROWS),
        ("eq-1-0", ""),
        ("eq-1-1", ""),
        ("lem23-full", _SAMPLE_ROWS),
        ("lem23-half", _SAMPLE_ROWS),
        ("lem24-full", _SAMPLE_ROWS),
        ("lem24-half", _SAMPLE_ROWS),
        ("lem25-ds1", ""),
        ("lem25-ds2", ""),
        ("lem25-ds3", ""),
        ("lem-bridge", ""),
        ("lem26", ""),
        ("lem31", ""),
        ("thm12", ""),
        ("proofstep-u1", ""),
        ("proofstep-u2", ""),
        ("proofstep-u3", ""),
        ("proofstep-h2k", ""),
        ("proofstep-1221", ""),
    ]

    def test_list_checks_stdout(self):
        proc = _run_cli("list-checks")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.LIST_CHECKS_SHA256

    def test_cache_stamp(self):
        assert cli._cache_stamp() == self.CACHE_STAMP

    def test_row_params_at_13(self):
        got = [
            (d.id, checks.row_params(d.id, 13, checks.DEFAULT_A_SAMPLES))
            for d in registry()
        ]
        # "" is the one row of a check without params
        want = [
            (check_id, [tuple(filter(None, row.split(";"))) for row in rows.split(" ")])
            for check_id, rows in self.ROWS_AT_13
        ]
        assert got == want
        assert sum(len(rows) for _, rows in got) == 131
