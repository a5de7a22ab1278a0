"""Command-line front end.

Subcommands:
  verify       sweep congruence checks over a prime range (default)
  identities   exact-rational combinatorial identity checks
  list-checks  print the check catalog

Exit codes: 0 all pass/skipped, 1 any fail or precision error,
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque, namedtuple
from fractions import Fraction

from . import __version__
from .checks import DEFAULT_A_SAMPLES, CheckResult, registry, row_params, sweep
from .errors import SupercongError
from .primes import primes_in_range

__all__ = ["RunConfig", "parse_args", "main", "main_entry"]


# the settings of one run; RunConfig(**fields) sets the named fields, the
# others keep these defaults, and an unknown field raises TypeError
RunConfig = namedtuple(
    "RunConfig",
    "command check_ids prime_lo prime_hi digits a_samples jobs format cache"
    " fail_fast t_sign_diagnostic stats n_max",
    defaults=(
        "verify", (), 7, 500, 6, DEFAULT_A_SAMPLES, 1, "table", None,
        False, False, False, 200,
    ),
)


class UsageError(Exception):
    pass


def _parse_primes(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad prime range {text!r}") from exc
    if lo > hi:
        raise UsageError(f"bad prime range {text!r}: lo > hi")
    return lo, hi


def _parse_checks(text: str) -> tuple[str, ...]:
    known = {d.id for d in registry()}
    if text == "all":
        return tuple(d.id for d in registry())
    ids = tuple(s.strip() for s in text.split(",") if s.strip())
    for check_id in ids:
        if check_id not in known:
            raise UsageError(f"unknown check {check_id!r}")
    if not ids:
        raise UsageError("no checks selected")
    return ids


def _parse_samples(text: str) -> tuple[Fraction, ...]:
    try:
        samples = tuple(Fraction(s.strip()) for s in text.split(",") if s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad a-samples {text!r}") from exc
    if len(set(samples)) < len(samples):
        # a repeated value would print its rows twice under one key
        raise UsageError(f"repeated value in a-samples {text!r}")
    return samples


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="verify p-adic congruences for central binomial sums",
    )
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="sweep checks over a prime range")
    verify.add_argument("--checks", default="all")
    verify.add_argument("--primes", default="7..500", metavar="LO..HI")
    verify.add_argument("--digits", type=int, default=6)
    verify.add_argument("--a-samples", default=None)
    verify.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    verify.add_argument("--format", choices=("table", "jsonl"), default="table")
    verify.add_argument("--cache", default=None, metavar="PATH")
    verify.add_argument("--fail-fast", action="store_true")
    verify.add_argument("--t-sign-diagnostic", action="store_true")
    verify.add_argument("--stats", action="store_true")

    identities = sub.add_parser("identities", help="exact identity checks")
    identities.add_argument("--n-max", type=int, default=200)

    sub.add_parser("list-checks", help="print the check catalog")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv into a validated RunConfig; raises UsageError."""
    argv = list(argv)
    if argv and argv[0] not in ("verify", "identities", "list-checks") and not argv[
        0
    ].startswith("-"):
        raise UsageError(f"unknown subcommand {argv[0]!r}")
    if not argv or argv[0].startswith("-"):
        argv = ["verify"] + argv
    ns = _build_parser().parse_args(argv)
    if ns.command == "identities":
        if ns.n_max < 1:
            raise UsageError("--n-max must be >= 1")
        return RunConfig(command="identities", n_max=ns.n_max)
    if ns.command == "list-checks":
        return RunConfig(command="list-checks")
    check_ids = _parse_checks(ns.checks)
    prime_lo, prime_hi = _parse_primes(ns.primes)
    a_samples = DEFAULT_A_SAMPLES
    if ns.a_samples is not None:
        a_samples = _parse_samples(ns.a_samples)
    if ns.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    need = max(d.modulus_exponent for d in registry() if d.id in check_ids)
    if ns.digits < max(4, need):
        raise UsageError(f"--digits {ns.digits} too small for checks needing p^{need}")
    return RunConfig(
        check_ids=check_ids, prime_lo=prime_lo, prime_hi=prime_hi,
        digits=ns.digits, a_samples=a_samples,
        # more workers than CPUs only add processes; rows do not depend on --jobs
        jobs=min(ns.jobs, os.cpu_count() or 1),
        format=ns.format, cache=ns.cache, fail_fast=ns.fail_fast,
        t_sign_diagnostic=ns.t_sign_diagnostic, stats=ns.stats,
    )


# ---------------------------------------------------------------------------


def _row_dict(r: CheckResult) -> dict:
    params = dict(s.split("=", 1) for s in r.params)
    row = {
        "check": r.check,
        "p": r.prime,
        "params": params,
        "status": r.status,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "modulus": r.modulus,
    }
    if r.note:
        row["note"] = r.note
    return row


_WIDTHS = (16, 6, 24, 15)
_HEADER = ("check", "p", "params", "status")


def _write_header(fmt: str, out) -> None:
    if fmt == "table":
        out.write(
            "  ".join(h.ljust(w) for h, w in zip(_HEADER, _WIDTHS)) + "lhs / rhs\n"
        )


def _write_rows(rows: list[CheckResult], fmt: str, out) -> None:
    if fmt == "jsonl":
        for r in rows:
            out.write(json.dumps(_row_dict(r), sort_keys=True) + "\n")
        return
    for r in rows:
        params = ",".join(r.params)
        body = f"{r.lhs} / {r.rhs}" if r.lhs else ""
        if r.note:
            body = f"{body}  [{r.note}]" if body else f"[{r.note}]"
        cells = (r.check, str(r.prime), params, r.status)
        out.write("  ".join(c.ljust(w) for c, w in zip(cells, _WIDTHS)) + body + "\n")


def _cache_stamp() -> str:
    """The package version and a fingerprint of the catalog (ids, exponents
    and descriptions); rows cached under another stamp are not reused."""
    import hashlib  # only --cache runs need it

    catalog = "\n".join(
        f"{d.id}|{d.modulus_exponent}|{d.description}" for d in registry()
    )
    return f"{__version__}+{hashlib.sha256(catalog.encode()).hexdigest()[:16]}"


def _load_cache(path: str, stamp: str) -> dict[str, CheckResult]:
    """Cached rows by key; a file that does not parse is an I/O error.

    Rows keyed under another stamp, which includes every row of a file
    written before keys held one, are dropped with one line on stderr.
    A missing directory is an I/O error too, found here so that no sweep
    runs whose rows could not be saved.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise OSError(f"cache directory {folder} does not exist")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            rows = {key: _result_from_cached(d) for key, d in json.load(fh).items()}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise OSError(f"corrupt cache file {path}: {exc!r}") from exc
    fresh = {key: r for key, r in rows.items() if key.startswith(stamp + "|")}
    if len(fresh) < len(rows):
        print(
            f"cache: ignoring {len(rows) - len(fresh)} rows of {path} written by "
            f"another version or catalog (this one is {stamp})",
            file=sys.stderr,
        )
    return fresh


def _result_from_cached(d: dict) -> CheckResult:
    return CheckResult(
        d["check"], d["p"], tuple(d["params"]), d["status"],
        d["lhs"], d["rhs"], d["modulus"], d.get("note", ""),
    )


def _cached_dict(r: CheckResult) -> dict:
    """The on-disk cache row: params as a list, note always present."""
    return {**_row_dict(r), "params": list(r.params), "note": r.note}


def _run_verify(cfg: RunConfig, out) -> int:
    t_sign = "plus" if cfg.t_sign_diagnostic else "minus"
    primes = primes_in_range(cfg.prime_lo, cfg.prime_hi)
    stamp = _cache_stamp() if cfg.cache else ""
    cache = _load_cache(cfg.cache, stamp) if cfg.cache else {}

    def key(check_id: str, p: int, params: tuple[str, ...]) -> str:
        fields = [stamp, check_id, str(p), ",".join(params), str(cfg.digits), t_sign]
        return "|".join(fields)

    cached: dict[int, list[CheckResult]] = {}
    # a prime can be served fully from cache only if every expected row is
    # there; without cached rows no key is built
    for p in primes if cache else ():
        keys = [
            key(check_id, p, params)
            for check_id in cfg.check_ids
            for params in row_params(check_id, p, cfg.a_samples)
        ]
        if all(k in cache for k in keys):
            rows = [cache[k] for k in keys]
            cached[p] = sorted(rows, key=lambda r: (r.check, r.params))
    wanted = [p for p in primes if p not in cached]

    # rows go out in ascending prime order: a computed prime's rows are
    # printed, after the cached primes below it, as soon as the sweep has it;
    # they are then only counted, and kept only in the cache to be written
    waiting = deque(cached)
    computed = bad = 0

    def on_prime(p: int, rows: list[CheckResult]) -> None:
        nonlocal computed, bad
        while waiting and waiting[0] < p:
            _write_rows(cached[waiting.popleft()], cfg.format, out)
        _write_rows(rows, cfg.format, out)
        out.flush()
        computed += len(rows)
        bad += sum(r.status in ("fail", "precision_error") for r in rows)
        if cfg.cache:
            for r in rows:
                cache[key(r.check, r.prime, r.params)] = r

    _write_header(cfg.format, out)
    sweep(
        cfg.check_ids, wanted, jobs=cfg.jobs, digits=cfg.digits,
        a_samples=cfg.a_samples, t_sign=t_sign, fail_fast=cfg.fail_fast,
        on_prime=on_prime,
    )
    for p in waiting:
        _write_rows(cached[p], cfg.format, out)
    out.flush()

    if cfg.cache:
        tmp = cfg.cache + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {k: _cached_dict(r) for k, r in cache.items()}, fh, sort_keys=True
            )
        os.replace(tmp, cfg.cache)

    if cfg.stats:
        # stderr, so that stdout stays nothing but rows
        print(f"# evaluations: {computed}", file=sys.stderr)
        print(
            f"# cached rows reused: {sum(map(len, cached.values()))}", file=sys.stderr
        )
    bad += sum(
        r.status in ("fail", "precision_error")
        for rows in cached.values()
        for r in rows
    )
    return 1 if bad else 0


def _run_identities(cfg: RunConfig, out) -> int:
    from . import oracle  # only this subcommand needs the exact oracle

    reports = []
    for n in range(1, cfg.n_max + 1):
        reports.append(oracle.sigma_identity("plain", n))
        reports.append(oracle.sigma_identity("weighted", n))
        reports.append(oracle.structural_identity("shuffle11", n))
        reports.append(oracle.structural_identity("shuffle22", n))
        reports.append(oracle.structural_identity("telescope", n, Fraction(3, 5)))
    failures = [r for r in reports if not r.equal]
    out.write(f"identities checked: {len(reports)} (n <= {cfg.n_max})\n")
    for r in failures:
        out.write(f"MISMATCH {r.identity} n={r.n}: {r.lhs} != {r.rhs}\n")
    out.write("all identities hold exactly\n" if not failures else "")
    return 1 if failures else 0


def _run_list_checks(out) -> int:
    for d in registry():
        out.write(f"{d.id:18} mod p^{d.modulus_exponent}  {d.description}\n")
    return 0


def main(config: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        if config.command == "identities":
            return _run_identities(config, out)
        if config.command == "list-checks":
            return _run_list_checks(out)
        return _run_verify(config, out)
    except BrokenPipeError:
        # the reader of stdout has gone (say, `| head`): the exception stopped
        # the sweep and its pool at the first failed write; stop without a word
        if out is sys.stdout:
            # the interpreter flushes stdout at exit, and would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SupercongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> int:
    try:
        config = parse_args(sys.argv[1:])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return main(config)


if __name__ == "__main__":
    sys.exit(main_entry())
