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
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .checks import DEFAULT_A_SAMPLES, CheckResult, registry, row_params, sweep
from .errors import SupercongError, UnknownCheck
from .primes import primes_in_range

__all__ = ["RunConfig", "parse_args", "main", "main_entry"]


@dataclass
class RunConfig:
    command: str = "verify"
    check_ids: tuple[str, ...] = ()
    prime_lo: int = 7
    prime_hi: int = 500
    digits: int = 6
    a_samples: tuple[Fraction, ...] = DEFAULT_A_SAMPLES
    jobs: int = 1
    format: str = "table"
    cache: str | None = None
    fail_fast: bool = False
    t_sign_diagnostic: bool = False
    stats: bool = False
    n_max: int = 200


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
        return tuple(Fraction(s.strip()) for s in text.split(",") if s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad a-samples {text!r}") from exc


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
    cfg = RunConfig(command=ns.command or "verify")
    if cfg.command == "verify":
        cfg.check_ids = _parse_checks(ns.checks)
        cfg.prime_lo, cfg.prime_hi = _parse_primes(ns.primes)
        cfg.digits = ns.digits
        if ns.a_samples is not None:
            cfg.a_samples = _parse_samples(ns.a_samples)
        cfg.jobs = ns.jobs
        cfg.format = ns.format
        cfg.cache = ns.cache
        cfg.fail_fast = ns.fail_fast
        cfg.t_sign_diagnostic = ns.t_sign_diagnostic
        cfg.stats = ns.stats
        if cfg.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        # more workers than CPUs only add processes; rows do not depend on --jobs
        cfg.jobs = min(cfg.jobs, os.cpu_count() or 1)
        need = max(d.modulus_exponent for d in registry() if d.id in cfg.check_ids)
        if cfg.digits < max(4, need):
            raise UsageError(
                f"--digits {cfg.digits} too small for checks needing p^{need}"
            )
    elif cfg.command == "identities":
        cfg.n_max = ns.n_max
        if cfg.n_max < 1:
            raise UsageError("--n-max must be >= 1")
    return cfg


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


def _emit(results: list[CheckResult], fmt: str, out) -> None:
    if fmt == "jsonl":
        for r in results:
            out.write(json.dumps(_row_dict(r), sort_keys=True) + "\n")
        return
    widths = (16, 6, 24, 15)
    header = ("check", "p", "params", "status")
    out.write(
        "  ".join(h.ljust(w) for h, w in zip(header, widths)) + "lhs / rhs\n"
    )
    for r in results:
        params = ",".join(r.params)
        body = f"{r.lhs} / {r.rhs}" if r.lhs else ""
        if r.note:
            body = f"{body}  [{r.note}]" if body else f"[{r.note}]"
        cells = (r.check, str(r.prime), params, r.status)
        out.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + body + "\n")


def _triple_key(check: str, p: int, params: tuple[str, ...], digits: int, t_sign: str) -> str:
    return "|".join([check, str(p), ",".join(params), str(digits), t_sign])


def _load_cache(path: str) -> dict[str, CheckResult]:
    """Cached rows by key; a file that does not parse is an I/O error.

    A missing directory is one too, found here so that no sweep runs whose
    rows could not be saved.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise OSError(f"cache directory {folder} does not exist")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            return {key: _result_from_cached(d) for key, d in json.load(fh).items()}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise OSError(f"corrupt cache file {path}: {exc!r}") from exc


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
    cache = _load_cache(cfg.cache) if cfg.cache else {}

    cached_results: list[CheckResult] = []
    wanted: list[int] = []
    # a prime can be served fully from cache only if every expected row is there
    for p in primes:
        keys = [
            _triple_key(check_id, p, params, cfg.digits, t_sign)
            for check_id in cfg.check_ids
            for params in row_params(check_id, p, cfg.a_samples)
        ]
        if cache and all(key in cache for key in keys):
            cached_results.extend(cache[key] for key in keys)
        else:
            wanted.append(p)

    computed = sweep(
        cfg.check_ids, wanted, jobs=cfg.jobs, digits=cfg.digits,
        a_samples=cfg.a_samples, t_sign=t_sign, fail_fast=cfg.fail_fast,
    )

    if cfg.cache:
        for r in computed:
            cache[_triple_key(r.check, r.prime, r.params, cfg.digits, t_sign)] = r
        tmp = cfg.cache + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {key: _cached_dict(r) for key, r in cache.items()}, fh, sort_keys=True
            )
        os.replace(tmp, cfg.cache)

    results = cached_results + computed
    results.sort(key=lambda r: (r.prime, r.check, r.params))
    _emit(results, cfg.format, out)
    if cfg.stats:
        # stderr, so that stdout stays nothing but rows
        print(f"# evaluations: {len(computed)}", file=sys.stderr)
        print(f"# cached rows reused: {len(cached_results)}", file=sys.stderr)
    bad = sum(r.status in ("fail", "precision_error") for r in results)
    return 1 if bad else 0


def _run_identities(cfg: RunConfig, out) -> int:
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownCheck, SupercongError) as exc:
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
