"""Traced and probe runs of `supercong verify`, one mode per child process.

    python3 perfbench/tracer.py trace SPANS_OUT VERIFY_ARGS...
    python3 perfbench/tracer.py serial VERIFY_ARGS...
    python3 perfbench/tracer.py pool VERIFY_ARGS...

`trace` wraps the public functions of every layer (kernels, bernoulli,
harmonic, binomial, padic, checks, cli) from outside the package, runs
`cli.main` once, writes its spans (name, start, end, parent) to SPANS_OUT
and prints per-name aggregates and work counters as one JSON object.  When
the compiled extension can be imported, every kernel call is then replayed
on it (moduli below its limit only, as the dispatcher would) and must give
the same result; its seconds are reported per kernel.  `serial` times
`sweep(ids, [p], jobs=1)` for each prime of the window and `pool` times one
`sweep(ids, primes, jobs)`; they are untraced and give the pool metrics.  src/ must be on PYTHONPATH.  run.py starts these processes
and turns their output into the per-layer metrics (`layer_metrics`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import io
import json
import pickle
import statistics
import sys
import time
from array import array
from collections import Counter

KERNEL_FNS = (
    "bernoulli_scaled",
    "inverse_table",
    "mhs_sum",
    "weighted_sum",
    "s_sum",
    "central_sum",
    "geom_power_sum",
)
BERNOULLI_FNS = ("bernoulli", "x_constant", "fermat_quotient")
PADIC_METHODS = (
    "__init__", "zero", "from_rational", "from_int_exact", "__neg__", "__add__",
    "__sub__", "__mul__", "invert", "shift", "scale", "__pow__", "lift",
)
CONSTANTS = ("x", "b_pm3", "q2")
# Never called on main-large, where their time is exactly 0 on every run; a
# share of the root span reports them without a constant time.  Their
# seconds stay in the run's report under .perfbench/.
SHARE_ONLY = ("kernels.bernoulli_scaled", "bernoulli.bernoulli")


class Tracer:
    """Spans kept in flat arrays in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """Return fn recording one span per call; count(*args) runs first."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, self seconds, total seconds]; self = own minus children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        agg = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = agg[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += dur[i] - child[i]
            row[2] += dur[i]
        return agg

    def durations(self, name: str) -> list[float]:
        nid = self.names.index(name)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_of[i] == nid
        ]

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def _work_counters(tracer: Tracer, inv_keys: set) -> dict:
    """Count hooks computing each kernel's work from its arguments."""
    c = tracer.counters

    def bernoulli_scaled(nmax, p, m):
        c["kernels.bernoulli_scaled.cells"] += (nmax + 1) * (nmax + 2) // 2

    def inverse_table(n, p, m):
        inv_keys.add((n, p, m))

    def mhs_sum(exps, n, p, m, inv):
        c["kernels.mhs_sum.steps"] += n * len(exps)

    def weighted_sum(aexp, signed, cnum, factors, n, p, m, inv):
        c["kernels.weighted_sum.steps"] += n * (1 + len(factors))

    def s_sum(a_mod, n, p, m, inv):
        c["kernels.s_sum.steps"] += n

    return {
        "bernoulli_scaled": bernoulli_scaled,
        "inverse_table": inverse_table,
        "mhs_sum": mhs_sum,
        "weighted_sum": weighted_sum,
        "s_sum": s_sum,
    }


def _compiled_kernels():
    try:
        return importlib.import_module("supercong.kernels._ckernels")
    except ImportError:
        return None


def _recording(fn, log: list):
    @functools.wraps(fn)
    def rec(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((args, kwargs, out))
        return out

    return rec


def install(tracer: Tracer, inv_keys: set, kernel_log: dict | None = None) -> list[str]:
    """Wrap every layer's public functions at every site that binds them.

    `checks` imports mhs, s_sum, bernoulli, ... by name and `cli` imports
    sweep, so each module-level name holding a wrapped function is rebound,
    not only the defining one.  Returns the rebound sites as "module.name".
    With kernel_log, each kernel call's arguments and result are appended
    to kernel_log[fn] for the compiled replay.
    """
    from supercong import bernoulli, binomial, checks, cli, harmonic, kernels, padic

    counts = _work_counters(tracer, inv_keys)
    wrapped: dict[int, tuple] = {}

    def add(name: str, owner, attr: str, count=None) -> None:
        orig = getattr(owner, attr)
        fn = orig
        if kernel_log is not None and owner is kernels:
            fn = _recording(orig, kernel_log.setdefault(attr, []))
        wrapped[id(orig)] = (orig, tracer.wrap(name, fn, count))

    for f in KERNEL_FNS:
        add(f"kernels.{f}", kernels, f, counts.get(f))
    for f in BERNOULLI_FNS:
        add(f"bernoulli.{f}", bernoulli, f)
    add("harmonic.mhs", harmonic, "mhs")
    add("binomial.s_sum", binomial, "s_sum")
    add("binomial.reduce_point", binomial, "reduce_point")
    add("padic.congruent_mod", padic, "congruent_mod")
    add("checks.sweep", checks, "sweep")
    add("checks.prime", checks, "_run_prime")
    add("checks.evaluate", checks, "_evaluate")
    add("checks.lem23_scan", checks, "_lem23_scan")
    add("cli.main", cli, "main")

    sites = []
    for modname, mod in list(sys.modules.items()):
        if modname != "supercong" and not modname.startswith("supercong."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                sites.append(f"{modname}.{attr}")

    for attr in PADIC_METHODS:
        raw = padic.PAdic.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(f"padic.{attr}", raw.__func__))
        else:
            new = tracer.wrap(f"padic.{attr}", raw)
        setattr(padic.PAdic, attr, new)
        sites.append(f"supercong.padic.PAdic.{attr}")
    for attr in CONSTANTS:
        orig = getattr(checks.PrimeContext, attr)
        setattr(checks.PrimeContext, attr, tracer.wrap(f"checks.const.{attr}", orig))
        sites.append(f"supercong.checks.PrimeContext.{attr}")
    return sites


def replay_compiled(ck, kernel_log: dict) -> dict[str, float]:
    """Re-run each logged kernel call on the compiled backend.

    Calls whose modulus is at or above the extension's limit are skipped,
    as the dispatcher would; every other result must equal the Python one.
    Returns seconds per kernel.
    """
    from supercong import kernels

    limit = 1 << ck.MAX_MODULUS_BITS
    seconds = {}
    for fn, calls in kernel_log.items():
        params = list(inspect.signature(getattr(kernels, fn)).parameters)
        cfn = getattr(ck, fn)
        total = 0.0
        for args, kwargs, expected in calls:
            bound = dict(zip(params, args), **kwargs)
            if bound["m"] >= limit:
                continue
            for seq in ("exps", "factors"):
                if seq in bound:
                    bound[seq] = tuple(bound[seq])
            call = [bound[name] for name in params]
            t0 = time.perf_counter()
            got = cfn(*call)
            total += time.perf_counter() - t0
            if got != expected:
                raise AssertionError(f"backend mismatch in {fn} at p={bound['p']}")
        seconds[fn] = total
    return seconds


def _run_trace(spans_out: str, verify_argv: list[str]) -> dict:
    from supercong import cli

    config = cli.parse_args(verify_argv)
    ck = _compiled_kernels()
    kernel_log: dict | None = {} if ck is not None else None
    tracer = Tracer()
    inv_keys: set = set()
    sites = install(tracer, inv_keys, kernel_log)
    buf = io.StringIO()
    code = cli.main(config, buf)
    out = buf.getvalue().encode()
    agg = tracer.aggregate()
    statuses = [json.loads(line)["status"] for line in out.splitlines()]
    tracer.write(spans_out)
    spans = range(len(tracer.start))
    return {
        "exit": code,
        "digest": hashlib.sha256(out).hexdigest(),
        "rows_bad": sum(s not in ("pass", "skipped") for s in statuses),
        "out_bytes": len(out),
        "spans": len(spans),
        "roots": [tracer.names[tracer.name_of[i]] for i in spans if tracer.parent[i] < 0],
        "sites": sites,
        "names": agg,
        "prime_s": tracer.durations("checks.prime"),
        "counters": dict(tracer.counters),
        "inverse_distinct": len(inv_keys),
        "c_seconds": replay_compiled(ck, kernel_log) if ck is not None else None,
    }


def _sweep_args(verify_argv: list[str]):
    from supercong import cli
    from supercong.primes import primes_in_range

    config = cli.parse_args(verify_argv)
    kwargs = {"digits": config.digits, "a_samples": config.a_samples}
    return config, primes_in_range(config.prime_lo, config.prime_hi), kwargs


def _run_serial(verify_argv: list[str]) -> dict:
    from supercong.checks import sweep

    config, primes, kwargs = _sweep_args(verify_argv)
    prime_s, chunks = [], []
    for p in primes:
        t0 = time.perf_counter()
        chunks.append(sweep(config.check_ids, [p], jobs=1, **kwargs))
        prime_s.append(time.perf_counter() - t0)
    # what pool workers send back: one pickled list of rows per prime
    return {"prime_s": prime_s, "result_bytes": sum(len(pickle.dumps(c)) for c in chunks)}


def _run_pool(verify_argv: list[str]) -> dict:
    from supercong.checks import sweep

    config, primes, kwargs = _sweep_args(verify_argv)
    t0 = time.perf_counter()
    sweep(config.check_ids, primes, jobs=config.jobs, **kwargs)
    return {"wall": time.perf_counter() - t0, "jobs": config.jobs}


def _get(names: dict, name: str) -> list:
    return names.get(name, [0, 0.0, 0.0])


def layer_metrics(trace: dict, serial: dict, pool: dict, trace_overhead_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from the three probe outputs."""
    names = trace["names"]
    counters = trace["counters"]
    root_s = _get(names, "cli.main")[2]
    m: dict[str, tuple] = {}

    def timed(name: str) -> None:
        calls, self_s, _ = _get(names, name)
        if name in SHARE_ONLY:
            m[f"{name}.self_share"] = (100.0 * self_s / root_s, "%")
        else:
            m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.calls"] = (calls, "count")

    for f in KERNEL_FNS:
        timed(f"kernels.{f}")
    m["kernels.bernoulli_scaled.cells"] = (counters.get("kernels.bernoulli_scaled.cells", 0), "count")
    for f in ("mhs_sum", "weighted_sum", "s_sum"):
        m[f"kernels.{f}.steps"] = (counters.get(f"kernels.{f}.steps", 0), "count")
    inv_calls = _get(names, "kernels.inverse_table")[0]
    m["kernels.inverse_table.distinct_ratio"] = (
        trace["inverse_distinct"] / inv_calls if inv_calls else 0.0, "ratio"
    )
    for f in BERNOULLI_FNS:
        timed(f"bernoulli.{f}")
    primes = len(trace["prime_s"])
    m["bernoulli.tables_per_prime"] = (
        _get(names, "kernels.bernoulli_scaled")[0] / primes, "1/prime"
    )
    timed("harmonic.mhs")
    timed("binomial.s_sum")
    m["binomial.reduce_point.calls"] = (_get(names, "binomial.reduce_point")[0], "count")
    padic = [v for k, v in names.items() if k.startswith("padic.")]
    m["padic.calls"] = (sum(v[0] for v in padic), "count")
    m["padic.self_s"] = (sum(v[1] for v in padic), "s")
    m["checks.prime_s"] = (statistics.median(trace["prime_s"]), "s")
    m["checks.self_s"] = (
        sum(v[1] for k, v in names.items() if k.startswith("checks.")), "s"
    )
    for c in CONSTANTS:
        m[f"checks.const.{c}_s"] = (_get(names, f"checks.const.{c}")[2], "s")
    busy = sum(serial["prime_s"])
    capacity = pool["jobs"] * pool["wall"]
    m["checks.pool.efficiency"] = (busy / capacity, "ratio")
    m["checks.pool.idle_s"] = (capacity - busy, "s")
    m["checks.pool.result_bytes"] = (serial["result_bytes"], "B")
    m["cli.self_s"] = (_get(names, "cli.main")[1], "s")
    m["cli.out_bytes"] = (trace["out_bytes"], "B")
    m["trace.overhead_s"] = (trace_overhead_s, "s")
    return m


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        result = _run_trace(argv[1], argv[2:])
    elif mode == "serial":
        result = _run_serial(argv[1:])
    elif mode == "pool":
        result = _run_pool(argv[1:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
