"""Pure-Python kernels.

Every function here computes *exactly* modulo ``m = p**e``: all summation
indices in the supported ranges are coprime to p, so the only divisions are
by units and no precision is lost.  An inverse table's entries need only be
congruent to 1/k mod m, so a table built mod a higher power of p serves
every smaller m unchanged.

mhs_sum and weighted_sum run as chains of C-level iterators (islice, map,
accumulate) over the caller's inverse table: their terms are products of
table entries, and only a geometric factor c^k is reduced per k.
weighted_sum raises a prefix to a power other than 1 as pow(x, power, m).
mhs_sum, weighted_sum and geom_power_sum read inv[k]**r mod m by one path:
r = 1 reads the table itself, so the cache never copies it, and any other
r >= 0 reads a power list built once per (table, m, r).  A one-slot cache
holds the last table by reference (compared with ``is``), its modulus and
one reduced list per exponent, and a call with another table or modulus
empties it.  A negative r raises ValueError.  s_sum, central_sum and
geom_power_sum carry a product (a binomial, or c^k) that is reduced mod m
at every k: each is one plain ``for k`` loop, since building the step ratio
in map stages costs more than the loop itself.  mhs_sum, weighted_sum,
s_sum and central_sum return the list of their prefix sums at k = 0..n from
one pass, so a caller that needs a sum at several endpoints reads them all
from one call.  Those entries are congruent mod m but not reduced: reducing
every entry would cost most of the pass, so callers reduce only the entries
they read.  inverse_table, bernoulli_scaled and geom_power_sum return
values in [0, m).
"""

from __future__ import annotations

from itertools import accumulate, cycle, islice, repeat
from operator import add, mul

def inverse_table(n: int, p: int, m: int) -> list[int]:
    """inv[k] = 1/k mod m for k = 1..n (index 0 unused); m a power of p, n < p.

    One pass, one modular product per k: m = (m // k) * k + r gives
    1/k = -(m // k) / r mod m, with r = m mod k < k already in the table.
    r is a unit only because m is a power of p and k < p: then k shares no
    factor with m, so r != 0, and r < p.
    """
    if n >= p:
        raise ValueError("inverse_table requires n < p")
    inv = [0] * (n + 1)
    if n >= 1:
        inv[1] = 1
    for k in range(2, n + 1):
        inv[k] = (m - m // k) * inv[m % k] % m
    return inv


def bernoulli_scaled(nmax: int, p: int, m: int) -> list[int]:
    """p*B_i mod m for i = 0..nmax, via the Akiyama-Tanigawa triangle.

    The whole triangle is scaled by p so rows stay integral: the only
    denominators ever introduced are the initial 1/(j+1) with
    v_p(j+1) <= 1 (requires nmax + 1 < p**2).  The recurrence convention
    yields B_1 = +1/2; the caller's convention is B_1 = -1/2, so index 1
    is negated before returning.
    """
    if nmax + 1 >= p * p:
        raise ValueError("bernoulli_scaled requires nmax + 1 < p^2")
    size = nmax + 1
    # p/(j+1) mod m, batch-inverting the unit parts of j+1
    units = []
    vals = []
    for j in range(size):
        d = j + 1
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        units.append(d)
        vals.append(v)
    pref = [1] * (size + 1)
    acc = 1
    for i, u in enumerate(units):
        acc = acc * u % m
        pref[i + 1] = acc
    cur = pow(acc, -1, m)
    row = [0] * size
    for i in range(size - 1, -1, -1):
        uinv = cur * pref[i] % m
        cur = cur * units[i] % m
        row[i] = p ** (1 - vals[i]) * uinv % m

    out = [row[0]]
    for i in range(1, size):
        for j in range(size - i):
            row[j] = (j + 1) * (row[j] - row[j + 1]) % m
        out.append(row[0])
    if nmax >= 1:
        out[1] = -out[1] % m
    return out


def _span(inv: list[int], start: int, stop: int, step: int = 1):
    """Iterator over inv[start:stop:step]; IndexError if inv ends before stop - 1.

    islice alone would stop early on a short table and sum fewer terms.
    """
    if stop <= start:
        return iter(())
    inv[stop - 1]
    return islice(inv, start, stop, step)


# the one-slot power cache: the table, its modulus, and r -> [x**r % m for x]
_cached_table: list[int] | None = None
_cached_m = 0
_cached_powers: dict[int, list[int]] = {}


def _table_powers(inv: list[int], r: int, m: int) -> list[int]:
    """inv[k]**r mod m for every index of inv, built once per (inv, m, r)."""
    global _cached_table, _cached_m, _cached_powers
    if inv is not _cached_table or m != _cached_m:
        _cached_table, _cached_m, _cached_powers = inv, m, {}
    pows = _cached_powers.get(r)
    if pows is None:
        pows = _cached_powers[r] = list(map(pow, inv, repeat(r), repeat(m)))
    return pows


def _inverse_powers(inv: list[int], r: int, m: int, start: int, stop: int, step: int = 1):
    """inv[k]**r, congruent mod m, for k in range(start, stop, step) and r >= 0.

    r = 1 reads inv itself, any other r its cached power list.
    """
    if r < 0:
        raise ValueError(f"inverse powers need r >= 0, got {r}")
    return _span(inv if r == 1 else _table_powers(inv, r, m), start, stop, step)


def _alternating(terms):
    """(-1)**k * x_k for k = 1, 2, ..."""
    return map(mul, terms, cycle((-1, 1)))


def _geometric(c: int, m: int):
    """c**k mod m for k = 1, 2, ... (unbounded)."""
    g = 1
    while True:
        g = g * c % m
        yield g


def mhs_sum(exps: tuple[int, ...], n: int, p: int, m: int, inv: list[int]) -> list[int]:
    """[H(a_1,...,a_m; k) for k = 0..n], unreduced, by depth-recursive prefixes (n < p).

    Level i is the prefix sum P_i(k) = sum_{j<=k} w_i(j) * P_{i-1}(j-1),
    P_0 = 1, with weight w_i(j) = inv[j]**|a_i|, times (-1)**j when a_i < 0.
    The levels are chained iterators, so the whole list is one pass over k.
    exps is nonempty: harmonic.mhs rejects the empty signature.
    """
    weights = []
    for a in exps:
        w = _inverse_powers(inv, abs(a), m, 1, n + 1)
        weights.append(_alternating(w) if a < 0 else w)
    prefix = accumulate(weights[0], initial=0)
    for w in weights[1:]:
        prefix = accumulate(map(mul, w, prefix), initial=0)
    return list(prefix)


def weighted_sum(
    aexp: int,
    signed: bool,
    cnum: int | None,
    factors: tuple[tuple[str, int, int], ...],
    n: int,
    p: int,
    m: int,
    inv: list[int],
) -> list[int]:
    """[sum_{j<=k} [(-1)^j] c^j j^(-aexp) prod(prefix^power) for k = 0..n], unreduced.

    factors entries are (kind, r, power), each prefix a running sum of its
    addends: "harmonic" sums 1/j^r, "odd" 1/(2j-1)^r and "h2k" H(2j) (r
    unused), so the whole list is one pass over k.  "odd" and "h2k" read
    inv up to 2n.
    """
    terms = _inverse_powers(inv, aexp, m, 1, n + 1)
    if cnum is not None:
        terms = map(mul, terms, _geometric(cnum, m))
    if signed:
        terms = _alternating(terms)
    for kind, r, power in factors:
        if kind == "harmonic":
            addends = _inverse_powers(inv, r, m, 1, n + 1)
        elif kind == "odd":
            addends = _inverse_powers(inv, r, m, 1, 2 * n, 2)
        elif kind == "h2k":
            addends = map(add, _span(inv, 1, 2 * n, 2), _span(inv, 2, 2 * n + 1, 2))
        else:
            raise ValueError(f"unknown prefix kind {kind!r}")
        prefix = accumulate(addends)
        if power != 1:
            prefix = map(pow, prefix, repeat(power), repeat(m))
        terms = map(mul, terms, prefix)
    return list(accumulate(terms, initial=0))


def s_sum(a_mod: int, n: int, p: int, m: int, inv: list[int]) -> list[int]:
    """[S_k(a) for k = 0..n], unreduced; S_k(a) = sum_{j<=k} binom(a,j) * binom(-1-a,j) / j.

    Carries the one product b_k = binom(a,k) * binom(-1-a,k), which obeys
    b_k = b_{k-1} * (k(k-1) - a(a+1)) * inv[k]^2, because
    (a-k+1)(-a-k) = k(k-1) - a(a+1).  Only units k < p are divided by, so
    the result is exact mod m.

    From the first k with k(k-1) = a(a+1) mod m on, b_k = 0 mod m and the
    sums stay constant, so the pass stops there.  Such a k < p satisfies
    (2k-1)^2 = (2a+1)^2 mod m, so it is a+1 or -a mod m, or (p+1)/2 when p
    divides 2a+1; each candidate is tested before it stops the pass.
    """
    c = a_mod * (a_mod + 1) % m
    stop = min(
        (k for k in (a_mod % m + 1, -a_mod % m, (p + 1) // 2)
         if 1 <= k <= n and (k * (k - 1) - c) % m == 0),
        default=n + 1,
    )
    out = [0] * (n + 1)
    b = 1
    s = 0
    for k in range(1, stop):
        i = inv[k]
        b = b * ((k * (k - 1) - c) * i * i) % m
        s += b * i
        out[k] = s
    out[stop:] = [s] * (n + 1 - stop)
    return out


def central_sum(lo: int, hi: int, cinv: int, p: int, m: int, inv: list[int]) -> list[int]:
    """[sum_{j=lo}^{k} binom(2j,j)^2 / (j * c^j) for k = 0..hi], unreduced, hi <= p-1.

    Entries k < lo are 0.  Carries v_k = binom(2k,k)^2 * cinv^k, which obeys
    v_k = v_{k-1} * (2(2k-1) * inv[k])^2 * cinv.  binom(2k,k) picks up its
    factor p from 2k-1 = p, a plain multiplication, so no division by p
    occurs.
    """
    out = [0] * (hi + 1)
    b = 1
    s = 0
    for k in range(1, hi + 1):
        i = inv[k]
        t = (4 * k - 2) * i
        b = b * (t * t * cinv) % m
        if k >= lo:
            s += b * i
            out[k] = s
    return out


def geom_power_sum(cnum: int, aexp: int, n: int, p: int, m: int, inv: list[int]) -> int:
    """sum_{k=1}^{n} c^k / k^aexp mod m (n < p, aexp >= 0), one loop carrying c^k mod m."""
    s = 0
    g = 1
    for x in _inverse_powers(inv, aexp, m, 1, n + 1):
        g = g * cnum % m
        s += g * x
    return s % m
