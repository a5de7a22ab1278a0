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
r >= 0 reads a power list built once per (table, m, r), as the product of
two lists already built (x**2 = x*x, x**3 = x**2*x, x**4 = x**2*x**2).
A one-slot cache holds the last table by reference (compared with ``is``),
its modulus, one reduced list per exponent and the weight list
w[k] = inv[k] * (1/k!)**2 of s_sum and central_sum; a call with another
table or modulus empties it.  A negative r raises ValueError.
s_sum and central_sum are one loop, _binomial_sums: binom(a,k) *
binom(-1-a,k) / k is Q_k * w[k], with Q_k = prod_{j<=k} (j(j-1) - a(a+1)),
so each k costs one reduced product, and central_sum is the case
a = -1/2.  That loop and geom_power_sum carry a product (Q_k, or c^k)
that is reduced mod m at every k: each is one plain ``for k`` loop, since
building the step in map stages costs more than the loop itself.
mhs_sum, weighted_sum, s_sum and central_sum return the list of their
prefix sums at k = 0..n from one pass, so a caller that needs a sum at
several endpoints reads them all from one call.  Those entries are
congruent mod m but not reduced: reducing every entry would cost most of
the pass, so callers reduce only the entries they read.  inverse_table,
bernoulli_scaled and geom_power_sum return values in [0, m).
"""

from __future__ import annotations

from itertools import accumulate, cycle, islice, repeat
from operator import add, mod, mul

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
    # p/(j+1) mod m: j+1 is a unit, or p times one
    row = [
        p * pow(d, -1, m) % m if d % p else pow(d // p, -1, m)
        for d in range(1, size + 1)
    ]

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


# the one-slot cache: the table, its modulus, r -> [x**r % m for x], and the
# weight list of _binomial_sums
_cached_table: list[int] | None = None
_cached_m = 0
_cached_powers: dict[int, list[int]] = {}
_cached_weights: list[int] | None = None


def _slot(inv: list[int], m: int) -> None:
    """Point the cache at (inv, m), emptying it if it held anything else."""
    global _cached_table, _cached_m, _cached_powers, _cached_weights
    if inv is not _cached_table or m != _cached_m:
        _cached_table, _cached_m, _cached_powers, _cached_weights = inv, m, {}, None


def _mulmod(xs: list[int], ys: list[int], m: int) -> list[int]:
    """[x * y % m] entry by entry."""
    return list(map(mod, map(mul, xs, ys), repeat(m)))


def _table_powers(inv: list[int], r: int, m: int) -> list[int]:
    """inv[k]**r, congruent mod m, for every index of inv and r >= 0.

    r = 1 is inv itself.  Any other r is a reduced list built once per
    (inv, m, r): an even r squares the list for r/2, an odd r >= 3
    multiplies the list for r - 1 by inv, so each entry costs one reduced
    product and no pow.
    """
    if r == 1:
        return inv
    _slot(inv, m)
    pows = _cached_powers.get(r)
    if pows is None:
        if r == 0:
            pows = [1] * len(inv)
        elif r % 2 == 0:
            half = _table_powers(inv, r // 2, m)
            pows = _mulmod(half, half, m)
        else:
            pows = _mulmod(_table_powers(inv, r - 1, m), inv, m)
        _cached_powers[r] = pows
    return pows


def _binomial_weights(inv: list[int], m: int) -> list[int]:
    """w[k] = inv[k] * (1/k!)**2 mod m for every index of inv, once per (inv, m)."""
    global _cached_weights
    _slot(inv, m)
    if _cached_weights is None:
        w = [0] * len(inv)
        f = 1
        for k in range(1, len(inv)):
            i = inv[k]
            f = f * i % m
            w[k] = f * f * i % m
        _cached_weights = w
    return _cached_weights


def _inverse_powers(inv: list[int], r: int, m: int, start: int, stop: int, step: int = 1):
    """inv[k]**r, congruent mod m, for k in range(start, stop, step) and r >= 0."""
    if r < 0:
        raise ValueError(f"inverse powers need r >= 0, got {r}")
    return _span(_table_powers(inv, r, m), start, stop, step)


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


def _binomial_sums(c: int, stop: int, n: int, m: int, inv: list[int]) -> list[int]:
    """[sum_{j<=k} Q_j * w[j] for k = 0..n], unreduced, the terms from k = stop on zero.

    Q_k = prod_{j<=k} (j(j-1) - c) and w[k] = inv[k] * (1/k!)**2: with
    c = a(a+1), Q_k * w[k] = binom(a,k) * binom(-1-a,k) / k.  Reads inv up
    to stop - 1.
    """
    w = _binomial_weights(inv, m)
    out = [0] * (n + 1)
    q = 1
    s = 0
    for k in range(1, stop):
        q = q * (k * k - k - c) % m
        s += q * w[k]
        out[k] = s
    out[stop:] = [s] * (n + 1 - stop)
    return out


def s_sum(a_mod: int, n: int, p: int, m: int, inv: list[int]) -> list[int]:
    """[S_k(a) for k = 0..n], unreduced; S_k(a) = sum_{j<=k} binom(a,j) * binom(-1-a,j) / j.

    binom(a,k) * binom(-1-a,k) = Q_k / k!^2 with Q_k = prod_{j<=k} (j(j-1)
    - a(a+1)), because (a-j+1)(-a-j) = j(j-1) - a(a+1).  Each step carries
    Q_k with one reduced product and adds Q_k * inv[k] / k!^2, read from the
    cached weight list.  Only units k < p are divided by, so the result is
    exact mod m.

    From the first k with k(k-1) = a(a+1) mod m on, Q_k = 0 mod m and the
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
    return _binomial_sums(c, stop, n, m, inv)


def central_sum(n: int, p: int, m: int, inv: list[int]) -> list[int]:
    """[sum_{j<=k} binom(2j,j)^2 / (j * 16^j) for k = 0..n], unreduced, n <= p-1.

    binom(2k,k)^2 / 16^k = binom(-1/2,k)^2, so this is S_k(-1/2): the loop
    of s_sum at a(a+1) = -1/4, carrying Q_k = prod_{j<=k} (j - 1/2)^2, with
    no early stop.  binom(2k,k) picks up its factor p from 2k-1 = p, a plain
    multiplication, so no division by p occurs.
    """
    a = (m - 1) // 2
    return _binomial_sums(a * (a + 1) % m, n + 1, n, m, inv)


def geom_power_sum(cnum: int, aexp: int, n: int, p: int, m: int, inv: list[int]) -> int:
    """sum_{k=1}^{n} c^k / k^aexp mod m (n < p, aexp >= 0), one loop carrying c^k mod m."""
    s = 0
    g = 1
    for x in _inverse_powers(inv, aexp, m, 1, n + 1):
        g = g * cnum % m
        s += g * x
    return s % m
