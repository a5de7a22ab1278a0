"""Pure-Python kernels.

Every function here computes *exactly* modulo ``m = p**e``: all summation
indices in the supported ranges are coprime to p, so the only divisions are
by units and no precision is lost.  An inverse table's entries need only be
congruent to 1/k mod m, so a table built mod a higher power of p serves
every smaller m unchanged.

The sums run as chains of C-level iterators (islice, map, accumulate, sum)
over the caller's inverse table, so intermediate sums and products may
exceed m; each is reduced once at the end, and only running products are
reduced mod m at every step.  Every return value is in [0, m).
"""

from __future__ import annotations

from itertools import accumulate, chain, cycle, islice, repeat
from operator import add, mul, sub

def inverse_table(n: int, p: int, m: int) -> list[int]:
    """inv[k] for k = 1..n (index 0 unused); every k must be a unit mod p.

    Montgomery batch inversion: one modular inverse, 3n multiplications.
    """
    pref = [1] * (n + 1)
    acc = 1
    for k in range(1, n + 1):
        acc = acc * k % m
        pref[k] = acc
    inv = [0] * (n + 1)
    cur = pow(acc, -1, m)
    for k in range(n, 0, -1):
        inv[k] = cur * pref[k - 1] % m
        cur = cur * k % m
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


def _powers(terms, r: int, m: int):
    """x**r for x in terms, congruent to pow(x, r, m); unreduced for r >= 0."""
    if r == 1:
        return terms
    if r < 0:
        return map(pow, terms, repeat(r), repeat(m))
    return map(pow, terms, repeat(r))


def _alternating(terms):
    """(-1)**k * x_k for k = 1, 2, ..."""
    return map(mul, terms, cycle((-1, 1)))


def _geometric(c: int, m: int):
    """c**k mod m for k = 1, 2, ... (unbounded)."""
    g = 1
    while True:
        g = g * c % m
        yield g


def _product_sums(ratios, weights, m: int) -> int:
    """sum_k b_k * w_k mod m, where b_k = r_1 * ... * r_k mod m.

    Zips the two iterators, so it stops at the shorter one.
    """
    b = 1
    total = 0
    for r, w in zip(ratios, weights):
        b = b * r % m
        total += b * w
    return total % m


def mhs_sum(exps: tuple[int, ...], n: int, p: int, m: int, inv: list[int]) -> int:
    """H(a_1,...,a_m; n) mod m by the depth-recursive prefix method (n < p).

    Level i is the prefix sum P_i(k) = sum_{j<=k} w_i(j) * P_{i-1}(j-1),
    P_0 = 1, with weight w_i(j) = inv[j]**|a_i|, times (-1)**j when a_i < 0.
    The levels are chained iterators, so the whole sum is one pass over k.
    """
    if not exps:
        return 1
    if len(exps) == 1:
        a = exps[0]
        if a >= 0:
            return sum(_powers(_span(inv, 1, n + 1), a, m)) % m
        odd = sum(_powers(_span(inv, 1, n + 1, 2), -a, m))
        return (sum(_powers(_span(inv, 2, n + 1, 2), -a, m)) - odd) % m
    weights = []
    for a in exps:
        w = _powers(_span(inv, 1, n + 1), abs(a), m)
        weights.append(_alternating(w) if a < 0 else w)
    prefix = accumulate(weights[0], initial=0)
    for w in weights[1:-1]:
        prefix = accumulate(map(mul, w, prefix), initial=0)
    return sum(map(mul, weights[-1], prefix)) % m


def weighted_sum(
    aexp: int,
    signed: bool,
    cnum: int | None,
    factors: tuple[tuple[str, int, int], ...],
    n: int,
    p: int,
    m: int,
    inv: list[int],
) -> int:
    """sum_{k=1}^{n} [(-1)^k] * c^k * k^(-aexp) * prod(prefix^power) mod m.

    factors entries are (kind, r, power) with kind in
    {"harmonic", "odd", "signed", "h2k"}; each prefix is a running sum of
    its addends, so the whole sum is one pass over k.
    """
    terms = _powers(_span(inv, 1, n + 1), aexp, m)
    if cnum is not None:
        terms = map(mul, terms, _geometric(cnum, m))
    if signed:
        terms = _alternating(terms)
    for kind, r, power in factors:
        if kind == "harmonic":
            addends = _powers(_span(inv, 1, n + 1), r, m)
        elif kind == "odd":
            addends = _powers(_span(inv, 1, 2 * n, 2), r, m)
        elif kind == "signed":
            addends = _alternating(_powers(_span(inv, 1, n + 1), r, m))
        elif kind == "h2k":
            addends = map(add, _span(inv, 1, 2 * n, 2), _span(inv, 2, 2 * n + 1, 2))
        else:
            raise ValueError(f"unknown prefix kind {kind!r}")
        terms = map(mul, terms, _powers(accumulate(addends), power, m))
    return sum(terms) % m


def s_sum(a_mod: int, n: int, p: int, m: int, inv: list[int]) -> int:
    """S_n(a) = sum_{k=1}^{n} binom(a,k) * binom(-1-a,k) / k mod m.

    Carries the one product b_k = binom(a,k) * binom(-1-a,k), which obeys
    b_k = b_{k-1} * (k(k-1) - a(a+1)) * inv[k]^2, because
    (a-k+1)(-a-k) = k(k-1) - a(a+1).  Only units k < p are divided by, so
    the result is exact mod m.
    """
    c = a_mod * (a_mod + 1) % m
    ratios = map(
        mul,
        map(sub, map(mul, range(1, n + 1), range(n)), repeat(c)),
        _powers(_span(inv, 1, n + 1), 2, m),
    )
    return _product_sums(ratios, _span(inv, 1, n + 1), m)


def central_sum(lo: int, hi: int, cinv: int, p: int, m: int, inv: list[int]) -> int:
    """sum_{k=lo}^{hi} binom(2k,k)^2 / (k * c^k) mod m, hi <= p-1.

    Carries v_k = binom(2k,k)^2 * cinv^k, which obeys
    v_k = v_{k-1} * (2(2k-1) * inv[k])^2 * cinv.  binom(2k,k) picks up its
    factor p from 2k-1 = p, a plain multiplication, so no division by p
    occurs.
    """
    lo = max(lo, 1)
    ratios = map(
        mul,
        _powers(map(mul, range(2, 4 * hi, 4), _span(inv, 1, hi + 1)), 2, m),
        repeat(cinv),
    )
    weights = chain(repeat(0, lo - 1), _span(inv, lo, hi + 1))
    return _product_sums(ratios, weights, m)


def geom_power_sum(cnum: int, aexp: int, n: int, p: int, m: int, inv: list[int]) -> int:
    """sum_{k=1}^{n} c^k / k^aexp mod m (n < p)."""
    return sum(map(mul, _powers(_span(inv, 1, n + 1), aexp, m), _geometric(cnum, m))) % m
