"""Prime enumeration via a simple segmented sieve, and smallest prime factors."""

from __future__ import annotations

import math

__all__ = ["primes_in_range", "smallest_prime_factors"]

_SEGMENT = 1 << 16


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, in increasing order."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    base = _small_primes(int(hi**0.5) + 1)
    out: list[int] = []
    start = lo
    while start <= hi:
        end = min(start + _SEGMENT - 1, hi)
        seg = bytearray([1]) * (end - start + 1)
        for q in base:
            first = max(q * q, (start + q - 1) // q * q)
            if first > end:
                continue
            seg[first - start :: q] = bytearray(len(range(first, end + 1, q)))
        out.extend(start + i for i, flag in enumerate(seg) if flag)
        start = end + 1
    return out


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = the smallest prime factor of k for 2 <= k <= n; spf[0:2] = [0, 1].

    Each prime q <= sqrt(n) strides over its multiples from q*q, largest q
    first, so the smallest prime factor of a composite is the last written.
    """
    spf = list(range(n + 1))
    for q in reversed(_small_primes(math.isqrt(n))):
        spf[q * q :: q] = [q] * len(range(q * q, n + 1, q))
    return spf
