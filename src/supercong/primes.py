"""Primes in a range, by one sieve over it, and smallest prime factors."""

from __future__ import annotations

import math

__all__ = ["primes_in_range", "smallest_prime_factors"]


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
    # a byte per integer: the returned list, ~36 bytes a prime, outweighs it
    sieve = bytearray([1]) * (hi - lo + 1)
    for q in _small_primes(math.isqrt(hi)):
        first = max(q * q, -(-lo // q) * q)
        sieve[first - lo :: q] = bytearray(len(range(first, hi + 1, q)))
    return [lo + i for i, flag in enumerate(sieve) if flag]


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = the smallest prime factor of k for 2 <= k <= n; spf[0:2] = [0, 1].

    Each prime q <= sqrt(n) strides over its multiples from q*q, largest q
    first, so the smallest prime factor of a composite is the last written.
    """
    spf = list(range(n + 1))
    for q in reversed(_small_primes(math.isqrt(n))):
        spf[q * q :: q] = [q] * len(range(q * q, n + 1, q))
    return spf
