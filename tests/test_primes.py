"""primes_in_range against trial division."""

import math

import pytest

from supercong.primes import primes_in_range

# trial divisors up to sqrt(2 * 10**6), found by trial division themselves
_DIVISORS = [q for q in range(2, 1500) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def _trial_division(lo, hi):
    return [
        n for n in range(max(lo, 2), hi + 1)
        if all(n % q for q in _DIVISORS if q * q <= n)
    ]


@pytest.mark.parametrize("lo, hi", [
    # ranges that cross multiples of 65,536
    (1, 200_000),
    (65_530, 131_080),
    (10**6, 10**6 + 70_000),
    # hi is the square of the largest prime that strikes
    (1_018_000, 1009**2),
    # degenerate ranges
    (-5, 1),
    (0, 2),
    (10, 9),
    (2_124_679, 2_124_679),
])
def test_matches_trial_division(lo, hi):
    assert primes_in_range(lo, hi) == _trial_division(lo, hi)

