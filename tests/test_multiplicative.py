import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.multiplicative import (
    SCALE_EXP,
    DyadicValue,
    divisor_count,
    divisor_ratio,
    divisor_ratio_brute,
    factorize,
    sieve_segment,
    twisted_ratio_numerators,
    unitary_divisor_count,
)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(9699690) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)]


def test_factorize_invariants_random():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(1, 10**9)
        factors = factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        prod = 1
        for p, e in factors:
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factorize_rejects():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 63)


def test_divisor_counts():
    assert divisor_count(factorize(1)) == 1
    assert divisor_count(factorize(12)) == 6
    assert divisor_count(factorize(97)) == 2
    assert unitary_divisor_count(factorize(1)) == 1
    assert unitary_divisor_count(factorize(12)) == 4
    assert unitary_divisor_count(factorize(8)) == 2


def test_divisor_count_matches_enumeration():
    for n in range(1, 500):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        unit = [d for d in divs if gcd(d, n // d) == 1]
        f = factorize(n)
        assert divisor_count(f) == len(divs)
        assert unitary_divisor_count(f) == len(unit)


def test_ratio_examples():
    assert divisor_ratio(1).as_fraction() == 1
    assert divisor_ratio(12).as_fraction() == Fraction(3, 2)
    assert divisor_ratio(8).as_fraction() == 2  # (k+1)/2 at k=3


def test_prime_power_ratio():
    for p in (2, 3, 7, 101):
        for k in range(1, 8):
            assert divisor_ratio(p**k).as_fraction() == Fraction(k + 1, 2)


def test_brute_examples():
    assert divisor_ratio_brute(1).as_fraction() == 1
    assert divisor_ratio_brute(60).as_fraction() == Fraction(3, 2)
    assert divisor_ratio_brute(49).as_fraction() == Fraction(3, 2)


def test_oracle_equivalence_small():
    for n in range(1, 20_000):
        assert divisor_ratio(n) == divisor_ratio_brute(n), n


def test_oracle_equivalence_random():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randrange(1, 10**7)
        assert divisor_ratio(n) == divisor_ratio_brute(n), n


def test_multiplicativity_random_coprime_pairs():
    rng = random.Random(5)
    checked = 0
    while checked < 10_000:
        m = rng.randrange(2, 10**4)
        n = rng.randrange(2, 10**5)
        if gcd(m, n) != 1 or m * n > 10**9:
            continue
        lhs = divisor_ratio(m * n).as_fraction()
        rhs = divisor_ratio(m).as_fraction() * divisor_ratio(n).as_fraction()
        assert lhs == rhs, (m, n)
        checked += 1


def test_squarefree_characterization():
    for n in range(1, 20_000):
        squarefree = all(e == 1 for _, e in factorize(n))
        assert (divisor_ratio(n).as_fraction() == 1) == squarefree, n


def test_ratio_and_divisor_bounds():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        assert divisor_count(f) <= 2 * isqrt(n) + 1
        num = DyadicValue.from_ratio(divisor_count(f), len(f))
        assert num.as_fraction() >= 1


def test_dyadic_arithmetic():
    a = DyadicValue.from_ratio(3, 1)  # 3/2
    b = DyadicValue.from_ratio(1, 0)  # 1
    assert (a + b).as_fraction() == Fraction(5, 2)
    assert (a - b).as_fraction() == Fraction(1, 2)
    assert a.to_float() == 1.5
    assert DyadicValue.zero().numerator == 0
    with pytest.raises(ValueError):
        a + DyadicValue(1, scale_exp=16)
    with pytest.raises(OverflowError):
        DyadicValue.from_ratio(1, SCALE_EXP + 1)


def _sieve_ratios(lo: int, hi: int) -> list[DyadicValue]:
    nums = sieve_segment(lo, hi)
    assert nums.dtype == np.int64 and nums.size == hi - lo
    return [DyadicValue(int(v)) for v in nums]


def test_sieve_examples():
    ratios = [v.as_fraction() for v in _sieve_ratios(1, 11)]
    assert ratios == [1, 1, 1, Fraction(3, 2), 1, 1, 1, 2, Fraction(3, 2), 1]
    # 10^6 = 2^6 5^6: d = 49, omega = 2
    assert _sieve_ratios(10**6, 10**6 + 3)[0] == DyadicValue.from_ratio(49, 2)
    assert _sieve_ratios(5, 5) == []


def test_sieve_matches_factorize_on_segments():
    rng = random.Random(17)
    segments = [(1, 2001), (999_000, 1_001_000), (10**12, 10**12 + 500)]
    for _ in range(5):
        lo = rng.randrange(1, 10**8)
        segments.append((lo, lo + 1000))
    for lo, hi in segments:
        ratios = _sieve_ratios(lo, hi)
        for i in range(0, hi - lo, 7):
            f = factorize(lo + i)
            assert ratios[i] == DyadicValue.from_ratio(divisor_count(f), len(f)), lo + i
    # the last cell is a prime square, so p = isqrt(hi - 1) must be strided
    for p in (2, 3, 7, 1_048_573):
        lo, hi = max(1, p * p - 3), p * p + 1
        assert _sieve_ratios(lo, hi) == [divisor_ratio(n) for n in range(lo, hi)]


@st.composite
def _windows(draw):
    top = 1 << draw(st.integers(1, 40))
    lo = draw(st.integers(1, top))
    return lo, min(lo + draw(st.integers(0, 40)), 1 << 40)


@settings(max_examples=40, deadline=None)
@given(_windows())
def test_sieve_matches_divisor_ratio_on_random_windows(window):
    lo, hi = window
    assert _sieve_ratios(lo, hi) == [divisor_ratio(n) for n in range(lo, hi)]


def test_sieve_rejects():
    with pytest.raises(ValueError):
        sieve_segment(0, 10)
    with pytest.raises(ValueError):
        sieve_segment(10, 5)
    with pytest.raises(MemoryError):
        sieve_segment(1, (1 << 26) + 2)
    with pytest.raises(ValueError):
        sieve_segment(1, (1 << 40) + 1)


def test_segment_numerators_match_pointwise():
    nums = sieve_segment(100, 600)
    for i in (0, 7, 499):
        assert DyadicValue(int(nums[i])) == divisor_ratio(100 + i)


def test_twisted_ratio_numerators():
    got = []
    for lo, hi in ((1, 65), (65, 124)):  # two segments, as the engine chunks them
        nums = sieve_segment(lo, hi)
        got.extend(int(v) for v in twisted_ratio_numerators(5, lo, nums))
    assert len(got) == 123
    for i, v in enumerate(got, start=1):
        assert DyadicValue(v) == divisor_ratio(5 * i), i
    with pytest.raises(ValueError):
        twisted_ratio_numerators(4, 1, sieve_segment(1, 9))
