import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from divsum.multiplicative import (
    SCALE_EXP,
    DyadicValue,
    divisor_count,
    divisor_ratio,
    divisor_ratio_brute,
    factorize,
    segment_ratio_numerators,
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


def test_sieve_examples():
    t = sieve_segment(1, 11)
    assert list(t.d_values) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert list(t.omega_values) == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2]
    t = sieve_segment(10**6, 10**6 + 3)
    assert t.d_values[0] == 49 and t.omega_values[0] == 2
    t = sieve_segment(5, 5)
    assert t.d_values.size == 0


def test_sieve_matches_factorize_on_segments():
    rng = random.Random(17)
    segments = [(1, 2001), (999_000, 1_001_000), (10**12, 10**12 + 500)]
    for _ in range(5):
        lo = rng.randrange(1, 10**8)
        segments.append((lo, lo + 1000))
    for lo, hi in segments:
        t = sieve_segment(lo, hi)
        for i in range(0, hi - lo, 7):
            f = factorize(lo + i)
            assert t.d_values[i] == divisor_count(f), lo + i
            assert t.omega_values[i] == len(f), lo + i


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
    t = sieve_segment(100, 600)
    nums = segment_ratio_numerators(t)
    for i in (0, 7, 499):
        assert DyadicValue(int(nums[i])) == divisor_ratio(100 + i)


def test_twisted_ratio_numerators():
    got = []
    for lo, hi in ((1, 65), (65, 124)):  # two segments, as the engine chunks them
        nums = segment_ratio_numerators(sieve_segment(lo, hi))
        got.extend(int(v) for v in twisted_ratio_numerators(5, lo, nums))
    assert len(got) == 123
    for i, v in enumerate(got, start=1):
        assert DyadicValue(v) == divisor_ratio(5 * i), i
    with pytest.raises(ValueError):
        twisted_ratio_numerators(4, 1, segment_ratio_numerators(sieve_segment(1, 9)))
