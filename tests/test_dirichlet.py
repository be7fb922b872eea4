import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from divsum import dirichlet
from divsum.dirichlet import (
    dirichlet_lhs,
    dirichlet_rhs,
    euler_product_C,
    lemma_coefficient,
    local_factor_residual,
    main_term_slope,
    rational_identity_holds,
    rhs_prefactor,
    theorem_constant,
    zeta_real,
)
from divsum.primes import DEFAULT_BLOCK, primes_upto


def zeta3_oracle_bracket(n=20_000):
    """Direct summation at fixed integer scale plus integral tail bounds."""
    scale = 10**24
    partial = sum(scale // (k * k * k) for k in range(1, n + 1))
    lo = Fraction(partial, scale) + Fraction(1, 2 * (n + 1) ** 2)
    hi = Fraction(partial + n, scale) + Fraction(1, 2 * n * n)
    return float(lo), float(hi)


def test_zeta_classical_values():
    assert zeta_real(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta_real(4) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_against_direct_summation_oracle():
    lo, hi = zeta3_oracle_bracket()
    assert lo - 1e-12 <= zeta_real(3) <= hi + 1e-12
    # frozen from the oracle at n=1e5 (bracket width ~1e-15)
    assert zeta_real(3) == pytest.approx(1.2020569031595942, abs=2e-12)


def test_zeta_against_mpmath_grid():
    for s in (1.001, 1.1, 1.5, 2.5, 7.0, 31.0, 64.0):
        assert abs(zeta_real(s) - float(mpmath.zeta(s))) <= 1e-12 * max(1.0, float(mpmath.zeta(s)))


def test_zeta_rejects_out_of_range():
    for s in (1.0, 0.5, 64.1, -2.0):
        with pytest.raises(ValueError):
            zeta_real(s)


def test_product_single_factor_values():
    e = euler_product_C(1.0, 2)
    assert e.value + e.value_lo == pytest.approx(15 / 16, abs=1e-15)
    e = euler_product_C(2.0, 2)
    assert e.value + e.value_lo == pytest.approx(1 - 1 / 32 + 1 / 128, abs=1e-15)


def test_product_matches_mpmath_loop():
    with mpmath.mp.workprec(200):
        for s in (0.75, 1.0, 1.5, 2.0, 3.0):
            acc = mpmath.mpf(1)
            for p in primes_upto(3000):
                x = mpmath.mpf(int(p)) ** (-mpmath.mpf(s))
                acc *= 1 - x * x / 2 + x * x * x / 2
            e = euler_product_C(s, 3000)
            got = mpmath.mpf(e.value) + mpmath.mpf(e.value_lo)
            assert abs(got - acc) < mpmath.mpf(2) ** -90


def test_product_slow_path_for_general_s():
    e = euler_product_C(0.8, 5000)
    with mpmath.mp.workprec(200):
        acc = mpmath.mpf(1)
        for p in primes_upto(5000):
            x = mpmath.mpf(int(p)) ** (-mpmath.mpf("0.8"))
            acc *= 1 - x * x / 2 + x * x * x / 2
        assert abs(mpmath.mpf(e.value) + mpmath.mpf(e.value_lo) - acc) < 1e-15


def test_product_tail_matches_mpmath_loop():
    # above HEAD_PRIME_LIMIT the factors enter as a float64 log-sum; at
    # P = 1e5 most primes are in that tail, so rounding_bound is exercised
    assert dirichlet.HEAD_PRIME_LIMIT < 10**5
    primes = [int(p) for p in primes_upto(10**5)]
    with mpmath.mp.workprec(200):
        for s in (0.75, 0.8, 1.0, 1.2345, 2.0):
            exact = mpmath.mpf(1)
            for p in primes:
                x = mpmath.mpf(p) ** -mpmath.mpf(s)
                exact *= 1 - x * x / 2 + x * x * x / 2
            e = euler_product_C(s, 10**5)
            got = mpmath.mpf(e.value) + mpmath.mpf(e.value_lo)
            assert abs(got - exact) <= e.rounding_bound, s
            assert e.rounding_bound < 1e-15, s
            lo, hi = e.interval()
            assert lo <= exact <= hi, s


def _one_expression_product(s, prime_limit):
    """The product with each block's float64 terms as one numpy expression over a new array.

    The blocks are primes_upto(prime_limit) split at the multiples of
    DEFAULT_BLOCK; the head, the fsum and both bounds are as in euler_product_C.
    """
    primes = primes_upto(prime_limit)
    cuts = np.searchsorted(primes, range(DEFAULT_BLOCK, prime_limit + 1, DEFAULT_BLOCK))
    block_sums, largest = [], 0
    for block in np.split(primes, cuts):
        p = block[block > dirichlet.HEAD_PRIME_LIMIT]
        x = p.astype(np.float64) ** -s
        block_sums.append(float(np.sum(np.log1p(x * x * (x - 1.0) * 0.5))))
        largest = max(largest, p.size)
    tail = math.fsum(block_sums)
    with mpmath.mp.workprec(dirichlet.HEAD_PREC):
        product = mpmath.mpf(1)
        for p in primes[primes <= dirichlet.HEAD_PRIME_LIMIT].tolist():
            x = mpmath.mpf(p) ** -mpmath.mpf(s)
            product *= 1 - x * x / 2 + x * x * x / 2
        product *= mpmath.exp(tail)
        value = float(product)
        value_lo = float(product - value)
    return dirichlet.ProductEstimate(
        s=s,
        prime_limit=prime_limit,
        value=value,
        value_lo=value_lo,
        tail_bound=prime_limit ** (1.0 - 2.0 * s) / (2.0 * s - 1.0),
        rounding_bound=(largest.bit_length() + 40) * 2.0**-53 * abs(tail) + 2.0**-100,
    )


@pytest.mark.parametrize("prime_limit", [10**4, DEFAULT_BLOCK + 1000, 2 * DEFAULT_BLOCK + 12345])
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.7])
def test_product_is_bit_identical_to_one_expression_per_block(s, prime_limit):
    # the chunked, in-place float tail rounds every term and every block
    # sum as the one expression does, so every field is equal, not close
    assert euler_product_C(s, prime_limit) == _one_expression_product(s, prime_limit)


def test_product_working_set_is_bounded():
    # one reused flag buffer, one reused terms buffer and no block kept
    # past the next: about 13 MiB here, where holding every temporary of
    # two blocks took 21 MiB
    tracemalloc.start()
    try:
        euler_product_C(1.0, 2 * DEFAULT_BLOCK + 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak / 2**20


def test_product_rejects():
    with pytest.raises(ValueError):
        euler_product_C(0.5, 100)
    with pytest.raises(ValueError):
        euler_product_C(1.0, 1)
    # any real s > 1/2 takes the one path, past the old 2e6 cap for s = 0.8
    e = euler_product_C(0.8, 2_000_001)
    lo, hi = euler_product_C(0.8, 10**6).interval()
    assert lo <= e.value + e.value_lo <= hi
    with pytest.raises(ValueError):
        euler_product_C(1.0, dirichlet.FAST_PATH_PRIME_CAP + 1)


def test_two_truncation_consistency():
    for s in (0.75, 1.0, 2.0):
        for p1, p2 in ((10**3, 10**4), (10**4, 10**5)):
            e1 = euler_product_C(s, p1)
            e2 = euler_product_C(s, p2)
            allowed = math.expm1(e1.tail_bound) * (e1.value + e1.value_lo)
            assert abs((e1.value + e1.value_lo) - (e2.value + e2.value_lo)) <= allowed
            assert e2.tail_bound < e1.tail_bound


def test_product_interval_brackets_better_truncation():
    e1 = euler_product_C(1.0, 10**4)
    e2 = euler_product_C(1.0, 10**6)
    lo, hi = e1.interval()
    assert lo <= e2.value + e2.value_lo <= hi


def test_local_factor_residual_grid():
    for p in primes_upto(100):
        for s in (0.75, 1.0, 1.5, 2.0, 3.0):
            assert local_factor_residual(int(p), s) <= 1e-12


def test_local_factor_value_at_half():
    # x = 1/2: closed form (2 - 1 + 1/4) / (2 * 1/4) = 2.5
    x = 0.5
    assert (2 - 2 * x + x * x) / (2 * (1 - x) ** 2) == 2.5
    assert local_factor_residual(2, 1.0) <= 1e-12


def test_local_factor_rejects():
    with pytest.raises(ValueError):
        local_factor_residual(4, 1.0)
    with pytest.raises(ValueError):
        local_factor_residual(3, 0.5)
    with pytest.raises(ValueError, match="finite"):
        local_factor_residual(3, math.inf)


def test_lemma_coefficient_values():
    assert lemma_coefficient(1) == Fraction(1, 1)
    assert lemma_coefficient(5) == Fraction(45, 41)
    assert lemma_coefficient(2) == Fraction(6, 5)


def test_lemma_coefficient_reduced_and_monotone():
    prev = None
    for q in [1] + [int(p) for p in primes_upto(10**4)]:
        val = lemma_coefficient(q)
        assert math.gcd(val.numerator, val.denominator) == 1
        if q == 1:
            assert val == 1
            continue
        assert Fraction(1, 2) < val <= Fraction(6, 5)
        if prev is not None:
            assert val < prev  # decreasing toward 1 over primes
        prev = val
    assert lemma_coefficient(2) == Fraction(6, 5)


def test_lemma_coefficient_rejects_composite():
    for q in (4, 6, 9, 100):
        with pytest.raises(ValueError):
            lemma_coefficient(q)


def test_slopes_and_theorem_constant(product_1e6):
    c1 = product_1e6
    slope1, (lo, hi) = main_term_slope(1, c1)
    slope5, _ = main_term_slope(5, c1)
    theorem, (theorem_lo, theorem_hi) = theorem_constant(c1)
    assert slope1 == pytest.approx(1.4276565, abs=3e-6)
    assert slope5 == pytest.approx(slope1 * 45 / 41, rel=1e-14)
    assert slope5 == pytest.approx(1.5669401, abs=3e-6)
    assert main_term_slope(2, c1)[0] == pytest.approx(1.7131878, abs=3e-6)
    assert theorem == pytest.approx(1.1142685, abs=3e-6)
    # same rational identity, in real arithmetic
    assert theorem == pytest.approx(slope1 - slope5 / 5, abs=1e-12)
    assert lo <= slope1 <= hi and hi - lo < 1e-5
    assert theorem_lo <= theorem <= theorem_hi and theorem_hi - theorem_lo < 1e-5


def test_slope_requires_s1_product():
    e = euler_product_C(2.0, 100)
    with pytest.raises(ValueError):
        main_term_slope(1, e)
    with pytest.raises(ValueError):
        theorem_constant(e)


def test_rational_identity():
    assert rational_identity_holds()
    assert Fraction(1, 6) - Fraction(3, 82) == Fraction(16, 123)


def test_series_collapses_at_large_s():
    value, _ = dirichlet_lhs((1,), (40.0,), 10**4)[1, 40.0]
    assert abs(value - 1.0) <= 1e-10


def test_prefactor_values():
    assert rhs_prefactor(1, 2.0) == 1.0
    assert rhs_prefactor(1, 17.3) == 1.0
    assert rhs_prefactor(5, 1.0) == 45 / 41


def test_series_vs_factorization_small_grid(product_1e6):
    series = dirichlet_lhs((1, 5), (2.0,), 10**5)
    factorized = dirichlet_rhs((1, 5), (2.0,))
    for q in (1, 5):
        lhs, tail = series[q, 2.0]
        assert abs(lhs - factorized[q, 2.0]) <= 1e-3
        assert tail > 0


def test_series_vs_factorization_full_grid():
    # combined allowance: the series' stated tail estimate plus a small
    # slack for the factorized side's own truncations
    series = dirichlet_lhs((1, 2, 3, 5, 7), (1.5, 2.0, 3.0), 10**6)
    factorized = dirichlet_rhs((1, 2, 3, 5, 7), (1.5, 2.0, 3.0))
    assert series.keys() == factorized.keys() and len(series) == 15
    for (q, s), (lhs, tail) in series.items():
        assert abs(lhs - factorized[q, s]) <= tail + 1e-6, (q, s)


def test_series_grid_sieves_once_per_chunk_and_matches_points(monkeypatch):
    sieved, products = [], []
    sieve, product = dirichlet.sieve_segment, dirichlet.euler_product_C
    monkeypatch.setattr(dirichlet, "LHS_CHUNK", 1000)
    monkeypatch.setattr(dirichlet, "sieve_segment", lambda lo, hi: sieved.append(lo) or sieve(lo, hi))
    monkeypatch.setattr(
        dirichlet, "euler_product_C", lambda s, p: products.append(s) or product(s, p)
    )
    qs, ss = (1, 2, 5, 2), (1.5, 3.0, 2.0)
    series = dirichlet_lhs(qs, ss, 2500)
    factorized = dirichlet_rhs(qs, ss, 1000)
    assert sieved == [1, 1001, 2001] and products == [1.5, 3.0, 2.0]
    assert len(series) == len(factorized) == 9
    for q in qs:
        for s in ss:
            assert series[q, s] == dirichlet_lhs((q,), (s,), 2500)[q, s]
            assert factorized[q, s] == dirichlet_rhs((q,), (s,), 1000)[q, s]


def test_lhs_rejects():
    with pytest.raises(ValueError):
        dirichlet_lhs((1, 6), (2.0,), 100)
    with pytest.raises(ValueError):
        dirichlet_lhs((1,), (2.0, 1.0), 100)
    with pytest.raises(ValueError):
        dirichlet_lhs((1,), (2.0,), 0)
    # the cap bounds the terms sieved, whatever q is
    with pytest.raises(ValueError, match=rf"terms must be in \[1, {dirichlet.LHS_TERM_CAP}\]"):
        dirichlet_lhs((1,), (2.0,), dirichlet.LHS_TERM_CAP + 1)
    dirichlet.check_series_grid((7,), (2.0,), 2 * 10**7, 100)


def test_constants_summary_keys():
    doc = dirichlet.constants_summary(10**5, (1, 5))
    assert doc["rational_identity_16_over_123"] is True
    assert set(doc["slopes"]) == {"1", "5"}
    lo, hi = doc["product_interval"]
    assert lo < doc["product_value"] < hi
