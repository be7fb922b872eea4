import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum import multiplicative
from divsum.multiplicative import (
    CELL_EXP,
    CELL_SHIFT,
    MAX_CELL,
    MAX_SEGMENT_CELLS,
    MAX_SIEVE_VALUE,
    SCALE_EXP,
    WHEEL_PERIOD,
    divisor_count,
    divisor_ratio,
    divisor_ratio_brute,
    factorize,
    sieve_segment,
    twisted_ratio_numerators,
    unitary_divisor_count,
)
from divsum.primes import is_prime, primes_upto
from divsum.sums import checkpoint_schedule, twisted_sum


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
    assert divisor_ratio(1) == 1
    assert divisor_ratio(12) == Fraction(3, 2)
    assert divisor_ratio(8) == 2  # (k+1)/2 at k=3


def test_prime_power_ratio():
    for p in (2, 3, 7, 101):
        for k in range(1, 8):
            assert divisor_ratio(p**k) == Fraction(k + 1, 2)


def test_brute_examples():
    assert divisor_ratio_brute(1) == 1
    assert divisor_ratio_brute(60) == Fraction(3, 2)
    assert divisor_ratio_brute(49) == Fraction(3, 2)


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
        lhs = divisor_ratio(m * n)
        rhs = divisor_ratio(m) * divisor_ratio(n)
        assert lhs == rhs, (m, n)
        checked += 1


def test_squarefree_characterization():
    for n in range(1, 20_000):
        squarefree = all(e == 1 for _, e in factorize(n))
        assert (divisor_ratio(n) == 1) == squarefree, n


def test_ratio_and_divisor_bounds():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        assert divisor_count(f) <= 2 * isqrt(n) + 1
        assert divisor_count(f) >= unitary_divisor_count(f)


def _numerators(cells: np.ndarray) -> np.ndarray:
    """int16 cells at scale 2^CELL_EXP as int64 numerators at scale 2^SCALE_EXP."""
    assert cells.dtype == np.int16
    return cells.astype(np.int64) << CELL_SHIFT


def _ratio(numerator: int) -> Fraction:
    """The ratio of a numerator at scale 2^SCALE_EXP."""
    return Fraction(numerator, 1 << SCALE_EXP)


def _sieve_ratios(lo: int, hi: int) -> list[Fraction]:
    nums = _numerators(sieve_segment(lo, hi))
    assert nums.size == hi - lo
    return [_ratio(int(v)) for v in nums]


def test_sieve_examples():
    ratios = _sieve_ratios(1, 11)
    assert ratios == [1, 1, 1, Fraction(3, 2), 1, 1, 1, 2, Fraction(3, 2), 1]
    # 10^6 = 2^6 5^6: d = 49, omega = 2
    assert _sieve_ratios(10**6, 10**6 + 3)[0] == Fraction(49, 4)
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
            assert ratios[i] == Fraction(divisor_count(f), unitary_divisor_count(f)), lo + i
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


def test_int16_cells_are_exact_below_2_40():
    # the ratio depends on the exponents alone, and the smallest n with a
    # given exponent multiset puts them non-increasing on 2, 3, 5, ...; so a
    # DFS over those patterns below 2^40 meets every ratio that occurs there
    primes = [int(p) for p in primes_upto(50)]
    seen = []

    def dfs(i, n, cap, ratio):
        seen.append((ratio, n))
        m, e = n * primes[i], 1
        while e <= cap and m < MAX_SIEVE_VALUE:
            dfs(i + 1, m, e, ratio * Fraction(e + 1, 2))
            m, e = m * primes[i], e + 1

    dfs(0, 1, MAX_SIEVE_VALUE.bit_length(), Fraction(1))
    assert max(ratio for ratio, _ in seen) == 120
    assert (120, 960180480000) in seen and 960180480000 == 2**11 * 3**7 * 5**4 * 7**3
    assert max(ratio.denominator for ratio, _ in seen) == 1 << CELL_EXP == 128
    assert MAX_CELL == 120 << CELL_EXP == 15360
    assert sieve_segment(960180480000, 960180480001).tolist() == [15360]
    assert sieve_segment(510510**2, 510510**2 + 1).tolist() == [2187]  # (3/2)^7 2^7
    assert MAX_SEGMENT_CELLS * 15360 < 1 << 63
    assert (1 << 31) // MAX_CELL * MAX_CELL < 1 << 31  # the int32 partial sums of sums._cell_sum
    # ratio(q n) <= 3/2 ratio(n), so a twisted cell of the largest one stays in int16 too
    assert MAX_CELL * 3 // 2 < 1 << 15
    n = 960180480000
    for q, a in ((2, 11), (3, 7), (5, 4), (7, 3)):  # a = v_q(n)
        cell = twisted_ratio_numerators(q, n, sieve_segment(n, n + 1))
        assert cell.dtype == np.int16 and cell[0] < 1 << 15
        assert Fraction(int(cell[0]), 1 << CELL_EXP) == divisor_ratio(q * n) == Fraction(120 * (a + 2), a + 1)


def test_grid_segments_share_one_base_prime_table():
    # the segments of `divsum sum --limit 3e6`, [1, 10], (10, 20], ..., (2e6, 3e6],
    # reach isqrt(top) of 2 to 11 bits; every top < 2^32 reads the same table
    bounds = [0, *checkpoint_schedule(3 * 10**6)]
    multiplicative._base_primes.cache_clear()
    for lo, hi in zip(bounds, bounds[1:]):
        sieve_segment(lo + 1, hi + 1)
    assert multiplicative._base_primes.cache_info().misses == 1


def _reference_sieve(lo: int, hi: int) -> np.ndarray:
    """Reference: every cell starts at 2^SCALE_EXP and every level p^(k+1) <= hi-1 is strided."""
    num = np.full(hi - lo, 1 << SCALE_EXP, dtype=np.int64)
    top = hi - 1
    for p in primes_upto(isqrt(top)):
        p = int(p)
        pk, k = p * p, 1
        while pk <= top:
            cells = num[(-lo) % pk :: pk]
            cells //= k + 1
            cells *= k + 2
            pk *= p
            k += 1
    return num


def _assert_matches_reference(lo: int, hi: int) -> None:
    got, want = _numerators(sieve_segment(lo, hi)), _reference_sieve(lo, hi)
    assert got.shape == want.shape
    assert np.array_equal(got, want), (lo, hi)


@pytest.mark.parametrize("lo", [10**7, 10**9, (1 << 40) - (1 << 20)])
def test_sieve_matches_reference_on_full_segments(lo):
    _assert_matches_reference(lo, lo + (1 << 20))


def test_sieve_matches_reference_where_vector_primes_hit_many_cells():
    # every prime above top^(1/4) takes the vector step; in these windows
    # some of them have p^2 < size, so one level hits several of their cells
    for lo, size in ((1, 1031**2 + 2), (10**9, 1100**2), (1025**2 - 3, 1031**2 + 1), (10**6, 300_000)):
        top = lo + size - 1
        assert any(p * p < size for p in primes_upto(isqrt(top)) if p > isqrt(isqrt(top)))
        _assert_matches_reference(lo, lo + size)


@pytest.mark.parametrize("p", [7, 11, 13, 1021])
def test_sieve_matches_reference_where_top_straddles_a_fourth_power(p):
    # top = p^4 - 1 gives p to the vector step, top = p^4 strides it; the
    # wide windows hold the multiple n - p^2 too.  1021 is the largest
    # prime with p^4 <= 2^40
    n = p**4
    assert isqrt(isqrt(n - 1)) == p - 1 and isqrt(isqrt(n)) == p
    for lo in (n - p * p - 1, n - 1):
        for hi in (n, n + 1, n + 2):
            _assert_matches_reference(lo, hi)


def test_sieve_matches_reference_from_1_where_top_is_below_5_4():
    # below 5^4 the bound top^(1/4) falls under the wheel primes, which stay strided
    for hi in range(1, 5**4 + 80):
        _assert_matches_reference(1, hi)


def test_sieve_matches_reference_across_tile_periods():
    P = WHEEL_PERIOD
    windows = [(P - 1, P + 1), (3 * P - 7, 5 * P + 7), (P, 2 * P), (1, 3 * P + 1)]
    for k in (1, 2, 7, 10**6, ((1 << 40) - 5 * P) // P):
        windows += [(k * P - 50, k * P + 50), (k * P - 1, k * P), (k * P, k * P + 1)]
    for lo, hi in windows:
        _assert_matches_reference(lo, hi)


def test_sieve_matches_reference_on_empty_and_one_cell_windows():
    for n in (1, 2, 4, 25, 27, 32, WHEEL_PERIOD, 10**9 + 7, (1 << 40) - 1):
        _assert_matches_reference(n, n)
        _assert_matches_reference(n, n + 1)
    _assert_matches_reference(1 << 40, 1 << 40)


def test_sieve_matches_reference_where_two_prime_squares_meet():
    # 1019^2 1021^2 < 2^40: at top = (1019 * 1021)^2, top^(1/4) lies between
    # them, so 1019 is strided and only 1021 takes the vector step
    for p1, p2 in ((1019, 1021), (1013, 1021)):
        n = (p1 * p2) ** 2
        assert n < 1 << 40
        for lo, hi in ((n - 1000, n + 1000), (n, n + 1)):
            _assert_matches_reference(lo, hi)
        assert _sieve_ratios(n, n + 1) == [divisor_ratio(n)]


@st.composite
def _wide_windows(draw):
    lo = draw(st.floats(0, 40).map(lambda x: max(1, int(2.0**x))))
    return lo, min(lo + draw(st.integers(0, 3 * WHEEL_PERIOD)), 1 << 40)


@settings(max_examples=30, deadline=None)
@given(_wide_windows())
def test_sieve_matches_reference_on_random_wide_windows(window):
    _assert_matches_reference(*window)


def test_sieve_returns_fresh_writeable_arrays():
    tile = multiplicative._wheel_tile()
    assert not tile.flags.writeable
    for lo, hi in ((1, 1), (1, 2), (5, 3 * WHEEL_PERIOD), (10**9, 10**9 + 70_000)):
        first = sieve_segment(lo, hi)
        assert first.flags.writeable and not np.shares_memory(first, tile)
        first[:] = -1
        assert np.array_equal(_numerators(sieve_segment(lo, hi)), _reference_sieve(lo, hi))


def test_sieve_concurrent_mixed_windows():
    windows = [(1, 1), (1, 2), (10**7, 10**7 + 40_000), (WHEEL_PERIOD - 3, 3 * WHEEL_PERIOD),
               (10**9, 10**9 + 5000), ((1 << 40) - 9000, 1 << 40), (7, 7), (12345, 12346)] * 4
    serial = [sieve_segment(lo, hi) for lo, hi in windows]
    multiplicative._wheel_tile.cache_clear()  # the threads race to build the tile
    multiplicative._base_primes.cache_clear()  # and the base primes
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda w: sieve_segment(*w), windows))
    for window, want, arr in zip(windows, serial, got):
        assert np.array_equal(arr, want), window


def test_segment_numerators_match_pointwise():
    nums = _numerators(sieve_segment(100, 600))
    for i in (0, 7, 499):
        assert _ratio(int(nums[i])) == divisor_ratio(100 + i)


def test_twisted_ratio_numerators():
    got = []
    for lo, hi in ((1, 65), (65, 124)):  # two segments, as the engine chunks them
        nums = sieve_segment(lo, hi)
        got.extend(int(v) for v in _numerators(twisted_ratio_numerators(5, lo, nums)))
    assert len(got) == 123
    for i, v in enumerate(got, start=1):
        assert _ratio(v) == divisor_ratio(5 * i), i
    with pytest.raises(ValueError):
        twisted_ratio_numerators(4, 1, sieve_segment(1, 9))


def _reference_twisted_gain(q: int, lo: int, num: np.ndarray) -> int:
    """Sum of twisted_ratio_numerators(q, lo, num) minus num.sum(), by level sums.

    The engine's former per-segment kernel, kept as a reference for
    sums.twisted_sum.  Let L_k be the sum of the numerators of the cells with
    q^k | n, one strided slice each (L_0 = num.sum(); L_k = 0 once q^k exceeds
    the segment top).  The cells with v_q(n) = k sum to L_k - L_{k+1} and each
    gains 1/(k+1) of itself, so the gain is sum_{k>=1} (L_k - L_{k+1}) / (k+1);
    0 for q = 1.  A division that leaves a remainder raises.
    """
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    if q == 1:
        return 0
    top = lo + num.size - 1
    levels = []  # L_1, L_2, ... while q^k <= top
    qk = q
    while qk <= top:
        levels.append(int(num[(-lo) % qk :: qk].sum()))
        qk *= q
    total = 0
    for k, (here, above) in enumerate(zip(levels, [*levels[1:], 0]), start=1):
        gain, rest = divmod(here - above, k + 1)
        if rest:
            raise ArithmeticError(f"level {k} sum of q={q} at lo={lo} is not divisible by {k + 1}")
        total += gain
    return total


@st.composite
def _twisted_windows(draw):
    q = draw(st.sampled_from((1, 2, 3, 5, 7, 11, 13)))
    if draw(st.booleans()):  # start on a multiple of a power of q
        qk = draw(st.sampled_from([q**k for k in range(1, 40) if q**k <= 1 << 39]))
        lo = qk * draw(st.integers(1, (1 << 39) // qk))
    else:
        lo = draw(st.integers(1, 1 << draw(st.integers(1, 40))))
    width = draw(st.one_of(st.integers(0, q), st.integers(0, 5000)))
    return q, lo, min(lo + width, 1 << 40)


@settings(max_examples=60, deadline=None)
@given(_twisted_windows())
def test_twisted_ratio_sum_matches_numerators(window):
    q, lo, hi = window
    cells = sieve_segment(lo, hi)
    nums = _numerators(cells)
    got = int(nums.sum()) + _reference_twisted_gain(q, lo, nums)
    assert got == int(_numerators(twisted_ratio_numerators(q, lo, cells)).sum())


def test_twisted_ratio_sum_examples():
    nums = _numerators(sieve_segment(1, 1025))  # every level of q = 2 up to 2^10
    for q in (1, 2, 3, 5, 7, 11, 13):
        expected = sum(divisor_ratio(q * n) for n in range(1, 1025)) * (1 << SCALE_EXP)
        assert int(nums.sum()) + _reference_twisted_gain(q, 1, nums) == expected, q
    assert _reference_twisted_gain(7, 10**6, _numerators(sieve_segment(10**6, 10**6))) == 0
    with pytest.raises(ValueError):
        _reference_twisted_gain(4, 1, nums)
    # a numerator that d(n) cannot produce leaves a remainder
    with pytest.raises(ArithmeticError):
        _reference_twisted_gain(2, 2, np.ones(1, dtype=np.int64))


def test_twisted_sum_matches_reference_gain_at_1e7():
    # q = 2 reaches the level k = 23 here, far past the brute-force property tests
    limit, size = 10**7, 1 << 20
    want = dict.fromkeys((2, 3, 5, 7), 0)
    for lo in range(1, limit + 1, size):
        num = _numerators(sieve_segment(lo, min(lo + size, limit + 1)))
        for q in want:
            want[q] += int(num.sum()) + _reference_twisted_gain(q, lo, num)
    for q, value in want.items():
        assert twisted_sum(q, limit) == value, q
