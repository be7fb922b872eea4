"""The divisor ratio d(n)/2^omega(n): exact values, sieve and oracles.

The ratio is multiplicative with value (k+1)/2 at a prime power p^k, so any
value for n < 2^64 is a dyadic rational with denominator at most 2^15.  All
sums of ratios are therefore accumulated exactly as plain int numerators at a
fixed power-of-two scale 2^SCALE_EXP, which keeps parallel reductions
order-independent and bit-for-bit reproducible; to_float converts one.  The
segmented sieve (wheel tile, strides up to top^(1/4), vector steps above)
yields int16 cells ratio(n) * 2^CELL_EXP, at most MAX_CELL < 2^15, which a
left shift by CELL_SHIFT takes to that scale; d(n) and omega(n) are computed
only per n, by factorize and the oracle, each giving the ratio as an exact
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, count
from math import gcd, isqrt, prod

import numpy as np

from .primes import check_q, primes_upto

SCALE_EXP = 32
MAX_FACTORIZE = 1 << 63
MAX_SIEVE_VALUE = 1 << 40
# below 2^40 at most 7 primes have p^2 | n, as (2*3*...*19)^2 > 2^40, so
# ratio(n) * 2^7 is an integer; it is at most MAX_CELL, at 2^11 3^7 5^4 7^3
CELL_EXP = 7
CELL_SHIFT = SCALE_EXP - CELL_EXP
MAX_CELL = 120 << CELL_EXP
MAX_SEGMENT_CELLS = 1 << 26  # memory budget for one dense segment; its sum < 2^26 MAX_CELL < 2^40
WHEEL = {2: 5, 3: 3, 5: 2}  # sieve_segment copies the levels p^2..p^e from one tile
WHEEL_PERIOD = prod(p**e for p, e in WHEEL.items())  # 21600 cells, 42 KiB
BRUTE_FORCE_LIMIT = 10**7

# ordered (prime, exponent) pairs; primes strictly increasing, exponents >= 1
Factorization = list[tuple[int, int]]


def to_float(numerator: int) -> float:
    """numerator / 2^SCALE_EXP in one rounding step: float(numerator), then an exact power-of-two scale."""
    return float(numerator) * 2.0 ** (-SCALE_EXP)


def factorize(n: int) -> Factorization:
    """Trial division by 2, 3 and every 6k +- 1 while p*p <= rest; a rest > 1 is prime.

    It needs no prime table, so this oracle shares no code with sieve_segment.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1 (got {n})")
    if n >= MAX_FACTORIZE:
        raise ValueError(f"factorize supports n < 2^63 (got {n})")
    factors: Factorization = []
    rem = n
    for p in chain((2, 3), chain.from_iterable(zip(count(5, 6), count(7, 6)))):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        factors.append((rem, 1))
    return factors


def divisor_count(factors: Factorization) -> int:
    d = 1
    for _, e in factors:
        d *= e + 1
    return d


def unitary_divisor_count(factors: Factorization) -> int:
    return 1 << len(factors)


def divisor_ratio(n: int) -> Fraction:
    """Exact d(n) / 2^omega(n), the multiplicative ratio of divisor counts."""
    factors = factorize(n)
    return Fraction(divisor_count(factors), unitary_divisor_count(factors))


def divisor_ratio_brute(n: int) -> Fraction:
    """Independent oracle: count divisors and unitary divisors directly.

    Pure trial division over d <= sqrt(n) with a gcd test per divisor pair;
    shares no factor logic with divisor_ratio.
    """
    if n < 1:
        raise ValueError(f"divisor_ratio_brute expects n >= 1 (got {n})")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"divisor_ratio_brute capped at {BRUTE_FORCE_LIMIT}")
    d = 0
    unitary = 0
    i = 1
    while i * i < n:
        if n % i == 0:
            d += 2
            if gcd(i, n // i) == 1:
                unitary += 2  # gcd(d0, n/d0) is symmetric in the pair
        i += 1
    if i * i == n:
        d += 1
        if gcd(i, i) == 1:
            unitary += 1
    return Fraction(d, unitary)


def _stride_levels(num: np.ndarray, lo: int, top: int, p: int, e: int) -> None:
    """Apply the levels p^e, p^(e+1), ... <= top to the cells n = lo + i of num."""
    pj = p**e
    while pj <= top:
        cells = num[(-lo) % pj :: pj]
        cells //= e
        cells *= e + 1
        pj *= p
        e += 1


@cache
def _wheel_tile() -> np.ndarray:
    """Read-only cells of the WHEEL levels alone; cell i stands for n = i."""
    tile = np.full(WHEEL_PERIOD, 1 << CELL_EXP, dtype=np.int16)
    for p, e in WHEEL.items():
        _stride_levels(tile, 0, p**e, p, 2)
    tile.flags.writeable = False
    return tile


@cache
def _base_primes(bits: int) -> np.ndarray:
    """Read-only primes up to 2^bits, shared by the segments whose isqrt(top) they cover."""
    (primes := primes_upto(1 << bits)).flags.writeable = False
    return primes


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """int16 cells ratio(n) * 2^CELL_EXP for all n in [lo, hi).

    Only the levels p^k, k >= 2, change a cell (the ratio is 1 at primes): a
    cell divisible by p^k moves its p-factor from k/2 to (k+1)/2, exact as the
    cell is k times R 2^(CELL_EXP-1), R the factors of at most 6 other primes.
    Each level divides before it multiplies, so no step exceeds the final
    cell, at most MAX_CELL < 2^15.
    The cached tile gives the WHEEL levels; the higher levels of the WHEEL
    primes and all primes up to top^(1/4) (top = hi - 1) are strided; each
    level of the rest is one fancy-index step over all their hits, exact as
    no two share a cell (p1^2 p2^2 > top).
    """
    if not (1 <= lo <= hi):
        raise ValueError(f"need 1 <= lo <= hi (got [{lo}, {hi}))")
    if hi > MAX_SIEVE_VALUE:
        raise ValueError(f"sieve_segment supports hi <= 2^40 (got {hi})")
    size = hi - lo
    if size > MAX_SEGMENT_CELLS:
        raise MemoryError(
            f"segment of {size} cells exceeds budget {MAX_SEGMENT_CELLS}"
        )
    skip = lo % WHEEL_PERIOD  # the tile, broadcast over whole periods from lo - skip
    num = np.empty(((skip + size) // WHEEL_PERIOD + 1, WHEEL_PERIOD), dtype=np.int16)
    num[:] = _wheel_tile()  # one copy that releases the interpreter lock, unlike np.tile
    num = num.reshape(-1)[skip : skip + size]
    top = hi - 1
    primes = _base_primes(max(16, (root := isqrt(top)).bit_length()))  # one table for every top < 2^32
    split, end = np.searchsorted(primes, (max(isqrt(root), max(WHEEL)), root), side="right")
    for p in primes[:split].tolist():
        _stride_levels(num, lo, top, p, WHEEL.get(p, 1) + 1)
    p, e = primes[split:end], 2
    while p.size:
        start = (-lo) % (pe := p**e)
        hits = (size - start + pe - 1) // pe  # the cells start + j p^e below size
        j = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)
        at = np.repeat(start, hits) + j * np.repeat(pe, hits)
        num[at] = num[at] // e * (e + 1)
        p, e = p[p ** (e + 1) <= top], e + 1
    return num


def twisted_ratio_numerators(q: int, lo: int, num: np.ndarray) -> np.ndarray:
    """Cells of the ratio at q*n for n = lo .. lo+len(num)-1, at scale 2^CELL_EXP.

    num holds the cells of the ratio at n itself (sieve_segment of the
    segment starting at lo).  For q prime and a = v_q(n): when a = 0,
    q adds one prime to both d and 2^omega, so ratio(qn) = ratio(n); when
    a >= 1, ratio(qn) = ratio(n) * (a+2)/(a+1), exact because the cell is
    (a+1) times R 2^(CELL_EXP-1), as in sieve_segment; a cell grows by at
    most 3/2, so int16 cells stay below 3/2 MAX_CELL < 2^15.  q = 1 returns num.
    """
    check_q(q)
    if q == 1 or num.size == 0:
        return num
    a = np.zeros(num.size, dtype=np.int8)  # v_q(n) < 64
    top = lo + num.size - 1
    qk = q
    while qk <= top:
        a[(-lo) % qk :: qk] += 1
        qk *= q
    return np.where(a > 0, num // (a + 1) * (a + 2), num)
