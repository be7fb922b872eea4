"""The divisor ratio d(n)/2^omega(n): exact values, sieve and oracles.

The ratio is multiplicative with value (k+1)/2 at a prime power p^k, so any
value for n < 2^64 is a dyadic rational with denominator at most 2^15.  All
sums of ratios are therefore accumulated exactly as integers at a fixed
power-of-two scale (SCALE_EXP), which keeps parallel reductions
order-independent and bit-for-bit reproducible.  The segmented sieve yields
those scaled numerators directly; d(n) and omega(n) themselves are computed
only per n, by factorize and by the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .primes import is_prime, primes_upto

SCALE_EXP = 32
MAX_FACTORIZE = 1 << 63
MAX_SIEVE_VALUE = 1 << 40
MAX_SEGMENT_CELLS = 1 << 26  # memory budget for one dense segment
BRUTE_FORCE_LIMIT = 10**7

# ordered (prime, exponent) pairs; primes strictly increasing, exponents >= 1
Factorization = list[tuple[int, int]]


@dataclass(frozen=True, order=True)
class DyadicValue:
    """Exact rational numerator / 2^scale_exp with integer arithmetic only."""

    numerator: int
    scale_exp: int = SCALE_EXP

    def __post_init__(self):
        if self.scale_exp < 0:
            raise ValueError("scale_exp must be non-negative")

    def _check_scale(self, other: "DyadicValue") -> None:
        if self.scale_exp != other.scale_exp:
            raise ValueError(
                f"scale mismatch: {self.scale_exp} vs {other.scale_exp}"
            )

    def __add__(self, other: "DyadicValue") -> "DyadicValue":
        self._check_scale(other)
        return DyadicValue(self.numerator + other.numerator, self.scale_exp)

    def __sub__(self, other: "DyadicValue") -> "DyadicValue":
        self._check_scale(other)
        return DyadicValue(self.numerator - other.numerator, self.scale_exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.scale_exp)

    def to_float(self) -> float:
        # one rounding step: float(numerator) then exact power-of-two scale
        return float(self.numerator) * 2.0 ** (-self.scale_exp)

    @classmethod
    def zero(cls) -> "DyadicValue":
        return cls(0)

    @classmethod
    def from_ratio(cls, d: int, omega: int) -> "DyadicValue":
        """Exact d / 2^omega at the global scale; requires omega <= SCALE_EXP."""
        if omega > SCALE_EXP:
            raise OverflowError(f"omega={omega} exceeds scale 2^{SCALE_EXP}")
        return cls(d << (SCALE_EXP - omega))

    def __repr__(self):
        return f"DyadicValue({self.numerator}/2^{self.scale_exp})"


def factorize(n: int) -> Factorization:
    """Trial division by primes up to sqrt(n); residual > 1 is prime."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1 (got {n})")
    if n >= MAX_FACTORIZE:
        raise ValueError(f"factorize supports n < 2^63 (got {n})")
    factors: Factorization = []
    rem = n
    for p in primes_upto(isqrt(n)):
        p = int(p)
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


def omega(factors: Factorization) -> int:
    return len(factors)


def divisor_ratio(n: int) -> DyadicValue:
    """Exact d(n) / 2^omega(n), the multiplicative ratio of divisor counts."""
    factors = factorize(n)
    return DyadicValue.from_ratio(divisor_count(factors), len(factors))


def divisor_ratio_brute(n: int) -> DyadicValue:
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
    num = (d << SCALE_EXP) // unitary
    if num * unitary != d << SCALE_EXP:
        raise ArithmeticError(f"non-dyadic ratio for n={n}: {d}/{unitary}")
    return DyadicValue(num)


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Scaled ratio numerators ratio(n) * 2^SCALE_EXP for all n in [lo, hi).

    The ratio is 1 at every prime, so only prime powers p^k with k >= 2
    (p <= sqrt(hi-1)) are strided: entries divisible by p^(k+1) move their
    p-factor from (k+1)/2 to (k+2)/2, exact because (k+1) divides d(n).
    Guards against int64 overflow of a subsequent full-segment sum: raises
    instead of wrapping.
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
    num = np.full(size, 1 << SCALE_EXP, dtype=np.int64)
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
    if size and int(num.max()) * size >= 1 << 63:
        raise OverflowError("segment sum would overflow int64")
    return num


def twisted_ratio_numerators(q: int, lo: int, num: np.ndarray) -> np.ndarray:
    """Scaled numerators of the ratio at q*n for n = lo .. lo+len(num)-1.

    num holds the numerators of the ratio at n itself (sieve_segment of the
    segment starting at lo).  For q prime and a = v_q(n): when a = 0,
    q adds one prime to both d and 2^omega, so ratio(qn) = ratio(n); when
    a >= 1, ratio(qn) = ratio(n) * (a+2)/(a+1), exact because (a+1) divides
    d(n).  q = 1 returns num unchanged.
    """
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    if q == 1 or num.size == 0:
        return num
    a = np.zeros(num.size, dtype=np.int8)  # v_q(n) < 64
    top = lo + num.size - 1
    qk = q
    while qk <= top:
        a[(-lo) % qk :: qk] += 1
        qk *= q
    hit = a > 0
    out = num.copy()
    out[hit] = num[hit] // (a[hit] + 1) * (a[hit] + 2)
    if int(out.max()) * out.size >= 1 << 63:
        raise OverflowError("segment sum would overflow int64")
    return out
