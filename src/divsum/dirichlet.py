"""Zeta values, the quadratic-cubic Euler product, and derived constants.

The product evaluated here is prod_p (1 - 1/(2 p^{2s}) + 1/(2 p^{3s})).
Together with zeta(s) zeta(2s) and a rational prefactor in q it factorizes
the Dirichlet series sum_n divisor_ratio(q n) / n^s, which is what the
verification suite checks numerically.

Truncating the product at P carries a certified log-scale tail bound:
|log f_p| <= p^{-2s} for every prime p and s > 1/2 (since the factor is
1 - u with 0 < u <= p^{-2s}/2 <= 0.18), and sum_{n>P} n^{-2s} <=
P^{1-2s} / (2s-1) by integral comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from . import ddouble as dd
from .multiplicative import (
    SCALE_EXP,
    segment_ratio_numerators,
    sieve_segment,
    twisted_ratio_numerators,
)
from .primes import is_prime, prime_blocks, primes_upto

DEFAULT_PRIME_LIMIT = 10**8  # flagship truncation for the s=1 constants
RHS_PRIME_LIMIT = 10**5  # plenty for the series checks (tail <= 1e-10 at s>=1.5)
FAST_PATH_PRIME_CAP = 1 << 31
SLOW_PATH_PRIME_CAP = 2 * 10**6
LHS_TERM_CAP = 10**8
LHS_CHUNK = 1 << 20  # integers n sieved per step of the series sum

# Bernoulli numbers B_2 .. B_26 (even index k -> B_k), classical values
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
}
_EM_TERMS = 12  # correction terms used; B_26 bounds the remainder
_EM_N = 32  # direct terms before corrections


@dataclass(frozen=True)
class ProductEstimate:
    """Truncated Euler product with a rigorous log-scale tail certificate.

    value + value_lo is a double-double rendering of the partial product
    (~106 effective mantissa bits, far below the tail bound), accumulated
    over fixed prime blocks merged in ascending order.
    """

    s: float
    prime_limit: int
    value: float
    value_lo: float
    tail_bound: float

    def interval(self) -> tuple[float, float]:
        """Enclosure of the full (untruncated) product."""
        v = self.value + self.value_lo
        slack = math.expm1(self.tail_bound) * v + 1e-20
        return v - slack, v + slack


@dataclass(frozen=True)
class CoefficientQ:
    """Reduced fraction (2q^2 - q) / (2q^2 - 2q + 1) for q prime or 1."""

    q: int
    num: int
    den: int


def zeta_real(s: float) -> float:
    """zeta(s) for real 1 < s <= 64, via Euler-Maclaurin summation.

    Direct sum to N plus Bernoulli corrections; for real s the remainder is
    bounded by the first omitted correction term, which is checked to be
    below 1e-13 before returning.  Absolute error <= 1e-12.
    """
    if not 1 < s <= 64:
        raise ValueError(f"zeta_real expects 1 < s <= 64 (got {s})")
    with mp.workprec(180):
        ss = mpf(s)
        n = mpf(_EM_N)
        total = sum(mpf(k) ** (-ss) for k in range(1, _EM_N))
        total += n ** (1 - ss) / (ss - 1) + n ** (-ss) / 2
        rising = ss  # s(s+1)...(s+2k-2), updated incrementally
        npow = n ** (-ss - 1)
        for k in range(1, _EM_TERMS + 1):
            b = _BERNOULLI[2 * k]
            total += mpf(b.numerator) / b.denominator / mp.factorial(2 * k) * rising * npow
            rising *= (ss + 2 * k - 1) * (ss + 2 * k)
            npow /= n * n
        b = _BERNOULLI[2 * _EM_TERMS + 2]
        remainder = abs(
            mpf(b.numerator) / b.denominator / mp.factorial(2 * _EM_TERMS + 2) * rising * npow
        )
        if remainder > mpf("1e-13"):
            raise ArithmeticError(f"euler-maclaurin remainder {remainder} too large")
        return float(total)


def _dd_local_factors(p: np.ndarray, m4: int):
    """Factors 1 - x^2/2 + x^3/2 with x = p^{-s} in double-double, 4s = m4."""
    zero = np.zeros_like(p)
    if m4 % 4 == 0:
        uh, ul = dd.ipow(p, zero, m4 // 4)
        xh, xl = dd.recip(uh, ul)
    elif m4 % 2 == 0:
        uh, ul = dd.ipow(p, zero, m4 // 2)
        xh, xl = dd.sqrt(*dd.recip(uh, ul))
    else:
        uh, ul = dd.ipow(p, zero, m4)
        xh, xl = dd.sqrt(*dd.sqrt(*dd.recip(uh, ul)))
    x2h, x2l = dd.mul(xh, xl, xh, xl)
    x3h, x3l = dd.mul(x2h, x2l, xh, xl)
    th, tl = dd.sub(np.ones_like(p), zero, *dd.mul_pow2(x2h, x2l, 0.5))
    return dd.add(th, tl, *dd.mul_pow2(x3h, x3l, 0.5))


def _tail_bound(s: float, prime_limit: int) -> float:
    return prime_limit ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)


def euler_product_C(s: float, prime_limit: int) -> ProductEstimate:
    """prod_{p <= prime_limit} (1 - 1/(2p^{2s}) + 1/(2p^{3s})) with tail bound.

    Accumulation runs over fixed prime blocks in ascending order; inside a
    block a fixed pairwise tree multiplies double-double factors, so the
    result is bit-identical regardless of scheduling.  When 4s is an
    integer (covers every half- and quarter-integer s) the vectorized path
    handles prime limits up to 2^31; other real s fall back to an mpmath
    loop with a smaller prime budget.
    """
    if not s > 0.5:
        raise ValueError(f"euler_product_C expects s > 1/2 (got {s})")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    m4 = 4.0 * s
    if m4 == round(m4):
        if prime_limit > FAST_PATH_PRIME_CAP:
            raise ValueError(f"prime_limit exceeds sieve budget {FAST_PATH_PRIME_CAP}")
        m = int(round(m4))
        m = m // 4 if m % 4 == 0 else (m // 2 if m % 2 == 0 else m)
        if m * math.log10(prime_limit) > 306:
            raise ValueError(
                f"p^{m} overflows binary64 below prime_limit={prime_limit}; "
                f"reduce prime_limit (the omitted factors differ from 1 by < 1e-300)"
            )
        hi, lo = 1.0, 0.0
        for block in prime_blocks(prime_limit):
            fh, fl = _dd_local_factors(block.astype(np.float64), int(round(m4)))
            bh, bl = dd.product_tree(fh, fl)
            hi, lo = dd.mul(hi, lo, bh, bl)
        hi, lo = float(hi), float(lo)
    else:
        if prime_limit > SLOW_PATH_PRIME_CAP:
            raise ValueError(
                f"prime_limit exceeds sieve budget {SLOW_PATH_PRIME_CAP} for "
                f"non-quarter-integer s"
            )
        with mp.workprec(160):
            acc = mpf(1)
            for p in primes_upto(prime_limit):
                x = mpf(int(p)) ** (-mpf(s))
                acc *= 1 - x * x / 2 + x * x * x / 2
            hi = float(acc)
            lo = float(acc - hi)
    return ProductEstimate(
        s=float(s),
        prime_limit=int(prime_limit),
        value=hi,
        value_lo=lo,
        tail_bound=_tail_bound(float(s), int(prime_limit)),
    )


def local_factor_residual(p: int, s: float) -> float:
    """|closed form of 1 + sum_k ratio(p^k) x^k  -  factorized local term|.

    With x = p^{-s}, compares (2 - 2x + x^2) / (2 (1-x)^2) against
    (1-x)^{-1} (1-x^2)^{-1} (1 - x^2/2 + x^3/2); they agree identically,
    so the residual is pure floating-point noise (contract: <= 1e-12).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime (got {p})")
    if not s > 0.5:
        raise ValueError(f"s must exceed 1/2 (got {s})")
    x = float(p) ** (-s)
    lhs = (2.0 - 2.0 * x + x * x) / (2.0 * (1.0 - x) ** 2)
    rhs = (1.0 - x * x / 2.0 + x * x * x / 2.0) / ((1.0 - x) * (1.0 - x * x))
    return abs(lhs - rhs)


def lemma_coefficient(q: int) -> CoefficientQ:
    """Exact reduced (2q^2 - q) / (2q^2 - 2q + 1); q must be 1 or prime."""
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    f = Fraction(2 * q * q - q, 2 * q * q - 2 * q + 1)
    return CoefficientQ(q=q, num=f.numerator, den=f.denominator)


def _require_s1(c1: ProductEstimate) -> None:
    if c1.s != 1.0:
        raise ValueError(f"need a product estimate at s=1 (got s={c1.s})")


def main_term_slope(q: int, c1: ProductEstimate) -> float:
    """Linear main-term coefficient for sum_{n<=x} ratio(qn): coeff * pi^2/6 * C."""
    _require_s1(c1)
    coeff = lemma_coefficient(q)
    return (coeff.num / coeff.den) * (math.pi**2 / 6.0) * (c1.value + c1.value_lo)


def main_term_slope_interval(q: int, c1: ProductEstimate) -> tuple[float, float]:
    """Slope enclosure induced by the product's tail certificate."""
    _require_s1(c1)
    coeff = lemma_coefficient(q)
    factor = (coeff.num / coeff.den) * (math.pi**2 / 6.0)
    lo, hi = c1.interval()
    return factor * lo, factor * hi


def rational_identity_holds() -> bool:
    """Exact check that 1/6 - (1/5) * coeff(5) * (1/6) equals 16/123."""
    c5 = lemma_coefficient(5)
    lhs = Fraction(1, 6) - Fraction(1, 5) * Fraction(c5.num, c5.den) * Fraction(1, 6)
    return lhs == Fraction(16, 123)


def theorem_constant(c1: ProductEstimate) -> float:
    """Main-term coefficient (16 pi^2 / 123) * C for the B-restricted sum."""
    _require_s1(c1)
    if not rational_identity_holds():
        raise ArithmeticError("rational identity 1/6 - 3/82 = 16/123 failed")
    return (16.0 * math.pi**2 / 123.0) * (c1.value + c1.value_lo)


def theorem_constant_interval(c1: ProductEstimate) -> tuple[float, float]:
    _require_s1(c1)
    factor = 16.0 * math.pi**2 / 123.0
    lo, hi = c1.interval()
    return factor * lo, factor * hi


def dirichlet_lhs(q: int, s: float, terms: int) -> tuple[float, float]:
    """Partial series sum_{n<=terms} ratio(qn) / n^s and a crude tail estimate.

    The tail estimate 4 (ln N + 2) / N^{s - 5/4} deliberately overshoots
    the true remainder for s >= 1.5; it is a reporting aid, not a bound
    used in arithmetic.
    """
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    if not s > 1:
        raise ValueError(f"series evaluation requires s > 1 (got {s})")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if q * terms > LHS_TERM_CAP:
        raise ValueError(f"q * terms exceeds budget {LHS_TERM_CAP}")
    scale = 2.0**-SCALE_EXP
    value = 0.0
    for lo in range(1, terms + 1, LHS_CHUNK):
        hi = min(lo + LHS_CHUNK, terms + 1)
        nums = twisted_ratio_numerators(q, lo, segment_ratio_numerators(sieve_segment(lo, hi)))
        n = np.arange(lo, hi, dtype=np.float64)
        value += float(np.sum(nums.astype(np.float64) * scale * n ** (-s)))
    tail = 4.0 * (math.log(terms) + 2.0) / terms ** (s - 1.0 - 0.25)
    return value, tail


def rhs_prefactor(q: int, s: float) -> float:
    """(2 q^{2s} - q^s) / (2 q^{2s} - 2 q^s + 1); equals 1 for q = 1."""
    qs = float(q) ** s
    return (2.0 * qs * qs - qs) / (2.0 * qs * qs - 2.0 * qs + 1.0)


def dirichlet_rhs(q: int, s: float, prime_limit: int = RHS_PRIME_LIMIT) -> float:
    """Factorized series value: prefactor * zeta(s) zeta(2s) * product."""
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    if not 1 < s <= 32:
        raise ValueError(f"dirichlet_rhs expects 1 < s <= 32 (got {s})")
    c = euler_product_C(s, prime_limit)
    return rhs_prefactor(q, s) * zeta_real(s) * zeta_real(2 * s) * (c.value + c.value_lo)


def constants_summary(prime_limit: int = DEFAULT_PRIME_LIMIT, q_list=(1, 2, 3, 5, 7)) -> dict:
    """All reported constants at s=1 from one product evaluation."""
    c1 = euler_product_C(1.0, prime_limit)
    lemma_lo, lemma_hi = main_term_slope_interval(1, c1)
    thm_lo, thm_hi = theorem_constant_interval(c1)
    return {
        "s": 1.0,
        "prime_limit": c1.prime_limit,
        "product_value": c1.value + c1.value_lo,
        "product_tail_bound": c1.tail_bound,
        "product_interval": list(c1.interval()),
        "lemma_constant": main_term_slope(1, c1),
        "lemma_constant_interval": [lemma_lo, lemma_hi],
        "theorem_constant": theorem_constant(c1),
        "theorem_constant_interval": [thm_lo, thm_hi],
        "rational_identity_16_over_123": rational_identity_holds(),
        "slopes": {str(q): main_term_slope(q, c1) for q in q_list},
    }
