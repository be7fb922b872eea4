"""Zeta values, the quadratic-cubic Euler product, and derived constants.

The product evaluated here is prod_p (1 - 1/(2 p^{2s}) + 1/(2 p^{3s})).
Together with zeta(s) zeta(2s) and a rational prefactor in q it factorizes
the Dirichlet series sum_n divisor_ratio(q n) / n^s, which is what the
verification suite checks numerically.

Truncating the product at P carries a certified log-scale tail bound:
|log f_p| <= p^{-2s} for every prime p and s > 1/2 (since the factor is
1 - u with 0 < u <= p^{-2s}/2 <= 0.18), and sum_{n>P} n^{-2s} <=
P^{1-2s} / (2s-1) by integral comparison.

The partial product itself is split at HEAD_PRIME_LIMIT.  The head
primes are multiplied in mpmath at 128 bits; above them each factor
contributes t_p = log1p(-x^2/2 + x^3/2), x = p^{-s}, summed in float64
per fixed prime block, and the block sums are combined exactly by fsum
in ascending order.  A block's terms are computed in place, TAIL_CHUNK
primes at a time, into one reused buffer, with the operations of
log1p(x * x * (x - 1) * 0.5) in their order, and summed by one np.sum.
The float64 rounding of that tail is bounded explicitly
(ProductEstimate.rounding_bound).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from .multiplicative import (
    CELL_EXP,
    sieve_segment,
    twisted_ratio_numerators,
)
from .primes import DEFAULT_Q, check_q, is_prime, prime_blocks, primes_upto

DEFAULT_PRIME_LIMIT = 10**8  # flagship truncation for the s=1 constants
RHS_PRIME_LIMIT = 10**5  # plenty for the series checks (tail <= 1e-10 at s>=1.5)
FAST_PATH_PRIME_CAP = 1 << 31
HEAD_PRIME_LIMIT = 1 << 12  # primes up to here are multiplied in mpmath
HEAD_PREC = 128  # bits of the head product and of head * exp(tail)
LHS_TERM_CAP = 10**8  # dirichlet_lhs sieves [1, terms]
LHS_CHUNK = 1 << 20  # integers n sieved per step of the series sum
TAIL_CHUNK = 1 << 14  # tail primes per step of the float64 terms: 128 KiB of x, and of terms, stay in L2

# Units of 2^-53 relative error per tail term on top of the bit length of
# the largest block: numpy's pairwise sum rounds a term at most 24 times
# inside one of its 128-term leaves plus once per halving above it (the
# bit length, less 6), the term itself carries at most 16 (p^-s and
# log1p within 2 ulp, three roundings in their argument), fsum adds 1, and
# 5 more absorb the second-order terms.
_TAIL_ROUNDING_UNITS = 40


@dataclass(frozen=True)
class ProductEstimate:
    """Truncated Euler product with a rigorous log-scale tail certificate.

    value + value_lo renders the partial product to within rounding_bound:
    2^-100 for the 128-bit head, plus (bit length of the largest prime
    block + 40) * 2^-53 * |log-sum of the float64 tail|.  Blocks are fixed
    and merged in ascending order, so the result does not depend on
    scheduling.
    """

    s: float
    prime_limit: int
    value: float
    value_lo: float
    tail_bound: float
    rounding_bound: float

    def interval(self) -> tuple[float, float]:
        """Enclosure of the full (untruncated) product."""
        v = self.value + self.value_lo
        slack = math.expm1(self.tail_bound) * v + self.rounding_bound
        return v - slack, v + slack


def zeta_real(s: float) -> float:
    """zeta(s) for real 1 < s <= 64, from mpmath."""
    if not 1 < s <= 64:
        raise ValueError(f"zeta_real expects 1 < s <= 64 (got {s})")
    return float(mp.zeta(s))


def _tail_bound(s: float, prime_limit: int) -> float:
    return prime_limit ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)


def euler_product_C(s: float, prime_limit: int) -> ProductEstimate:
    """prod_{p <= prime_limit} (1 - 1/(2p^{2s}) + 1/(2p^{3s})) with tail bound.

    One path for every finite s > 1/2 and prime_limit <= 2^31: the primes
    up to HEAD_PRIME_LIMIT are multiplied at 128 bits, and the rest enter
    as exp of a float64 log-sum taken per fixed prime block and combined
    by fsum in ascending block order.
    """
    check_local_grid((s,))
    _check_prime_limit(prime_limit)
    s = float(s)
    block_sums, largest = [], 0
    chunk, terms = np.empty(TAIL_CHUNK), np.empty(0)
    for block in prime_blocks(prime_limit):
        p = block[np.searchsorted(block, HEAD_PRIME_LIMIT, side="right") :]
        if terms.size < p.size:
            terms = np.empty(p.size)
        for a in range(0, p.size, TAIL_CHUNK):
            x = chunk[: min(TAIL_CHUNK, p.size - a)]
            x[:] = p[a : a + x.size]
            x **= -s  # as p ** -s: numpy takes its reciprocal at s = 1 either way
            t = np.multiply(x, x, out=terms[a : a + x.size])
            x -= 1.0
            t *= x
            t *= 0.5
            np.log1p(t, out=t)
        block_sums.append(float(np.sum(terms[: p.size])))  # one pairwise sum per block, as the bound assumes
        largest = max(largest, p.size)
        del block, p  # the for target would keep this block alive while the next is sieved
    tail = math.fsum(block_sums)  # every term is <= 0, so |tail| = sum |t_p|
    with mp.workprec(HEAD_PREC):
        ss = mpf(s)
        product = mpf(1)
        for p in primes_upto(min(prime_limit, HEAD_PRIME_LIMIT)):
            x = mpf(int(p)) ** -ss
            product *= 1 - x * x / 2 + x * x * x / 2
        product *= mp.exp(tail)
        value = float(product)
        value_lo = float(product - value)
    return ProductEstimate(
        s=s,
        prime_limit=int(prime_limit),
        value=value,
        value_lo=value_lo,
        tail_bound=_tail_bound(s, int(prime_limit)),
        rounding_bound=(largest.bit_length() + _TAIL_ROUNDING_UNITS) * 2.0**-53 * abs(tail)
        + 2.0**-100,
    )


def _check_prime_limit(prime_limit: int) -> None:
    if not 2 <= prime_limit <= FAST_PATH_PRIME_CAP:
        raise ValueError(f"prime limit must be in [2, {FAST_PATH_PRIME_CAP}] (got {prime_limit})")


def check_local_grid(s_grid, name: str = "s") -> None:
    """Raise unless every s in s_grid is finite and exceeds 1/2, the domain of the local factors."""
    if bad := [s for s in s_grid if not 0.5 < s < math.inf]:
        raise ValueError(f"{name} must be finite and exceed 1/2 (got {bad[0]})")


def local_factor_residual(p: int, s: float) -> float:
    """|closed form of 1 + sum_k ratio(p^k) x^k  -  factorized local term|.

    With x = p^{-s}, compares (2 - 2x + x^2) / (2 (1-x)^2) against
    (1-x)^{-1} (1-x^2)^{-1} (1 - x^2/2 + x^3/2); they agree identically,
    so the residual is pure floating-point noise (contract: <= 1e-12).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime (got {p})")
    check_local_grid((s,))
    return _local_residual(p, s)


def _local_residual(p: int, s: float) -> float:  # for a prime p and an s the caller checked
    x = float(p) ** (-s)
    lhs = (2.0 - 2.0 * x + x * x) / (2.0 * (1.0 - x) ** 2)
    rhs = (1.0 - x * x / 2.0 + x * x * x / 2.0) / ((1.0 - x) * (1.0 - x * x))
    return abs(lhs - rhs)


def lemma_coefficient(q: int) -> Fraction:
    """Exact reduced (2q^2 - q) / (2q^2 - 2q + 1), the prefactor at s = 1; q must be 1 or prime."""
    check_q(q)
    return rhs_prefactor(Fraction(q), 1)


def _times_c1(factor: float, c1: ProductEstimate) -> tuple[float, list[float]]:
    """factor * C(1) and its enclosure from the product's tail certificate."""
    if c1.s != 1.0:
        raise ValueError(f"need a product estimate at s=1 (got s={c1.s})")
    lo, hi = c1.interval()
    return factor * (c1.value + c1.value_lo), [factor * lo, factor * hi]


def main_term_slope(q: int, c1: ProductEstimate) -> tuple[float, list[float]]:
    """Linear main-term coefficient coeff * pi^2/6 * C of sum_{n<=x} ratio(qn), and its enclosure."""
    coeff = lemma_coefficient(q)
    return _times_c1((coeff.numerator / coeff.denominator) * (math.pi**2 / 6.0), c1)


def rational_identity_holds() -> bool:
    """Exact check that 1/6 - (1/5) * coeff(5) * (1/6) equals 16/123."""
    lhs = Fraction(1, 6) - Fraction(1, 5) * lemma_coefficient(5) * Fraction(1, 6)
    return lhs == Fraction(16, 123)


def theorem_constant(c1: ProductEstimate) -> tuple[float, list[float]]:
    """Main-term coefficient (16 pi^2 / 123) * C of the B-restricted sum, and its enclosure."""
    if not rational_identity_holds():
        raise ValueError("rational identity 1/6 - 3/82 = 16/123 failed")
    return _times_c1(16.0 * math.pi**2 / 123.0, c1)


def _check_lhs(q_list, s_grid, terms: int) -> None:
    if not 1 <= terms <= LHS_TERM_CAP:
        raise ValueError(f"terms must be in [1, {LHS_TERM_CAP}] (got {terms})")
    for q in q_list:
        check_q(q)
    if bad := [s for s in s_grid if not s > 1]:
        raise ValueError(f"s must exceed 1 (got {bad[0]})")


def _check_rhs(q_list, s_grid) -> None:
    for q in q_list:
        check_q(q)
    if bad := [s for s in s_grid if not 1 < s <= 32]:
        raise ValueError(f"s must be in (1, 32] (got {bad[0]})")


def check_series_grid(q_list, s_grid, terms: int, prime_limit: int) -> None:
    """Raise ValueError unless both sides of the series check accept the whole grid.

    Lets a whole verification grid fail before its first sieve.
    """
    _check_lhs(q_list, s_grid, terms)
    _check_rhs(q_list, s_grid)
    _check_prime_limit(prime_limit)


def dirichlet_lhs(q_list, s_grid, terms: int) -> dict[tuple[int, float], tuple[float, float]]:
    """Partial series sum_{n<=terms} ratio(qn) / n^s and a crude tail estimate, by (q, s).

    One sieve per chunk of n serves the whole grid, and every value sums
    its chunks in ascending order, so no value depends on the rest of the
    grid.  The tail estimate 4 (ln N + 2) / N^{s - 5/4} deliberately
    overshoots the true remainder for s >= 1.5; it is a reporting aid, not
    a bound used in arithmetic.
    """
    _check_lhs(q_list, s_grid, terms)
    value = dict.fromkeys(itertools.product(q_list, s_grid), 0.0)
    scale = 2.0**-CELL_EXP
    for lo in range(1, terms + 1, LHS_CHUNK):
        hi = min(lo + LHS_CHUNK, terms + 1)
        num = sieve_segment(lo, hi)
        n = np.arange(lo, hi, dtype=np.float64)
        powers = {s: n ** (-s) for s in s_grid}
        for q in dict.fromkeys(q_list):
            scaled = twisted_ratio_numerators(q, lo, num).astype(np.float64) * scale
            for s, power in powers.items():
                value[q, s] += float(np.sum(scaled * power))
    return {
        (q, s): (v, 4.0 * (math.log(terms) + 2.0) / terms ** (s - 1.0 - 0.25))
        for (q, s), v in value.items()
    }


def rhs_prefactor(q: int | Fraction, s: float) -> float | Fraction:
    """(2 q^{2s} - q^s) / (2 q^{2s} - 2 q^s + 1); 1 for q = 1, exact for a Fraction q and s = 1."""
    qs = q**s  # for an int q and a float s this is float(q) ** s
    return (2 * qs * qs - qs) / (2 * qs * qs - 2 * qs + 1)


def dirichlet_rhs(
    q_list, s_grid, prime_limit: int = RHS_PRIME_LIMIT
) -> dict[tuple[int, float], float]:
    """Factorized series value prefactor * zeta(s) zeta(2s) * product, by (q, s).

    The product and the zeta values are computed once per s.
    """
    _check_rhs(q_list, s_grid)
    out = {}
    for s in dict.fromkeys(s_grid):
        c = euler_product_C(s, prime_limit)
        zeta_s, zeta_2s, value = zeta_real(s), zeta_real(2 * s), c.value + c.value_lo
        out.update({(q, s): rhs_prefactor(q, s) * zeta_s * zeta_2s * value for q in q_list})
    return out


def constants_summary(prime_limit: int = DEFAULT_PRIME_LIMIT, q_list=DEFAULT_Q) -> dict:
    """All reported constants at s=1 from one product evaluation."""
    for q in q_list:  # a bad q fails before the product is computed
        check_q(q)
    c1 = euler_product_C(1.0, prime_limit)
    lemma, lemma_interval = main_term_slope(1, c1)
    theorem, theorem_interval = theorem_constant(c1)
    return {
        "s": 1.0,
        "prime_limit": c1.prime_limit,
        "product_value": c1.value + c1.value_lo,
        "product_tail_bound": c1.tail_bound,
        "product_interval": list(c1.interval()),
        "lemma_constant": lemma,
        "lemma_constant_interval": lemma_interval,
        "theorem_constant": theorem,
        "theorem_constant_interval": theorem_interval,
        "rational_identity_16_over_123": rational_identity_holds(),
        "slopes": {str(q): main_term_slope(q, c1)[0] for q in q_list},
    }
