"""Prime generation: plain and segmented numpy sieves.

The segmented iterator uses fixed block boundaries (multiples of the block
size), which downstream code relies on for reproducible block-ordered
reductions.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

DEFAULT_BLOCK = 1 << 23


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def prime_blocks(limit: int, block: int = DEFAULT_BLOCK):
    """Yield ascending arrays of primes <= limit in fixed value blocks.

    Block k covers [k*block, (k+1)*block); boundaries do not depend on
    limit, so partial runs share prefixes with longer ones.
    """
    if limit < 2:
        return
    base = primes_upto(isqrt(limit))
    lo = 0
    while lo <= limit:
        hi = min(lo + block, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            flags[: min(2, hi - lo)] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            flags[start - lo :: p] = False
        block_primes = np.nonzero(flags)[0] + lo
        if block_primes.size:
            yield block_primes
        lo += block


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for n < 2^63."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
