"""Prime generation: plain and segmented numpy sieves.

The segmented iterator uses fixed block boundaries (multiples of the block
size), which downstream code relies on for reproducible block-ordered
reductions.  It sieves odd cells only (cell i of a block starting at lo is
n = lo + 1 + 2i), so each block holds half as many flags; 2 is prepended
to block 0.  A block is cleared one piece of PIECE_CELLS cells at a time,
so that the strides of every base prime stay inside the L2 cache.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

DEFAULT_BLOCK = 1 << 23
PIECE_CELLS = 1 << 20  # 1 MiB of flags: half of a 2 MiB L2, which also holds the base primes
# no command gains from a q past 2^32 (sums.MAX_LIMIT < 2^32, so every
# stop x // q is 0), and below it is_prime takes under 2^15 trial divisions
MAX_Q = 1 << 32
DEFAULT_Q = (1, 2, 3, 5, 7)  # the twists q every command takes by default


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
    limit, so partial runs share prefixes with longer ones.  The block
    size must be even, so that every block starts on an even lo and its
    cell i is the odd n = lo + 1 + 2i.  Each base prime's first cell is
    found once per block and carried, as an offset, from piece to piece.
    """
    if block < 2 or block % 2:
        raise ValueError(f"block must be a positive even number (got {block})")
    if limit < 2:
        return
    base = primes_upto(isqrt(limit))[1:]  # odd primes only
    for lo in range(0, limit + 1, block):
        hi = min(lo + block, limit + 1)
        flags = np.ones((hi - lo) // 2, dtype=bool)
        if lo == 0:
            flags[0] = False  # n = 1
        ps = base[: np.searchsorted(base, isqrt(hi - 1), side="right")]  # p * p < hi
        at = ((np.maximum(ps, -(-lo // ps)) | 1) * ps - lo - 1) // 2  # cell of the first odd m*p >= p^2, lo
        for c0 in range(0, flags.size, PIECE_CELLS):
            piece = flags[c0 : c0 + PIECE_CELLS]
            for p, a in zip(ps.tolist(), at.tolist()):
                piece[a::p] = False  # a slice past the end is empty
            at = np.maximum(at - PIECE_CELLS, (at - PIECE_CELLS) % ps)
        block_primes = np.nonzero(flags)[0] * 2 + (lo + 1)
        if lo == 0:
            block_primes = np.concatenate(([2], block_primes))
        if block_primes.size:
            yield block_primes


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


def check_q(q: int) -> None:
    """Raise ValueError unless q is 1 or a prime below MAX_Q: the twists every entry point accepts."""
    if q >= MAX_Q:
        raise ValueError(f"q must be below 2^32 (got {q})")
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
