"""Prime generation: one segmented numpy sieve (Bays & Hudson, BIT 17, 1977).

Blocks have fixed boundaries (multiples of the block size), which
downstream code relies on for reproducible block-ordered reductions.  Only
odd cells are sieved (cell i of a block starting at lo is n = lo + 1 + 2i);
2 is prepended to block 0.  Each block starts as a copy of a tile free
of the multiples of TILE_PRIMES, in one buffer reused from block to
block; the base primes above them are strided one piece of PIECE_CELLS
cells at a time, so that every stride stays inside the L2 cache.
primes_upto joins the blocks, so the base primes come from it recursively.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

DEFAULT_BLOCK = 1 << 23
PIECE_CELLS = 1 << 20  # 1 MiB of flags: half of a 2 MiB L2, which also holds the base primes
TILE_PRIMES = (3, 5, 7, 11, 13)  # cleared by the tile, not strided
TILE_CELLS = prod(TILE_PRIMES)  # 15015 odd cells: the period of the tile
# no command gains from a q past 2^32 (sums.MAX_LIMIT < 2^32, so every
# stop x // q is 0), and below it is_prime takes under 2^15 trial divisions
MAX_Q = 1 << 32
DEFAULT_Q = (1, 2, 3, 5, 7)  # the twists q every command takes by default


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending int64 array: the blocks of prime_blocks, joined."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(limit)])


def prime_blocks(limit: int, block: int = DEFAULT_BLOCK):
    """Yield ascending arrays of primes <= limit in fixed value blocks.

    Block k covers [k*block, (k+1)*block); boundaries do not depend on
    limit, so partial runs share prefixes with longer ones.  The block
    size must be even, so that every block starts on an even lo and its
    cell i, the odd n = lo + 1 + 2i, is tile cell (lo // 2 + i) % TILE_CELLS.
    Each base prime's first cell is found once per block and carried, as
    an offset, from piece to piece.
    """
    if block < 2 or block % 2:
        raise ValueError(f"block must be a positive even number (got {block})")
    if limit < 2:
        return
    base = primes_upto(isqrt(limit))[1 + len(TILE_PRIMES) :]  # the odd primes past the tile's
    tile = np.ones(TILE_CELLS, dtype=bool)  # cell i is n = 1 + 2i
    for p in TILE_PRIMES:
        tile[p // 2 :: p] = False  # n = p (1 + 2j)
    rows = (TILE_CELLS - 1 + min(block, limit + 1) // 2) // TILE_CELLS + 1
    buffer = np.empty((rows, TILE_CELLS), dtype=bool)
    for lo in range(0, limit + 1, block):
        hi = min(lo + block, limit + 1)
        skip, cells = lo // 2 % TILE_CELLS, (hi - lo) // 2
        buffer[: (skip + cells) // TILE_CELLS + 1] = tile  # one copy, as in sieve_segment
        flags = buffer.reshape(-1)[skip : skip + cells]
        for p in TILE_PRIMES:  # the tile cleared p itself
            if lo < p < hi:
                flags[(p - lo) // 2] = True
        if lo == 0:
            flags[0] = False  # n = 1
        ps = base[: np.searchsorted(base, isqrt(hi - 1), side="right")]  # p * p < hi
        at = ((np.maximum(ps, -(-lo // ps)) | 1) * ps - lo - 1) // 2  # cell of the first odd m*p >= p^2, lo
        for c0 in range(0, flags.size, PIECE_CELLS):
            piece = flags[c0 : c0 + PIECE_CELLS]
            for p, a in zip(ps.tolist(), at.tolist()):
                piece[a::p] = False  # a slice past the end is empty
            at = np.maximum(at - PIECE_CELLS, (at - PIECE_CELLS) % ps)
        found = np.flatnonzero(flags)
        found *= 2
        found += lo + 1
        if lo == 0:
            found = np.concatenate(([2], found))
        if found.size:
            yield found
        del found  # the consumer may drop the block before the next one is sieved


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
