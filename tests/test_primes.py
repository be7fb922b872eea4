from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum import dirichlet, multiplicative, primes, sums
from divsum.primes import (
    DEFAULT_BLOCK,
    MAX_Q,
    TILE_CELLS,
    check_q,
    is_prime,
    prime_blocks,
    primes_upto,
)


def _eratosthenes(limit: int) -> np.ndarray:
    """Independent oracle: the primes <= limit from a plain bytearray sieve."""
    is_p = bytearray([1]) * (max(limit, 1) + 1)
    is_p[:2] = b"\0\0"
    for p in range(2, isqrt(max(limit, 0)) + 1):
        if is_p[p]:
            is_p[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.flatnonzero(np.frombuffer(is_p, dtype=np.uint8))


def _check_blocks(limit: int, block: int) -> None:
    """prime_blocks(limit, block) yields the oracle's primes, each block nonempty and inside its range."""
    blocks = list(prime_blocks(limit, block))
    for ps in blocks:
        k = int(ps[0]) // block
        assert ps.dtype == np.int64 and ps.size
        assert k * block <= ps[0] and ps[-1] < (k + 1) * block
    got = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    assert np.array_equal(got, _eratosthenes(limit)), (limit, block)


def test_primes_upto_small():
    assert list(primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1).size == primes_upto(0).size == primes_upto(-5).size == 0
    assert list(primes_upto(2000)) == [n for n in range(2001) if is_prime(n)]


def test_primes_upto_concurrent_mixed_limits():
    limits = [10**5, 7, 3000, 10**4, 2, 50_000, 1, 97, 10**5 - 1, 400] * 6
    fresh = {n: primes_upto(n) for n in set(limits)}
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(primes_upto, limits))
    for n, primes in zip(limits, got):
        assert primes.dtype == np.int64
        assert np.array_equal(primes, fresh[n]), n


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-3, 50_000),
    st.integers(1, 2048).map(lambda k: 2 * k),
    st.sampled_from([1, 2, 3, 7, 64, primes.PIECE_CELLS]),
)
def test_prime_blocks_match_primes_upto(limit, block, piece):
    # pieces far smaller than a block carry every base prime's offset
    # across many piece boundaries, and past some of them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "PIECE_CELLS", piece)
        _check_blocks(limit, block)
        assert np.array_equal(primes_upto(limit), _eratosthenes(limit))


@pytest.mark.parametrize("block", range(2, 16, 2))
def test_prime_blocks_small_blocks_hold_the_tile_primes(block):
    # below 30 the tile primes 3 .. 13 fall outside block 0, where the
    # tile has cleared them as multiples of themselves
    for limit in range(-1, 340):
        _check_blocks(limit, block)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prime_blocks_at_tile_periods(k):
    # cell i of a block is tile cell (lo // 2 + i) % TILE_CELLS; limits at
    # whole tile periods, and blocks that start inside one
    assert TILE_CELLS == 15015
    for limit in (2 * TILE_CELLS * k - 1, 2 * TILE_CELLS * k, 2 * TILE_CELLS * k + 1):
        for block in (2 * TILE_CELLS, 2 * TILE_CELLS - 2, 4096, 1000, DEFAULT_BLOCK):
            _check_blocks(limit, block)


def test_prime_blocks_rejects_odd_block():
    for block in (1, 3, 4097, 0, -2):
        with pytest.raises(ValueError):
            next(prime_blocks(100, block))


def test_prime_blocks_default_block_boundary():
    # limits just past the first and the second default block, each full
    # block cleared in DEFAULT_BLOCK // 2 // PIECE_CELLS pieces
    for limit in (DEFAULT_BLOCK + 1000, 2 * DEFAULT_BLOCK + 12345):
        assert len(list(prime_blocks(limit))) == limit // DEFAULT_BLOCK + 1, limit
        _check_blocks(limit, DEFAULT_BLOCK)


def test_check_q_accepts_one_and_primes_below_the_bound():
    for q in (1, 2, 3, 5, 7, 97, 4294967291):  # the largest prime below 2^32
        check_q(q)
    assert MAX_Q == 1 << 32


@pytest.mark.parametrize("q", [2**61 - 1, 1 << 32, 2**89 - 1])
def test_check_q_refuses_large_primes_without_trial_division(q, monkeypatch):
    def no_trial_division(n):
        raise AssertionError("ran trial division on a q past the bound")

    monkeypatch.setattr("divsum.primes.is_prime", no_trial_division)
    with pytest.raises(ValueError, match=r"q must be below 2\^32"):
        check_q(q)


# every public entry that takes q, called with a valid rest of its arguments
Q_ENTRIES = {
    "EngineConfig": lambda q: sums.EngineConfig(limit=10, q_list=(1, q)),
    "twisted_sum": lambda q: sums.twisted_sum(q, 10),
    "twisted_ratio_numerators": lambda q: multiplicative.twisted_ratio_numerators(
        q, 1, multiplicative.sieve_segment(1, 11)
    ),
    "lemma_coefficient": dirichlet.lemma_coefficient,
    "dirichlet_lhs": lambda q: dirichlet.dirichlet_lhs((1, q), (2.0,), 10),
    "dirichlet_rhs": lambda q: dirichlet.dirichlet_rhs((1, q), (2.0,), 100),
    "constants_summary": lambda q: dirichlet.constants_summary(100, (1, q)),
}


@pytest.mark.parametrize("q", [0, 4, -3])
@pytest.mark.parametrize("entry", Q_ENTRIES)
def test_every_q_entry_refuses_with_the_one_message(entry, q):
    with pytest.raises(ValueError, match=rf"^q must be 1 or prime \(got {q}\)$"):
        Q_ENTRIES[entry](q)
    Q_ENTRIES[entry](5)  # and the same call with a prime q runs
