from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.primes import DEFAULT_BLOCK, is_prime, prime_blocks, primes_upto


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


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 50_000), st.integers(1, 2048).map(lambda k: 2 * k))
def test_prime_blocks_match_primes_upto(limit, block):
    blocks = list(prime_blocks(limit, block))
    for primes in blocks:
        k = int(primes[0]) // block
        assert primes.dtype == np.int64 and primes.size
        assert k * block <= primes[0] and primes[-1] < (k + 1) * block
    got = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    assert np.array_equal(got, primes_upto(limit))


def test_prime_blocks_rejects_odd_block():
    for block in (1, 3, 4097, 0, -2):
        with pytest.raises(ValueError):
            next(prime_blocks(100, block))


def test_prime_blocks_default_block_boundary():
    # a limit just past the first default block: two blocks, split at 2^23
    limit = DEFAULT_BLOCK + 1000
    first, second = prime_blocks(limit)
    assert first[-1] < DEFAULT_BLOCK <= second[0]
    assert np.array_equal(np.concatenate([first, second]), primes_upto(limit))
