from concurrent.futures import ThreadPoolExecutor

import numpy as np

from divsum.primes import is_prime, primes_upto


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
