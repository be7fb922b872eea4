import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsum.digitset import (
    DigitClass,
    DigitMultiset,
    class_sums,
    classify,
    count_non_a,
    has_zero_or_five,
    non_a_bound,
    permutation_witness,
)


def brute_witness(n):
    """Reference witness: enumerate every digit permutation of n."""
    best = None
    for perm in set(permutations(str(n))):
        if len(perm) > 1 and perm[0] == "0":
            continue
        v = int("".join(perm))
        if v % 5 == 0:
            if best is None or v < best:
                best = v
    return None if best is None else str(best)


def test_classify_examples():
    assert classify(50) is DigitClass.MULTIPLE_OF_FIVE
    assert classify(55) is DigitClass.MULTIPLE_OF_FIVE
    assert classify(505) is DigitClass.MULTIPLE_OF_FIVE
    assert classify(5505) is DigitClass.MULTIPLE_OF_FIVE
    assert classify(51) is DigitClass.B_MEMBER
    assert classify(53) is DigitClass.B_MEMBER
    assert classify(107) is DigitClass.B_MEMBER
    assert classify(151) is DigitClass.B_MEMBER
    assert classify(7) is DigitClass.NON_A


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(0)
    with pytest.raises(ValueError):
        classify(-3)
    with pytest.raises(ValueError):
        classify(1 << 64)


def test_witness_examples():
    assert permutation_witness(51) == "15"
    assert permutation_witness(7) is None
    assert permutation_witness(102) == "120"
    assert permutation_witness(5) == "5"
    assert permutation_witness(50) == "50"
    assert permutation_witness(500) == "500"


def test_witness_matches_brute_force_small():
    for n in range(1, 2000):
        assert permutation_witness(n) == brute_witness(n), n


def test_witness_matches_brute_force_random():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        assert permutation_witness(n) == brute_witness(n), n


def test_witness_properties_random():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(1, 10**12)
        w = permutation_witness(n)
        if w is None:
            assert classify(n) is DigitClass.NON_A
            continue
        assert int(w) % 5 == 0
        assert sorted(w) == sorted(str(n))
        assert len(w) == 1 or w[0] != "0"


def test_partition_and_witness_agree_exhaustively():
    for n in range(1, 100_000):
        has_witness = permutation_witness(n) is not None
        assert has_witness == (classify(n) is not DigitClass.NON_A), n


def test_multiple_of_five_always_has_witness():
    for n in range(5, 30_000, 5):
        assert permutation_witness(n) is not None


def test_digit_multiset():
    ms = DigitMultiset.of_int(5505)
    assert ms.length == 4
    assert ms.counts[5] == 3 and ms.counts[0] == 1
    assert sum(ms.counts) == ms.length


def test_count_examples():
    assert count_non_a(10) == 8
    assert count_non_a(99) == 72
    assert count_non_a(999999) == 299592
    assert count_non_a(0) == 0


def test_count_closed_form_at_decades():
    for k in range(1, 13):
        assert count_non_a(10**k) == (8 ** (k + 1) - 8) // 7


def test_count_matches_brute_force():
    allowed = set("12346789")
    flags = [False] + [all(c in allowed for c in str(n)) for n in range(1, 10**6 + 1)]
    prefix = [0]
    for f in flags[1:]:
        prefix.append(prefix[-1] + f)
    rng = random.Random(99)
    for _ in range(1000):
        x = rng.randrange(1, 10**6 + 1)
        assert count_non_a(x) == prefix[x], x


def test_bound_examples():
    bound, holds = non_a_bound(10)
    assert holds and abs(bound - 73.142857) < 1e-3
    bound, holds = non_a_bound(1)
    assert holds and bound == pytest.approx(64 / 7)
    bound, holds = non_a_bound(10**6)
    assert holds and bound == pytest.approx((64 / 7) * 8**6, rel=1e-12)


def test_bound_geometric_sample():
    x = 1.0
    while x <= 10**9:
        _, holds = non_a_bound(x)
        assert holds, x
        x *= 1.7


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count_non_a(-1)
    with pytest.raises(ValueError):
        non_a_bound(0.5)


def _in_a(lo, hi):
    return [classify(n) is not DigitClass.NON_A for n in range(lo, hi)]


@st.composite
def _digit_windows(draw):
    lo = draw(st.integers(1, 1 << draw(st.integers(1, 40))))
    return lo, lo + draw(st.integers(0, 30000))


@settings(max_examples=40, deadline=None)
@given(_digit_windows())
def test_has_zero_or_five_matches_classify_on_random_windows(window):
    # a multiple of 5 ends in 0 or 5, so the digit test is exactly membership in A
    lo, hi = window
    assert has_zero_or_five(lo, hi).tolist() == _in_a(lo, hi)


def test_has_zero_or_five_across_block_and_decade_edges():
    windows = [(1, 2), (1, 10**4 + 50), (9, 12), (94, 106), (4990, 5010), (9990, 10011)]
    windows += [(e - 12_345, e + 12_345) for e in (10**4 * 11, 10**8, 10**9)]
    windows += [(10**4 * 1111 - 3, 10**4 * 1111 + 3), (10**9, 10**9)]
    for lo, hi in windows:
        assert has_zero_or_five(lo, hi).tolist() == _in_a(lo, hi), (lo, hi)
    for lo, hi in ((0, 5), (5, 4)):
        with pytest.raises(ValueError):
            has_zero_or_five(lo, hi)
    with pytest.raises(ValueError):
        class_sums(0, np.ones(5, dtype=np.int64))


def _class_sums_by_cell(lo, values):
    s_a = s_b = t_non = count = 0
    for n, v in enumerate(values, start=lo):
        cls = classify(n)
        if cls is DigitClass.NON_A:
            t_non += v
            count += 1
        else:
            s_a += v
            s_b += v if cls is DigitClass.B_MEMBER else 0
    return s_a, s_b, t_non, count


@st.composite
def _class_sum_windows(draw):
    # half the windows are random; the rest start and end on or near a
    # 10^4-block edge, spanning 0-5 full rows, sometimes from the first
    # block n < 10^4 and sometimes inside a single block
    if draw(st.booleans()):
        lo = draw(st.integers(1, 1 << 40))
        return lo, lo + draw(st.integers(0, 50_000))
    first = draw(st.just(0) | st.integers(1, (1 << 40) // 10**4 - 6))
    last = first + draw(st.integers(0, 5))
    offset = st.sampled_from((0, 1, 2, 9_998, 9_999)) | st.integers(0, 9_999)
    lo, hi = sorted((first * 10**4 + draw(offset), last * 10**4 + draw(offset)))
    return max(lo, 1), max(hi, 1)


@settings(max_examples=60, deadline=None)
@given(_class_sum_windows(), st.integers(0, 2**32 - 1))
@example((1, 10**4), 0)
@example((1, 3 * 10**4), 1)
@example((10**4, 3 * 10**4), 2)
@example((10**4 * 1111 - 3, 10**4 * 1111 + 3), 3)
@example((2 * 10**8 + 1, 2 * 10**8 + 9), 4)
@example((7, 7), 5)
def test_class_sums_match_classify_per_cell(window, seed):
    lo, hi = window
    num = np.random.default_rng(seed).integers(-(1 << 40), 1 << 40, size=hi - lo)
    assert class_sums(lo, num) == _class_sums_by_cell(lo, num.tolist())
