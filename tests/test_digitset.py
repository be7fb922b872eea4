import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsum.digitset import (
    NON_A_DIGITS,
    DigitClass,
    _has_no_0_or_5,
    class_sums,
    classify,
    count_non_a,
    non_a_bound,
    permutation_witness,
)
from divsum.multiplicative import MAX_CELL, MAX_SEGMENT_CELLS


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
    with pytest.raises(ValueError):
        permutation_witness(1 << 64)


def test_witness_examples():
    assert permutation_witness(51) == "15"
    assert permutation_witness(7) is None
    assert permutation_witness(102) == "120"
    assert permutation_witness(5) == "5"
    assert permutation_witness(50) == "50"
    assert permutation_witness(500) == "500"
    # past 10^18, up to the shared bound 2^64
    assert permutation_witness(10**19 + 5) == "10000000000000000005"
    assert permutation_witness((1 << 64) - 1) == "10011344445566777895"


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
    # 10^4-block edge, spanning 0-12 full rows, sometimes from the first
    # block n < 10^4 and sometimes inside a single block
    if draw(st.booleans()):
        lo = draw(st.integers(1, 1 << 40))
        return lo, lo + draw(st.integers(0, 50_000))
    first = draw(st.just(0) | st.integers(1, (1 << 40) // 10**4 - 13))
    last = first + draw(st.integers(0, 12))
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
@example((1, 2), 6)
@example((1, 10**4 + 50), 7)
@example((9, 12), 8)
@example((94, 106), 9)
@example((4990, 5010), 10)
@example((9990, 10011), 11)
@example((10**4 * 11 - 12_345, 10**4 * 11 + 12_345), 12)
@example((10**8 - 12_345, 10**8 + 12_345), 13)
@example((10**9 - 12_345, 10**9 + 12_345), 14)
@example((10**9, 10**9), 15)
@example((5, 4 * 10**4 + 9_999), 16)
@example((9_999, 6 * 10**4 + 1), 17)
@example((10**4 * 1108 + 17, 10**4 * 1114 + 3), 18)
def test_class_sums_match_classify_per_cell(window, seed):
    lo, hi = window
    num = np.random.default_rng(seed).integers(-(1 << 40), 1 << 40, size=hi - lo)
    assert class_sums(lo, num) == _class_sums_by_cell(lo, num.tolist())


@st.composite
def _short_windows(draw):
    # at most 62 cells, so 2^i for the i-th cell stays inside int64; half
    # the windows straddle a 10^4-block edge
    if draw(st.booleans()):
        lo = draw(st.integers(1, 1 << 40))
    else:
        lo = draw(st.integers(1, (1 << 40) // 10**4)) * 10**4 - draw(st.integers(0, 62))
    return lo, lo + draw(st.integers(0, 62))


@settings(max_examples=60, deadline=None)
@given(_short_windows())
@example((1, 63))
@example((9990, 10011))
@example((10**4 * 1111 - 31, 10**4 * 1111 + 31))
@example((10**9 - 31, 10**9 + 31))
def test_class_sums_are_exact_membership_bitmasks(window):
    # with num[i] = 2^i, each sum is the bitmask of the cells it took, so a
    # cell counted in the wrong class cannot cancel against another
    lo, hi = window
    num = np.left_shift(1, np.arange(hi - lo, dtype=np.int64))
    classes = [classify(n) for n in range(lo, hi)]

    def bitmask(*wanted):
        return sum(1 << i for i, cls in enumerate(classes) if cls in wanted)

    non_a, b_member, five = DigitClass.NON_A, DigitClass.B_MEMBER, DigitClass.MULTIPLE_OF_FIVE
    assert class_sums(lo, num) == (
        bitmask(b_member, five), bitmask(b_member), bitmask(non_a), classes.count(non_a)
    )


def test_high_part_flag_matches_str_below_10_6():
    h = np.arange(10**6)
    want = [True] + [NON_A_DIGITS.issuperset(str(v)) for v in range(1, 10**6)]
    assert _has_no_0_or_5(h).tolist() == want
    assert _has_no_0_or_5(h[:0]).size == 0


def test_class_sums_of_largest_int32_cells_are_exact():
    # rows wholly in A (near 2e7), mixed rows (below 1e9) and the first block:
    # every row of the largest cells sums inside int32
    size = (1 << 20) + 7
    cells = np.full(size, MAX_CELL, dtype=np.int32)
    for lo in (2 * 10**7 + 1, 10**9 - (1 << 20), 1):
        hi = lo + size
        non_a = count_non_a(hi - 1) - count_non_a(lo - 1)
        fives = (hi - 1) // 5 - (lo - 1) // 5
        want = (size - non_a) * MAX_CELL, (size - non_a - fives) * MAX_CELL, non_a * MAX_CELL, non_a
        assert class_sums(lo, cells) == want, lo


def test_class_sums_of_largest_int16_cells_are_exact():
    # every column sum of the full rows stays inside int32, even over the largest segment
    assert MAX_SEGMENT_CELLS // 10**4 * MAX_CELL < 2**31
    runs = set()  # (mixed, length) of the runs of full rows met
    for lo, size in (
        (2 * 10**7 + 1, (1 << 20) + 7),  # rows wholly in A
        (10**9 - (1 << 20), (1 << 20) + 7),  # runs of 4 mixed rows, and rows wholly in A from h = 99900
        (1, (1 << 20) + 7),  # the first block, and runs of both kinds
        (5 * 10**10 + 1, MAX_SEGMENT_CELLS),  # the largest segment, every row wholly in A
        (11 * 10**8 + 3, MAX_SEGMENT_CELLS),  # the largest segment, runs of both kinds
    ):
        cells = np.broadcast_to(np.int16(MAX_CELL), size)  # one cell, read-only, no copy
        hi = lo + size
        mixed = _has_no_0_or_5(np.arange(-(-lo // 10**4), hi // 10**4))
        runs.update((bool(run[0]), len(run)) for run in np.split(mixed, np.flatnonzero(np.diff(mixed)) + 1))
        non_a = count_non_a(hi - 1) - count_non_a(lo - 1)
        fives = (hi - 1) // 5 - (lo - 1) // 5
        want = (size - non_a) * MAX_CELL, (size - non_a - fives) * MAX_CELL, non_a * MAX_CELL, non_a
        assert class_sums(lo, cells) == want, lo
    assert max(n for mix, n in runs if mix) >= 2 and max(n for mix, n in runs if not mix) >= 2


def test_class_sums_rejects_lo_below_1():
    for lo in (0, -3):
        with pytest.raises(ValueError):
            class_sums(lo, np.ones(5, dtype=np.int64))
