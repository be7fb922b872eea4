"""Classification of integers by digit-permutation divisibility by 5.

An integer belongs to the set A when some rearrangement of its decimal
digits (the identity included, leading zeros disallowed) is divisible by 5.
B is the part of A not itself divisible by 5.  Because a number is divisible
by 5 exactly when its last digit is 0 or 5, membership in A reduces to
"contains a digit 0 or 5"; the equivalence is argued in the README and
property-tested against explicit permutation witnesses.

class_sums views the 10^4-aligned blocks n = h*10^4 + r of a range as
rows: the full rows as one (rows, 10^4) view, a partial head and tail as
one-row views.  A row whose high part h shows a 0 or 5 lies wholly in A;
the others, the mixed rows, take each cell's class from a table over the
four zero-padded low digits r (over r itself, unpadded, when h = 0).  The
full rows are read once, one column sum per run of rows of one kind.  The
table's two 0/1 weight vectors split the mixed rows' column sum, and each
mixed head or tail row, into sums over A and over its complement.
"""

from __future__ import annotations

import enum
from functools import cache
from math import floor, log

import numpy as np

# digits allowed in the complement of A
NON_A_DIGITS = frozenset("12346789")

# exponent of the complement's growth: ln 8 / ln 10
NON_A_EXPONENT = log(8.0) / log(10.0)

MAX_CLASSIFY = 1 << 64  # classify and permutation_witness take 1 <= n < 2^64

_BLOCK = 10**4


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Stacked 0/1 weights for padded and for unpadded r in [0, 10^4).

    Padded reads r as four digits with leading zeros, the low part of some
    n >= 10^4; unpadded reads r as written, for n = r < 10^4.  Each table
    stacks w_A (1 where r shows a 0 or 5 among those digits) over its
    complement w_nonA.  Built on first use, so importing the module costs
    nothing; read-only, because every caller shares them.
    """
    r = np.arange(_BLOCK)
    hits = [r // 10**i % 10 % 5 == 0 for i in range(4)]  # digit i of r is 0 or 5
    padded = np.any(hits, axis=0)
    # digit i >= 1 exists only when r >= 10^i (entry 0 is never read: n >= 1)
    unpadded = np.any([hit & (r >= 10**i) for i, hit in enumerate(hits)], axis=0)
    tables = tuple(np.stack((in_a, ~in_a)).astype(np.int64) for in_a in (padded, unpadded))
    for weights in tables:
        weights.flags.writeable = False
    return tables


def _has_no_0_or_5(h: np.ndarray) -> np.ndarray:
    """True where the decimal digits of h >= 0 hold no 0 or 5 (so at h = 0)."""
    ok = np.ones(h.shape, dtype=bool)
    while h.any():
        ok &= (h % 5 != 0) | (h == 0)  # the last digit of h is 0 or 5 iff 5 divides h
        h = h // 10
    return ok


class DigitClass(enum.Enum):
    NON_A = "non-A"
    B_MEMBER = "B"
    MULTIPLE_OF_FIVE = "multiple-of-5"


def _check_range(n: int, what: str) -> None:
    if not isinstance(n, int):
        raise TypeError(f"{what} expects an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"{what} is defined for positive integers only (got {n})")
    if n >= MAX_CLASSIFY:
        raise ValueError(f"{what} supports n < 2^64 (got {n})")


def classify(n: int) -> DigitClass:
    """Three-way digit class of n: multiple of 5, B member, or neither."""
    _check_range(n, "classify")
    if n % 5 == 0:
        return DigitClass.MULTIPLE_OF_FIVE
    s = str(n)
    if "0" in s or "5" in s:
        return DigitClass.B_MEMBER
    return DigitClass.NON_A


def class_sums(lo: int, num: np.ndarray) -> tuple[int, int, int, int]:
    """(S_A, S_B, T_nonA, count_nonA) of the values num[i] at n = lo + i.

    S_A sums num over A, S_B over A less the multiples of 5, T_nonA over
    the complement of A, and count_nonA counts that complement.  S_A and
    T_nonA are separate reductions, so S = S_A + T_nonA stays a check on
    the weights.  The full rows' column sums accumulate in num's dtype
    promoted to at least int32, exact for int16 cells up to 2^16 rows;
    every other sum is taken in int64.
    """
    if lo < 1:
        raise ValueError(f"class_sums is defined for lo >= 1 (got {lo})")
    a = -(-lo // _BLOCK) * _BLOCK  # the full rows span [a, b), empty when b = a
    b = max(a, (lo + num.size) // _BLOCK * _BLOCK)
    mixed = _has_no_0_or_5(np.arange(lo // _BLOCK, b // _BLOCK + 1))  # the rows not wholly in A
    full = num[a - lo : b - lo].reshape(-1, _BLOCK)
    flags = mixed[a // _BLOCK - lo // _BLOCK :][: len(full)]
    cols = np.zeros((2, _BLOCK), dtype=np.promote_types(num.dtype, np.int32))  # full rows wholly in A; mixed
    edges = [*np.flatnonzero(np.diff(flags, prepend=-1)).tolist(), len(full)]  # the first row of each run
    for i, j in zip(edges, edges[1:]):
        cols[int(flags[i])] += full[i:j].sum(axis=0, dtype=cols.dtype)
    s_a = t_non = count = fives = 0
    # (start, values, mixed rows summed in values): the head, the full rows by kind, the tail
    for start, values, rows in ((lo, num[: a - lo], mixed[0]), (a, cols[0], 0), (a, cols[1], flags.sum()),
                                (b, num[b - lo :], mixed[-1])):
        h, r = divmod(start, _BLOCK)  # values[j] sums the cells at n = r + j mod 10^4
        weights = _digit_tables()[h == 0][:, r : r + values.size]  # h = 0 only in the head
        if rows:
            in_a, non_a = (int(v) for v in weights @ values)
            s_a, t_non, count = s_a + in_a, t_non + non_a, count + int(rows) * int(weights[1].sum())
        else:
            s_a += int(values.sum(dtype=np.int64))
        fives += int(values[(-start) % 5 :: 5].sum(dtype=np.int64))  # the multiples of 5
    return s_a, s_a - fives, t_non, count


def permutation_witness(n: int) -> str | None:
    """Smallest no-leading-zero digit rearrangement of n divisible by 5.

    Returns None exactly when classify(n) is NON_A.  For each last digit 0
    or 5 that n has, the smallest arrangement of the other digits leads
    with their smallest nonzero digit and takes the rest in ascending
    order; the witness is the smaller of the two.  Cost is O(digits).
    """
    _check_range(n, "permutation_witness")
    digits = sorted(str(n))
    witnesses = []
    for last in "05":
        if last in digits:
            rest = digits.copy()
            rest.remove(last)
            zeros = rest.count("0")  # rest is sorted: its zeros, then its smallest nonzero digit
            if zeros < len(rest) or not rest:  # else every arrangement would lead with a 0
                witnesses.append("".join(rest[zeros : zeros + 1] + rest[:zeros] + rest[zeros + 1 :]) + last)
    # equal length, so lexicographic order is numeric order
    return min(witnesses, default=None)


def count_non_a(x: int) -> int:
    """Exact |{n in [1, x] : classify(n) = NON_A}| by digit DP, O(digits)."""
    if not isinstance(x, int):
        raise TypeError("count_non_a expects an integer bound")
    if x < 0:
        raise ValueError("count_non_a expects x >= 0")
    if x == 0:
        return 0
    digits = str(x)
    k = len(digits)
    # all shorter lengths: every digit free over the 8 allowed values
    total = (8**k - 8) // 7  # 8 + 8^2 + ... + 8^(k-1)
    # same length, compare against x digit by digit
    for i, ch in enumerate(digits):
        below = sum(1 for d in NON_A_DIGITS if d < ch)
        total += below * 8 ** (k - 1 - i)
        if ch not in NON_A_DIGITS:
            return total
    return total + 1  # x itself qualifies


def non_a_bound(x: float) -> tuple[float, bool]:
    """Envelope (64/7) * x^(ln8/ln10) and whether the exact count obeys it."""
    if x < 1:
        raise ValueError("non_a_bound expects x >= 1")
    bound = (64.0 / 7.0) * x**NON_A_EXPONENT
    holds = count_non_a(floor(x)) <= bound
    return bound, holds
