"""Exact partial-sum engine for the divisor ratio over digit classes.

One sieve pass over (x0, limit] accumulates, as exact scaled integers, the
total sum S, the restricted sums S_A / S_B, the complement sum T_nonA, the
complement count and, for each q, the twisted series sum_{n<=m} ratio(q n).
The twisted terms come from the same sieve table: with a = v_q(n),
ratio(q n) = ratio(n) when a = 0 and ratio(n) * (a+2)/(a+1) otherwise, so
no value above the limit is sieved.  The twisted series is kept at two stop
conventions per checkpoint x: m = x//q (used by the five-multiple split
identity) and m = x (used by the linear-main-term checks); both are segment
boundaries of the pass.  Because every reduction is integer addition,
results are bit-identical for any segmentation or worker count.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import digitset
from .multiplicative import (
    MAX_SEGMENT_CELLS,
    SCALE_EXP,
    DyadicValue,
    sieve_segment,
    twisted_ratio_numerators,
)
from .primes import is_prime

MAX_LIMIT = 10**9
# largest q*limit that twisted_sum accepts
TWISTED_VALUE_BUDGET = 10**10
CSV_HEADER = ["x", "scale_exp", "S", "S_A", "S_B", "T_nonA", "count_nonA", "q", "twisted_limit", "twisted"]
# total numerators stay far below 2^127 for every permitted limit; the guard
# is kept anyway per the no-silent-wrap policy
NUMERATOR_CAP = 1 << 127


class CheckpointFormatError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


class EngineInvariantError(AssertionError):
    """Raised when an exact internal identity fails (never expected)."""


@dataclass(frozen=True)
class Checkpoint:
    """Exact partial-sum snapshot at threshold x.

    twisted maps q -> {stop m -> sum_{n<=m} ratio(q n)}; for each emitted
    checkpoint both m = x//q and m = x are present.
    """

    x: int
    S: DyadicValue
    S_A: DyadicValue
    S_B: DyadicValue
    T_nonA: DyadicValue
    count_nonA: int
    twisted: dict[int, dict[int, DyadicValue]] = field(default_factory=dict)

    @property
    def core(self) -> tuple[int, int, int, int, int]:
        """Numerators of (S, S_A, S_B, T_nonA) and count_nonA, as persisted."""
        sums = (self.S, self.S_A, self.S_B, self.T_nonA)
        return (*(v.numerator for v in sums), self.count_nonA)


def _checkpoint(x: int, core, twisted: dict[int, dict[int, int]]) -> Checkpoint:
    """Checkpoint from numerators: core = (S, S_A, S_B, T_nonA, count_nonA)."""
    *sums, count_non_a = core
    s_all, s_a, s_b, t_non = (DyadicValue(v) for v in sums)
    stops = {q: {m: DyadicValue(v) for m, v in sorted(tw.items())} for q, tw in twisted.items()}
    return Checkpoint(x, s_all, s_a, s_b, t_non, count_non_a, stops)


@dataclass
class EngineConfig:
    limit: int
    segment_size: int = 1 << 20
    refine_factor2: bool = True
    q_list: tuple[int, ...] = (1, 2, 3, 5, 7)
    thread_count: int = 1
    resume_path: str | None = None

    def __post_init__(self):
        if not 1 <= self.limit <= MAX_LIMIT:
            raise ValueError(f"limit must be in [1, {MAX_LIMIT}] (got {self.limit})")
        if not 1 <= self.segment_size <= MAX_SEGMENT_CELLS:
            raise ValueError(f"segment_size must be in [1, {MAX_SEGMENT_CELLS}]")
        if self.thread_count < 1:
            raise ValueError("thread_count must be >= 1")
        qs = tuple(sorted(set(int(q) for q in self.q_list)))
        if not qs:
            raise ValueError("q_list must not be empty")
        for q in qs:
            if q != 1 and not is_prime(q):
                raise ValueError(f"q values must be 1 or prime (got {q})")
        self.q_list = qs


def checkpoint_schedule(limit: int, refine_factor2: bool = True) -> list[int]:
    """Geometric thresholds: powers of ten, their doubles, and the limit."""
    points = {limit}
    decade = 10
    while decade <= limit:
        points.add(decade)
        if refine_factor2 and 2 * decade <= limit:
            points.add(2 * decade)
        decade *= 10
    return sorted(points)


def _segment_ranges(lo_n: int, hi_n: int, segment_size: int):
    """Half-open [a, b) segments covering the integer range (lo_n, hi_n]."""
    a = lo_n + 1
    while a <= hi_n:
        b = min(a + segment_size, hi_n + 1)
        yield a, b
        a = b


def _segment_class_sums(args) -> tuple[int, ...]:
    """(S, S_A, S_B, T_nonA, count_nonA, twisted per q) numerator sums over [lo, hi)."""
    lo, hi, q_list = args
    num = sieve_segment(lo, hi)
    # the twisted sums go first, while num is the only large live array
    twisted = tuple(int(twisted_ratio_numerators(q, lo, num).sum()) for q in q_list)
    n = np.arange(lo, hi, dtype=np.int64)
    mult5 = n % 5 == 0
    has05 = np.zeros(hi - lo, dtype=bool)
    v = n.copy()
    while True:
        live = v > 0
        if not live.any():
            break
        dig = v % 10
        has05 |= ((dig == 0) | (dig == 5)) & live
        v //= 10
    in_a = mult5 | has05
    s_all = int(num.sum())
    s_a = int(num[in_a].sum())
    s_b = int(num[has05 & ~mult5].sum())
    t_non = int(num[~in_a].sum())
    cnt = int((~in_a).sum())
    return (s_all, s_a, s_b, t_non, cnt, *twisted)


def _pool_map(pool: ThreadPoolExecutor | None, fn, jobs):
    if pool is None:
        return [fn(j) for j in jobs]
    return list(pool.map(fn, jobs))


def _twisted_range(q: int, lo: int, hi: int, segment_size: int, pool=None) -> int:
    """Numerator sum of ratio(q n) over n in (lo, hi], sieving only (lo, hi]."""
    jobs = [(a, b, (q,)) for a, b in _segment_ranges(lo, hi, segment_size)]
    return sum(part[5] for part in _pool_map(pool, _segment_class_sums, jobs))


def twisted_sum(q: int, limit: int, segment_size: int = 1 << 20) -> DyadicValue:
    """Exact sum_{n<=limit} ratio(q n), from the sieve of n <= limit."""
    if q != 1 and not is_prime(q):
        raise ValueError(f"q must be 1 or prime (got {q})")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if q * limit > TWISTED_VALUE_BUDGET:
        raise ValueError(f"q*limit exceeds budget {TWISTED_VALUE_BUDGET}")
    if segment_size > MAX_SEGMENT_CELLS:
        raise ValueError(f"segment_size must be <= {MAX_SEGMENT_CELLS}")
    return DyadicValue(_twisted_range(q, 0, limit, max(1, segment_size)))


def _load_resume_state(config: EngineConfig, schedule: list[int]):
    """Prior checkpoints and the resume point, validated against the schedule."""
    prior = load_checkpoints(config.resume_path)
    if not prior:
        return [], 0
    xs = [cp.x for cp in prior]  # load_checkpoints sorts by x
    if xs[-1] > config.limit:
        raise CheckpointFormatError(
            f"{config.resume_path} holds checkpoints up to x={xs[-1]}, beyond limit "
            f"{config.limit}; resuming would drop them"
        )
    expected_prefix = [x for x in schedule if x <= xs[-1]]
    if xs != expected_prefix:
        raise CheckpointFormatError(
            f"persisted checkpoints {xs} do not form a schedule prefix "
            f"{expected_prefix}"
        )
    for cp in prior:
        stops = {q: set(v) for q, v in cp.twisted.items()}
        if stops != {q: {cp.x // q, cp.x} for q in config.q_list}:
            raise CheckpointFormatError(
                f"checkpoint x={cp.x} carries twisted stops {stops}, config wants "
                f"q={list(config.q_list)} at stops x//q and x"
            )
    return prior, xs[-1]


def _validate_checkpoint(cp: Checkpoint, q_list) -> None:
    if cp.S.numerator != cp.S_A.numerator + cp.T_nonA.numerator:
        raise EngineInvariantError(f"x={cp.x}: S != S_A + T_nonA")
    if 5 in q_list:
        five = cp.twisted[5][cp.x // 5].numerator
        if cp.S_A.numerator - cp.S_B.numerator != five:
            raise EngineInvariantError(f"x={cp.x}: S_A - S_B != twisted(5, x//5)")
    if cp.S.numerator < cp.x << SCALE_EXP:
        raise EngineInvariantError(f"x={cp.x}: mean ratio below 1")
    if cp.count_nonA != digitset.count_non_a(cp.x):
        raise EngineInvariantError(f"x={cp.x}: non-A count mismatch")
    if abs(cp.S.numerator) >= NUMERATOR_CAP:
        raise OverflowError(f"x={cp.x}: numerator exceeds 128 bits")


def accumulate(config: EngineConfig) -> list[Checkpoint]:
    """Run the engine to config.limit, one Checkpoint per schedule point.

    With resume_path set and readable, continues from the largest persisted
    checkpoint; the result is bit-identical to a fresh run.
    """
    schedule = checkpoint_schedule(config.limit, config.refine_factor2)
    qs = config.q_list
    resume = config.resume_path and os.path.exists(config.resume_path)
    prior, x0 = _load_resume_state(config, schedule) if resume else ([], 0)
    new_points = [x for x in schedule if x > x0]

    # twisted series per q: persisted stops first, then the stops of this run
    twisted = {
        q: {0: 0} | {m: v.numerator for cp in prior for m, v in cp.twisted[q].items()}
        for q in qs
    }
    totals = (*(prior[-1].core if prior else (0,) * 5), *(twisted[q][x0] for q in qs))

    # one pass over (x0, limit]: checkpoints and the twisted stops m = x//q
    # above x0 are segment boundaries, so running totals land on each of them
    marks = sorted({*new_points, *(x // q for x in new_points for q in qs if x // q > x0)})
    jobs = [
        (a, b, qs)
        for lo, hi in zip([x0, *marks], marks)
        for a, b in _segment_ranges(lo, hi, config.segment_size)
    ]
    at: dict[int, tuple[int, ...]] = {}
    pool = ThreadPoolExecutor(config.thread_count) if config.thread_count > 1 else None
    try:
        for (_, b, _), part in zip(jobs, _pool_map(pool, _segment_class_sums, jobs)):
            totals = tuple(t + p for t, p in zip(totals, part))
            at[b - 1] = totals
        for i, q in enumerate(qs):
            twisted[q].update((m, at[m][5 + i]) for m in marks)
            # stops below the resume point: re-sieve from the nearest stop below
            for m in sorted({x // q for x in new_points} - twisted[q].keys()):
                base = max(k for k in twisted[q] if k < m)
                part = _twisted_range(q, base, m, config.segment_size, pool)
                twisted[q][m] = twisted[q][base] + part
    finally:
        if pool is not None:
            pool.shutdown()

    out = prior + [
        _checkpoint(x, at[x][:5], {q: {m: twisted[q][m] for m in (x // q, x)} for q in qs})
        for x in new_points
    ]
    for cp in out:
        _validate_checkpoint(cp, qs)
    return out


def save_checkpoints(path: str, checkpoints: list[Checkpoint]) -> None:
    """Write the canonical checkpoint CSV (UTF-8, LF, integer numerators).

    The rows go to a temporary file next to path, which then replaces path
    in one step, so a write that fails part-way leaves the old file intact.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_HEADER)
            for cp in sorted(checkpoints, key=lambda c: c.x):
                for q in sorted(cp.twisted):
                    for m in sorted(cp.twisted[q]):
                        w.writerow([cp.x, SCALE_EXP, *cp.core, q, m, cp.twisted[q][m].numerator])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoints(path: str) -> list[Checkpoint]:
    """Parse a checkpoint CSV; malformed content reports its line number."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != CSV_HEADER:
        raise CheckpointFormatError(f"{path}: line 1: bad or missing header")
    by_x: dict[int, dict] = {}
    for i, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise CheckpointFormatError(f"{path}: line {i}: expected {len(CSV_HEADER)} fields")
        try:
            x, scale, *core, q, m, tw = (int(v) for v in row)
        except ValueError:
            raise CheckpointFormatError(f"{path}: line {i}: non-integer field") from None
        if scale != SCALE_EXP:
            raise CheckpointFormatError(
                f"{path}: line {i}: scale_exp {scale} != engine scale {SCALE_EXP}"
            )
        rec = by_x.setdefault(x, {"core": core, "twisted": {}})
        if rec["core"] != core:
            raise CheckpointFormatError(f"{path}: line {i}: inconsistent sums for x={x}")
        prev_val = rec["twisted"].setdefault(q, {}).get(m)
        if prev_val is not None and prev_val != tw:
            raise CheckpointFormatError(
                f"{path}: line {i}: conflicting twisted value for (x={x}, q={q}, m={m})"
            )
        rec["twisted"][q][m] = tw
    out = []
    for x in sorted(by_x):
        s_all, s_a, _, t_non, _ = by_x[x]["core"]
        if s_all != s_a + t_non:
            raise CheckpointFormatError(f"{path}: checkpoint x={x}: S != S_A + T_nonA")
        out.append(_checkpoint(x, by_x[x]["core"], by_x[x]["twisted"]))
    return out
