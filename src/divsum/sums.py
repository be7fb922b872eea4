"""Exact partial-sum engine for the divisor ratio over digit classes.

One sieve pass over (x0, limit] accumulates the total sum S, the restricted
sums S_A / S_B, the complement sum T_nonA, the complement count and, for
each q, the twisted series sum_{n<=m} ratio(q n).  Each sum is kept, passed
and persisted as its plain int numerator at scale 2^SCALE_EXP.
Per segment digitset.class_sums reduces the sieved int16 cells over the
digit classes, and running slice sums give S at every stop inside it; each
sum shifts left by CELL_SHIFT to SCALE_EXP.  The twisted series needs
nothing more: the Euler factor at q gives
sum ratio(q n) n^-s = E(q^-s) sum ratio(n) n^-s with
E(y) (1 - y + y^2/2) = 1 - y/2, so T(m) = sum_{n<=m} ratio(q n) obeys
T(m) = S(m) - S(m//q)/2 + T(m//q) - T(m//q^2)/2, run in integers from the
deepest stop m // q^k up.  It is kept at two stops per checkpoint x: m = x//q
(used by the five-multiple split identity) and m = x (used by the
linear-main-term checks).  Checkpoints end segments; stops need not.
Every reduction is integer addition, so results are bit-identical for any
segmentation or worker count.
"""

from __future__ import annotations

import csv
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import digitset
from .multiplicative import (
    CELL_SHIFT,
    MAX_CELL,
    MAX_SEGMENT_CELLS,
    SCALE_EXP,
    sieve_segment,
)
from .primes import DEFAULT_Q, check_q

MAX_LIMIT = 10**9  # largest limit of sum and of twisted_sum, which both sieve [1, limit]
DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_THREADS = 64  # each pool thread holds one segment of up to MAX_SEGMENT_CELLS
CSV_HEADER = ["x", "scale_exp", "S", "S_A", "S_B", "T_nonA", "count_nonA", "q", "twisted_limit", "twisted"]
# every numerator the engine makes stays far below 2^127 for every permitted
# limit; a read refuses one that does not, before any float conversion
NUMERATOR_CAP = 1 << 127


class CheckpointFormatError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


class EngineInvariantError(AssertionError):
    """Raised when an exact internal identity fails (never expected)."""


@dataclass(frozen=True)
class Checkpoint:
    """Exact partial-sum snapshot at threshold x.

    S, S_A, S_B, T_nonA and the twisted values are the int numerators of
    the sums at scale 2^SCALE_EXP, as persisted.  twisted maps
    q -> {stop m -> sum_{n<=m} ratio(q n)}; for each emitted checkpoint
    both m = x//q and m = x are present.
    """

    x: int
    S: int
    S_A: int
    S_B: int
    T_nonA: int
    count_nonA: int
    twisted: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def core(self) -> tuple[int, int, int, int, int]:
        """(S, S_A, S_B, T_nonA, count_nonA), as persisted."""
        return self.S, self.S_A, self.S_B, self.T_nonA, self.count_nonA


def check_segment_size(segment_size: int) -> None:
    """Raise ValueError unless 1 <= segment_size <= MAX_SEGMENT_CELLS."""
    if not 1 <= segment_size <= MAX_SEGMENT_CELLS:
        raise ValueError(f"segment_size must be in [1, {MAX_SEGMENT_CELLS}] (got {segment_size})")


@dataclass
class EngineConfig:
    limit: int
    segment_size: int = DEFAULT_SEGMENT_SIZE
    q_list: tuple[int, ...] = DEFAULT_Q
    thread_count: int = 1
    resume_path: str | None = None

    def __post_init__(self):
        if not 1 <= self.limit <= MAX_LIMIT:
            raise ValueError(f"limit must be in [1, {MAX_LIMIT}] (got {self.limit})")
        check_segment_size(self.segment_size)
        if not 1 <= self.thread_count <= MAX_THREADS:
            raise ValueError(f"thread_count must be in [1, {MAX_THREADS}] (got {self.thread_count})")
        qs = tuple(sorted(set(int(q) for q in self.q_list)))
        if not qs:
            raise ValueError("q_list must not be empty")
        for q in qs:
            check_q(q)
        self.q_list = qs


def checkpoint_schedule(limit: int) -> list[int]:
    """Geometric thresholds: powers of ten, their doubles, and the limit."""
    points = {limit}
    decade = 10
    while decade <= limit:
        points.add(decade)
        if 2 * decade <= limit:
            points.add(2 * decade)
        decade *= 10
    return sorted(points)


def _cell_sum(cells) -> int:
    """Exact sum of int16 cells, from int32 partial sums of 2^31 // MAX_CELL cells each."""
    whole = cells.size - cells.size % (piece := (1 << 31) // MAX_CELL)
    parts = cells[:whole].reshape(-1, piece).sum(axis=1, dtype=np.int32)
    return int(parts.sum()) + int(cells[whole:].sum(dtype=np.int32))


def _segment_class_sums(args) -> tuple[int, ...]:
    """Core numerator sums over [lo, hi) (class sums 0 without classes), then S over [lo, m] per stop m."""
    lo, hi, stops, classes = args
    num = sieve_segment(lo, hi)
    cuts = [0, *(m - lo + 1 for m in stops), hi - lo]  # running slice sums: each cell is read once
    *upto, total = np.cumsum([_cell_sum(num[a:b]) for a, b in zip(cuts, cuts[1:])]).tolist()
    s_a, s_b, t_non, count = digitset.class_sums(lo, num) if classes else (0,) * 4
    return (*(v << CELL_SHIFT for v in (total, s_a, s_b, t_non)), count, *(v << CELL_SHIFT for v in upto))


def _pass(bounds, stops, segment_size: int, map_fn=map, totals=(0,) * 5, classes=True):
    """Running core totals at each bound, and S at each stop, over (bounds[0], bounds[-1]].

    Segments end at every bound; stops (sorted) fall anywhere inside them.
    totals holds the core sums at bounds[0]; without classes only S is summed.
    """
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        for a in range(lo + 1, hi + 1, segment_size):
            b = min(a + segment_size, hi + 1)
            jobs.append((a, b, tuple(stops[bisect_left(stops, a) : bisect_left(stops, b)]), classes))
    at_bound, s_at = {}, {}
    for (_, b, inside, _), part in zip(jobs, map_fn(_segment_class_sums, jobs)):
        s_at.update((m, totals[0] + s) for m, s in zip(inside, part[5:]))
        totals = tuple(t + p for t, p in zip(totals, part[:5]))
        at_bound[b - 1] = totals
    return at_bound, s_at


def _checkpoint_stops(q: int, x: int) -> tuple[int, int]:
    """The two stops m at which a checkpoint at x keeps sum_{n<=m} ratio(q n)."""
    return x // q, x


def _twist_stops(q: int, m: int) -> list[int]:
    """The stops m // q^k, k = 0, 1, ..., while nonzero; q = 1 has the one stop m."""
    stops = [m] if m else []
    while q > 1 and m >= q:
        m //= q
        stops.append(m)
    return stops


def _half(v: int, q: int, m: int) -> int:
    if v & 1:
        raise EngineInvariantError(f"q={q}, m={m}: halving {v} leaves 1/2")
    return v >> 1


def _twisted_value(q: int, m: int, s_at: dict[int, int]) -> int:
    """Numerator of T(m) = sum_{n<=m} ratio(q n), from S at the stops m // q^k.

    T(m) = S(m) - S(m//q)/2 + T(m//q) - T(m//q^2)/2, T(0) = S(0) = 0, from
    the deepest stop up; every halving is exact.  For q = 1, T = S.
    """
    if q == 1:
        return s_at[m] if m else 0
    t = t_below = 0  # T(stop // q) and T(stop // q^2)
    for stop in reversed(_twist_stops(q, m)):
        s_next = s_at[stop // q] if stop >= q else 0
        t, t_below = s_at[stop] - _half(s_next, q, m) + t - _half(t_below, q, m), t
    return t


def twisted_sum(q: int, limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """Numerator of sum_{n<=limit} ratio(q n), from S at the stops limit // q^k of one pass."""
    check_q(q)
    if not 0 <= limit <= MAX_LIMIT:
        raise ValueError(f"limit must be in [0, {MAX_LIMIT}] (got {limit})")
    check_segment_size(segment_size)
    s_at = _pass([0, limit], sorted(_twist_stops(q, limit)), segment_size, classes=False)[1]
    return _twisted_value(q, limit, s_at)


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
        if stops != {q: set(_checkpoint_stops(q, cp.x)) for q in config.q_list}:
            raise CheckpointFormatError(
                f"checkpoint x={cp.x} carries twisted stops {stops}, config wants "
                f"q={list(config.q_list)} at stops x//q and x"
            )
    return prior, xs[-1]


def checkpoint_identities(cp: Checkpoint) -> dict[str, bool | None]:
    """The exact identities of a checkpoint, by report key.

    five_split_exact is None when cp has no q = 5 stop at x//5.
    """
    s_all, s_a, s_b, t_non, count_non_a = cp.core
    five = cp.twisted.get(5, {}).get(cp.x // 5)
    return {
        "sum_split_exact": s_all == s_a + t_non,
        "five_split_exact": None if five is None else s_a - s_b == five,
        "non_a_count_matches": count_non_a == digitset.count_non_a(cp.x),
    }


def _validate_checkpoint(cp: Checkpoint) -> None:
    values = chain(cp.core[:4], *(tw.values() for tw in cp.twisted.values()))
    if any(abs(v) >= NUMERATOR_CAP for v in values):
        raise OverflowError(f"x={cp.x}: numerator exceeds 128 bits")
    if cp.S < cp.x << SCALE_EXP:
        raise EngineInvariantError(f"x={cp.x}: mean ratio below 1")
    failed = [name for name, ok in checkpoint_identities(cp).items() if ok is False]
    if failed:
        raise EngineInvariantError(f"x={cp.x}: {', '.join(failed)} fails")
    # ratio(q n) / ratio(n) is 1 for q = 1 and in [1, 3/2] for a prime q, so
    # T_q(x) lies in [S, 3S/2] and above T_q(x//q); kept out of the report keys
    for q, tw in cp.twisted.items():
        if (t := tw.get(cp.x)) is None:
            continue
        if q == 1 and t != cp.S:
            raise EngineInvariantError(f"x={cp.x}: twisted q=1 at m=x differs from S")
        if not (cp.S <= t and 2 * t <= 3 * cp.S and tw.get(cp.x // q, 0) <= t):
            raise EngineInvariantError(f"x={cp.x}: twisted q={q} at m=x is outside [S, 3S/2] or below m=x//q")


def accumulate(config: EngineConfig) -> list[Checkpoint]:
    """Run the engine to config.limit, one Checkpoint per schedule point.

    With resume_path set and readable, continues from the largest persisted
    checkpoint; the result is bit-identical to a fresh run.
    """
    schedule = checkpoint_schedule(config.limit)
    qs = config.q_list
    resume = config.resume_path and os.path.exists(config.resume_path)
    prior, x0 = _load_resume_state(config, schedule) if resume else ([], 0)
    new_points = [x for x in schedule if x > x0]

    # S at every stop x // q^k of the new checkpoints: from the persisted
    # checkpoints, one pass over [1, largest stop at or below x0 that they
    # lack], and the main pass over (x0, limit]
    stops = {m for x in new_points for q in qs for m in _twist_stops(q, x)}
    s_at = {cp.x: cp.S for cp in prior}
    below = sorted(m for m in stops if m <= x0 and m not in s_at)
    above = sorted(m for m in stops if m > x0)
    with ThreadPoolExecutor(config.thread_count) as pool:
        # one thread maps inline: a one-worker pool made a cold 3e6 run ~10 ms slower
        map_fn = pool.map if config.thread_count > 1 else map
        if below:
            s_at.update(_pass([0, below[-1]], below, config.segment_size, map_fn, classes=False)[1])
        core = prior[-1].core if prior else (0,) * 5
        at, s_new = _pass([x0, *new_points], above, config.segment_size, map_fn, core)
        s_at.update(s_new)

    new = [
        Checkpoint(x, *at[x], {q: {m: _twisted_value(q, m, s_at) for m in _checkpoint_stops(q, x)} for q in qs})
        for x in new_points
    ]
    for cp in new:  # load_checkpoints has checked the prior ones
        _validate_checkpoint(cp)
    return prior + new


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
                        w.writerow([cp.x, SCALE_EXP, *cp.core, q, m, cp.twisted[q][m]])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoints(path: str) -> list[Checkpoint]:
    """Parse a checkpoint CSV; refuse malformed lines and checkpoints that fail _validate_checkpoint."""
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
        if x < 1:
            raise CheckpointFormatError(f"{path}: line {i}: x must be >= 1 (got {x})")
        if scale != SCALE_EXP:
            raise CheckpointFormatError(
                f"{path}: line {i}: scale_exp {scale} != engine scale {SCALE_EXP}"
            )
        try:
            check_q(q)
        except ValueError as e:
            raise CheckpointFormatError(f"{path}: line {i}: {e}") from None
        if m not in _checkpoint_stops(q, x):
            raise CheckpointFormatError(
                f"{path}: line {i}: twisted_limit {m} is neither x//q nor x (x={x}, q={q})"
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
    out = [Checkpoint(x, *by_x[x]["core"], by_x[x]["twisted"]) for x in sorted(by_x)]
    for cp in out:
        try:
            _validate_checkpoint(cp)
        except (EngineInvariantError, OverflowError) as e:
            raise CheckpointFormatError(f"{path}: checkpoint {e}") from None
    return out
