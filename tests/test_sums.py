import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum import digitset
from divsum.multiplicative import CELL_SHIFT, MAX_CELL, MAX_SEGMENT_CELLS, SCALE_EXP, divisor_ratio, divisor_ratio_brute
from divsum.primes import is_prime
from divsum.sums import (
    CheckpointFormatError,
    EngineConfig,
    EngineInvariantError,
    CSV_HEADER,
    MAX_LIMIT,
    MAX_THREADS,
    _cell_sum,
    _twist_stops,
    _twisted_value,
    accumulate,
    checkpoint_identities,
    checkpoint_schedule,
    load_checkpoints,
    save_checkpoints,
    twisted_sum,
)

PROPERTY_MAX_LIMIT = 3000
ONE = 1 << SCALE_EXP  # the numerator of 1


def _numerator(ratio: Fraction) -> int:
    """The numerator of a dyadic ratio at scale 2^SCALE_EXP."""
    assert (ratio * ONE).denominator == 1, ratio
    return int(ratio * ONE)

GOLDEN_LIMIT10_Q15 = (
    "x,scale_exp,S,S_A,S_B,T_nonA,count_nonA,q,twisted_limit,twisted\n"
    "10,32,51539607552,8589934592,0,42949672960,8,1,10,51539607552\n"
    "10,32,51539607552,8589934592,0,42949672960,8,5,2,8589934592\n"
    "10,32,51539607552,8589934592,0,42949672960,8,5,10,55834574848\n"
)


def test_schedule():
    assert checkpoint_schedule(1) == [1]
    assert checkpoint_schedule(60) == [10, 20, 60]
    assert checkpoint_schedule(10**4) == [10, 20, 100, 200, 1000, 2000, 10**4]
    assert checkpoint_schedule(15) == [10, 15]


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(limit=0)
    with pytest.raises(ValueError):
        EngineConfig(limit=10**9 + 1)
    with pytest.raises(ValueError):
        EngineConfig(limit=10, q_list=())
    with pytest.raises(ValueError):
        EngineConfig(limit=10, q_list=(4,))
    with pytest.raises(ValueError):
        EngineConfig(limit=10, thread_count=0)
    with pytest.raises(ValueError, match="thread_count"):
        EngineConfig(limit=10, thread_count=MAX_THREADS + 1)
    assert EngineConfig(limit=10, thread_count=MAX_THREADS).thread_count == MAX_THREADS
    with pytest.raises(ValueError, match="segment_size"):
        EngineConfig(limit=10, segment_size=MAX_SEGMENT_CELLS + 1)


def test_accumulate_limit_10():
    cp = accumulate(EngineConfig(limit=10))[-1]
    assert cp.S == 12 * ONE
    assert cp.S_A == 2 * ONE
    assert cp.S_B == 0
    assert cp.T_nonA == 10 * ONE
    assert cp.count_nonA == 8


def test_accumulate_limit_60_b_sum():
    cp = accumulate(EngineConfig(limit=60))[-1]
    assert cp.S_B == Fraction(21, 2) * ONE


def test_accumulate_limit_1():
    cp = accumulate(EngineConfig(limit=1))[-1]
    assert cp.S == ONE
    assert cp.S_A == 0
    assert cp.S_B == 0
    assert cp.T_nonA == ONE


def test_twisted_examples():
    assert twisted_sum(5, 4) == Fraction(9, 2) * ONE
    assert twisted_sum(1, 10) == 12 * ONE
    assert twisted_sum(7, 0) == 0


def test_twisted_sieve_path_matches_naive():
    for q in (1, 3, 7):
        limit = 2500
        got = twisted_sum(q, limit, segment_size=512)
        assert got == sum(_numerator(divisor_ratio(q * n)) for n in range(1, limit + 1))
        assert got == twisted_sum(q, limit)  # chunking must not matter


def test_twisted_rejects():
    with pytest.raises(ValueError):
        twisted_sum(4, 10)
    with pytest.raises(ValueError):
        twisted_sum(1, -1)
    with pytest.raises(ValueError):
        twisted_sum(7, 10**10)
    # one pass sieves [1, limit], so limit has the engine's cap
    with pytest.raises(ValueError, match=rf"limit must be in \[0, {MAX_LIMIT}\]"):
        twisted_sum(1, MAX_LIMIT + 1)
    for size in (0, -5, MAX_SEGMENT_CELLS + 1):
        with pytest.raises(ValueError, match=rf"segment_size must be in \[1, {MAX_SEGMENT_CELLS}\]"):
            twisted_sum(1, 10, segment_size=size)


def _twist_coefficients(count: int) -> list[Fraction]:
    """e_0 .. e_{count-1} of E(y) = (1 - y/2)/(1 - y + y^2/2), in exact rationals."""
    e = [Fraction(1), Fraction(1, 2)]
    while len(e) < count:
        e.append(e[-1] - e[-2] / 2)
    return e[:count]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1 << 40, (1 << 46) - 1), data=st.data())
def test_twisted_value_matches_coefficients(m, data):
    # q = 2 with 41-46 stops; e_k has denominator 2^ceil(k/2) <= 2^23, so
    # every value is exact for S in multiples of 2^CELL_SHIFT = 2^25
    stops = _twist_stops(2, m)
    values = data.draw(st.lists(st.integers(0, 1 << 40), min_size=len(stops), max_size=len(stops)))
    s_at = {stop: v << CELL_SHIFT for stop, v in zip(stops, values)}
    e = _twist_coefficients(len(stops))
    assert _twisted_value(2, m, s_at) == sum(e[k] * s_at[stop] for k, stop in enumerate(stops))
    # S values that no ratio can produce leave a remainder
    with pytest.raises(EngineInvariantError, match="leaves"):
        _twisted_value(2, 2, {2: 1, 1: 1})


@lru_cache(maxsize=None)
def _ratio_prefix() -> list[int]:
    """prefix[m] = sum_{n<=m} ratio(n) numerators, by factorizing each n."""
    prefix = [0]
    for n in range(1, PROPERTY_MAX_LIMIT + 1):
        prefix.append(prefix[-1] + _numerator(divisor_ratio(n)))
    return prefix


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([p for p in range(2, 51) if is_prime(p)]),
    m=st.integers(0, PROPERTY_MAX_LIMIT),
)
def test_twisted_series_is_combination_of_stops(q, m):
    want = sum(_numerator(divisor_ratio(q * n)) for n in range(1, m + 1))
    s_prefix = _ratio_prefix()
    stops = _twist_stops(q, m)
    assert stops == [m // q**k for k in range(len(stops))] and all(stops)
    e = _twist_coefficients(len(stops))
    assert sum(e[k] * s_prefix[stop] for k, stop in enumerate(stops)) == want
    assert _twisted_value(q, m, s_prefix) == want


def test_exact_identities_at_checkpoints():
    cps = accumulate(EngineConfig(limit=10**4))
    for cp in cps:
        assert cp.S == cp.S_A + cp.T_nonA
        assert cp.S_A - cp.S_B == cp.twisted[5][cp.x // 5]
        assert cp.S >= cp.x << 32
        assert cp.count_nonA == digitset.count_non_a(cp.x)
        # twisted series at q=1 reproduces the total sum
        assert cp.twisted[1][cp.x] == cp.S


def test_monotone_in_x():
    cps = accumulate(EngineConfig(limit=10**4))
    for a, b in zip(cps, cps[1:]):
        assert a.S <= b.S and a.S_A <= b.S_A and a.S_B <= b.S_B and a.T_nonA <= b.T_nonA
        assert b.S_B <= b.S_A <= b.S


def test_against_naive_loop():
    limit = 3000
    cps = accumulate(EngineConfig(limit=limit, q_list=(1, 5)))
    want = {cp.x: cp for cp in cps}
    s = sa = sb = t = cnt = 0
    for n in range(1, limit + 1):
        v = _numerator(divisor_ratio_brute(n))
        s += v
        cls = digitset.classify(n)
        if cls is digitset.DigitClass.NON_A:
            t += v
            cnt += 1
        else:
            sa += v
            if cls is digitset.DigitClass.B_MEMBER:
                sb += v
        if n in want:
            cp = want[n]
            assert cp.S == s
            assert cp.S_A == sa
            assert cp.S_B == sb
            assert cp.T_nonA == t
            assert cp.count_nonA == cnt


def test_thread_count_determinism(tmp_path):
    files = []
    for workers in (1, 2, 8):
        cfg = EngineConfig(limit=10**5, thread_count=workers)
        p = tmp_path / f"t{workers}.csv"
        save_checkpoints(str(p), accumulate(cfg))
        files.append(p.read_bytes())
    assert files[0] == files[1] == files[2]


def test_full_size_segments_on_two_threads_match_one(tmp_path):
    # 20 segment jobs of 2^18 cells, run side by side on two threads
    files = []
    for workers in (1, 2):
        p = tmp_path / f"t{workers}.csv"
        cfg = EngineConfig(limit=5 * 10**6, segment_size=1 << 18, thread_count=workers)
        save_checkpoints(str(p), accumulate(cfg))
        files.append(p.read_bytes())
    assert files[0] == files[1]


def test_segment_size_independence():
    a = accumulate(EngineConfig(limit=5000, segment_size=64))
    b = accumulate(EngineConfig(limit=5000, segment_size=4096))
    assert a == b


def test_roundtrip(tmp_path):
    cps = accumulate(EngineConfig(limit=200))
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), cps)
    assert load_checkpoints(str(p)) == cps
    save_checkpoints(str(p), load_checkpoints(str(p)))
    again = p.read_bytes()
    save_checkpoints(str(p), cps)
    assert p.read_bytes() == again


def test_failed_save_keeps_previous_file(tmp_path):
    cps = accumulate(EngineConfig(limit=200, q_list=(1, 5)))
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), cps)
    before = p.read_bytes()
    # the last checkpoint's stops cannot be sorted, so the writer raises
    # after the rows of every earlier checkpoint have gone out
    broken = replace(cps[-1], twisted={1: {200: 0, None: 0}})
    with pytest.raises(TypeError):
        save_checkpoints(str(p), [*cps[:-1], broken])
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["cp.csv"]


def test_empty_checkpoint_file(tmp_path):
    p = tmp_path / "empty.csv"
    save_checkpoints(str(p), [])
    assert p.read_text() == ",".join(CSV_HEADER) + "\n"
    assert load_checkpoints(str(p)) == []


def test_load_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(",".join(CSV_HEADER) + "\n10,32,1,2,3\n")
    with pytest.raises(CheckpointFormatError, match="line 2"):
        load_checkpoints(str(p))
    p.write_text(",".join(CSV_HEADER) + "\n10,32,a,b,c,d,e,f,g,h\n")
    with pytest.raises(CheckpointFormatError, match="line 2: non-integer"):
        load_checkpoints(str(p))
    p.write_text("wrong,header\n")
    with pytest.raises(CheckpointFormatError, match="line 1"):
        load_checkpoints(str(p))


def test_load_rejects_scale_mismatch(tmp_path):
    p = tmp_path / "scale.csv"
    p.write_text(",".join(CSV_HEADER) + "\n10,16,1,1,0,0,8,1,10,1\n")
    with pytest.raises(CheckpointFormatError, match="scale_exp 16"):
        load_checkpoints(str(p))


def _bump_field(path, column, select, by=1):
    """Add by to column in every CSV row for which select(row) holds."""
    lines = path.read_text().splitlines()
    col = CSV_HEADER.index(column)
    for i, line in enumerate(lines[1:], start=1):
        row = line.split(",")
        if select(dict(zip(CSV_HEADER, map(int, row)))):
            row[col] = str(int(row[col]) + by)
            lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "column, x, q, m, identity",
    [
        ("S", 200, None, None, "sum_split_exact"),
        ("twisted", 1000, 5, 200, "five_split_exact"),
        ("count_nonA", 100, None, None, "non_a_count_matches"),
    ],
)
def test_load_refuses_failed_identity(tmp_path, column, x, q, m, identity):
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=1000, q_list=(1, 5))))
    # one checkpoint's value off by one: every row of x, or its (q, m) row
    _bump_field(
        p,
        column,
        lambda r: r["x"] == x and q in (None, r["q"]) and m in (None, r["twisted_limit"]),
    )
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoints(str(p))
    assert str(err.value) == f"{p}: checkpoint x={x}: {identity} fails"


@pytest.mark.parametrize(
    "q, m, by, error",
    [
        (1, 1000, 1, "twisted q=1 at m=x differs from S"),
        # the bounds S <= T_q(x) <= 3S/2 and T_q(x//q) <= T_q(x), which no
        # identity reads: ratio(q n) / ratio(n) is in [1, 3/2]
        (7, 1000, 1000 * ONE, "twisted q=7 at m=x is outside [S, 3S/2] or below m=x//q"),
        (5, 1000, -1000 * ONE, "twisted q=5 at m=x is outside [S, 3S/2] or below m=x//q"),
        (2, 500, 1000 * ONE, "twisted q=2 at m=x is outside [S, 3S/2] or below m=x//q"),
    ],
    ids=["q=1-not-S", "q=7-above", "q=5-below", "q=2-not-monotone"],
)
def test_load_refuses_twisted_value_out_of_its_bounds(tmp_path, q, m, by, error):
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=1000, q_list=(1, 2, 5, 7))))
    _bump_field(p, "twisted", lambda r: (r["x"], r["q"], r["twisted_limit"]) == (1000, q, m), by)
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoints(str(p))
    assert str(err.value) == f"{p}: checkpoint x=1000: {error}"


HUGE = 10**400  # a numerator far beyond NUMERATOR_CAP = 2^127


@pytest.mark.parametrize(
    "rows, error",
    [
        (["0,32,0,0,0,0,0,1,0,0"], "line 2: x must be >= 1 (got 0)"),
        (["-1,32,0,0,0,0,0,1,0,0"], "line 2: x must be >= 1 (got -1)"),
        # every identity holds, but S_A, S_B and T_nonA are out of range
        ([f"1,32,{ONE},{-HUGE},{-HUGE},{ONE + HUGE},1,1,1,{ONE}"], "checkpoint x=1: numerator exceeds 128 bits"),
        ([f"1,32,{ONE},0,0,{ONE},1,5,0,0", f"1,32,{ONE},0,0,{ONE},1,5,1,{-(1 << 127)}"],
         "checkpoint x=1: numerator exceeds 128 bits"),
        # every identity holds, but S(10) = 9 < 10 although every ratio is >= 1
        ([f"10,32,{9 * ONE},{ONE},0,{8 * ONE},8,1,10,{9 * ONE}"], "checkpoint x=10: mean ratio below 1"),
        # a twisted row whose q no command accepts, or whose stop is neither x//q nor x
        (["10,32,0,0,0,0,0,4,2,0"], "line 2: q must be 1 or prime (got 4)"),
        ([f"10,32,0,0,0,0,0,{2**61 - 1},0,0"], "line 2: q must be below 2^32 (got 2305843009213693951)"),
        (["10,32,0,0,0,0,0,5,2,0", "10,32,0,0,0,0,0,5,3,0"],
         "line 3: twisted_limit 3 is neither x//q nor x (x=10, q=5)"),
    ],
    ids=["x=0", "x<0", "core-numerator", "twisted-numerator", "mean-ratio", "q=4", "q-huge", "twisted-stop"],
)
def test_load_refuses_out_of_range_checkpoint(tmp_path, rows, error):
    p = tmp_path / "bad.csv"
    p.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoints(str(p))
    assert str(err.value) == f"{p}: {error}"


def test_checkpoint_identities_without_q5():
    for cp in accumulate(EngineConfig(limit=1000, q_list=(1,))):
        assert checkpoint_identities(cp) == {
            "sum_split_exact": True,
            "five_split_exact": None,
            "non_a_count_matches": True,
        }


def test_golden_csv_limit10(tmp_path):
    p = tmp_path / "golden.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=10, q_list=(1, 5))))
    assert p.read_text() == GOLDEN_LIMIT10_Q15


def test_resume_matches_fresh(tmp_path):
    fresh_p = tmp_path / "fresh.csv"
    resume_p = tmp_path / "resume.csv"
    save_checkpoints(str(fresh_p), accumulate(EngineConfig(limit=10**4)))
    # the continuation adds x=2000 whose q=5 stop 400 lies below the resume
    # point 1000, exercising the gap-resieve path
    save_checkpoints(str(resume_p), accumulate(EngineConfig(limit=10**3)))
    resumed = accumulate(EngineConfig(limit=10**4, resume_path=str(resume_p)))
    save_checkpoints(str(resume_p), resumed)
    assert resume_p.read_bytes() == fresh_p.read_bytes()


def test_resume_noop_when_complete(tmp_path):
    p = tmp_path / "cp.csv"
    cps = accumulate(EngineConfig(limit=500))
    save_checkpoints(str(p), cps)
    before = p.read_bytes()
    again = accumulate(EngineConfig(limit=500, resume_path=str(p)))
    save_checkpoints(str(p), again)
    assert p.read_bytes() == before


def test_resume_rejects_mismatched_schedule(tmp_path):
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=60)))  # checkpoint at 60
    with pytest.raises(CheckpointFormatError, match="schedule"):
        accumulate(EngineConfig(limit=1000, resume_path=str(p)))


def test_resume_rejects_mismatched_q_list(tmp_path):
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=100, q_list=(1,))))
    with pytest.raises(CheckpointFormatError, match="q="):
        accumulate(EngineConfig(limit=1000, q_list=(1, 5), resume_path=str(p)))


def test_resume_rejects_missing_twisted_stop(tmp_path):
    p = tmp_path / "cp.csv"
    save_checkpoints(str(p), accumulate(EngineConfig(limit=100, q_list=(5,))))
    rows = p.read_text().splitlines(keepends=True)
    p.write_text("".join(rows[:-1]))  # drop the row of x=100, q=5, m=100
    with pytest.raises(CheckpointFormatError, match="stops"):
        accumulate(EngineConfig(limit=1000, q_list=(5,), resume_path=str(p)))


@lru_cache(maxsize=None)
def _brute_twisted_prefix(q: int) -> list[int]:
    """prefix[m] = sum_{n<=m} ratio(q n) numerators, by divisor enumeration."""
    prefix = [0]
    for n in range(1, PROPERTY_MAX_LIMIT + 1):
        prefix.append(prefix[-1] + _numerator(divisor_ratio_brute(q * n)))
    return prefix


@settings(max_examples=25, deadline=None)
@given(
    qs=st.sets(st.sampled_from((1, 2, 3, 5, 7, 11, 13)), min_size=1, max_size=3),
    limit=st.integers(1, PROPERTY_MAX_LIMIT),
    segment_size=st.integers(1, 4096),
    threads=st.sampled_from((1, 2)),
    data=st.data(),
)
def test_twisted_stops_and_resume_match_brute_force(qs, limit, segment_size, threads, data):
    q_list = tuple(sorted(qs))
    schedule = checkpoint_schedule(limit)
    # resume from the first k checkpoints (k = 0: a header-only file)
    k = data.draw(st.integers(0, len(schedule)), label="resume_prefix")
    with tempfile.TemporaryDirectory() as tmp:
        fresh_p = os.path.join(tmp, "fresh.csv")
        resume_p = os.path.join(tmp, "resume.csv")
        save_checkpoints(fresh_p, accumulate(EngineConfig(limit=limit, q_list=q_list)))
        prefix = accumulate(EngineConfig(limit=schedule[k - 1], q_list=q_list)) if k else []
        save_checkpoints(resume_p, prefix)
        cfg = EngineConfig(
            limit=limit,
            q_list=q_list,
            segment_size=segment_size,
            thread_count=threads,
            resume_path=resume_p,
        )
        resumed = accumulate(cfg)
        save_checkpoints(resume_p, resumed)
        with open(fresh_p, "rb") as a, open(resume_p, "rb") as b:
            assert a.read() == b.read()
    for q in q_list:
        want = _brute_twisted_prefix(q)
        for cp in resumed:
            assert set(cp.twisted[q]) == {cp.x // q, cp.x}
            for m, value in cp.twisted[q].items():
                assert value == want[m], (q, cp.x, m)
        assert twisted_sum(q, limit, segment_size) == want[limit]


def test_cell_sum_is_exact_for_the_largest_cells():
    piece = (1 << 31) // MAX_CELL  # cells per int32 partial sum
    cells = np.full(1 << 22, MAX_CELL, dtype=np.int32)
    for size in (0, 1, piece - 1, piece, piece + 1, 3 * piece + 5, 1 << 22):
        assert _cell_sum(cells[:size]) == size * MAX_CELL, size
    assert _cell_sum(cells[3::5]) == len(cells[3::5]) * MAX_CELL


def test_cell_sum_is_exact_for_the_largest_int16_cells():
    piece = (1 << 31) // MAX_CELL  # cells per int32 partial sum
    cells = np.full(1 << 22, MAX_CELL, dtype=np.int16)
    for size in (0, 1, piece - 1, piece, piece + 1, 3 * piece + 5, 1 << 22):
        assert _cell_sum(cells[:size]) == size * MAX_CELL, size
    assert _cell_sum(cells[3::5]) == len(cells[3::5]) * MAX_CELL
    # the largest segment, as a read-only broadcast of one cell
    assert _cell_sum(np.broadcast_to(np.int16(MAX_CELL), MAX_SEGMENT_CELLS)) == MAX_SEGMENT_CELLS * MAX_CELL
