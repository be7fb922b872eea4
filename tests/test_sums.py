import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum import digitset
from divsum.multiplicative import MAX_SEGMENT_CELLS, DyadicValue, divisor_ratio_brute
from divsum.sums import (
    CheckpointFormatError,
    EngineConfig,
    CSV_HEADER,
    accumulate,
    checkpoint_schedule,
    load_checkpoints,
    save_checkpoints,
    twisted_sum,
)

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
    assert checkpoint_schedule(10**4, refine_factor2=False) == [10, 100, 1000, 10**4]
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
    with pytest.raises(ValueError, match="segment_size"):
        EngineConfig(limit=10, segment_size=MAX_SEGMENT_CELLS + 1)


def test_accumulate_limit_10():
    cp = accumulate(EngineConfig(limit=10))[-1]
    assert cp.S.as_fraction() == 12
    assert cp.S_A.as_fraction() == 2
    assert cp.S_B.as_fraction() == 0
    assert cp.T_nonA.as_fraction() == 10
    assert cp.count_nonA == 8


def test_accumulate_limit_60_b_sum():
    cp = accumulate(EngineConfig(limit=60))[-1]
    assert cp.S_B.as_fraction() == Fraction(21, 2)


def test_accumulate_limit_1():
    cp = accumulate(EngineConfig(limit=1))[-1]
    assert cp.S.as_fraction() == 1
    assert cp.S_A.as_fraction() == 0
    assert cp.S_B.as_fraction() == 0
    assert cp.T_nonA.as_fraction() == 1


def test_twisted_examples():
    assert twisted_sum(5, 4).as_fraction() == Fraction(9, 2)
    assert twisted_sum(1, 10).as_fraction() == 12
    assert twisted_sum(7, 0).as_fraction() == 0


def test_twisted_sieve_path_matches_naive():
    from divsum.multiplicative import divisor_ratio

    for q in (1, 3, 7):
        limit = 2500
        got = twisted_sum(q, limit, segment_size=512)
        want = DyadicValue.zero()
        for n in range(1, limit + 1):
            want = want + divisor_ratio(q * n)
        assert got == want
        assert got == twisted_sum(q, limit)  # chunking must not matter


def test_twisted_rejects():
    with pytest.raises(ValueError):
        twisted_sum(4, 10)
    with pytest.raises(ValueError):
        twisted_sum(1, -1)
    with pytest.raises(ValueError):
        twisted_sum(7, 10**10)
    with pytest.raises(ValueError, match="segment_size"):
        twisted_sum(1, 10, segment_size=MAX_SEGMENT_CELLS + 1)


def test_exact_identities_at_checkpoints():
    cps = accumulate(EngineConfig(limit=10**4))
    for cp in cps:
        assert cp.S.numerator == cp.S_A.numerator + cp.T_nonA.numerator
        assert cp.S_A.numerator - cp.S_B.numerator == cp.twisted[5][cp.x // 5].numerator
        assert cp.S.numerator >= cp.x << 32
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
        v = divisor_ratio_brute(n).numerator
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
            assert cp.S.numerator == s
            assert cp.S_A.numerator == sa
            assert cp.S_B.numerator == sb
            assert cp.T_nonA.numerator == t
            assert cp.count_nonA == cnt


def test_thread_count_determinism(tmp_path):
    files = []
    for workers in (1, 2, 8):
        cfg = EngineConfig(limit=10**5, thread_count=workers)
        p = tmp_path / f"t{workers}.csv"
        save_checkpoints(str(p), accumulate(cfg))
        files.append(p.read_bytes())
    assert files[0] == files[1] == files[2]


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
    # the last checkpoint's value is unwritable, so the writer raises after
    # the rows of every earlier checkpoint have gone out
    broken = replace(cps[-1], twisted={1: {200: None}})
    with pytest.raises(AttributeError):
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


PROPERTY_MAX_LIMIT = 3000


@lru_cache(maxsize=None)
def _brute_twisted_prefix(q: int) -> list[int]:
    """prefix[m] = sum_{n<=m} ratio(q n) numerators, by divisor enumeration."""
    prefix = [0]
    for n in range(1, PROPERTY_MAX_LIMIT + 1):
        prefix.append(prefix[-1] + divisor_ratio_brute(q * n).numerator)
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
                assert value.numerator == want[m], (q, cp.x, m)
        assert twisted_sum(q, limit, segment_size).numerator == want[limit]
