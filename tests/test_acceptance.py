"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy shared inputs
(the prime-limit-1e8 product and the limit-1e7 engine run) are computed
once per session.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from divsum import analysis, digitset, dirichlet, sums
from divsum.multiplicative import (
    CELL_EXP,
    divisor_count,
    divisor_ratio,
    divisor_ratio_brute,
    factorize,
    sieve_segment,
    to_float,
)

LEMMA_TARGET = 1.4276565
THEOREM_TARGET = 1.1142685
Q_GRID = (1, 2, 3, 5, 7)
X_GRID = (10**4, 10**5, 10**6, 10**7)


def _report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for msg in failures:
        print(f"  - {msg}")
    assert not failures


@pytest.fixture(scope="module")
def flagship_product():
    t0 = time.monotonic()
    c8 = dirichlet.euler_product_C(1.0, 10**8)
    c7 = dirichlet.euler_product_C(1.0, 10**7)
    return c8, c7, time.monotonic() - t0


@pytest.fixture(scope="module")
def engine_run_1e7():
    t0 = time.monotonic()
    cps = sums.accumulate(sums.EngineConfig(limit=10**7, q_list=Q_GRID))
    return cps, time.monotonic() - t0


def test_criterion_1_constant_reproduction(flagship_product):
    c8, c7, elapsed = flagship_product
    failures = []
    lemma, _ = dirichlet.main_term_slope(1, c8)
    if abs(lemma - LEMMA_TARGET) > 2e-7:
        failures.append(f"lemma constant {lemma!r} off target by {abs(lemma - LEMMA_TARGET):.2e} > 2e-7")
    if c8.tail_bound > 1e-8:
        failures.append(f"tail bound {c8.tail_bound:.2e} > 1e-8")
    v7, v8 = c7.value + c7.value_lo, c8.value + c8.value_lo
    allowed = math.expm1(c7.tail_bound) * v7
    if abs(v7 - v8) > allowed:
        failures.append(f"truncations differ by {abs(v7 - v8):.2e} > {allowed:.2e}")
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    _report("1 constant-reproduction", failures)


def test_criterion_2_theorem_constant(flagship_product):
    c8, _, _ = flagship_product
    failures = []
    theorem, _ = dirichlet.theorem_constant(c8)
    if abs(theorem - THEOREM_TARGET) > 5e-7:
        failures.append(f"theorem constant {theorem!r} off by {abs(theorem - THEOREM_TARGET):.2e} > 5e-7")
    if not dirichlet.rational_identity_holds():
        failures.append("rational identity 1/6 - 3/82 != 16/123")
    _report("2 theorem-constant", failures)


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    bad = next(
        (n for n in range(1, 100_001) if divisor_ratio(n) != divisor_ratio_brute(n)),
        None,
    )
    if bad is not None:
        failures.append(f"ratio oracles disagree at n={bad}")
    rng = random.Random(12345)
    for _ in range(10_000):
        n = rng.randrange(1, 10**7 + 1)
        if divisor_ratio(n) != divisor_ratio_brute(n):
            failures.append(f"ratio oracles disagree at n={n}")
            break
    segments = [(1, 100_001), (10**6 - 500, 10**6 + 500), (10**12, 10**12 + 200)]
    for lo, hi in segments:
        nums = sieve_segment(lo, hi)
        step = 1 if hi - lo <= 2000 else 13
        for i in range(0, hi - lo, step):
            f = factorize(lo + i)
            if Fraction(int(nums[i]), 1 << CELL_EXP) != Fraction(divisor_count(f), 1 << len(f)):
                failures.append(f"sieve/factorize mismatch at n={lo + i}")
                break
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    _report("3 oracle-equivalence", failures)


def test_criterion_4_digit_set_equivalence():
    failures = []
    bad = next(
        (
            n
            for n in range(1, 100_001)
            if (digitset.permutation_witness(n) is not None)
            != (digitset.classify(n) is not digitset.DigitClass.NON_A)
        ),
        None,
    )
    if bad is not None:
        failures.append(f"classify/witness disagree at n={bad}")
    allowed = set("12346789")
    prefix = [0]
    for n in range(1, 10**6 + 1):
        prefix.append(prefix[-1] + all(c in allowed for c in str(n)))
    rng = random.Random(777)
    for _ in range(1000):
        x = rng.randrange(1, 10**6 + 1)
        if digitset.count_non_a(x) != prefix[x]:
            failures.append(f"count_non_a brute-force mismatch at x={x}")
            break
    for k in range(1, 13):
        if digitset.count_non_a(10**k) != (8 ** (k + 1) - 8) // 7:
            failures.append(f"closed form fails at 10^{k}")
    x = 1.0
    while x <= 10**9:
        _, holds = digitset.non_a_bound(x)
        if not holds:
            failures.append(f"envelope violated at x={x}")
        x *= 1.9
    _report("4 digit-set-equivalence", failures)


def test_criterion_5_exact_decomposition(engine_run_1e7):
    cps, elapsed = engine_run_1e7
    failures = []
    for cp in cps:
        if cp.S != cp.S_A + cp.T_nonA:
            failures.append(f"S != S_A + T_nonA at x={cp.x}")
        five = cp.twisted[5][cp.x // 5]
        if cp.S_A - cp.S_B != five:
            failures.append(f"S_A != S_B + twisted(5, x//5) at x={cp.x}")
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.1f}s > 600s")
    _report("5 exact-decomposition", failures)


def test_criterion_6_lemma_level_asymptotics(engine_run_1e7, flagship_product):
    c8, _, _ = flagship_product
    cps, _ = engine_run_1e7
    by_x = {cp.x: cp for cp in cps}
    failures = []
    for q in Q_GRID:
        slope, _ = dirichlet.main_term_slope(q, c8)
        for x in X_GRID:
            empirical = to_float(by_x[x].twisted[q][x])
            residual = abs(empirical - slope * x)
            if residual > 5 * x**0.6:
                failures.append(
                    f"q={q}, x={x}: |twisted - slope*x| = {residual:.1f} > {5 * x**0.6:.1f}"
                )
    slope1, _ = dirichlet.main_term_slope(1, c8)
    pts = [(x, abs(to_float(by_x[x].S) - slope1 * x)) for x in X_GRID]
    fit = analysis.fit_error_exponent(pts)
    if fit.slope > 0.75:
        failures.append(f"q=1 error exponent {fit.slope:.3f} > 0.75")
    print(f"  [q=1 fitted error exponent: {fit.slope:.3f}]")
    _report("6 lemma-asymptotics", failures)


def test_criterion_7_theorem_level_asymptotics(engine_run_1e7, flagship_product):
    c8, _, _ = flagship_product
    cps, _ = engine_run_1e7
    by_x = {cp.x: cp for cp in cps}
    theorem, _ = dirichlet.theorem_constant(c8)
    failures = []
    for x in X_GRID:
        cp = by_x[x]
        corrected = abs(to_float(cp.S_B) - theorem * x + to_float(cp.T_nonA))
        if corrected > 10 * x**0.6:
            failures.append(f"x={x}: corrected residual {corrected:.1f} > {10 * x**0.6:.1f}")
        raw = abs(to_float(cp.S_B) - theorem * x)
        raw_allowed = 3 * (64 / 7) * x**0.93
        if raw > raw_allowed:
            failures.append(f"x={x}: raw residual {raw:.1f} > {raw_allowed:.1f}")
    fit = analysis.non_a_count_fit(3, 9)
    if abs(fit.slope - 0.903) > 0.01:
        failures.append(f"complement growth exponent {fit.slope:.4f} not within 0.903 +- 0.01")
    print(f"  [complement count exponent: {fit.slope:.4f}]")
    _report("7 theorem-asymptotics", failures)


def test_criterion_8_dirichlet_identity():
    failures = []
    series = dirichlet.dirichlet_lhs((1, 3, 5), (2.0,), 10**6)
    factorized = dirichlet.dirichlet_rhs((1, 3, 5), (2.0,))
    for q in (1, 3, 5):
        (lhs, _), rhs = series[q, 2.0], factorized[q, 2.0]
        if abs(lhs - rhs) > 1e-4:
            failures.append(f"q={q}: |series - factorized| = {abs(lhs - rhs):.2e} > 1e-4")
    from divsum.primes import primes_upto

    for p in primes_upto(100):
        for s in (0.75, 1.0, 1.5, 2.0, 3.0):
            r = dirichlet.local_factor_residual(int(p), s)
            if r > 1e-12:
                failures.append(f"local residual at (p={p}, s={s}) is {r:.2e} > 1e-12")
    _report("8 dirichlet-identity", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []
    blobs = {}
    for workers in (1, 2, 8):
        cfg = sums.EngineConfig(limit=10**6, thread_count=workers)
        path = tmp_path / f"threads{workers}.csv"
        sums.save_checkpoints(str(path), sums.accumulate(cfg))
        blobs[workers] = path.read_bytes()
    if not (blobs[1] == blobs[2] == blobs[8]):
        failures.append("checkpoint CSVs differ across 1/2/8 workers")
    fresh_path = tmp_path / "fresh.csv"
    sums.save_checkpoints(str(fresh_path), sums.accumulate(sums.EngineConfig(limit=10**6)))
    resume_path = tmp_path / "resumed.csv"
    sums.save_checkpoints(str(resume_path), sums.accumulate(sums.EngineConfig(limit=10**5)))
    resumed = sums.accumulate(sums.EngineConfig(limit=10**6, resume_path=str(resume_path)))
    sums.save_checkpoints(str(resume_path), resumed)
    if resume_path.read_bytes() != fresh_path.read_bytes():
        failures.append("resumed run differs from fresh run")
    _report("9 determinism", failures)
