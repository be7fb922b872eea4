"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that the
counts derived from the trace repeat exactly between two runs, that the
computed sieve counts match a brute-force count, that a wrapped name
missing from the program is reported as absent, that a corrupted CSV or
report is counted as a failed check, and that the benchmark refuses to
run without the program's sources.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from math import isqrt

import run
import spans
import workloads

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def benchmark_names() -> tuple[set[str], set[str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


EXACT_UNITS = {"count", "count.computed", "bytes", "bytes.computed"}


def check_metrics(refs, scratch) -> None:
    e2e_names, layer_names = benchmark_names()
    check(set(run.END_TO_END_UNITS) == e2e_names, "end-to-end names match BENCHMARK.json")
    check(set(spans.PER_LAYER_UNITS) == layer_names, "per-layer names match BENCHMARK.json")
    t0 = time.perf_counter()
    for name in ("grid", "main", "report"):
        v = workloads.tiny(name, refs)
        expected = refs["digests"][name][v.key]
        reps = run.run_reps(v, expected, 0, (False,), f"self-{name}", t0, scratch, min_reps=1)
        e2e = run.end_to_end(v, reps, [0.1])
        check(set(e2e) == e2e_names and all(e2e[k] > 0 for k in e2e),
              f"{name}: every end-to-end metric emitted and non-zero")
        check(e2e["ok_frac"] == 1.0, f"{name}: outputs match the references")
        layers = []
        for i in range(2):
            reps = run.run_reps(v, expected, 0, (True, False), f"self-{name}-t{i}", t0,
                                scratch, min_reps=2)
            layers.append(run.per_layer(v, reps))
        check(set(layers[0]) == layer_names, f"{name}: every per-layer metric emitted")
        check(layers[0]["failed_frac"] == 0 and layers[0]["trace.absent"] == 0,
              f"{name}: traced run passes its checks and finds every wrapped name")
        exact = [k for k, unit in spans.PER_LAYER_UNITS.items() if unit in EXACT_UNITS]
        differing = [k for k in exact if layers[0][k] != layers[1][k]]
        check(not differing, f"{name}: counts repeat exactly {differing or ''}")


def check_corruption(refs, scratch) -> None:
    for name, target in (("grid", "checkpoints.csv"), ("main", "leg1.csv"),
                         ("report", "report.json")):
        v = workloads.tiny(name, refs)
        expected = refs["digests"][name][v.key]
        workdir = scratch / f"corrupt-{name}"
        result, peak = run.launch(v, False, workdir, f"corrupt-{name}", timeout=120)
        path = workdir / target
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        failures = run.score(v, result, workdir, expected)
        check(len(failures) == 1, f"{name}: a corrupted {target} is one failed check")
        rep = {"run_id": "corrupt", "traced": False, "result": result, "peak_rss_kib": peak,
               "failures": failures, "elapsed_s": 0.0}
        ok_frac = run.end_to_end(v, [rep], [0.1])["ok_frac"]
        failed_frac = run.per_layer(v, [rep])["failed_frac"]
        check(failed_frac == 1 / v.checks() and ok_frac == 1 - failed_frac,
              f"{name}: failed_frac counts it ({failed_frac:.3f})")
    v = workloads.tiny("grid", refs)
    failures = run.score(v, None, scratch, refs["digests"]["grid"][v.key])
    check(len(failures) == v.checks(), "a repetition without a result fails every check")


def check_sieve_counts() -> None:
    lo, hi = 999_000, 1_001_000
    root = isqrt(hi - 1)
    pairs = set()
    updates = 0
    for n in range(lo, hi):
        m, p = n, 2
        while p <= root and m > 1:
            if m % p == 0:  # p is prime: every smaller prime is stripped from m
                pk = p
                while n % pk == 0:
                    pairs.add((p, pk))
                    updates += 1
                    pk *= p
                while m % p == 0:
                    m //= p
            p += 1
    strides, counted, _ = spans.sieve_counts([(lo, hi)])
    check((strides, counted) == (len(pairs), updates),
          f"computed sieve counts match brute force ({strides}, {counted})")


def check_absent() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import divsum.cli  # noqa: F401  (loads every module the tracer wraps)

    saved = spans.TARGETS["sums"]
    spans.TARGETS["sums"] = saved + ("_no_such_function",)
    try:
        tracer = spans.Tracer("absent")
        tracer.install()
    finally:
        spans.TARGETS["sums"] = saved
    check(tracer.absent == ["sums._no_such_function"], "a missing wrapped name is reported absent")


def check_missing_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    refs = workloads.load_references()
    scratch = run.OUT / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_sieve_counts()
        check_metrics(refs, scratch)
        check_corruption(refs, scratch)
        check_missing_sources()
        check_absent()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
