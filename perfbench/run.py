"""divsum benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload grid|main|report --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.  The
seed picks a recorded input variant (see workloads.py).  Each repetition
runs the workload's CLI calls in a fresh worker process (worker.py), and
every file it writes is checked against references.json.  Repetitions
repeat until the next one would end after --seconds (at least three).

--trace 0 prints the end-to-end metrics: medians over repetitions of the
wall time of the CLI calls, work per second, peak resident memory of the
worker process tree, plus setup_s (median of fresh-interpreter imports of
divsum.cli) and ok_frac.  --trace 1 alternates traced and untraced
repetitions (at least two of each).  Traced ones wrap module functions
from outside (spans.py).  It prints the per-layer metrics, medians over
traced repetitions, and the tracing overhead, the median over pairs of
traced minus untraced wall time.  Spans and per-repetition values go to
perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPS = 3
SETUP_SAMPLES = 9
# a run must end within 180 s; stop starting repetitions well before that
DEADLINE_S = 140.0
POLL_S = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


def _program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVSUM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import divsum.cli, one per sample.

    A first, discarded import writes the bytecode cache, as an installed
    program has it."""
    code = ("import time; t = time.perf_counter(); import divsum.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_program_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _tree_rss_kib(pid: int) -> int:
    """Resident memory of a process and all its descendants, from /proc."""
    page_kib = os.sysconf("SC_PAGE_SIZE") // 1024
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page_kib
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError, IndexError):
            continue  # the process ended while being read
    return total


def launch(variant: workloads.Variant, trace: bool, workdir: Path, run_id: str,
           timeout: float) -> tuple[dict | None, int]:
    """Run one repetition in a worker; (its result or None, peak RSS KiB)."""
    workdir.mkdir(parents=True)
    spec = {
        "root": str(ROOT),
        "workdir": str(workdir),
        "data_dir": str(workloads.DATA.relative_to(ROOT)),
        "inputs": list(variant.inputs),
        "calls": [list(c) for c in variant.calls],
        "snapshots": [list(s) for s in variant.snapshots],
        "trace": trace,
        "run_id": run_id,
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # the worker's stdout goes to stderr so that ours ends with the result;
    # its own session lets one signal stop it and anything it starts
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            cwd=ROOT, env=_program_env(), stdout=sys.stderr,
                            start_new_session=True)
    peak = 0
    deadline = time.monotonic() + timeout
    try:
        while True:
            try:
                proc.wait(timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                peak = max(peak, _tree_rss_kib(proc.pid))
                if time.monotonic() > deadline:
                    print(f"repetition {run_id} killed after {timeout:.0f} s", file=sys.stderr)
                    return None, peak
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"repetition {run_id}: worker exited with {proc.returncode}", file=sys.stderr)
        return None, peak
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, max(peak, result["maxrss_kib"])


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def score(variant: workloads.Variant, result: dict | None, workdir: Path,
          expected: dict[str, str]) -> list[str]:
    """Failed output checks of one repetition: a call that raised or exited
    non-zero, or an output file whose digest differs from the reference."""
    if result is None:
        return [f"no result ({variant.checks()} checks)"] * variant.checks()
    failures = []
    for call in result["calls"]:
        if call["rc"] != 0:
            failures.append(f"{' '.join(call['argv'])}: exit {call['rc']} {call['error'] or ''}")
    for name in variant.outputs:
        if _sha256(workdir / name) != expected.get(name):
            failures.append(f"{name}: digest differs from the reference")
    return failures


def run_reps(variant, expected, seconds: float, modes: tuple[bool, ...], tag: str,
             t_start: float, scratch: Path, min_reps: int = MIN_REPS) -> list[dict]:
    """Repetitions until the next would end after `seconds` (at least min_reps).

    Repetition i is traced when modes[i % len(modes)] is true."""
    reps = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["elapsed_s"] for r in reps) if reps else 0.0
        if len(reps) >= min_reps and elapsed + typical > seconds:
            break
        if reps and time.perf_counter() - t_start + typical > DEADLINE_S:
            break
        trace = modes[len(reps) % len(modes)]
        run_id = f"{tag}-r{len(reps)}"
        workdir = scratch / run_id
        r0 = time.perf_counter()
        result, peak = launch(variant, trace, workdir, run_id,
                              timeout=max(10.0, DEADLINE_S + 30 - (r0 - t_start)))
        failures = score(variant, result, workdir, expected)
        shutil.rmtree(workdir, ignore_errors=True)
        reps.append({"run_id": run_id, "traced": trace, "result": result, "peak_rss_kib": peak,
                     "failures": failures, "elapsed_s": time.perf_counter() - r0})
        for f in failures:
            print(f"FAIL {run_id}: {f}", file=sys.stderr)
    return reps


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _wall(rep) -> float | None:
    return rep["result"]["wall_s"] if rep["result"] else None


def checks(variant, reps) -> tuple[int, int]:
    """(attempted, failed) output checks over all repetitions."""
    return variant.checks() * len(reps), sum(len(r["failures"]) for r in reps)


def end_to_end(variant, reps, setup: list[float]) -> dict[str, float]:
    wall = _median(_wall(r) for r in reps)
    attempted, failed = checks(variant, reps)
    return {
        "wall_s": wall,
        "work_per_s": variant.work / wall if wall else 0.0,
        "setup_s": _median(setup),
        "peak_rss_mib": _median(r["peak_rss_kib"] for r in reps) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(variant, reps) -> dict[str, float]:
    """Per-layer medians over the traced repetitions of alternating reps."""
    per_rep = [spans.layer_metrics(r["result"]["spans"], r["result"]["wall_s"],
                                   r["result"]["cpu_s"], variant.threads,
                                   r["result"]["absent"])
               for r in reps if r["traced"] and r["result"]]
    metrics = {name: _median(m.get(name) for m in per_rep)
               for name in spans.PER_LAYER_UNITS}
    pairs = zip(reps[0::2], reps[1::2])
    metrics["trace.overhead_s"] = _median(
        _wall(t) - _wall(u) for t, u in pairs if t["result"] and u["result"])
    attempted, failed = checks(variant, reps)
    metrics["failed_frac"] = failed / attempted
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(seed: int, variant) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "variant": variant.key,
        "note": f"measured on a shared {nproc}-core machine; other tenants' load "
                "adds noise to every timing",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid", "main", "report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "divsum" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    refs = workloads.load_references()
    variant = workloads.pick(args.workload, args.seed, refs)
    expected = refs["digests"][variant.workload][variant.key]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"work-{tag}-{os.getpid()}"
    prov = provenance(args.seed, variant)
    try:
        if args.trace:
            setup: list[float] = []
            reps = run_reps(variant, expected, args.seconds, (True, False), tag, t_start,
                            scratch, min_reps=4)
            metrics = per_layer(variant, reps)
            units = spans.PER_LAYER_UNITS
        else:
            setup = measure_setup()
            reps = run_reps(variant, expected, args.seconds, (False,), tag, t_start, scratch)
            metrics = end_to_end(variant, reps, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = checks(variant, reps)
    OUT.mkdir(exist_ok=True)
    detail = {
        "provenance": prov,
        "metrics": metrics,
        "setup_samples_s": setup,
        "repetitions": [
            {"run_id": r["run_id"], "traced": r["traced"], "wall_s": _wall(r),
             "peak_rss_kib": r["peak_rss_kib"],
             "cpu_s": r["result"]["cpu_s"] if r["result"] else None,
             "failures": r["failures"]}
            for r in reps
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov,
                                 "absent": (reps[0]["result"] or {}).get("absent")}) + "\n")
            for r in reps:
                for s in (r["result"] or {}).get("spans", []):
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps({"provenance": prov, "samples": len(reps)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
