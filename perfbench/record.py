"""Record the benchmark's stored inputs and reference digests.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are trusted.  Writes the
checkpoint CSVs in data/ that the report workload reads, and
references.json: the prime counts that report's work_per_s divides by,
and the SHA-256 of every file each workload variant writes.  References
come from fresh runs; the resume workload's final files are taken from a
fresh run to the same limit, and each variant is then run as the
benchmark runs it to confirm that it matches (a resumed run must be
byte-identical to a fresh one).
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from math import isqrt

import numpy as np

import run
import workloads
from workloads import Variant


def prime_count(limit: int) -> int:
    """pi(limit) by an odd-only sieve that shares no code with divsum."""
    if limit < 2:
        return 0
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] <-> 2i+1
    odd[0] = False
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return 1 + int(odd.sum())


def digests(variant: Variant, rename: dict[str, str] | None = None) -> dict[str, str]:
    """Run a variant once; digest of each output (optionally renamed)."""
    workdir = run.OUT / "record" / variant.key.replace("/", "_")
    shutil.rmtree(workdir, ignore_errors=True)
    result, _ = run.launch(variant, False, workdir, "record", timeout=600)
    if result is None or any(c["rc"] != 0 for c in result["calls"]):
        raise SystemExit(f"reference run failed: {variant.key}: {result}")
    out = {(rename or {}).get(n, n): run._sha256(workdir / n) for n in variant.outputs}
    shutil.rmtree(workdir)
    return out


def fresh_main_digests(variant: Variant) -> dict[str, str]:
    """The resume variant's references, from two independent fresh runs."""
    leg1, leg2 = variant.calls
    fresh2 = tuple(a for a in leg2 if a != "--resume")
    first = digests(replace(variant, key=variant.key + "-leg1", calls=(leg1,),
                            snapshots=(), outputs=("checkpoints.csv", "leg1.json")),
                    rename={"checkpoints.csv": "leg1.csv"})
    second = digests(replace(variant, key=variant.key + "-fresh", calls=(fresh2,),
                             snapshots=(), outputs=("checkpoints.csv", "leg2.json")))
    return {**first, **second}


def confirm(variant: Variant, expected: dict[str, str]) -> None:
    workdir = run.OUT / "record" / "confirm"
    shutil.rmtree(workdir, ignore_errors=True)
    result, _ = run.launch(variant, False, workdir, "confirm", timeout=600)
    failures = run.score(variant, result, workdir, expected)
    shutil.rmtree(workdir)
    if failures:
        raise SystemExit(f"{variant.key}: benchmark run differs from fresh runs: {failures}")


def main() -> int:
    workloads.DATA.mkdir(exist_ok=True)
    for name, limit in workloads.REPORT_CSVS.items():
        v = Variant(workload="data", key=name, work=limit,
                    calls=(("sum", "--limit", str(limit), "--checkpoints", name,
                            "--out", "summary.json"),),
                    outputs=(name,))
        workdir = run.OUT / "record" / name
        shutil.rmtree(workdir, ignore_errors=True)
        result, _ = run.launch(v, False, workdir, "record", timeout=600)
        if result is None or result["calls"][0]["rc"] != 0:
            raise SystemExit(f"could not write {name}")
        shutil.copyfile(workdir / name, workloads.DATA / name)
        shutil.rmtree(workdir)

    limits = list(workloads.REPORT_PRIME_LIMITS) + [workloads.TINY_PRIME_LIMIT]
    refs = {"prime_counts": {str(p): prime_count(p) for p in limits}, "digests": {}}
    for name in ("grid", "main", "report"):
        vs = workloads.variants(name, refs["prime_counts"])
        vs.append(workloads.tiny(name, refs))
        table = refs["digests"][name] = {}
        for v in vs:
            if name == "main":
                table[v.key] = fresh_main_digests(v)
                confirm(v, table[v.key])
            else:
                table[v.key] = digests(v)
            print(f"{name} {v.key}: {table[v.key]}", file=sys.stderr, flush=True)
    shutil.rmtree(run.OUT / "record", ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
