"""Workload variants of the divsum benchmark and the checks on their outputs.

Each workload is a short list of `divsum` CLI calls run in one process.
The seed picks one recorded variant (seed % number of variants); every
variant has reference digests in references.json, recorded from fresh
runs of the program, so every file a run writes is checked byte for byte.

Variant sizes stay within about 2% of each other, so the run-to-run
spread of a timing over seeds is dominated by noise, not by input size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
REFERENCES = HERE / "references.json"

# the resume leg needs its first limit on the checkpoint schedule of the
# second (a power of ten or twice one), so only the final limit varies
MAIN_FIRST_LIMIT = 20_000_000


@dataclass(frozen=True)
class Variant:
    """One concrete input of a workload.

    calls: argv lists for divsum.cli.main, run in order with the work
      directory as the current directory.
    snapshots: after call i, copy file `src` to `dst` (untimed), so an
      output that a later call overwrites is still checked.
    outputs: files checked against the reference digests.
    work: the size that work_per_s divides by wall_s.
    threads: worker threads of the engine, used for pool idle time.
    inputs: files copied from data/ into the work directory first.
    """

    workload: str
    key: str
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    work: int
    threads: int = 1
    snapshots: tuple[tuple[int, str, str], ...] = ()
    inputs: tuple[str, ...] = ()

    def checks(self) -> int:
        """Output checks one repetition attempts: one per call, one per file."""
        return len(self.calls) + len(self.outputs)


def grid_variant(limit: int) -> Variant:
    return Variant(
        workload="grid",
        key=f"limit={limit}",
        calls=(("sum", "--limit", str(limit), "--checkpoints", "checkpoints.csv",
                "--out", "summary.json"),),
        outputs=("checkpoints.csv", "summary.json"),
        work=limit,
    )


def main_variant(first: int, limit: int) -> Variant:
    common = ("sum", "--q", "1", "--threads", "2", "--checkpoints", "checkpoints.csv")
    return Variant(
        workload="main",
        key=f"first={first},limit={limit}",
        calls=(
            common + ("--limit", str(first), "--out", "leg1.json"),
            common + ("--limit", str(limit), "--resume", "--out", "leg2.json"),
        ),
        snapshots=((0, "checkpoints.csv", "leg1.csv"),),
        outputs=("leg1.csv", "leg1.json", "checkpoints.csv", "leg2.json"),
        work=limit,
        threads=2,
    )


def report_variant(csv_name: str, prime_limit: int, prime_count: int) -> Variant:
    return Variant(
        workload="report",
        key=f"csv={csv_name},prime_limit={prime_limit}",
        calls=(("report", "--checkpoints", csv_name, "--prime-limit", str(prime_limit),
                "--out", "report.json"),),
        inputs=(csv_name,),
        outputs=("report.json",),
        work=prime_count,
    )


# checkpoint CSVs stored in data/, written by `divsum sum --limit <n>`
REPORT_CSVS = {"grid_1e6.csv": 1_000_000, "grid_2e6.csv": 2_000_000}

GRID_LIMITS = (2_970_000, 2_980_000, 2_990_000, 3_000_000,
               3_010_000, 3_020_000, 3_030_000, 3_040_000)
MAIN_LIMITS = (39_400_000, 39_600_000, 39_800_000, 40_000_000,
               40_200_000, 40_400_000, 40_600_000, 40_800_000)
REPORT_PRIME_LIMITS = (99_000_000, 99_500_000, 100_000_000, 100_500_000)

# tiny sizes for the self-test
TINY_PRIME_LIMIT = 100_000


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def variants(workload: str, prime_counts: dict[str, int]) -> list[Variant]:
    """All recorded variants of a workload, in seed order."""
    if workload == "grid":
        return [grid_variant(n) for n in GRID_LIMITS]
    if workload == "main":
        return [main_variant(MAIN_FIRST_LIMIT, n) for n in MAIN_LIMITS]
    if workload == "report":
        return [report_variant(csv_name, p, prime_counts[str(p)])
                for csv_name in REPORT_CSVS for p in REPORT_PRIME_LIMITS]
    raise KeyError(workload)


def pick(workload: str, seed: int, refs: dict) -> Variant:
    """The variant a seed selects; the same seed always gives the same input."""
    vs = variants(workload, refs["prime_counts"])
    return vs[seed % len(vs)]


def tiny(workload: str, refs: dict) -> Variant:
    """A variant small enough for the self-test, recorded like the others."""
    if workload == "grid":
        return grid_variant(20_000)
    if workload == "main":
        return main_variant(10_000, 20_000)
    if workload == "report":
        return report_variant("grid_1e6.csv", TINY_PRIME_LIMIT,
                              refs["prime_counts"][str(TINY_PRIME_LIMIT)])
    raise KeyError(workload)
