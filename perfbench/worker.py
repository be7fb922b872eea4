"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC.json (written by run.py) names the checkout root, the work directory,
the CLI calls, the snapshots to take and whether to trace.  The calls run
in-process through divsum.cli.main(argv) with the work directory as the
current directory; only the calls are timed.  The result, including the
spans of a traced repetition, goes to result.json next to SPEC.json.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    root = Path(spec["root"])
    for key in [k for k in os.environ if k.startswith("DIVSUM_")]:
        del os.environ[key]  # the program reads flag defaults from these
    sys.path.insert(0, str(root / "src"))
    from divsum import cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"divsum imported from {cli.__file__}, not from the checkout")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        tracer.install()

    os.chdir(spec["workdir"])
    for name in spec["inputs"]:
        shutil.copyfile(root / spec["data_dir"] / name, name)
    calls = []
    wall = cpu = 0.0
    for i, argv in enumerate(spec["calls"]):
        error = None
        rc = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # counted as a failed check; the other calls still run
            error = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        calls.append({"argv": argv, "rc": rc, "error": error, "wall_s": t1 - t0})
        for j, src, dst in spec["snapshots"]:
            if j == i and os.path.exists(src):
                shutil.copyfile(src, dst)

    result = {
        "calls": calls,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.records()
        result["absent"] = tracer.absent
    tmp = spec_file.with_name("result.json.tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, spec_file.with_name("result.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
