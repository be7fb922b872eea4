"""Outside-in tracing of divsum: spans around calls into each module.

The program is not edited.  `install` replaces named module functions by
timing wrappers in every loaded divsum module that holds a reference to
them (so `from .x import f` copies are wrapped too).  Each call records a
span (id, name, start, end, parent, thread) kept in memory; the parent is
the innermost open span of the same thread.  A name that no longer exists
in the program is listed as absent and never stops the run.

`layer_metrics` turns the spans of one repetition into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from math import isqrt

# layer (module name) -> functions wrapped in it
TARGETS = {
    "cli": ("main",),
    "sums": (
        "accumulate",
        "_load_resume_state",
        "_segment_class_sums",
        "_twisted_stop_values",
        "_multiple_sum_segment",
        "_validate_checkpoint",
        "save_checkpoints",
        "load_checkpoints",
    ),
    "multiplicative": ("sieve_segment", "segment_ratio_numerators"),
    "digitset": ("count_non_a",),
    "primes": ("primes_upto", "prime_blocks"),
    "ddouble": (
        "two_sum", "quick_two_sum", "two_prod", "add", "sub", "mul", "mul_pow2",
        "div", "recip", "sqrt", "ipow", "product_tree",
    ),
    "dirichlet": ("constants_summary", "euler_product_C", "_dd_local_factors"),
    "analysis": ("report",),
}


def _note_sieve(args, kwargs, result):
    return [int(args[0]), int(args[1])]


def _note_multiple(args, kwargs, result):
    return [int(v) for v in args[0]]


def _note_save(args, kwargs, result):
    return os.path.getsize(args[0])


def _note_block(args, kwargs, result):
    return int(result.size)


# span name -> f(args, kwargs, result) giving a small JSON value kept with the span
NOTES = {
    "multiplicative.sieve_segment": _note_sieve,
    "sums._multiple_sum_segment": _note_multiple,
    "sums.save_checkpoints": _note_save,
    "primes.prime_blocks": _note_block,
}


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0, t1, note):
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), note))

    def wrap(self, name: str, fn):
        note_fn = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's loop body between
            # items is not counted as time in the generator
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack, sid, parent = self._open()
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(stack, sid, parent, name, t0, time.perf_counter(), None)
                        return
                    except BaseException:
                        self._close(stack, sid, parent, name, t0, time.perf_counter(), None)
                        raise
                    t1 = time.perf_counter()
                    note = note_fn(args, kwargs, item) if note_fn else None
                    self._close(stack, sid, parent, name, t0, t1, note)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(stack, sid, parent, name, t0, time.perf_counter(), None)
                raise
            t1 = time.perf_counter()
            note = note_fn(args, kwargs, result) if note_fn else None
            self._close(stack, sid, parent, name, t0, t1, note)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded divsum module; note absent names."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "divsum" or n.startswith("divsum."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"divsum.{layer}")
            for attr in names:
                name = f"{layer}.{attr}"
                orig = getattr(home, attr, None) if home is not None else None
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def records(self) -> list[dict]:
        """Spans as dicts with thread ids renumbered 0, 1, ... by first use."""
        threads: dict[int, int] = {}
        out = []
        for sid, name, t0, t1, parent, tid, note in sorted(self.spans, key=lambda s: s[2]):
            rec = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                   "thread": threads.setdefault(tid, len(threads)), "run": self.run_id}
            if note is not None:
                rec["note"] = note
            out.append(rec)
        return out


# ---------------------------------------------------------------- metrics

# per_layer metric name -> unit; every name is emitted for every workload
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "sums.main_pass_s": "s",
    "sums.main_pass.segments": "count",
    "sums.classify_s": "s",
    "sums.twisted_pass_s": "s",
    "sums.twisted.cells": "count",
    "sums.twisted.useful_ratio": "ratio",
    "sums.pool.cpu_util": "ratio",
    "sums.pool.idle_s": "s",
    "sums.persist.write_s": "s",
    "sums.persist.read_s": "s",
    "sums.persist.writes": "count",
    "sums.persist.bytes": "bytes",
    "sums.validate_s": "s",
    "multiplicative.sieve_s": "s",
    "multiplicative.sieve.main_s": "s",
    "multiplicative.sieve.twisted_s": "s",
    "multiplicative.sieve.cells": "count",
    "multiplicative.sieve.ns_per_cell": "ns",
    "multiplicative.sieve.strides": "count.computed",
    "multiplicative.sieve.updates": "count.computed",
    "multiplicative.sieve.bytes_computed": "bytes.computed",
    "multiplicative.numerators_s": "s",
    "digitset.count_non_a_s": "s",
    "digitset.count_non_a.calls": "count",
    "primes.primes_upto_s": "s",
    "primes.primes_upto.calls": "count",
    "primes.prime_blocks_s": "s",
    "primes.blocks": "count",
    "ddouble.kernels_s": "s",
    "ddouble.product_tree_s": "s",
    "dirichlet.euler_product_s": "s",
    "dirichlet.local_factors_s": "s",
    "analysis.report_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.absent": "count",
    "failed_frac": "ratio",
}


def _small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def sieve_counts(segments: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(strides, updates, bytes) of sieve_segment over [lo, hi) segments.

    Computed from the bounds alone, replaying the prime-power loop of
    multiplicative.sieve_segment: a stride is one (p, k) iteration that
    touches at least one cell, an update one cell it touches.  Bytes model
    the int64 rem / int64 d / int8 om arrays: 17 B/cell written at set-up,
    11 B/cell for the final large-prime pass (rem read, mask written and
    read twice), 34 B per update at p (om, rem, d read and written) and
    32 B per update at p^k, k >= 2 (rem, d).  Index arrays are excluded.
    """
    top_all = max((hi - 1 for lo, hi in segments if hi > lo), default=1)
    primes = _small_primes(max(2, isqrt(top_all)))
    strides = first = higher = cells = 0
    for lo, hi in segments:
        if hi <= lo:
            continue
        top = hi - 1
        cells += hi - lo
        root = isqrt(top)
        for p in primes:
            if p > root:
                break
            n = top // p - (lo - 1) // p
            if n == 0:
                continue
            strides += 1
            first += n
            pk = p * p
            while pk <= top:
                n = top // pk - (lo - 1) // pk
                if n == 0:
                    break
                strides += 1
                higher += n
                pk *= p
    return strides, first + higher, 28 * cells + 34 * first + 32 * higher


def layer_metrics(records: list[dict], wall_s: float, cpu_s: float, threads: int,
                  absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace.overhead_s and
    failed_frac are filled in by the caller, which sees all repetitions)."""
    by_id = {s["id"]: s for s in records}
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for s in records:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def self_time(name, only=None):
        """Span time minus its children's (only those named in `only`, if given)."""
        return sum(dur(s) - sum(dur(c) for c in children[s["id"]]
                                if only is None or c["name"] in only)
                   for s in by_name[name])

    sieve = by_name["multiplicative.sieve_segment"]
    segs = [tuple(s["note"]) for s in sieve if "note" in s]
    strides, updates, nbytes = sieve_counts(segs)
    cells = sum(hi - lo for lo, hi in segs)
    sieve_s = total("multiplicative.sieve_segment")

    twisted_jobs = [s["note"] for s in by_name["sums._multiple_sum_segment"] if "note" in s]
    used = sum(b - a for q, a, b in twisted_jobs)
    twisted_cells = sum(s["note"][1] - s["note"][0] for s in sieve
                        if "note" in s and parent_name(s) == "sums._multiple_sum_segment")

    # the main pass is inline in accumulate: what is left of it after the
    # resume load, the twisted passes and validation (with a pool, this
    # includes the main thread waiting for the workers)
    outside_main = {"sums._load_resume_state", "sums._twisted_stop_values",
                    "sums._validate_checkpoint"}
    jobs_s = total("sums._segment_class_sums") + total("sums._multiple_sum_segment")
    accumulate_s = total("sums.accumulate")
    ddouble_top = [s for s in records if s["name"].startswith("ddouble.")
                   and s["name"] != "ddouble.product_tree"
                   and not (parent_name(s) or "").startswith("ddouble.")]
    cli_spans = by_name["cli.main"]
    top_level = sum(dur(c) for s in cli_spans for c in children[s["id"]])

    return {
        "cli.self_s": self_time("cli.main"),
        "sums.main_pass_s": self_time("sums.accumulate", only=outside_main),
        "sums.main_pass.segments": len(by_name["sums._segment_class_sums"]),
        "sums.classify_s": self_time("sums._segment_class_sums"),
        "sums.twisted_pass_s": total("sums._twisted_stop_values"),
        "sums.twisted.cells": twisted_cells,
        "sums.twisted.useful_ratio": used / twisted_cells if twisted_cells else 0.0,
        "sums.pool.cpu_util": cpu_s / wall_s if wall_s > 0 else 0.0,
        "sums.pool.idle_s": threads * accumulate_s - jobs_s if accumulate_s else 0.0,
        "sums.persist.write_s": total("sums.save_checkpoints"),
        "sums.persist.read_s": total("sums.load_checkpoints"),
        "sums.persist.writes": len(by_name["sums.save_checkpoints"]),
        "sums.persist.bytes": sum(s.get("note", 0) for s in by_name["sums.save_checkpoints"]),
        "sums.validate_s": total("sums._validate_checkpoint"),
        "multiplicative.sieve_s": sieve_s,
        "multiplicative.sieve.main_s": sum(
            dur(s) for s in sieve if parent_name(s) == "sums._segment_class_sums"),
        "multiplicative.sieve.twisted_s": sum(
            dur(s) for s in sieve if parent_name(s) == "sums._multiple_sum_segment"),
        "multiplicative.sieve.cells": cells,
        "multiplicative.sieve.ns_per_cell": sieve_s * 1e9 / cells if cells else 0.0,
        "multiplicative.sieve.strides": strides,
        "multiplicative.sieve.updates": updates,
        "multiplicative.sieve.bytes_computed": nbytes,
        "multiplicative.numerators_s": total("multiplicative.segment_ratio_numerators"),
        "digitset.count_non_a_s": total("digitset.count_non_a"),
        "digitset.count_non_a.calls": len(by_name["digitset.count_non_a"]),
        "primes.primes_upto_s": total("primes.primes_upto"),
        "primes.primes_upto.calls": len(by_name["primes.primes_upto"]),
        "primes.prime_blocks_s": total("primes.prime_blocks"),
        "primes.blocks": sum(1 for s in by_name["primes.prime_blocks"] if "note" in s),
        "ddouble.kernels_s": sum(dur(s) for s in ddouble_top),
        "ddouble.product_tree_s": total("ddouble.product_tree"),
        "dirichlet.euler_product_s": total("dirichlet.euler_product_C"),
        "dirichlet.local_factors_s": total("dirichlet._dd_local_factors"),
        "analysis.report_s": total("analysis.report"),
        "trace.coverage": top_level / wall_s if wall_s > 0 else 0.0,
        "trace.absent": len(absent),
    }
