"""Command-line front end: one binary, machine-readable output by default.

Every flag can be seeded from an environment variable with the DIVSUM_
prefix (flag wins over environment, environment over built-in default),
e.g. DIVSUM_THREADS=8 divsum sum --limit 1e6.

Exit codes: 0 success, 1 verification failure or runtime error, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import random
import sys

from . import analysis, digitset, dirichlet, sums
from .multiplicative import SCALE_EXP
from .primes import primes_upto

ENV_PREFIX = "DIVSUM_"

DEFAULTS = {
    "limit": 10**6,
    "segment_size": 1 << 20,
    "threads": 1,
    "prime_limit": dirichlet.DEFAULT_PRIME_LIMIT,
    "q": "1,2,3,5,7",
    "checkpoints": "checkpoints.csv",
    "format": "json",
    "seed": 0,
}


def _env(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def parse_count(text) -> int:
    """Integer flag values, allowing 1e6-style scientific shorthand."""
    if isinstance(text, int):
        return text
    s = str(text).replace("_", "")
    try:
        return int(s)
    except ValueError:
        f = float(s)
        if not (math.isfinite(f) and f == int(f)):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        return int(f)


def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_count(part) for part in str(text).split(",") if part.strip())
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad q list: {text!r}")


def _parse_s_grid(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divsum",
        description="Exact divisor-ratio sums over digit classes, constants, and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        if "limit" in names:
            p.add_argument("--limit", type=parse_count, default=_env("limit", DEFAULTS["limit"]))
        if "segment-size" in names:
            p.add_argument(
                "--segment-size",
                type=parse_count,
                default=_env("segment_size", DEFAULTS["segment_size"]),
            )
        if "threads" in names:
            p.add_argument("--threads", type=parse_count, default=_env("threads", DEFAULTS["threads"]))
        if "prime-limit" in names:
            p.add_argument(
                "--prime-limit",
                type=parse_count,
                default=_env("prime_limit", DEFAULTS["prime_limit"]),
            )
        if "q" in names:
            p.add_argument("--q", type=_parse_q_list, default=_env("q", DEFAULTS["q"]))
        if "checkpoints" in names:
            p.add_argument(
                "--checkpoints", default=_env("checkpoints", DEFAULTS["checkpoints"])
            )
        if "out" in names:
            p.add_argument("--out", default=_env("out", None))
        if "format" in names:
            p.add_argument(
                "--format", choices=("csv", "json"), default=_env("format", DEFAULTS["format"])
            )
        if "pretty" in names:
            p.add_argument("--pretty", action="store_true")
        if "seed" in names:
            p.add_argument("--seed", type=parse_count, default=_env("seed", DEFAULTS["seed"]))

    p = sub.add_parser("classify", help="digit class and smallest multiple-of-5 witness")
    p.add_argument("n", type=parse_count)
    add_common(p, "out", "format", "pretty")

    p = sub.add_parser("count-non-a", help="exact complement count and its envelope")
    p.add_argument("x", type=parse_count)
    add_common(p, "out", "format", "pretty")

    p = sub.add_parser("constant", help="Euler product and derived constants")
    add_common(p, "prime-limit", "q", "out", "pretty")

    p = sub.add_parser("sum", help="run the partial-sum engine, persist checkpoints")
    add_common(
        p, "limit", "segment-size", "threads", "q", "checkpoints", "out", "pretty"
    )
    p.add_argument("--resume", action="store_true")
    p.add_argument("--no-refine", action="store_true", help="decades only, no 2x points")

    p = sub.add_parser("twisted", help="exact twisted sum for one q")
    p.add_argument("--q", dest="q_single", type=parse_count, required=True)
    add_common(p, "limit", "segment-size", "out", "format", "pretty")

    p = sub.add_parser("verify-dirichlet", help="series vs factorization on a grid")
    add_common(p, "q", "prime-limit", "out", "format", "pretty")
    p.add_argument("--s-grid", type=_parse_s_grid, default=(1.5, 2.0, 3.0))
    p.add_argument("--terms", type=parse_count, default=10**6)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = sub.add_parser("verify-local", help="local factor identity on a prime grid")
    add_common(p, "out", "format", "pretty", "seed")
    p.add_argument("--p-max", type=parse_count, default=100)
    p.add_argument("--s-grid", type=_parse_s_grid, default=(0.75, 1.0, 1.5, 2.0, 3.0))
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--samples", type=parse_count, default=0,
                   help="extra random (p, s) probes beyond the fixed grid")

    p = sub.add_parser("fit", help="log-log exponent fit from a checkpoint CSV")
    add_common(p, "checkpoints", "prime-limit", "out", "format", "pretty")
    p.add_argument(
        "--quantity",
        default="S",
        help="S, S_A, S_B, T_nonA, count_nonA, or twisted:<q>",
    )
    p.add_argument("--slope", type=float, default=None,
                   help="main-term slope; computed from --prime-limit when omitted")

    p = sub.add_parser("report", help="full verification document from checkpoints")
    add_common(p, "checkpoints", "prime-limit", "q", "out", "pretty")

    return ap


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc: dict, args, fmt: str = "json") -> None:
    if getattr(args, "pretty", False):
        width = max(len(k) for k in doc)
        lines = [f"{k.ljust(width)}  {v}" for k, v in doc.items()]
        _emit("\n".join(lines) + "\n", args.out)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(doc.keys())
        w.writerow(["" if v is None else v for v in doc.values()])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(analysis.render_document(doc), args.out)


def _emit_rows(rows: list[dict], args, fmt: str) -> None:
    if getattr(args, "pretty", False) and rows:
        cols = list(rows[0])
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        _emit("\n".join(lines) + "\n", args.out)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if rows:
            w.writerow(rows[0].keys())
            for r in rows:
                w.writerow(["" if v is None else v for v in r.values()])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(analysis.render_document({"rows": rows}), args.out)


def _cmd_classify(args) -> int:
    cls = digitset.classify(args.n)
    witness = digitset.permutation_witness(args.n)
    _emit_doc(
        {"n": args.n, "class": cls.value, "witness": witness},
        args,
        args.format,
    )
    return 0


def _cmd_count_non_a(args) -> int:
    count = digitset.count_non_a(args.x)
    bound, holds = digitset.non_a_bound(max(1, args.x))
    _emit_doc(
        {"x": args.x, "count": count, "bound": bound, "bound_holds": holds},
        args,
        args.format,
    )
    return 0 if holds else 1


def _cmd_constant(args) -> int:
    summary = dirichlet.constants_summary(args.prime_limit, args.q)
    if args.pretty:
        _emit_doc(
            {
                "prime_limit": summary["prime_limit"],
                "product": summary["product_value"],
                "tail_bound": summary["product_tail_bound"],
                "lemma_constant": summary["lemma_constant"],
                "theorem_constant": summary["theorem_constant"],
            },
            args,
        )
    else:
        _emit(analysis.render_document(summary), args.out)
    return 0 if summary["rational_identity_16_over_123"] else 1


def _cmd_sum(args) -> int:
    config = sums.EngineConfig(
        limit=args.limit,
        segment_size=args.segment_size,
        refine_factor2=not args.no_refine,
        q_list=args.q,
        thread_count=args.threads,
        resume_path=args.checkpoints if args.resume else None,
    )
    checkpoints = sums.accumulate(config)
    sums.save_checkpoints(args.checkpoints, checkpoints)
    last = checkpoints[-1]
    _emit_doc(
        {
            "limit": args.limit,
            "checkpoints_written": len(checkpoints),
            "path": args.checkpoints,
            "S": last.S.to_float(),
            "S_A": last.S_A.to_float(),
            "S_B": last.S_B.to_float(),
            "T_nonA": last.T_nonA.to_float(),
            "count_nonA": last.count_nonA,
        },
        args,
    )
    return 0


def _cmd_twisted(args) -> int:
    value = sums.twisted_sum(args.q_single, args.limit, args.segment_size)
    _emit_doc(
        {
            "q": args.q_single,
            "limit": args.limit,
            "numerator": value.numerator,
            "scale_exp": SCALE_EXP,
            "value": value.to_float(),
        },
        args,
        args.format,
    )
    return 0


def _cmd_verify_dirichlet(args) -> int:
    # a row passes when |series - factorized| <= tolerance + series tail
    # estimate; the truncated series can honestly miss by its tail (at
    # s=1.5 and 1e6 terms that is ~3e-3), so the tolerance is extra slack
    rows = []
    failures = []
    for q in args.q:
        for s in args.s_grid:
            lhs, tail = dirichlet.dirichlet_lhs(q, s, args.terms)
            rhs = dirichlet.dirichlet_rhs(q, s, min(args.prime_limit, 10**6))
            gap = abs(lhs - rhs)
            allowed = args.tolerance + tail
            ok = gap <= allowed
            rows.append(
                {
                    "q": q,
                    "s": s,
                    "series": lhs,
                    "series_tail_estimate": tail,
                    "factorized": rhs,
                    "abs_difference": gap,
                    "allowed": allowed,
                    "within_tolerance": ok,
                }
            )
            if not ok:
                failures.append(f"|lhs({q},{s}) - rhs({q},{s})| = {gap:.3e} > {allowed:.3e}")
    _emit_rows(rows, args, args.format)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify_local(args) -> int:
    grid = [(int(p), s) for p in primes_upto(args.p_max) for s in args.s_grid]
    if args.samples:
        rng = random.Random(args.seed)
        pool = [int(p) for p in primes_upto(10**4)]
        for _ in range(args.samples):
            grid.append((rng.choice(pool), rng.uniform(0.75, 3.0)))
    rows = []
    failures = []
    for p, s in grid:
        r = dirichlet.local_factor_residual(p, s)
        ok = r <= args.tolerance
        rows.append({"p": p, "s": s, "residual": r, "within_tolerance": ok})
        if not ok:
            failures.append(f"local factor residual at (p={p}, s={s}) is {r:.3e} > {args.tolerance:.3e}")
    _emit_rows(rows, args, args.format)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fit(args) -> int:
    checkpoints = sums.load_checkpoints(args.checkpoints)
    quantity = args.quantity
    if quantity == "count_nonA":
        points = [(cp.x, cp.count_nonA) for cp in checkpoints]
        fit = analysis.fit_error_exponent(points)
        _emit_doc(
            {"quantity": quantity, "slope": fit.slope, "intercept": fit.intercept,
             "points_used": fit.points_used, "excluded_points": fit.excluded_points},
            args,
            args.format,
        )
        return 0
    slope = args.slope
    q = None
    if quantity.startswith("twisted:"):
        q = parse_count(quantity.split(":", 1)[1])
        quantity = "twisted"
    if slope is None:
        c1 = dirichlet.euler_product_C(1.0, args.prime_limit)
        if quantity == "S_B":
            slope = dirichlet.theorem_constant(c1)
        else:
            slope = dirichlet.main_term_slope(q or 1, c1)
    rows = analysis.compare_main_term(checkpoints, slope, quantity, q=q)
    fit = analysis.fit_error_exponent([(r.x, abs(r.residual)) for r in rows])
    _emit_doc(
        {
            "quantity": args.quantity,
            "slope_used": slope,
            "error_exponent": fit.slope,
            "intercept": fit.intercept,
            "points_used": fit.points_used,
            "excluded_points": fit.excluded_points,
        },
        args,
        args.format,
    )
    return 0


def _cmd_report(args) -> int:
    checkpoints = sums.load_checkpoints(args.checkpoints) if os.path.exists(args.checkpoints) else []
    constants = dirichlet.constants_summary(args.prime_limit, args.q)
    text = analysis.report(checkpoints, constants)
    _emit(text, args.out)
    ok = constants["rational_identity_16_over_123"] and all(
        cp.S.numerator == cp.S_A.numerator + cp.T_nonA.numerator for cp in checkpoints
    )
    return 0 if ok else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "count-non-a": _cmd_count_non_a,
    "constant": _cmd_constant,
    "sum": _cmd_sum,
    "twisted": _cmd_twisted,
    "verify-dirichlet": _cmd_verify_dirichlet,
    "verify-local": _cmd_verify_local,
    "fit": _cmd_fit,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, sums.CheckpointFormatError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
