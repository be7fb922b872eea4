"""Command-line front end: one binary; every command prints one JSON document.

FLAGS states each shared flag once, in --help order; flags are the only
configuration.  A list flag with no values, or an --out that names the
--checkpoints file, is a usage error.

Exit codes: 0 success, 1 verification failure or runtime error, 2 usage.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import analysis, digitset, dirichlet, sums
from .multiplicative import SCALE_EXP, to_float
from .primes import DEFAULT_Q, primes_upto

LOCAL_P_MAX_CAP = 10**7  # verify-local sieves p_max + 1 bytes
LOCAL_ROWS_CAP = (1 << 30) // 650  # 1 GiB of verify-local rows, held to be emitted at 0.64 KiB each


def parse_count(text: str) -> int:
    """Integer flag values, allowing 1e6-style scientific shorthand, read exactly."""
    s = text.replace("_", "")
    try:
        return int(s)
    except ValueError:
        if not math.isfinite(float(s)) or (f := Fraction(s)).denominator != 1:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        return f.numerator


def _parse_list(text: str, parse) -> tuple:
    """Comma-separated values, repeats dropped in order of first appearance."""
    values = tuple(dict.fromkeys(parse(part) for part in text.split(",") if part.strip()))
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        return _parse_list(text, parse_count)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad q list: {text!r}")


def _parse_s_grid(text: str) -> tuple[float, ...]:
    return _parse_list(text, float)


# shared flag -> add_argument kwargs, in --help order
FLAGS = {
    "limit": {"type": parse_count, "default": 10**6},
    "segment-size": {"type": parse_count, "default": sums.DEFAULT_SEGMENT_SIZE},
    "threads": {"type": parse_count, "default": 1},
    "prime-limit": {"type": parse_count, "default": dirichlet.DEFAULT_PRIME_LIMIT},
    "q": {"type": _parse_q_list, "default": DEFAULT_Q},
    "checkpoints": {"default": "checkpoints.csv"},
    "out": {"default": None},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divsum",
        description="Exact divisor-ratio sums over digit classes, constants, and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_common(p, *names):
        for name, kwargs in FLAGS.items():
            if name in names:
                p.add_argument("--" + name, **kwargs)

    p = command("classify", _cmd_classify, "digit class and smallest multiple-of-5 witness")
    p.add_argument("n", type=parse_count)
    add_common(p, "out")

    p = command("count-non-a", _cmd_count_non_a, "exact complement count and its envelope")
    p.add_argument("x", type=parse_count)
    add_common(p, "out")

    p = command("constant", _cmd_constant, "Euler product and derived constants")
    add_common(p, "prime-limit", "q", "out")

    p = command("sum", _cmd_sum, "run the partial-sum engine, persist checkpoints")
    add_common(p, "limit", "segment-size", "threads", "q", "checkpoints", "out")
    p.add_argument("--resume", action="store_true")

    p = command("twisted", _cmd_twisted, "exact twisted sum for one q")
    p.add_argument("--q", dest="q_single", type=parse_count, required=True)
    add_common(p, "limit", "segment-size", "out")

    p = command("verify-dirichlet", _cmd_verify_dirichlet, "series vs factorization on a grid")
    add_common(p, "q", "prime-limit", "out")
    p.add_argument("--s-grid", type=_parse_s_grid, default=(1.5, 2.0, 3.0))
    p.add_argument("--terms", type=parse_count, default=10**6)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = command("verify-local", _cmd_verify_local, "local factor identity on a prime grid")
    add_common(p, "out")
    p.add_argument("--p-max", type=parse_count, default=100)
    p.add_argument("--s-grid", type=_parse_s_grid, default=(0.75, 1.0, 1.5, 2.0, 3.0))
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = command("fit", _cmd_fit, "log-log exponent fit from a checkpoint CSV")
    add_common(p, "checkpoints", "prime-limit", "out")
    p.add_argument(
        "--quantity",
        default="S",
        help="S, S_A, S_B, T_nonA, count_nonA, or twisted:<q>",
    )
    p.add_argument("--slope", type=float, default=None,
                   help="main-term slope; computed from --prime-limit when omitted")

    p = command("report", _cmd_report, "full verification document from checkpoints")
    add_common(p, "checkpoints", "prime-limit", "q", "out")

    return ap


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_checks(rows: list[dict], failures: list[str], args) -> int:
    """Emit the rows of a verification, FAIL lines on stderr; no rows is a failure."""
    if not rows:
        failures = ["nothing checked"]
    _emit(analysis.render_document({"rows": rows}), args.out)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_classify(args) -> int:
    cls = digitset.classify(args.n)
    witness = digitset.permutation_witness(args.n)
    _emit(analysis.render_document({"n": args.n, "class": cls.value, "witness": witness}), args.out)
    return 0


def _cmd_count_non_a(args) -> int:
    count = digitset.count_non_a(args.x)
    bound, holds = digitset.non_a_bound(max(1, args.x))
    doc = {"x": args.x, "count": count, "bound": bound, "bound_holds": holds}
    _emit(analysis.render_document(doc), args.out)
    return 0 if holds else 1


def _cmd_constant(args) -> int:
    summary = dirichlet.constants_summary(args.prime_limit, args.q)
    _emit(analysis.render_document(summary), args.out)
    return 0


def _cmd_sum(args) -> int:
    config = sums.EngineConfig(
        limit=args.limit,
        segment_size=args.segment_size,
        q_list=args.q,
        thread_count=args.threads,
        resume_path=args.checkpoints if args.resume else None,
    )
    checkpoints = sums.accumulate(config)
    sums.save_checkpoints(args.checkpoints, checkpoints)
    last = checkpoints[-1]
    doc = {
        "limit": args.limit,
        "checkpoints_written": len(checkpoints),
        "path": args.checkpoints,
        "S": to_float(last.S),
        "S_A": to_float(last.S_A),
        "S_B": to_float(last.S_B),
        "T_nonA": to_float(last.T_nonA),
        "count_nonA": last.count_nonA,
    }
    _emit(analysis.render_document(doc), args.out)
    return 0


def _cmd_twisted(args) -> int:
    value = sums.twisted_sum(args.q_single, args.limit, args.segment_size)
    doc = {
        "q": args.q_single,
        "limit": args.limit,
        "numerator": value,
        "scale_exp": SCALE_EXP,
        "value": to_float(value),
    }
    _emit(analysis.render_document(doc), args.out)
    return 0


def _cmd_verify_dirichlet(args) -> int:
    # a row passes when |series - factorized| <= tolerance + series tail
    # estimate; the truncated series can honestly miss by its tail (at
    # s=1.5 and 1e6 terms that is ~3e-3), so the tolerance is extra slack;
    # the factorized side needs no more than 1e6 primes (tail < 1e-6)
    rhs_prime_limit = min(args.prime_limit, 10**6)
    dirichlet.check_series_grid(args.q, args.s_grid, args.terms, rhs_prime_limit)
    series = dirichlet.dirichlet_lhs(args.q, args.s_grid, args.terms)
    factorized = dirichlet.dirichlet_rhs(args.q, args.s_grid, rhs_prime_limit)
    rows = []
    failures = []
    for q in args.q:
        for s in args.s_grid:
            (lhs, tail), rhs = series[q, s], factorized[q, s]
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
                    "factorized_prime_limit": rhs_prime_limit,
                    "abs_difference": gap,
                    "allowed": allowed,
                    "within_tolerance": ok,
                }
            )
            if not ok:
                failures.append(f"|lhs({q},{s}) - rhs({q},{s})| = {gap:.3e} > {allowed:.3e}")
    return _emit_checks(rows, failures, args)


def _cmd_verify_local(args) -> int:
    if args.p_max > LOCAL_P_MAX_CAP:
        raise ValueError(f"--p-max must be at most {LOCAL_P_MAX_CAP} (got {args.p_max})")
    dirichlet.check_local_grid(args.s_grid, "--s-grid")  # all of the grid, before its first row
    primes = primes_upto(args.p_max)
    if (rows := len(primes) * len(args.s_grid)) > LOCAL_ROWS_CAP:
        raise ValueError(f"primes x --s-grid must be at most {LOCAL_ROWS_CAP} rows (got {rows})")
    grid = [(int(p), s) for p in primes for s in args.s_grid]
    rows = []
    failures = []
    for p, s in grid:
        r = dirichlet._local_residual(p, s)  # grid checked above, every p sieved
        ok = r <= args.tolerance
        rows.append({"p": p, "s": s, "residual": r, "within_tolerance": ok})
        if not ok:
            failures.append(f"local factor residual at (p={p}, s={s}) is {r:.3e} > {args.tolerance:.3e}")
    return _emit_checks(rows, failures, args)


def _cmd_fit(args) -> int:
    checkpoints = sums.load_checkpoints(args.checkpoints)
    quantity = args.quantity
    if quantity == "count_nonA":
        points = [(cp.x, cp.count_nonA) for cp in checkpoints]
        fit = analysis.fit_error_exponent(points)
        doc = {"quantity": quantity, "slope": fit.slope, "intercept": fit.intercept,
               "points_used": fit.points_used, "excluded_points": fit.excluded_points}
        _emit(analysis.render_document(doc), args.out)
        return 0
    slope = args.slope
    q = None
    if quantity.startswith("twisted:"):
        try:
            q = parse_count(quantity.split(":", 1)[1])
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"bad quantity {quantity!r}: q is not an integer") from None
        quantity = "twisted"
    # a quantity the CSV lacks fails here, before the Euler product runs
    analysis.quantity_values(checkpoints, quantity, q)
    if slope is None:
        constants = dirichlet.constants_summary(args.prime_limit, (q or 1,))
        slope = constants["theorem_constant"] if quantity == "S_B" else constants["slopes"][str(q or 1)]
    rows = analysis.compare_main_term(checkpoints, slope, quantity, q=q)
    fit = analysis.fit_error_exponent([(r.x, abs(r.residual)) for r in rows])
    doc = {
        "quantity": args.quantity,
        "slope_used": slope,
        "error_exponent": fit.slope,
        "intercept": fit.intercept,
        "points_used": fit.points_used,
        "excluded_points": fit.excluded_points,
    }
    _emit(analysis.render_document(doc), args.out)
    return 0


def _cmd_report(args) -> int:
    checkpoints = sums.load_checkpoints(args.checkpoints) if os.path.exists(args.checkpoints) else []
    constants = dirichlet.constants_summary(args.prime_limit, args.q)
    text = analysis.report(checkpoints, constants)
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        checkpoints = getattr(args, "checkpoints", None)
        if args.out and checkpoints and os.path.realpath(args.out) == os.path.realpath(checkpoints):
            parser.error(f"--out and --checkpoints name the same file: {args.out!r}")
        if not 0 <= getattr(args, "tolerance", 0) < math.inf:  # refuses nan too
            parser.error(f"--tolerance must be finite and >= 0 (got {args.tolerance})")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except (ValueError, OSError, sums.CheckpointFormatError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
