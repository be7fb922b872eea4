"""Main-term comparison, error-exponent fits, and report rendering.

Residuals are normalized by x^0.6, a deliberately loose envelope between
the proven square-root-type behaviour of the unrestricted sums and the
x^0.903 growth of the digit-complement term.  Reports render as JSON text
with numbers at 15 significant digits, byte-deterministic for fixed input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import digitset
from .sums import Checkpoint

NORMALIZATION_EXPONENT = 0.6

_QUANTITIES = ("S", "S_A", "S_B", "T_nonA")


@dataclass(frozen=True)
class ComparisonRow:
    x: int
    empirical: float
    predicted: float
    residual: float
    normalized: float


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    points_used: int
    excluded_points: int
    max_abs_residual_of_fit: float


def _row(x: int, empirical: float, slope: float) -> ComparisonRow:
    predicted = slope * x
    residual = empirical - predicted
    return ComparisonRow(
        x=x,
        empirical=empirical,
        predicted=predicted,
        residual=residual,
        normalized=residual / x**NORMALIZATION_EXPONENT,
    )


def compare_main_term(
    checkpoints: list[Checkpoint],
    slope: float,
    quantity: str = "S",
    q: int | None = None,
) -> list[ComparisonRow]:
    """Empirical-vs-linear rows for one quantity across checkpoints.

    quantity is one of S, S_A, S_B, T_nonA, or "twisted" with q given, in
    which case the series value at stop m = x is compared against slope*x.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if not slope > 0:
        raise ValueError("slope must be positive")
    rows = []
    for cp in sorted(checkpoints, key=lambda c: c.x):
        if quantity in _QUANTITIES:
            value = getattr(cp, quantity).to_float()
        elif quantity == "twisted":
            if q is None:
                raise ValueError("twisted comparison needs q")
            if cp.x not in cp.twisted.get(q, {}):
                raise ValueError(f"checkpoint x={cp.x} has no twisted series for q={q}")
            value = cp.twisted[q][cp.x].to_float()
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
        rows.append(_row(cp.x, value, slope))
    return rows


def corrected_theorem_rows(
    checkpoints: list[Checkpoint], theorem_slope: float
) -> list[ComparisonRow]:
    """Rows for S_B - slope*x + T_nonA, the digit-term-corrected residual.

    Adding back T_nonA cancels the dominant x^0.903 complement term and
    exposes the square-root-type remainder of the underlying sums.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    rows = []
    for cp in sorted(checkpoints, key=lambda c: c.x):
        value = cp.S_B.to_float() + cp.T_nonA.to_float()
        rows.append(_row(cp.x, value, theorem_slope))
    return rows


def fit_error_exponent(points) -> FitReport:
    """Least-squares slope of ln|r| against ln x; zero residuals excluded."""
    xs, rs = [], []
    excluded = 0
    last = 0
    for x, r in points:
        if x <= last:
            raise ValueError("x values must be strictly increasing")
        last = x
        if r == 0:
            excluded += 1
            continue
        xs.append(math.log(x))
        rs.append(math.log(abs(r)))
    if len(xs) < 3:
        raise ValueError(f"need >= 3 usable points, got {len(xs)}")
    slope, intercept = np.polyfit(np.array(xs), np.array(rs), 1)
    fitted = slope * np.array(xs) + intercept
    return FitReport(
        slope=float(slope),
        intercept=float(intercept),
        points_used=len(xs),
        excluded_points=excluded,
        max_abs_residual_of_fit=float(np.max(np.abs(np.array(rs) - fitted))),
    )


def non_a_count_fit(decade_lo: int = 3, decade_hi: int = 9) -> FitReport:
    """Growth exponent of the exact complement counts at powers of ten."""
    points = [(10**k, digitset.count_non_a(10**k)) for k in range(decade_lo, decade_hi + 1)]
    return fit_error_exponent(points)


def _render(obj, indent: int = 0) -> str:
    """JSON text with floats at 15 significant digits, insertion order kept."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("report numbers must be finite")
        return format(obj, ".15g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_document(obj: dict) -> str:
    return _render(obj) + "\n"


def _rows_doc(rows: list[ComparisonRow]) -> list[dict]:
    return [
        {
            "x": r.x,
            "empirical": r.empirical,
            "predicted": r.predicted,
            "residual": r.residual,
            "normalized": r.normalized,
        }
        for r in rows
    ]


def _fit_doc(fit: FitReport) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "points_used": fit.points_used,
        "excluded_points": fit.excluded_points,
        "max_abs_residual_of_fit": fit.max_abs_residual_of_fit,
    }


def _maybe_fit(points) -> dict | None:
    try:
        return _fit_doc(fit_error_exponent(points))
    except ValueError:
        return None


def report(checkpoints: list[Checkpoint], constants: dict) -> str:
    """Full verification document: constants, identities, residuals, fits.

    constants is the dict produced by dirichlet.constants_summary; its
    slopes drive the residual sections.  Output is deterministic text.
    """
    cps = sorted(checkpoints, key=lambda c: c.x)
    identities = []
    for cp in cps:
        q5 = cp.twisted.get(5, {}).get(cp.x // 5)
        identities.append(
            {
                "x": cp.x,
                "sum_split_exact": cp.S.numerator == cp.S_A.numerator + cp.T_nonA.numerator,
                "five_split_exact": None
                if q5 is None
                else cp.S_A.numerator - cp.S_B.numerator == q5.numerator,
                "non_a_count_matches": cp.count_nonA == digitset.count_non_a(cp.x),
            }
        )

    slopes = {int(k): v for k, v in constants.get("slopes", {}).items()}
    lemma_slope = constants.get("lemma_constant")
    theorem_slope = constants.get("theorem_constant")

    residuals: dict = {}
    fits: dict = {}
    if cps and lemma_slope:
        total_rows = compare_main_term(cps, lemma_slope, "S")
        residuals["total_vs_lemma_slope"] = _rows_doc(total_rows)
        fits["total_residual_exponent"] = _maybe_fit(
            [(r.x, abs(r.residual)) for r in total_rows]
        )
    if cps and theorem_slope:
        raw = compare_main_term(cps, theorem_slope, "S_B")
        corrected = corrected_theorem_rows(cps, theorem_slope)
        residuals["theorem_raw"] = _rows_doc(raw)
        residuals["theorem_corrected"] = _rows_doc(corrected)
    twisted_res: dict = {}
    for q, slope in sorted(slopes.items()):
        if all(q in cp.twisted for cp in cps) and cps:
            rows = compare_main_term(cps, slope, "twisted", q=q)
            twisted_res[str(q)] = _rows_doc(rows)
    if twisted_res:
        residuals["twisted_vs_slope"] = twisted_res
    if cps:
        fits["non_a_count_exponent"] = _maybe_fit(
            [(cp.x, cp.count_nonA) for cp in cps]
        )

    doc = {
        "schema": "divsum-report/1",
        "constants": constants,
        "identities": {
            "rational_identity_16_over_123": constants.get("rational_identity_16_over_123"),
            "checkpoints": identities,
        },
        "residuals": residuals,
        "fits": fits,
    }
    return render_document(doc)
