import math

import pytest

from divsum import analysis, dirichlet
from divsum.analysis import (
    compare_main_term,
    corrected_theorem_rows,
    fit_error_exponent,
    non_a_count_fit,
    render_document,
    report,
)
from divsum.sums import Checkpoint, EngineConfig, accumulate


def synthetic_checkpoint(x, s_value):
    v = int(s_value * 2**32)
    return Checkpoint(
        x=x, S=v, S_A=0, S_B=0, T_nonA=v, count_nonA=0,
        twisted={1: {x: v}},
    )


def test_zero_residuals_on_exact_line():
    slope = 2.5
    cps = [synthetic_checkpoint(x, slope * x) for x in (10, 100, 1000)]
    rows = compare_main_term(cps, slope, "S")
    for r in rows:
        assert r.residual == 0.0
        assert r.normalized == 0.0
        assert r.predicted == slope * r.x


def test_compare_requires_valid_input():
    with pytest.raises(ValueError):
        compare_main_term([], 1.0)
    cps = [synthetic_checkpoint(10, 10)]
    with pytest.raises(ValueError):
        compare_main_term(cps, 0.0)
    with pytest.raises(ValueError):
        compare_main_term(cps, 1.0, "bogus")
    with pytest.raises(ValueError):
        compare_main_term(cps, 1.0, "twisted")


def test_translation_consistency():
    cps = accumulate(EngineConfig(limit=2000, q_list=(1,)))
    slope = 1.4276565
    factor = 3.7
    base = compare_main_term(cps, slope, "S")
    scaled = [
        analysis._row(r.x, r.empirical * factor, slope * factor) for r in base
    ]
    for r, rs in zip(base, scaled):
        assert rs.residual == pytest.approx(r.residual * factor, rel=1e-12, abs=1e-12)


def test_fit_recovers_planted_exponents():
    xs = [10**k for k in range(2, 9)]
    fit = fit_error_exponent([(x, x**0.5) for x in xs])
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.max_abs_residual_of_fit < 1e-9
    fit = fit_error_exponent([(x, 3.0 * x**0.903) for x in xs])
    assert fit.slope == pytest.approx(0.903, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-6)
    assert fit.points_used == len(xs) and fit.excluded_points == 0


def test_fit_excludes_zero_residuals():
    pts = [(10, 0.0), (100, 10.0), (1000, 100.0), (10000, 1000.0)]
    fit = fit_error_exponent(pts)
    assert fit.excluded_points == 1
    assert fit.points_used == 3


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_error_exponent([(10, 1.0), (5, 2.0), (100, 3.0)])
    with pytest.raises(ValueError):
        fit_error_exponent([(10, 1.0), (100, 0.0), (1000, 0.0), (10000, 2.0)])


def test_non_a_count_fit_matches_digit_growth():
    fit = non_a_count_fit(3, 9)
    assert abs(fit.slope - math.log(8) / math.log(10)) <= 0.01


def test_corrected_rows_cancel_complement_term():
    cps = accumulate(EngineConfig(limit=10**4, q_list=(1, 5)))
    c1 = dirichlet.euler_product_C(1.0, 10**5)
    theorem, _ = dirichlet.theorem_constant(c1)
    raw = compare_main_term(cps, theorem, "S_B")
    corrected = corrected_theorem_rows(cps, theorem)
    for r, c in zip(raw, corrected):
        # raw residual is dominated by the (negative of the) complement sum
        assert abs(c.residual) < abs(r.residual)


def test_render_formats():
    text = render_document(
        {"a": 1, "b": 0.1234567890123456789, "c": [True, None, "x"], "d": {}}
    )
    assert '"b": 0.123456789012346' in text
    assert '"c": [\n    true,\n    null,\n    "x"\n  ]' in text
    assert text.endswith("}\n")
    import json

    assert json.loads(text) == {
        "a": 1,
        "b": 0.123456789012346,
        "c": [True, None, "x"],
        "d": {},
    }
    with pytest.raises(ValueError):
        render_document({"bad": float("nan")})


def test_report_empty_checkpoints_valid_schema():
    import json

    constants = dirichlet.constants_summary(10**4, (1, 5))
    text = report([], constants)
    doc = json.loads(text)
    assert doc["schema"] == "divsum-report/1"
    assert set(doc) == {"schema", "constants", "identities", "residuals", "fits"}
    assert doc["identities"]["checkpoints"] == []


def test_report_deterministic_and_complete():
    import json

    cps = accumulate(EngineConfig(limit=10**4))
    constants = dirichlet.constants_summary(10**5, (1, 2, 3, 5, 7))
    t1 = report(cps, constants)
    t2 = report(cps, constants)
    assert t1 == t2
    doc = json.loads(t1)
    assert all(c["sum_split_exact"] for c in doc["identities"]["checkpoints"])
    assert all(c["five_split_exact"] for c in doc["identities"]["checkpoints"])
    assert all(c["non_a_count_matches"] for c in doc["identities"]["checkpoints"])
    assert "total_vs_lemma_slope" in doc["residuals"]
    assert "theorem_corrected" in doc["residuals"]
    assert set(doc["residuals"]["twisted_vs_slope"]) == {"1", "2", "3", "5", "7"}
    assert doc["fits"]["non_a_count_exponent"] is not None
