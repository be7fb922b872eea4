import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divsum import cli, dirichlet
from divsum.cli import main, parse_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_count_shorthand():
    assert parse_count("1000000") == 10**6
    assert parse_count("1e6") == 10**6
    assert parse_count("2_000") == 2000
    # read exactly, not through a float that rounds above 2^53
    assert parse_count("1234567890123456789e0") == 1234567890123456789
    assert parse_count("12345678901234567890e-1") == 1234567890123456789
    with pytest.raises(Exception):
        parse_count("1.5")
    for text in ("1e400", "-1e400", "inf", "nan", "1.2345678901234567891e18"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_count(text)


def test_non_finite_count_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sum", "--limit", "1e400")
    assert code == 2 and "--limit" in err


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "51")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 51, "class": "B", "witness": "15"}
    code, out, _ = run_cli(capsys, "classify", "7")
    assert json.loads(out)["witness"] is None
    code, out, _ = run_cli(capsys, "classify", "50")
    assert json.loads(out) == {"n": 50, "class": "multiple-of-5", "witness": "50"}
    code, out, _ = run_cli(capsys, "classify", "1234567890123456789e0")
    assert code == 0 and json.loads(out)["n"] == 1234567890123456789
    # classify and its witness share one range, n < 2^64
    code, out, _ = run_cli(capsys, "classify", str((1 << 64) - 1))
    assert code == 0
    assert json.loads(out) == {"n": (1 << 64) - 1, "class": "multiple-of-5", "witness": "10011344445566777895"}


def test_count_non_a(capsys):
    code, out, _ = run_cli(capsys, "count-non-a", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8 and doc["bound_holds"] is True


def test_usage_error_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "sum", "--limit", "abc")[0] == 2
    assert run_cli(capsys, "sum", "--limit", "100", "--no-refine")[0] == 2
    assert list(tmp_path.iterdir()) == []


def test_runtime_error_exits_1(capsys):
    for n in ("0", str(1 << 64)):
        code, out, err = run_cli(capsys, "classify", n)
        assert code == 1 and out == "" and err.startswith("error:"), n


def test_constant_small(capsys):
    code, out, _ = run_cli(capsys, "constant", "--prime-limit", "10000", "--q", "1,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["rational_identity_16_over_123"] is True
    assert abs(doc["lemma_constant"] - 1.4276565) < 1e-4
    assert abs(doc["theorem_constant"] - 1.1142685) < 1e-4


def test_sum_twisted_fit_report_flow(tmp_path, capsys):
    cp = str(tmp_path / "cp.csv")
    code, out, _ = run_cli(capsys, "sum", "--limit", "10000", "--checkpoints", cp)
    assert code == 0
    doc = json.loads(out)
    assert doc["checkpoints_written"] == 7
    assert os.path.exists(cp)

    # idempotence: identical config leaves the file byte-identical
    before = open(cp, "rb").read()
    code, _, _ = run_cli(capsys, "sum", "--limit", "10000", "--checkpoints", cp)
    assert code == 0
    assert open(cp, "rb").read() == before
    code, _, _ = run_cli(capsys, "sum", "--limit", "10000", "--checkpoints", cp, "--resume")
    assert code == 0
    assert open(cp, "rb").read() == before

    code, out, _ = run_cli(capsys, "twisted", "--q", "5", "--limit", "4")
    assert json.loads(out)["value"] == 4.5

    code, out, _ = run_cli(capsys, "fit", "--checkpoints", cp, "--quantity", "count_nonA")
    assert code == 0
    assert abs(json.loads(out)["slope"] - 0.903) < 0.05

    code, out, _ = run_cli(
        capsys, "fit", "--checkpoints", cp, "--quantity", "S", "--prime-limit", "100000"
    )
    assert code == 0
    assert json.loads(out)["error_exponent"] < 1.0

    report_path = str(tmp_path / "report.json")
    code, _, _ = run_cli(
        capsys, "report", "--checkpoints", cp, "--prime-limit", "100000", "--out", report_path
    )
    assert code == 0
    doc = json.loads(open(report_path).read())
    assert doc["schema"] == "divsum-report/1"
    assert all(c["five_split_exact"] for c in doc["identities"]["checkpoints"])


def test_verify_local(capsys):
    code, out, _ = run_cli(capsys, "verify-local", "--p-max", "50")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert list(rows[0]) == ["p", "s", "residual", "within_tolerance"]
    assert all(r["within_tolerance"] is True for r in rows)


def test_verify_local_refuses_oversize_p_max_before_sieving(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved an oversize --p-max")

    monkeypatch.setattr(cli, "primes_upto", no_sieve)
    code, out, err = run_cli(capsys, "verify-local", "--p-max", "1e12")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--p-max" in err


@pytest.mark.parametrize("grid", ["inf", "1,-inf", "nan", "2,0.5", "0.4"])
def test_verify_local_checks_s_grid_before_any_row(capsys, monkeypatch, grid):
    def no_row(p, s):
        raise AssertionError("computed a row before the whole grid was checked")

    monkeypatch.setattr(dirichlet, "_local_residual", no_row)
    code, out, err = run_cli(capsys, "verify-local", "--s-grid", grid)
    assert code == 1 and out == ""
    assert err.startswith("error: --s-grid") and "finite and exceed 1/2" in err


@pytest.mark.parametrize(
    "grid, want", [("inf", "(1, 32]"), ("nan", "exceed 1"), ("0.9", "exceed 1"), ("2,33", "(1, 32]")]
)
def test_verify_dirichlet_checks_s_grid_before_sieving(capsys, monkeypatch, grid, want):
    def no_sieve(lo, hi):
        raise AssertionError("sieved before the whole grid was checked")

    monkeypatch.setattr(dirichlet, "sieve_segment", no_sieve)
    code, out, err = run_cli(capsys, "verify-dirichlet", "--s-grid", grid, "--terms", "1000")
    assert code == 1 and out == ""
    assert err.startswith("error: s must") and want in err, err


def test_verify_local_refuses_oversize_row_count_before_any_row(capsys, monkeypatch):
    def no_row(p, s):
        raise AssertionError("computed a row of an oversize grid")

    monkeypatch.setattr(dirichlet, "_local_residual", no_row)
    # 664579 primes below 10^7 times 3 values of s
    code, out, err = run_cli(capsys, "verify-local", "--p-max", "1e7", "--s-grid", "1,2,3")
    assert code == 1 and out == ""
    assert err == f"error: primes x --s-grid must be at most {cli.LOCAL_ROWS_CAP} rows (got 1993737)\n"
    # at the cap exactly: 25 primes to 100 times 5 values of s; 101 is the 26th
    monkeypatch.undo()
    monkeypatch.setattr(cli, "LOCAL_ROWS_CAP", 125)
    assert run_cli(capsys, "verify-local", "--p-max", "100")[0] == 0
    code, out, err = run_cli(capsys, "verify-local", "--p-max", "101")
    assert code == 1 and out == "" and "(got 130)" in err


def test_failed_rational_identity_is_one_error_line(tmp_path, capsys, monkeypatch):
    cp = tmp_path / "cp.csv"
    assert run_cli(capsys, "sum", "--limit", "1000", "--checkpoints", str(cp))[0] == 0
    monkeypatch.setattr(dirichlet, "rational_identity_holds", lambda: False)
    for argv in (
        ["constant", "--prime-limit", "1000"],
        ["report", "--prime-limit", "1000", "--checkpoints", str(cp)],
        ["fit", "--quantity", "S_B", "--prime-limit", "1000", "--checkpoints", str(cp)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err == "error: rational identity 1/6 - 3/82 = 16/123 failed\n", argv


def test_verify_local_takes_its_primes_as_prime(capsys, monkeypatch):
    # every p comes from a sieve, so no row runs trial division
    def no_trial_division(n):
        raise AssertionError("re-proved a sieved prime")

    monkeypatch.setattr(dirichlet, "is_prime", no_trial_division)
    code, out, _ = run_cli(capsys, "verify-local", "--p-max", "1000")
    assert code == 0 and json.loads(out)["rows"]


def test_verify_dirichlet_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-dirichlet",
        "--q", "1,5",
        "--s-grid", "2.0",
        "--terms", "100000",
        "--tolerance", "1e-3",
        "--prime-limit", "100000",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["within_tolerance"] for r in doc["rows"])
    assert [r["factorized_prime_limit"] for r in doc["rows"]] == [100000, 100000]
    code, out, _ = run_cli(capsys, "verify-dirichlet", "--q", "1", "--s-grid", "3", "--terms", "1e3")
    assert code == 0
    assert json.loads(out)["rows"][0]["factorized_prime_limit"] == 10**6  # 1e8 default, capped


def test_verify_dirichlet_drops_repeated_grid_values(capsys):
    base = ["verify-dirichlet", "--terms", "1e3", "--prime-limit", "1e3"]
    _, repeated, _ = run_cli(capsys, *base, "--q", "1,2,3,5,7,5", "--s-grid", "1.5,2,3,2")
    _, distinct, _ = run_cli(capsys, *base, "--q", "1,2,3,5,7", "--s-grid", "1.5,2,3")
    assert repeated == distinct
    rows = [[r["q"], r["s"]] for r in json.loads(repeated)["rows"]]
    assert rows == [[q, s] for q in (1, 2, 3, 5, 7) for s in (1.5, 2.0, 3.0)]


def test_verify_dirichlet_failure_exit(capsys):
    # truncating the product at P=2 skews the factorized side visibly
    code, _, err = run_cli(
        capsys,
        "verify-dirichlet",
        "--q", "1",
        "--s-grid", "2.0",
        "--terms", "100000",
        "--tolerance", "1e-6",
        "--prime-limit", "2",
    )
    assert code == 1
    assert "FAIL" in err and ">" in err


def test_verify_dirichlet_checks_grid_before_sieving(capsys, monkeypatch):
    def no_sieve(lo, hi):
        raise AssertionError("sieved before the whole grid was checked")

    monkeypatch.setattr(dirichlet, "sieve_segment", no_sieve)
    for extra in (
        ["--s-grid", "2,40"],
        ["--s-grid", "2,1"],
        ["--s-grid", "nan"],
        ["--terms", "0"],
        ["--q", "1,6"],
        ["--terms", "2e8"],
        ["--prime-limit", "1"],
    ):
        argv = ["verify-dirichlet", "--q", "1", "--s-grid", "2", "--terms", "2e7", *extra]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", extra
        assert err.startswith("error:"), extra


def test_environment_is_not_read(tmp_path, capsys, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(tmp_path)
    for name, value in (("LIMIT", "200"), ("FORMAT", "xml"), ("Q", ","), ("CHECKPOINTS", "env.csv")):
        monkeypatch.setenv("DIVSUM_" + name, value)
    code, _, _ = run_cli(capsys, "sum", "--limit", "1e4")
    assert code == 0
    # the default schedule and q grid: the rows x <= 10^4 of the recorded 1e6 CSV
    header, *rows = (root / "perfbench" / "data" / "grid_1e6.csv").read_text().splitlines(keepends=True)
    want = header + "".join(row for row in rows if int(row.split(",")[0]) <= 10**4)
    assert (tmp_path / "checkpoints.csv").read_text() == want


def test_format_is_validated(capsys):
    # output is always JSON, so every --format value, csv included, is refused
    for value in ("xml", "csv"):
        code, out, err = run_cli(capsys, "classify", "51", "--format", value)
        assert code == 2 and out == ""
        assert "--format" in err and value in err


def test_resume_with_smaller_limit_refuses(tmp_path, capsys):
    cp = str(tmp_path / "cp.csv")
    assert run_cli(capsys, "sum", "--limit", "1000", "--checkpoints", cp)[0] == 0
    before = open(cp, "rb").read()
    code, _, err = run_cli(
        capsys, "sum", "--limit", "100", "--checkpoints", cp, "--resume"
    )
    assert code == 1
    assert "error" in err and "x=1000" in err
    assert open(cp, "rb").read() == before


def test_oversize_segment_rejected_before_sieving(tmp_path, capsys, monkeypatch):
    from divsum import sums

    def no_sieve(lo, hi):
        raise AssertionError("sieved despite an invalid segment size")

    monkeypatch.setattr(sums, "sieve_segment", no_sieve)
    code, out, err = run_cli(
        capsys, "twisted", "--q", "1", "--limit", "7e7", "--segment-size", "1e8"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "segment_size" in err
    cp = tmp_path / "cp.csv"
    code, _, err = run_cli(
        capsys, "sum", "--limit", "100", "--segment-size", "1e8", "--checkpoints", str(cp)
    )
    assert code == 1 and "segment_size" in err
    assert not cp.exists()


def test_twisted_limit_above_sum_cap_refused_before_sieving(capsys, monkeypatch):
    from divsum import sums

    def no_sieve(lo, hi):
        raise AssertionError("sieved an oversize twisted limit")

    # twisted sieves [1, limit], as sum does, so both take limit <= MAX_LIMIT
    monkeypatch.setattr(sums, "sieve_segment", no_sieve)
    code, out, err = run_cli(capsys, "twisted", "--q", "1", "--limit", "2e9")
    assert code == 1 and out == ""
    assert err == f"error: limit must be in [0, {sums.MAX_LIMIT}] (got 2000000000)\n"


@pytest.mark.parametrize("size", ["0", "-5"])
def test_twisted_nonpositive_segment_size_exits_1(capsys, size):
    code, out, err = run_cli(capsys, "twisted", "--q", "5", "--limit", "100", "--segment-size", size)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "segment_size must be in [1, 67108864]" in err


def test_threads_above_cap_refused_before_pool(tmp_path, capsys, monkeypatch):
    from divsum import sums

    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for an oversize --threads")

    monkeypatch.setattr(sums, "ThreadPoolExecutor", no_pool)
    cp = tmp_path / "cp.csv"
    code, out, err = run_cli(
        capsys, "sum", "--limit", "1e9", "--threads", str(sums.MAX_THREADS + 1), "--checkpoints", str(cp)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "thread_count" in err
    assert not cp.exists()


def test_fit_twisted_missing_q_is_error(tmp_path, capsys, monkeypatch):
    cp = str(tmp_path / "cp.csv")
    assert run_cli(capsys, "sum", "--limit", "1000", "--q", "1,5", "--checkpoints", cp)[0] == 0
    code, out, err = run_cli(
        capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:11", "--slope", "1.5"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "q=11" in err
    code, _, err = run_cli(capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:1.5")
    assert code == 1 and err.startswith("error:") and "not an integer" in err
    code, out, err = run_cli(capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:abc")
    assert code == 1 and out == ""
    assert err.startswith("error: bad quantity 'twisted:abc'")

    # without --slope, the missing q is reported before the Euler product runs
    def no_product(*args, **kwargs):
        raise AssertionError("euler_product_C called before the quantity was checked")

    monkeypatch.setattr(dirichlet, "euler_product_C", no_product)
    code, out, err = run_cli(capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:11")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no twisted series for q=11" in err


def test_bad_q_refused_before_euler_product(tmp_path, capsys, monkeypatch):
    def no_product(*args, **kwargs):
        raise AssertionError("euler_product_C called before every q was checked")

    monkeypatch.setattr(dirichlet, "euler_product_C", no_product)
    missing = str(tmp_path / "none.csv")
    for argv in (["constant"], ["report", "--checkpoints", missing]):
        code, out, err = run_cli(capsys, *argv, "--q", "1,4")
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and "q must be 1 or prime (got 4)" in err, argv


def test_fit_slope_is_the_report_constant(capsys):
    csv_path = str(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "grid_1e6.csv")
    code, out, _ = run_cli(capsys, "report", "--checkpoints", csv_path, "--prime-limit", "1e5")
    assert code == 0
    constants = json.loads(out)["constants"]
    for quantity, want in (
        ("S", constants["lemma_constant"]),
        ("S_B", constants["theorem_constant"]),
        ("twisted:5", constants["slopes"]["5"]),
    ):
        code, out, _ = run_cli(
            capsys, "fit", "--checkpoints", csv_path, "--prime-limit", "1e5", "--quantity", quantity,
        )
        assert code == 0, quantity
        slope = json.loads(out)["slope_used"]
        assert float(format(slope, ".15g")) == want, quantity


def test_python_dash_m_runs_from_source_tree():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "divsum", "classify", "51"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"n": 51, "class": "B", "witness": "15"}


def test_failed_identity_refused_before_sieving(tmp_path, capsys, monkeypatch):
    from divsum import sums

    cp = tmp_path / "cp.csv"
    assert run_cli(capsys, "sum", "--limit", "1000", "--q", "1,5", "--checkpoints", str(cp))[0] == 0
    # twisted(5, 200) of checkpoint x=1000, off by one: S_A - S_B no longer matches it
    lines = cp.read_text().splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if line.startswith("1000,") and ",5,200," in line]
    *head, value = lines[i].rstrip("\n").split(",")
    lines[i] = ",".join([*head, str(int(value) + 1)]) + "\n"
    cp.write_text("".join(lines))
    before = cp.read_bytes()

    def no_sieve(lo, hi):
        raise AssertionError("sieved before the checkpoint file was checked")

    monkeypatch.setattr(sums, "sieve_segment", no_sieve)
    for argv in (
        ["sum", "--limit", "2000", "--q", "1,5", "--resume"],
        ["report", "--prime-limit", "1000"],
        ["fit", "--quantity", "S", "--slope", "1.5"],
    ):
        code, out, err = run_cli(capsys, *argv, "--checkpoints", str(cp))
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and "x=1000" in err and "five_split_exact" in err, argv
        assert cp.read_bytes() == before, argv


def test_report_bytes_match_recorded_digest(tmp_path, capsys):
    # P = 1e5 is one prime block; 100500000 is the benchmark's scale: 12
    # blocks of 2^23, each cleared in pieces, and a partial 13th
    root = Path(__file__).resolve().parents[1]
    refs = json.loads((root / "perfbench" / "references.json").read_text())
    for csv, prime_limit in (("grid_1e6.csv", 100000), ("grid_2e6.csv", 100500000)):
        want = refs["digests"]["report"][f"csv={csv},prime_limit={prime_limit}"]["report.json"]
        out = tmp_path / f"report_{prime_limit}.json"
        code, _, _ = run_cli(
            capsys, "report", "--checkpoints", str(root / "perfbench" / "data" / csv),
            "--prime-limit", str(prime_limit), "--out", str(out),
        )
        assert code == 0, prime_limit
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, prime_limit


@pytest.mark.parametrize("extra", [(), ("--segment-size", "12345", "--threads", "2")])
def test_sum_1e6_matches_recorded_grid_csv(tmp_path, capsys, extra):
    # rows n >= 10^4 exercise the full-row class sums; the brute-force
    # engine tests stop below that
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sum", "--limit", "1e6", "--checkpoints", str(out), *extra)
    assert code == 0
    assert out.read_bytes() == (root / "perfbench" / "data" / "grid_1e6.csv").read_bytes()


PINNED_OUTPUTS = [
    (["classify", "51"], '{\n  "n": 51,\n  "class": "B",\n  "witness": "15"\n}\n'),
    (
        ["count-non-a", "1e6"],
        '{\n  "x": 1000000,\n  "count": 299592,\n  "bound": 2396745.14285714,\n'
        '  "bound_holds": true\n}\n',
    ),
    (
        ["twisted", "--q", "5", "--limit", "1e5"],
        '{\n  "q": 5,\n  "limit": 100000,\n  "numerator": 671932601073664,\n'
        '  "scale_exp": 32,\n  "value": 156446.5\n}\n',
    ),
    (
        ["sum", "--limit", "1e4", "--checkpoints", "s.csv"],
        '{\n  "limit": 10000,\n  "checkpoints_written": 7,\n  "path": "s.csv",\n'
        '  "S": 14205.125,\n  "S_A": 7713,\n  "S_B": 4619.875,\n  "T_nonA": 6492.125,\n'
        '  "count_nonA": 4680\n}\n',
    ),
    (
        ["constant", "--prime-limit", "1e4"],
        '{\n  "s": 1,\n  "prime_limit": 10000,\n  "product_value": 0.867915359390139,\n'
        '  "product_tail_bound": 0.0001,\n  "product_interval": [\n    0.867828563514479,\n'
        '    0.8680021552658\n  ],\n  "lemma_constant": 1.42766354180166,\n'
        '  "lemma_constant_interval": [\n    1.42752076830893,\n    1.4278063152944\n  ],\n'
        '  "theorem_constant": 1.1142739838452,\n  "theorem_constant_interval": [\n'
        '    1.11416255087526,\n    1.11438541681514\n  ],\n'
        '  "rational_identity_16_over_123": true,\n  "slopes": {\n    "1": 1.42766354180166,\n'
        '    "2": 1.71319625016199,\n    "3": 1.64730408669422,\n    "5": 1.56694778978231,\n'
        '    "7": 1.52843979181119\n  }\n}\n',
    ),
    # fit reads grid.csv, a copy of perfbench/data/grid_1e6.csv
    (
        ["fit", "--checkpoints", "grid.csv", "--quantity", "twisted:5", "--slope", "1.5"],
        '{\n  "quantity": "twisted:5",\n  "slope_used": 1.5,\n  "error_exponent": 1.00946405869748,\n'
        '  "intercept": -3.09310028153116,\n  "points_used": 11,\n  "excluded_points": 0\n}\n',
    ),
    (
        ["fit", "--checkpoints", "grid.csv", "--quantity", "count_nonA"],
        '{\n  "quantity": "count_nonA",\n  "slope": 0.910921308531188,\n'
        '  "intercept": 0.0523318716909173,\n  "points_used": 11,\n  "excluded_points": 0\n}\n',
    ),
    # the float path over the sieved cells: twisted_ratio_numerators -> dirichlet_lhs
    (
        ["verify-dirichlet", "--q", "1,2,7", "--s-grid", "1.5,2", "--terms", "1e5"],
        '{\n  "rows": [\n'
        '    {\n      "q": 1,\n      "s": 1.5,\n'
        '      "series": 2.94175200556484,\n      "series_tail_estimate": 3.03955056526791,\n'
        '      "factorized": 2.95077817664455,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 0.00902617107970816,\n      "allowed": 3.03965056526791,\n'
        '      "within_tolerance": true\n    },\n'
        '    {\n      "q": 1,\n      "s": 2,\n'
        '      "series": 1.72727657804226,\n      "series_tail_estimate": 0.00961190284949888,\n'
        '      "factorized": 1.72729084778257,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 1.42697403107128e-05,\n      "allowed": 0.00971190284949888,\n'
        '      "within_tolerance": true\n    },\n'
        '    {\n      "q": 2,\n      "s": 1.5,\n'
        '      "series": 3.41558927184114,\n      "series_tail_estimate": 3.03955056526791,\n'
        '      "factorized": 3.42642073435783,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 0.0108314625166974,\n      "allowed": 3.03965056526791,\n'
        '      "within_tolerance": true\n    },\n'
        '    {\n      "q": 2,\n      "s": 2,\n'
        '      "series": 1.93454862569406,\n      "series_tail_estimate": 0.00961190284949888,\n'
        '      "factorized": 1.93456574951648,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 1.71238224269121e-05,\n      "allowed": 0.00971190284949888,\n'
        '      "within_tolerance": true\n    },\n'
        '    {\n      "q": 7,\n      "s": 1.5,\n'
        '      "series": 3.0206561197216,\n      "series_tail_estimate": 3.03955056526791,\n'
        '      "factorized": 3.03031913248864,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 0.00966301276704407,\n      "allowed": 3.03965056526791,\n'
        '      "within_tolerance": true\n    },\n'
        '    {\n      "q": 7,\n      "s": 2,\n'
        '      "series": 1.7448972420996,\n      "series_tail_estimate": 0.00961190284949888,\n'
        '      "factorized": 1.74491251849321,\n      "factorized_prime_limit": 1000000,\n'
        '      "abs_difference": 1.52763936167588e-05,\n      "allowed": 0.00971190284949888,\n'
        '      "within_tolerance": true\n    }\n'
        '  ]\n}\n',
    ),
]


@pytest.mark.parametrize("argv, want", PINNED_OUTPUTS, ids=[" ".join(a) for a, _ in PINNED_OUTPUTS])
def test_stdout_is_pinned(tmp_path, capsys, monkeypatch, argv, want):
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "grid.csv").write_bytes((root / "perfbench" / "data" / "grid_1e6.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("cmd", [["report", "--prime-limit", "1e3"], ["fit", "--slope", "1.4"]])
@pytest.mark.parametrize(
    "row, error",
    [
        ("0,32,0,0,0,0,0,1,0,0", "line 2: x must be >= 1 (got 0)"),
        # every identity holds, but S_A, S_B and T_nonA are far beyond 2^127
        (f"1,32,{1 << 32},{-10**400},{-10**400},{(1 << 32) + 10**400},1,1,1,{1 << 32}",
         "checkpoint x=1: numerator exceeds 128 bits"),
    ],
    ids=["x=0", "numerator"],
)
def test_out_of_range_checkpoint_is_one_error_line(tmp_path, capsys, cmd, row, error):
    cp = tmp_path / "bad.csv"
    cp.write_text("x,scale_exp,S,S_A,S_B,T_nonA,count_nonA,q,twisted_limit,twisted\n" + row + "\n")
    code, out, err = run_cli(capsys, *cmd, "--checkpoints", str(cp))
    assert code == 1 and out == ""
    assert err == f"error: {cp}: {error}\n"


def _q4_rows(rows):
    """A q = 4 row at every x of the recorded CSV, after its 99 own rows."""
    return rows + [[*r[:7], "4", str(int(r[0]) // 4), "12345"] for r in rows[1:] if r[7] == "1"]


def _raised_rows(rows):
    """The q = 1 and q = 7 values at m = x = 10^6 raised by 10^6 * 2^32."""
    return [
        [*r[:9], str(int(r[9]) + 10**6 * 2**32)] if r[0] == r[8] == "1000000" and r[7] in ("1", "7") else r
        for r in rows
    ]


@pytest.mark.parametrize(
    "cmd", [["report", "--prime-limit", "1e3"], ["fit", "--quantity", "twisted:1", "--slope", "1.4276"]]
)
@pytest.mark.parametrize(
    "mutate, error",
    [
        (_q4_rows, "line 101: q must be 1 or prime (got 4)"),
        (_raised_rows, "checkpoint x=1000000: twisted q=1 at m=x differs from S"),
    ],
    ids=["q=4-row", "raised-twisted"],
)
def test_bad_twisted_rows_of_recorded_csv_are_one_error_line(tmp_path, capsys, cmd, mutate, error):
    root = Path(__file__).resolve().parents[1]
    rows = [line.split(",") for line in (root / "perfbench" / "data" / "grid_1e6.csv").read_text().splitlines()]
    cp = tmp_path / "bad.csv"
    cp.write_text("".join(",".join(r) + "\n" for r in mutate(rows)))
    code, out, err = run_cli(capsys, *cmd, "--checkpoints", str(cp))
    assert code == 1 and out == ""
    assert err == f"error: {cp}: {error}\n"


@pytest.mark.parametrize(
    "cmd", [["sum", "--limit", "1e4"], ["fit", "--slope", "1.4"], ["report", "--prime-limit", "1e3"]]
)
@pytest.mark.parametrize("stored", [False, True])
def test_out_naming_checkpoints_is_usage_error(tmp_path, capsys, monkeypatch, cmd, stored):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(tmp_path)
    cp = tmp_path / "cp.csv"
    if stored:
        cp.write_bytes((root / "perfbench" / "data" / "grid_1e6.csv").read_bytes())
    before = cp.read_bytes() if stored else None
    code, out, err = run_cli(capsys, *cmd, "--checkpoints", "cp.csv", "--out", str(cp))
    assert code == 2 and out == ""
    assert "--out" in err and "--checkpoints" in err
    assert (cp.read_bytes() if cp.exists() else None) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-dirichlet", "--q", ","],
        ["verify-dirichlet", "--q", "1", "--s-grid", ","],
        ["verify-local", "--s-grid", ","],
        ["sum", "--limit", "100", "--q", ""],
        ["constant", "--prime-limit", "100", "--q", ","],
        ["report", "--prime-limit", "100", "--q", ","],
    ],
)
def test_empty_list_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    from divsum import sums

    def no_sieve(*args):
        raise AssertionError("sieved for an empty list")

    monkeypatch.setattr(sums, "sieve_segment", no_sieve)
    monkeypatch.setattr(dirichlet, "sieve_segment", no_sieve)
    monkeypatch.setattr(cli, "primes_upto", no_sieve)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--q" in err or "--s-grid" in err
    assert list(tmp_path.iterdir()) == []


def test_nothing_checked_is_a_failure(capsys):
    code, out, err = run_cli(capsys, "verify-local", "--p-max", "1")
    assert code == 1
    assert json.loads(out) == {"rows": []}
    assert err == "FAIL: nothing checked\n"
    code, out, err = run_cli(capsys, "verify-local", "--p-max", "3", "--s-grid", "2")
    assert code == 0 and len(json.loads(out)["rows"]) == 2


# every command prints its one JSON document: these flags chose another
# rendering or added random probes, and no command takes them now
REMOVED_FLAGS = [
    *(
        (argv, ["--pretty"])
        for argv in (["classify", "51"], ["count-non-a", "10"], ["constant"], ["sum"],
                     ["twisted", "--q", "5"], ["verify-dirichlet"], ["verify-local"], ["fit"],
                     ["report"])
    ),
    *(
        (argv, ["--format", "csv"])
        for argv in (["classify", "51"], ["count-non-a", "10"], ["twisted", "--q", "5"],
                     ["verify-dirichlet"], ["verify-local"], ["fit"])
    ),
    (["verify-local"], ["--samples", "1"]),
    (["verify-local"], ["--seed", "1"]),
]


@pytest.mark.parametrize("argv, flag", REMOVED_FLAGS, ids=[f"{a[0]} {f[0]}" for a, f in REMOVED_FLAGS])
def test_removed_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, *flag)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", ["verify-dirichlet", "verify-local"])
@pytest.mark.parametrize("value", ["-1", "-1e-9", "-inf", "inf", "nan"])
def test_bad_tolerance_is_usage_error(capsys, monkeypatch, cmd, value):
    # inf used to pass every row and nan to fail every row, both after the whole check ran
    def not_yet(*args):
        raise AssertionError("checked rows before --tolerance was validated")

    monkeypatch.setattr(dirichlet, "dirichlet_lhs", not_yet)
    monkeypatch.setattr(dirichlet, "_local_residual", not_yet)
    code, out, err = run_cli(capsys, cmd, f"--tolerance={value}")
    assert code == 2 and out == ""
    assert "--tolerance must be finite and >= 0" in err


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify-local", "--p-max", "3", "--s-grid", "2", "--tolerance", "0")
    assert code in (0, 1) and json.loads(out)["rows"]
