import argparse
import json
import os

import pytest

from divsum.cli import main, parse_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_count_shorthand():
    assert parse_count("1000000") == 10**6
    assert parse_count("1e6") == 10**6
    assert parse_count("2_000") == 2000
    with pytest.raises(Exception):
        parse_count("1.5")
    for text in ("1e400", "-1e400", "inf", "nan"):
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
    code, out, _ = run_cli(capsys, "classify", "50", "--format", "csv")
    assert out.splitlines()[0] == "n,class,witness"
    assert out.splitlines()[1] == "50,multiple-of-5,50"


def test_count_non_a(capsys):
    code, out, _ = run_cli(capsys, "count-non-a", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8 and doc["bound_holds"] is True


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "sum", "--limit", "abc")[0] == 2


def test_runtime_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "classify", "0")
    assert code == 1 and "error" in err


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
    code, out, _ = run_cli(capsys, "verify-local", "--p-max", "50", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,s,residual,within_tolerance"
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_local_with_samples_seeded(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify-local", "--p-max", "10", "--samples", "20", "--seed", "123"
    )
    code2, out2, _ = run_cli(
        capsys, "verify-local", "--p-max", "10", "--samples", "20", "--seed", "123"
    )
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_env_overrides(tmp_path, capsys, monkeypatch):
    cp = str(tmp_path / "env.csv")
    monkeypatch.setenv("DIVSUM_LIMIT", "200")
    monkeypatch.setenv("DIVSUM_CHECKPOINTS", cp)
    monkeypatch.setenv("DIVSUM_Q", "1")
    code, out, _ = run_cli(capsys, "sum")
    assert code == 0
    assert json.loads(out)["limit"] == 200
    assert os.path.exists(cp)
    # flag beats environment
    code, out, _ = run_cli(capsys, "sum", "--limit", "100", "--checkpoints", cp)
    assert json.loads(out)["limit"] == 100


def test_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "107", "--pretty")
    assert code == 0
    assert "B" in out and "witness" in out


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


def test_fit_twisted_missing_q_is_error(tmp_path, capsys):
    cp = str(tmp_path / "cp.csv")
    assert run_cli(capsys, "sum", "--limit", "1000", "--q", "1,5", "--checkpoints", cp)[0] == 0
    code, out, err = run_cli(
        capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:11", "--slope", "1.5"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "q=11" in err
    code, _, err = run_cli(capsys, "fit", "--checkpoints", cp, "--quantity", "twisted:1.5")
    assert code == 1 and err.startswith("error:") and "not an integer" in err
