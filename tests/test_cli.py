"""Command-line behavior: exit codes, JSON/CSV shapes, error messages, and
the budget environment variable."""

from __future__ import annotations

import csv
import io
import json

import pytest

from topomeasure.cli import main
from topomeasure.space import build_circle, dump_space


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_spaces(capsys):
    code, out, err = run(capsys, "list-spaces")
    assert code == 0
    report = json.loads(out)
    assert "disk" in report["builders"]
    assert any(p["pair"] == "disk-4:uniform" for p in report["shipped_pairs"])
    assert "builders" in err or "shipped" in err


def test_eval_exact_value(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--space", "disk",
        "--ssf", "point-majority points=1,2,3",
        "--region", "@all",
    )
    assert code == 0
    assert json.loads(out)["mu"] == "1"


def test_eval_requires_region(capsys):
    code, _, err = run(
        capsys, "eval", "--space", "disk", "--ssf", "measure w=@uniform"
    )
    assert code == 2 and "region" in err


def test_extend_reports_total_mass(capsys):
    code, out, _ = run(
        capsys, "extend", "--space", "interval(3)", "--ssf", "measure w=@uniform"
    )
    assert code == 0
    report = json.loads(out)
    assert report["mu(X)"] == "4" and report["finite"] is True


def test_validate_ssf_pass(capsys):
    code, out, _ = run(
        capsys, "validate-ssf", "--space", "circle(3)", "--ssf", "measure w=@uniform"
    )
    assert code == 0
    report = json.loads(out)
    assert all(c["verdict"] == "pass" for c in report["conditions"].values())


def test_validate_tm_constant_fails_with_empty_pair_witness(capsys):
    code, out, _ = run(
        capsys, "validate-tm", "--space", "interval(3)", "--constant", "1"
    )
    assert code == 1
    report = json.loads(out)
    assert report["conditions"]["TM1"]["counterexample"] == {
        "a": [], "b": [], "lhs": "1", "rhs": "2",
    }


def test_validate_tm_two_valued_extension_fails(capsys):
    code, out, _ = run(
        capsys,
        "validate-tm",
        "--space", "disk(4)",
        "--ssf", "aarnes-circle B=@rim p=0",
    )
    assert code == 1
    assert json.loads(out)["classification"] == "proper topological measure"


def test_budget_env_variable_limits_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("TOPOMEASURE_BUDGET", "50")
    code, out, _ = run(
        capsys, "validate-tm", "--space", "disk(4)", "--ssf", "measure w=@uniform"
    )
    assert code == 3
    assert json.loads(out)["conditions"]["TM1"]["verdict"] == "unknown"


def test_genus_exit_codes(capsys):
    code, out, _ = run(capsys, "genus", "--space", "disk(4)")
    assert code == 0 and json.loads(out)["genus"] == 0
    code, out, _ = run(capsys, "genus", "--space", "annulus(4)")
    assert code == 3  # lower bound only at this budget
    assert json.loads(out)["genus"] >= 1
    code, out, _ = run(capsys, "genus", "--space", "plane_window(4)")
    assert code == 0 and json.loads(out)["compactification_genus0"] is True


def test_partitions_listing(capsys):
    code, out, _ = run(
        capsys,
        "partitions",
        "--space", "line_window(4)",
        "--region", "1,2,5",
        "--max-parts", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["count_listed"] >= 2  # the trivial one and the 3-way split


def test_demo_exit_codes(capsys):
    code, out, _ = run(capsys, "demo", "aarnes-disk")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "demo", "punctured-disk")
    assert code == 1 and json.loads(out)["passed"] is False


def test_oracle_check(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--space", "circle(3)", "--ssf", "measure w=@uniform"
    )
    assert code == 0
    report = json.loads(out)
    assert report["value_mismatches"] == 0
    assert all(a["passed"] for a in report["axioms"].values())


def test_space_file_loading(tmp_path, capsys):
    path = tmp_path / "circle.space"
    path.write_text(dump_space(build_circle(3)))
    code, out, _ = run(
        capsys, "eval", "--space", str(path), "--ssf", "measure w=@uniform",
        "--region", "@all",
    )
    assert code == 0 and json.loads(out)["mu"] == "3"


def test_usage_errors(capsys):
    code, _, err = run(
        capsys, "eval", "--space", "no_such_builder", "--ssf", "x", "--region", "@all"
    )
    assert code == 2 and "no_such_builder" in err
    code, _, err = run(
        capsys, "eval", "--space", "disk", "--ssf", "measure w=@uniform",
        "--region", "0,99",
    )
    assert code == 2 and "99" in err
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_json_output_has_sorted_keys(capsys):
    _, out, _ = run(capsys, "list-spaces")
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_csv_output_is_flat_key_value(capsys):
    code, out, _ = run(
        capsys, "eval", "--space", "disk", "--ssf", "measure w=@uniform",
        "--region", "@all", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    flat = {k: v for k, v in rows[1:]}
    assert flat["mu"] == '"5"'


def test_seed_never_affects_results(capsys):
    results = []
    for seed in ("0", "12345"):
        _, out, _ = run(
            capsys, "validate-tm", "--space", "disk(4)",
            "--ssf", "aarnes-circle B=@rim p=0", "--seed", seed,
        )
        results.append(out)
    assert results[0] == results[1]


# Malformed weight and value literals exit 2 with an ``error:`` line, never
# with a silent default or a traceback.
MALFORMED = {
    "weight cell out of range": (
        "eval", "--space", "disk(4)", "--ssf", "measure w=999:1", "--region", "@all"),
    "weight on the infinity cell": (
        "eval", "--space", "punctured_disk(4)", "--ssf", "measure w=0:5", "--region", "@all"),
    "repeated weight cell": (
        "eval", "--space", "disk(4)", "--ssf", "measure w=5:1,5:2", "--region", "@all"),
    "negative weight cell": (
        "eval", "--space", "disk(4)", "--ssf", "measure w=-1:1", "--region", "@all"),
    "zero weight denominator": (
        "eval", "--space", "disk(4)", "--ssf", "measure w=1:2/0", "--region", "@all"),
    "zero threshold denominator": (
        "eval", "--space", "disk(4)", "--ssf", "threshold t=1/0", "--region", "@all"),
    "zero constant denominator": (
        "validate-tm", "--space", "interval(3)", "--constant", "1/0"),
    "repeated marked point": (
        "eval", "--space", "disk(4)", "--ssf", "point-majority points=1,1,2,3",
        "--region", "@all"),
    "repeated marked point, odd count": (
        "eval", "--space", "disk(4)", "--ssf", "point-majority points=1,1,2",
        "--region", "@all"),
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_literals_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "shift" not in err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_partitions_limit_below_one_is_usage_error(capsys, limit):
    code, out, err = run(
        capsys, "partitions", "--space", "line_window(4)", "--region", "1,2,5",
        "--limit", limit,
    )
    assert code == 2 and out == "" and "--limit" in err
    code, out, _ = run(
        capsys, "partitions", "--space", "line_window(4)", "--region", "1,2,5",
        "--limit", "1",
    )
    assert code == 0 and json.loads(out)["count_listed"] == 1


@pytest.mark.parametrize("max_parts", ["0", "-1"])
def test_partitions_max_parts_below_one_is_usage_error(capsys, max_parts):
    code, out, err = run(
        capsys, "partitions", "--space", "line_window(4)", "--region", "1,2,5",
        "--max-parts", max_parts,
    )
    assert code == 2 and out == "" and "--max-parts" in err
