"""Exit codes, output formats, and flag handling of the console entry point."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import bosonkit
from bosonkit import cli
from bosonkit.cli import main
from bosonkit.errors import DivergentSeriesError
from bosonkit.numeric import Check, ErrorBoundedReal
from bosonkit.operator_algebra import MonomialSpec
from bosonkit.stirling import bell


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_record(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def test_contract_examples(capsys):
    code, _, _ = run(capsys, "verify", "dobinski", "--r", "2", "--s", "1", "--max", "5")
    assert code == 0
    code, _, _ = run(capsys, "verify", "norm", "--r", "2", "--order", "5")
    assert code == 0
    code, out, _ = run(capsys, "verify", "norm", "--r", "2", "--order", "3", "--printed-sign")
    assert code == 3
    assert "mismatch at order 1" in out
    assert "FAIL" in out
    assert "summary: 0/1 checks passed" in out


def test_stirling_rows_plain_and_csv(capsys):
    code, out, _ = run(capsys, "stirling", "--r", "1", "--s", "1", "--n", "4")
    assert code == 0
    values = [line.split("value=")[1].split()[0] for line in out.splitlines() if "value=" in line]
    assert values == ["1", "7", "6", "1"]

    code, out, _ = run(capsys, "stirling", "--r", "2", "--s", "1", "--n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["6", "6", "1"]
    assert all(r["kind"] == "exact" for r in rows)


def test_stirling_rejects_r_below_s(capsys):
    for n in ("2", "0", "-1"):
        code, _, err = run(capsys, "stirling", "--r", "2", "--s", "3", "--n", n)
        assert code == 2
        assert "unsupported" in err


def test_bell_rows(capsys):
    code, record = json_record(capsys, "bell", "--r", "1", "--s", "1", "--max", "5")
    assert code == 0
    assert [row["value"] for row in record["results"]] == ["1", "1", "2", "5", "15", "52"]
    code, record = json_record(capsys, "bell", "--r", "2", "--s", "1", "--max", "4")
    assert [row["value"] for row in record["results"]] == ["1", "1", "3", "13", "73"]
    code, record = json_record(capsys, "bell", "--r", "2", "--s", "2", "--max", "3")
    assert [row["value"] for row in record["results"]] == ["1", "1", "7", "87"]


@pytest.mark.parametrize("r, s", [(1, 1), (2, 2), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_bell_stream_matches_per_n_bell(capsys, r, s):
    code, record = json_record(capsys, "bell", "--r", str(r), "--s", str(s), "--max", "7")
    assert code == 0
    got = [int(row["value"]) for row in record["results"]]
    assert got == [bell(MonomialSpec(r, s, n)) for n in range(8)]


def test_json_round_trips(capsys):
    code, out, _ = run(capsys, "bell", "--r", "2", "--s", "2", "--max", "6", "--format", "json")
    assert code == 0
    assert out.rstrip("\n") == json.dumps(json.loads(out), indent=2)
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["command"] == "bell"


def reference_json(record):
    """The pure-Python indent=2 encoding that ``OutputRecord.to_json`` must match."""
    return json.dumps(record.to_dict(), indent=2)


# Strings that can confuse a splice of indentation into compact JSON: quotes,
# backslashes, raw newlines, non-ASCII and the row boundary itself.
TRICKY = st.text(
    st.sampled_from(['"', "\\", "\n", "{", "}", ",", ":", " ", "a", "\u00e9", "\u2603", "\U0001d11e"])
) | st.sampled_from(["", "},\n      {", '"},\n      {"', "{\n      \n    }"])
ROWS = st.lists(st.dictionaries(TRICKY, TRICKY, max_size=4), max_size=4)


@given(
    command=TRICKY,
    parameters=st.dictionaries(TRICKY, TRICKY, max_size=4),
    results=ROWS,
    checks=st.lists(st.builds(Check, TRICKY, st.booleans(), TRICKY), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_to_json_matches_indented_json_dumps(command, parameters, results, checks):
    record = cli.OutputRecord(command, parameters, results, checks)
    assert record.to_json() == reference_json(record)


def test_to_json_of_empty_sections():
    for record in (
        cli.OutputRecord("bell", {}),
        cli.OutputRecord("bell", {}, [{}], [Check("", True, "")]),
        cli.OutputRecord("bell", {"r": "1"}, [{}, {"n": "0"}, {}]),
    ):
        assert record.to_json() == reference_json(record)


def test_integers_are_decimal_strings(capsys):
    # Arbitrary precision must survive any JSON parser: no numeric literals
    # in results, only strings.
    _, record = json_record(capsys, "bell", "--r", "2", "--s", "2", "--max", "6")
    for row in record["results"]:
        assert isinstance(row["value"], str)
        int(row["value"])
    _, record = json_record(capsys, "stirling", "--r", "2", "--s", "2", "--n", "3")
    for row in record["results"]:
        assert isinstance(row["k"], str) and isinstance(row["value"], str)
        int(row["value"])


def test_usage_errors_exit_one(capsys):
    cases = [
        ("bell", "--r", "1", "--s", "1", "--max", "-1"),
        ("stirling", "--r", "1", "--s", "1", "--n", "0"),
        ("stirling", "--r", "1", "--s", "1", "--n", "-1"),
        ("stirling", "--r", "1", "--s", "1"),
        ("bell", "--r", "1", "--s", "1", "--max", "3", "--bogus"),
        ("verify", "dobinski", "--bits", "8"),
        ("bell", "--r", "1", "--s", "1", "--max", "3", "--bits", "64"),
        ("stirling", "--r", "1", "--s", "1", "--n", "3", "--bits", "64"),
        ("verify", "dobinski", "--n", "3"),
        ("verify", "nosuchsuite"),
        ("verify", "dobinski", "--r", "2"),
        ("verify", "dobinski", "--printed-b5"),
        ("verify", "egf", "--printed-sign"),
        ("verify", "norm", "--printed-sign"),
        ("verify", "moments", "--s", "1"),
        ("verify", "dobinski", "--tol", "-1"),
        # Flags the suite does not read.
        ("verify", "egf", "--printed-b5", "--tol", "5", "--s", "9"),
        ("verify", "moments", "--r", "1", "--s", "1", "--printed-sign", "--order", "3"),
        ("verify", "norm", "--max", "2", "--bits", "64"),
        ("verify", "egf", "--order", "0"),
        ("verify", "dobinski", "--r", "2", "--s", "1", "--max", "0"),
        ("verify", "dobinski", "--r", "2", "--s", "1", "--max", "-2"),
        ("verify", "egf", "--r", "2", "--max", "-3"),
        ("verify", "egf", "--max", "-1"),
        ("verify", "moments", "--max", "0"),
        ("verify", "moments", "--r", "1", "--s", "1", "--max", "-1"),
    ]
    # Values the parser accepts but the suites must reject, each by the flag's name.
    messages = {
        ("verify", "dobinski", "--tol", "nan"): "--tol must be finite",
        ("verify", "moments", "--tol", "inf"): "--tol must be finite",
        ("verify", "dobinski", "--bits", "100000000"): "--bits must be at most 4096",
        ("verify", "norm", "--order", "0"): "--order must be >= 1",
        ("verify", "norm", "--r", "0"): "--r must be >= 1",
    }
    cases += list(messages)
    max_floor = {"dobinski": 1, "egf": 0, "moments": 1}
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err
        if argv in messages:
            assert err == f"bosonkit: error: {messages[argv]}\n", argv
        if argv[1] in max_floor and "--max" in argv:
            assert f"--max must be >= {max_floor[argv[1]]}" in err, argv
        if argv[0] == "stirling" and "--n" in argv and int(argv[argv.index("--n") + 1]) < 1:
            assert "--n must be >= 1" in err, argv


def test_negative_power_exits_one(capsys):
    code, _, err = run(capsys, "stirling", "--r", "1", "--s", "1", "--n", "-2")
    assert code == 1
    assert "error" in err


def test_unsupported_moment_family_exits_two(capsys):
    code, _, err = run(capsys, "verify", "moments", "--r", "3", "--s", "1")
    assert code == 2
    assert "unsupported" in err


def test_printed_b5_flag_reports_divergence_as_failure(capsys):
    for limit in (("--max", "2"), ()):
        code, out, err = run(
            capsys, "verify", "dobinski", "--r", "2", "--s", "1", *limit, "--printed-b5"
        )
        assert code == 3
        assert err == ""
        assert "diverges" in out


def test_parser_is_built_on_first_use_and_reused():
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, bosonkit, bosonkit.cli as cli\n"
        "print(cli.build_parser.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['stirling', '--r', '1', '--s', '1', '--n', str(n)]) for n in (2, 3)]\n"
        "    codes.append(cli.main(['stirling', '--r', '1']))\n"
        "info = cli.build_parser.cache_info()\n"
        "print(codes, info.misses, info.hits)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0", "[0, 0, 1] 1 2"]


def test_printed_sign_egf_fails(capsys):
    code, out, _ = run(capsys, "verify", "egf", "--r", "2", "--printed-sign")
    assert code == 3
    assert "FAIL" in out


@pytest.mark.parametrize("module", ["bosonkit", "bosonkit.cli"])
def test_python_m_entry_points_keep_exit_codes(module):
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def exit_code(*argv):
        command = [sys.executable, "-m", module, *argv]
        return subprocess.run(command, env=env, capture_output=True, timeout=120).returncode

    assert exit_code("verify", "egf", "--r", "2", "--printed-sign") == 3
    assert exit_code("verify", "egf", "--tol", "5") == 1


def test_default_dobinski_grid_passes(capsys):
    code, record = json_record(capsys, "verify", "dobinski")
    assert code == 0
    names = [c["name"] for c in record["checks"]]
    assert any(n.startswith("dobinski classic") for n in names)
    assert any("uncorrected series diverges" in n for n in names)
    assert any(n.startswith("hypergeometric (4,2)") for n in names)
    assert all(c["status"] == "pass" for c in record["checks"])


def test_default_egf_grid_passes(capsys):
    code, record = json_record(capsys, "verify", "egf")
    assert code == 0
    assert any(r.get("normalization_order") == "0" for r in record["results"])
    assert any(r.get("normalization_order") == "1" for r in record["results"])
    assert any("printed exponent sign rejected" in c["name"] for c in record["checks"])


def test_default_norm_grid_passes(capsys):
    code, record = json_record(capsys, "verify", "norm")
    assert code == 0
    assert len(record["checks"]) == 6


def test_moments_single_family(capsys):
    code, record = json_record(capsys, "verify", "moments", "--r", "1", "--s", "1", "--max", "3")
    assert code == 0
    assert record["results"][0]["measure"] == "dirac-comb"
    assert any(c["name"] == "(1,1) mass" for c in record["checks"])


def test_moments_quadrature_family(capsys):
    code, record = json_record(capsys, "verify", "moments", "--r", "2", "--s", "1", "--max", "2")
    assert code == 0
    assert any("positivity sample" in c["name"] for c in record["checks"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code, out, _ = run(
        capsys, "bell", "--r", "1", "--s", "1", "--max", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["command"] == "bell"


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "record.txt"
    code, out, err = run(capsys, "bell", "--r", "1", "--s", "1", "--max", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"bosonkit: error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


def test_bits_environment_fallback(capsys, monkeypatch):
    argv = ("verify", "dobinski", "--r", "1", "--s", "1", "--max", "1")
    monkeypatch.setenv("BOSONKIT_BITS", "128")
    _, record = json_record(capsys, *argv)
    assert record["parameters"]["bits"] == "128"
    # An explicit flag wins over the environment.
    _, record = json_record(capsys, *argv, "--bits", "64")
    assert record["parameters"]["bits"] == "64"
    monkeypatch.setenv("BOSONKIT_BITS", "notanint")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "BOSONKIT_BITS" in err
    monkeypatch.setenv("BOSONKIT_BITS", "100000000")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "--bits must be at most 4096" in err


def test_dobinski_past_float_range_passes(capsys):
    # B_{2,1}(17) > 2^53: the series and its hypergeometric twin must both
    # round to the exact integer.
    code, record = json_record(capsys, "verify", "dobinski", "--r", "2", "--s", "1", "--max", "17")
    assert code == 0
    assert len(record["checks"]) == 3 * 17
    assert all(c["status"] == "pass" for c in record["checks"])


def test_failed_rounding_is_a_failed_check(capsys, monkeypatch):
    def off_integer(n, series):
        return ErrorBoundedReal(mp.mpf(2.5), mp.mpf(1e-3))

    monkeypatch.setattr(cli, "dobinski_classic", off_integer)
    code, out, err = run(capsys, "verify", "dobinski", "--r", "1", "--s", "1", "--max", "2")
    assert code == 3
    assert err == ""
    assert "FAIL  dobinski classic n=1: cannot round" in out


def test_computation_error_exits_four(capsys, monkeypatch):
    def diverges(n, series):
        raise DivergentSeriesError("terms do not decay")

    monkeypatch.setattr(cli, "dobinski_classic", diverges)
    code, out, err = run(capsys, "verify", "dobinski", "--r", "1", "--s", "1", "--max", "2")
    assert code == 4
    assert out == ""
    assert err == "bosonkit: failed: DivergentSeriesError: terms do not decay\n"


def test_verify_all_rejects_flags_before_any_suite_runs(capsys, monkeypatch):
    calls = []
    classic = cli.dobinski_classic

    def counted(n, series):
        calls.append(n)
        return classic(n, series)

    monkeypatch.setattr(cli, "dobinski_classic", counted)
    code, out, err = run(capsys, "verify", "all", "--order", "0", "--max", "1")
    assert code == 1
    assert out == ""
    assert err == "bosonkit: error: --order must be >= 1\n"
    assert calls == []
    # The counter sees the suite when it does run.
    code, _, _ = run(capsys, "verify", "dobinski", "--r", "1", "--s", "1", "--max", "1")
    assert code == 0
    assert calls == [1]


def test_csv_verify_has_two_sections(capsys):
    code, out, _ = run(capsys, "verify", "egf", "--format", "csv")
    assert code == 0
    sections = out.split("\n\n")
    assert len(sections) == 2
    results = list(csv.DictReader(io.StringIO(sections[0])))
    assert "normalization_order" in results[0]
    checks = list(csv.DictReader(io.StringIO(sections[1])))
    assert {c["status"] for c in checks} == {"pass"}


def test_csv_header_is_union_of_row_keys():
    # `verify all` appends normalization rows and then moments rows with a
    # `measure` column; the header must carry every key, in first-seen order.
    record = cli.OutputRecord(
        command="verify all",
        parameters={},
        results=[
            {"family": "(1,1)", "normalization_order": "0", "kind": "heuristic"},
            {"family": "(1,1)", "measure": "dirac-comb", "kind": "exact"},
        ],
    )
    rows = list(csv.reader(io.StringIO(record.to_csv())))
    assert rows == [
        ["family", "normalization_order", "kind", "measure"],
        ["(1,1)", "0", "heuristic", ""],
        ["(1,1)", "", "exact", "dirac-comb"],
    ]


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_verify_parameters_echoed(capsys):
    _, record = json_record(
        capsys, "verify", "dobinski", "--r", "2", "--s", "1", "--max", "2", "--tol", "1e-10"
    )
    params = record["parameters"]
    assert params == {
        "suite": "dobinski", "bits": "256", "tol": "1e-10", "r": "2", "s": "1", "max": "2"
    }
    # Only the flags a suite reads are echoed; norm reads neither bits nor tol.
    _, record = json_record(capsys, "verify", "norm", "--r", "2", "--order", "4")
    assert record["parameters"] == {"suite": "norm", "r": "2", "order": "4"}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "dobinski"),
        ("verify", "egf"),
        ("verify", "norm"),
        ("verify", "norm", "--r", "2", "--order", "3", "--printed-sign"),
    ],
)
def test_check_rows_share_one_shape(capsys, argv):
    _, record = json_record(capsys, *argv)
    json_rows = record["checks"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    csv_rows = list(csv.DictReader(io.StringIO(out.split("\n\n")[-1])))
    assert csv_rows == json_rows
    for row in json_rows:
        assert list(row) == ["name", "status", "detail"]
        assert row["status"] in ("pass", "fail")
    passed = sum(row["status"] == "pass" for row in json_rows)
    code, out, _ = run(capsys, *argv)
    assert out.splitlines()[-1] == f"summary: {passed}/{len(json_rows)} checks passed"
    assert code == (0 if passed == len(json_rows) else 3)
