"""Exit codes, output formats, and flag handling of the console entry point."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from collections import deque
from decimal import Decimal
from functools import cache
from itertools import islice
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import bosonkit
from bosonkit import cli, measures
from bosonkit.cli import main
from bosonkit.errors import DivergentSeriesError
from bosonkit.numeric import Check, ErrorBoundedReal
from bosonkit.operator_algebra import MonomialSpec, monomial_power_rows
from bosonkit.stirling import bell, bell_sequence, bell_values


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


# SHA-256 of the `--format json` output of bell and stirling: for r = 2s
# families, computed before the general r = 2s closed forms were added; for
# the other r > s bell families, computed from engine row sums before the
# Poisson-shift recurrence was added.
PINNED_JSON = [
    ("bell", "--max", 2, 1, 300, "143d83c2719b8364817adf86b03f72ce74798333e11da2eca422f395e0f3ec87"),
    ("bell", "--max", 4, 2, 100, "95c11407f51b735f8c55d22801f039c02709dc7744f6970aa41dd075c7fcc52c"),
    ("bell", "--max", 6, 3, 60, "2b959b73652702e6872b9447ed7c9079008375cd4f09fd5f9a5fe07ca4440542"),
    ("bell", "--max", 3, 2, 150, "60006be992084cc75888fcbfa9545baeafd7889a4898430838b1c3dbe73fbc43"),
    ("bell", "--max", 5, 3, 80, "dd54d8940046ef300678796abebae24c9f2cbc5dcea553780cbabd6bb9be3e1e"),
    ("bell", "--max", 3, 1, 300, "f5de30518c8a048c8a376b09d014ebb17f662f3297adefcbd5f7563dd4f2cc09"),
    ("bell", "--max", 4, 1, 200, "77eb4929c08a2198c672de9e9ba67301671ec825e126c5871eda536745f6209d"),
    ("stirling", "--n", 2, 1, 300, "6eef5ebeba996004535237c7e5a8c3e36a9461abc53aee0bcc57bab58de0ae72"),
    ("stirling", "--n", 4, 2, 40, "6a062d24545c94edea3ebd7747a6e016906050fd6195787aecbebf6179379652"),
    ("stirling", "--n", 6, 3, 30, "3412606f9511650ff21b4afeb32f9c6c25bba571d7ab7a2069689d84182d96fa"),
]


@pytest.mark.parametrize(
    "command, flag, r, s, n, digest", PINNED_JSON, ids=[f"{c}-{r}-{s}-{n}" for c, _, r, s, n, _ in PINNED_JSON]
)
def test_json_bytes_are_pinned(capsys, command, flag, r, s, n, digest):
    code, out, _ = run(capsys, command, "--r", str(r), "--s", str(s), flag, str(n), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of bell and stirling output at r = s in json, and at (2, 1) in plain
# and csv, computed while every cell was still formatted as a string.
PINNED_FORMATS = [
    ("bell --r 1 --s 1 --max 100", "json", "06bd10b19d56d7a9cfa0eb42efb55946cb22ed1e62708d564fa22ec1bb4cae0d"),
    ("stirling --r 3 --s 3 --n 30", "json", "58cfff4feeb5cd2904975e7772ace23d1a2ad9839951f8944f1e111b8aa9e545"),
    ("bell --r 2 --s 1 --max 300", "plain", "64c5bebf5a70293236ddf79b28ca7f5ac2c6378d37be0d752dd8123b436b9554"),
    ("bell --r 2 --s 1 --max 300", "csv", "a34262aac6d97bcbe06f6951798aba7f273bacc0ad249256d90ce385103c1b38"),
    ("stirling --r 2 --s 1 --n 300", "plain", "98a306cfc5b2b5a384f70c199408aba7970319b764ef36535a1a6f97f848d7ce"),
    ("stirling --r 2 --s 1 --n 300", "csv", "1d9ec277a4e0c304c527b07defcf70c4b9af01a46f0b3c73a2bb4e1b6545e9e3"),
]


@pytest.mark.parametrize(
    "argv, fmt, digest", PINNED_FORMATS, ids=[f"{argv.replace(' --', ' ')} {fmt}" for argv, fmt, _ in PINNED_FORMATS]
)
def test_output_bytes_are_pinned(capsys, argv, fmt, digest):
    code, out, _ = run(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the `--format json` output of verify suites, computed before the
# density's moment series was summed by the (2s, s) hypergeometric terms,
# which the (2,1) mass check reads.  `egf` is pinned without the three
# normalization-order checks and their results rows, which are gone.  The
# `dobinski` and `moments` rows were pinned again when enclosures began to
# print from their integers, so that each printed interval holds the stored one.
PINNED_VERIFY_JSON = [
    (("dobinski",), "4bd60aa894c75bec582a844ac1e00ca333fe36ced494dc5fdddd26ffc9807228"),
    (("egf",), "1ac566e99e1ad1cde71398cafaecc0059c2f7799176d5f9788f9a6f74f287e4e"),
    (("norm",), "a7ad940384fded54671fcf0eb1e248dc57e2a5178ec149a6ae02bcce144bf1b9"),
    (
        ("moments", "--r", "2", "--s", "1", "--max", "2"),
        "2231a4626b23c661f3d4d596f2a58d28598fcb19f0df8e4d6670da3f11ea47c2",
    ),
    (
        ("moments", "--r", "2", "--s", "2", "--max", "4"),
        "7e3bd1f4a6a5a38dd84cfc76688473dcf8c98e8c7ab2b7341fcfd32d95516191",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_VERIFY_JSON, ids=[" ".join(argv) for argv, _ in PINNED_VERIFY_JSON]
)
def test_verify_json_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def printed_values(out, fmt):
    """The value column of a `stirling` or `bell` output, as decimal strings."""
    if fmt == "json":
        return [row["value"] for row in json.loads(out)["results"]]
    if fmt == "csv":
        return [row["value"] for row in csv.DictReader(io.StringIO(out))]
    return [line.split("value=")[1].split()[0] for line in out.splitlines() if "value=" in line]


def exact(text):
    # Decimal parses a decimal string of any length; int() of the string stops
    # at the interpreter's int-to-str digit limit.
    return int(Decimal(text))


@cache
def engine_bell(r, s, n):
    return sum(next(islice(monomial_power_rows(r, s), n - 1, None)))


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_values_past_the_int_digit_limit_print(capsys, fmt):
    # 2000! has 5,736 digits and B_{2,1}(n) passes 4,300 from n = 1,549 on.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "stirling", "--r", "2", "--s", "1", "--n", "2000", "--format", fmt)
    assert (code, err) == (0, "")
    assert exact(printed_values(out, fmt)[0]) == factorial(2000)
    code, out, err = run(capsys, "bell", "--r", "2", "--s", "1", "--max", "1560", "--format", fmt)
    assert (code, err) == (0, "")
    assert exact(printed_values(out, fmt)[-1]) == engine_bell(2, 1, 1560)
    assert sys.get_int_max_str_digits() == limit


def test_json_round_trips(capsys):
    code, out, _ = run(capsys, "bell", "--r", "2", "--s", "2", "--max", "6", "--format", "json")
    assert code == 0
    assert out.rstrip("\n") == json.dumps(json.loads(out), indent=2)
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["command"] == "bell"


def written(record, fmt):
    out = io.StringIO()
    record.write(fmt, out)
    return out.getvalue()


def reference_json(command, parameters, columns=(), results=(), checks=()):
    """The pure-Python indent=2 encoding that ``OutputRecord.write`` must match in json.

    An int cell is encoded as its decimal string.
    """
    check_rows = [{"name": c.name, "status": "pass" if c.ok else "fail", "detail": c.detail} for c in checks]
    record = {
        "schema": 1,
        "command": command,
        "parameters": parameters,
        "results": [{k: str(v) if type(v) is int else v for k, v in zip(columns, row)} for row in results],
        "checks": check_rows,
    }
    return json.dumps(record, indent=2) + "\n"


# Strings that can confuse a writer that frames rows in JSON by hand: quotes,
# backslashes, raw newlines, % (the row template's own marker), non-ASCII and
# the row boundary itself.
TRICKY = st.text(
    st.sampled_from(['"', "\\", "\n", "{", "}", ",", ":", " ", "%", "a", "\u00e9", "\u2603", "\U0001d11e"])
) | st.sampled_from(["", "},\n      {", '"},\n      {"', "{\n      \n    }"])
# Distinct column names, each of string or int cells (negative and past 64
# bits too), and rows of that many cells, one type down each column.
CELLS = {"str": TRICKY, "int": st.integers()}
TYPED_COLUMNS = st.lists(st.tuples(TRICKY, st.sampled_from(sorted(CELLS))), unique_by=lambda c: c[0], max_size=4)
SECTIONS = TYPED_COLUMNS.flatmap(
    lambda typed: st.tuples(
        st.just(tuple(name for name, _ in typed)),
        st.lists(st.tuples(*[CELLS[cell] for _, cell in typed]), max_size=12),
    )
)


@given(
    command=TRICKY,
    parameters=st.dictionaries(TRICKY, TRICKY, max_size=4),
    section=SECTIONS,
    checks=st.lists(st.builds(Check, TRICKY, st.booleans(), TRICKY), max_size=12),
)
@example(  # the rows bell hands over, and ints on both sides of a string column
    command="bell",
    parameters={"max": "2"},
    section=(("n", "value", "kind"), [(0, 1, "exact"), (1, -(2**80), '"%d"'), (10**30, 0, "")]),
    checks=[],
)
@example(command="", parameters={}, section=(("a", "b", "c"), [("%s", -5, "\u00e9")]), checks=[])
@settings(max_examples=300, deadline=None)
def test_to_json_matches_indented_json_dumps(command, parameters, section, checks):
    columns, results = section
    record = cli.OutputRecord(command, parameters, columns, results, checks)
    assert written(record, "json") == reference_json(command, parameters, columns, results, checks)


def test_to_json_of_empty_sections():
    for args in (
        ("bell", {}),
        ("bell", {}, (), [()], [Check("", True, "")]),
        ("bell", {"r": "1"}, ("n",), []),
    ):
        assert written(cli.OutputRecord(*args), "json") == reference_json(*args)


class WriteProbe:
    """A text stream that keeps only the length of each write."""

    def __init__(self):
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return len(text)

    def flush(self):
        pass


# What a format adds to one row's keys and values: quotes, separators,
# indentation and line breaks.
ROW_FRAME = 64


@pytest.mark.parametrize(
    "fmt, cell",
    [pytest.param(fmt, str, id=fmt) for fmt in ("plain", "json", "csv")]
    + [pytest.param(fmt, int, id=f"{fmt}-int") for fmt in ("plain", "json", "csv")],
)
def test_write_streams_one_row_at_a_time(fmt, cell):
    # Rows of strings, and rows of ints as bell and stirling hand them over.
    columns = ("n", "value", "kind")
    rows = [(cell(n), cell(7**n), "exact") for n in range(1000)]
    checks = [Check(f"check {n}", n % 2 == 0, f"detail {n}") for n in range(0, 1000, 100)]
    probe = WriteProbe()
    writes_before_draw = []

    def counting_rows():
        for row in rows:
            writes_before_draw.append(len(probe.lengths))
            yield row

    cli.OutputRecord("bell", {"max": "999"}, columns, counting_rows(), checks).write(fmt, probe)
    # Every row before the last is written by the time the last is drawn.
    assert len(writes_before_draw) == len(rows)
    assert writes_before_draw[-1] >= len(rows) - 1
    longest = max(sum(map(len, columns)) + sum(len(str(value)) for value in row) for row in rows)
    assert len(probe.lengths) > 1000
    assert max(probe.lengths) <= longest + ROW_FRAME


def test_main_streams_bell_rows(monkeypatch):
    probe = WriteProbe()
    monkeypatch.setattr(sys, "stdout", probe)
    assert main(["bell", "--r", "3", "--s", "1", "--max", "300"]) == 0
    longest = len(str(bell_sequence(3, 1, 300)[-1]))
    assert len(probe.lengths) > 300
    assert max(probe.lengths) <= longest + ROW_FRAME


class Sink:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("r, s, n", [(1, 1, 300), (2, 1, 1000), (3, 1, 1000)])
def test_bell_command_holds_no_sweep(monkeypatch, r, s, n):
    # The engine (r = s) and the Poisson shift at r = 2s and at d = 2, the
    # branches of bell_values.  The command holds what the iterator holds
    # and one row of output, a few times the last value's digits; the list
    # of the sweep would add 37 KB at (1, 1) and over 500 KB at the others.
    digits = len(str(bell_sequence(r, s, n)[-1]))
    iterator = traced_peak(lambda: deque(islice(bell_values(r, s), n + 1), maxlen=0))
    monkeypatch.setattr(sys, "stdout", Sink())
    argv = ["bell", "--r", str(r), "--s", str(s), "--max", str(n), "--format", "json"]
    command = traced_peak(lambda: main(argv))
    assert command <= iterator + 4 * digits + 4096


def test_bell_errors_come_before_the_first_byte(capsys):
    assert run(capsys, "bell", "--r", "1", "--s", "2", "--max", "3") == (
        2, "", "bosonkit: unsupported: (r, s) = (1, 2) not supported: need r >= s >= 1\n"
    )
    assert run(capsys, "bell", "--r", "2", "--s", "1", "--max", "-1") == (
        1, "", "bosonkit: error: --max must be >= 0\n"
    )


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
        # tol / 8 underflows to 0.0, which the series target cannot be.
        ("verify", "dobinski", "--tol", "1e-323"): "--tol 1e-323 is too small: its series target tol/8 underflows to 0",
        ("verify", "all", "--tol", "2e-323"): "--tol 2e-323 is too small: its series target tol/8 underflows to 0",
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
    # r < 1 or s < 1 is an unsupported family, as it is for `verify dobinski`.
    for r, s in (("3", "1"), ("3", "0"), ("0", "0"), ("-1", "-1")):
        code, out, err = run(capsys, "verify", "moments", "--r", r, "--s", s)
        assert code == 2, (r, s)
        assert out == ""
        assert err.startswith("bosonkit: unsupported: "), (r, s)


def test_printed_b5_flag_reports_divergence_as_failure(capsys):
    for limit in (("--max", "2"), ()):
        code, out, err = run(
            capsys, "verify", "dobinski", "--r", "2", "--s", "1", *limit, "--printed-b5"
        )
        assert code == 3
        assert err == ""
        assert "diverges" in out


def test_import_loads_no_unused_stdlib_module():
    # dataclasses brings inspect, ast, dis and tokenize with it; csv serves
    # --format csv alone and loads when that format is written.  argparse
    # brings gettext, whose first message lookup loads locale; no command
    # needs any of the three.  Modules the interpreter's site set-up loaded
    # before bosonkit do not count.
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import bosonkit, bosonkit.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'csv', 'argparse'} & set(sys.modules) - before))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bosonkit.cli.main(['bell', '--r', '2', '--s', '1', '--max', '5'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "0 []"]


def test_bare_import_loads_no_heavy_stdlib_module():
    # Under -S no site hook preloads anything, so this sees what the package
    # itself loads, on any host.  typing brings re; the json package is
    # skipped by quoting with the C function in _json.
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    heavy = ["argparse", "csv", "dataclasses", "decimal", "fractions", "inspect", "json", "re", "typing"]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bosonkit, bosonkit.cli\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def exact_path_output(loaded: str, after: str = "") -> list[str]:
    """What a fresh interpreter prints of ``loaded`` along the exact path, then runs ``after``.

    The exact path imports bosonkit and its command line, runs every command
    that stays on integers and four certified series calls, and prints
    ``loaded`` (a Python expression) after the import, after each command
    with its exit code, and at the end.
    """
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        f"loaded = lambda: {loaded}\n"
        "import bosonkit, bosonkit.cli\n"
        "print(loaded())\n"
        "for argv in (['bell', '--r', '2', '--s', '1', '--max', '5'],\n"
        "             ['stirling', '--r', '2', '--s', '1', '--n', '4'],\n"
        "             ['verify', 'dobinski'], ['verify', 'egf'], ['verify', 'norm'],\n"
        "             ['verify', 'norm', '--r', '2', '--printed-sign']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = bosonkit.cli.main(argv)\n"
        "    print(code, loaded())\n"
        "bosonkit.dobinski_classic(30), bosonkit.bell_hypergeometric(2, 1, 5)\n"
        "bosonkit.continuous_moment_series(1, 5), bosonkit.moment(bosonkit.dirac_comb(), 5)\n"
        "print(loaded())\n" + after
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_no_command_or_series_loads_fractions():
    # fractions brings decimal and the C module _decimal with it.  Series
    # carry exact ratios as integer pairs, and only egf_classic and egf_r1,
    # which return Fractions, load the module; no command calls them.
    lines = exact_path_output("sorted({'fractions', 'decimal'} & set(sys.modules) - before)")
    assert lines == ["[]", *[f"{c} []" for c in (0, 0, 0, 0, 0, 3)], "[]"]


def test_exact_path_loads_no_mpmath():
    # Enclosures hold Dyadic integers and print themselves, so only the
    # density's quadrature (and the closed-form mass beside it) loads mpmath.
    moments = (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bosonkit.cli.main(['verify', 'moments', '--r', '2', '--s', '1', '--max', '1'])\n"
        "print(code, loaded())\n"
    )
    lines = exact_path_output("sorted({name.partition('.')[0] for name in sys.modules} & {'mpmath'})", moments)
    assert lines == ["[]", *[f"{c} []" for c in (0, 0, 0, 0, 0, 3)], "[]", "0 ['mpmath']"]


def test_missing_mpmath_is_one_error_line():
    # Under a Python without mpmath, each suite that reaches the density or
    # the closed-form mass exits 4 with one line and no traceback; the exact
    # suites run as before.
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blocked = "import sys\nsys.modules['mpmath'] = None\nfrom bosonkit.cli import console_main\nconsole_main()\n"

    def run_blocked(*argv):
        command = [sys.executable, "-c", blocked, *argv]
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)

    message = "mpmath is not installed; the density and the closed-form mass need it"
    for argv in (
        ("verify", "moments", "--r", "1", "--s", "1", "--max", "2"),
        ("verify", "moments", "--r", "2", "--s", "1", "--max", "1"),
        ("verify", "all", "--max", "1"),
    ):
        result = run_blocked(*argv)
        assert (result.returncode, result.stdout) == (4, ""), argv
        assert result.stderr == f"bosonkit: failed: MissingDependencyError: {message}\n", argv
    assert run_blocked("verify", "dobinski").returncode == 0


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
    assert record["results"] == []
    assert not any(c["name"].startswith("normalization order") for c in record["checks"])
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


def test_moments_mass_passes_at_sixteen_bits(capsys):
    # The mass reference is a closed form at a fixed precision, so a low
    # --bits does not loosen it into a failure.
    code, record = json_record(
        capsys, "verify", "moments", "--r", "2", "--s", "1", "--max", "1", "--bits", "16"
    )
    assert code == 0
    assert [c["name"] for c in record["checks"]] == [
        "(2,1) moment n=1",
        "(2,1) mass",
        "(2,1) series vs quadrature n=1",
        "(2,1) positivity sample",
    ]
    assert all(c["status"] == "pass" for c in record["checks"])


def test_density_positivity_is_a_failed_check(capsys, monkeypatch):
    # One far-tail node of the density negated: it moves no moment past the
    # tolerance, so only the positivity check fails.
    evaluate = measures.ContinuousDensity.evaluate
    negated = []

    def one_negative(self, x, *args, **kwargs):
        w = evaluate(self, x, *args, **kwargs)
        if not negated and w.value < 1e-20:
            negated.append(x)
            return ErrorBoundedReal(-w.value, w.abs_error)
        return w

    monkeypatch.setattr(measures.ContinuousDensity, "evaluate", one_negative)
    code, out, err = run(capsys, "verify", "moments", "--r", "2", "--s", "1", "--max", "1")
    assert code == 3
    assert err == ""
    assert len(negated) == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL  (2,1) positivity sample")


def test_bad_atom_is_a_failed_check(capsys, monkeypatch):
    # Locations 1 and 2 of the Dirac comb swapped: a failed check, not an error.
    atoms = measures.DiscreteMeasure.atoms

    def swapped(self):
        return ((3 - x if x in (1, 2) else x, m) for x, m in atoms(self))

    monkeypatch.setattr(measures.DiscreteMeasure, "atoms", swapped)
    code, out, err = run(capsys, "verify", "moments", "--r", "1", "--s", "1", "--max", "1")
    assert code == 3
    assert err == ""
    assert "FAIL  (1,1) atom positivity: dirac-comb: locations not increasing at k=2" in out


def test_comb_moment_off_its_integer_is_a_failed_check(capsys, monkeypatch):
    # Comb moments scaled by 1 + 1e-10 stay within --tol 1e-9 of their Bell
    # numbers, but each certified enclosure excludes them.
    moment = measures.moment

    def scaled(measure, n, **kwargs):
        value = moment(measure, n, **kwargs)
        return ErrorBoundedReal(value.value * (1 + mp.mpf(10) ** -10), value.abs_error)

    monkeypatch.setattr(measures, "moment", scaled)
    code, out, err = run(capsys, "verify", "moments", "--r", "1", "--s", "1")
    assert code == 3
    assert err == ""
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fails] == [f"FAIL  (1,1) moment n={n}" for n in range(1, 6)]


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


@pytest.mark.parametrize(
    "stdout, max_n",
    [("closed pipe", "3"), ("closed pipe", "1500"), ("/dev/full", "3"), ("/dev/full", "1500")],
)
def test_stdout_write_failure_is_one_error_line(stdout, max_n):
    # With stdout buffered, as it is by default, the output at max 3 fits the
    # buffer and fails at the flush; at max 1500 it fails mid-output.
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if stdout == "closed pipe":
        read_end, fd = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte
        reason = os.strerror(errno.EPIPE)
    elif os.path.exists(stdout):
        fd = os.open(stdout, os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    else:
        pytest.skip(f"no {stdout} on this platform")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "bosonkit", "bell", "--r", "3", "--s", "1", "--max", max_n],
            stdout=fd, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(fd)
    assert result.returncode == 1
    assert result.stderr == f"bosonkit: error: cannot write <stdout>: {reason}\n"


def test_interrupt_is_one_line_and_exit_130():
    # Ctrl-C mid-output: the rows already written stay written, and the
    # console entry point reports the interrupt on one line, with no traceback.
    # A runner may start tests with SIGINT ignored, which Python then keeps, so
    # the child installs the handler an interactive shell would leave in place.
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import signal\nsignal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "from bosonkit.cli import console_main\nconsole_main()\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", code, "bell", "--r", "1", "--s", "1", "--max", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path), text=True,
    )
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        first = child.stdout.readline()
        child.send_signal(signal.SIGINT)
        out, err = first + child.stdout.read(), child.stderr.read()
        child.wait()
    finally:
        watchdog.cancel()
        child.kill()
        child.stdout.close()
        child.stderr.close()
    assert out.startswith("command: bell\nparameters: r=1 s=1 max=5000\n  n=0 value=1 kind=exact\n")
    assert "n=5000 " not in out
    assert child.returncode == 130  # an uncaught KeyboardInterrupt ends the child by SIGINT: -2
    assert err == "bosonkit: interrupted\n"


def test_main_lets_an_interrupt_propagate(monkeypatch):
    # Only the console entry point turns Ctrl-C into exit 130; a caller of main gets the interrupt.
    def interrupted(argv):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_parse", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["bell", "--r", "1", "--s", "1", "--max", "3"])


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


def test_dobinski_past_the_bits_ceiling_passes(capsys):
    # B(700) > 2^4192: its quotient by e needs more bits than --bits allows.
    code, out, _ = run(capsys, "verify", "dobinski", "--r", "1", "--s", "1", "--max", "700")
    assert code == 0
    assert "summary: 700/700 checks passed" in out


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


def test_moments_tol_below_the_quadrature_exits_four(capsys, monkeypatch):
    # Not a usage error: how far the quadrature reaches depends on the family
    # and --max.  The node enclosures alone put this one's error near 4e-62,
    # which level 2 already shows, so it stops there: 37 density values, not
    # the 2,377 of all eight levels.
    evaluate = measures.ContinuousDensity.evaluate
    calls = []
    monkeypatch.setattr(
        measures.ContinuousDensity, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k)
    )
    code, out, err = run(capsys, "verify", "moments", "--r", "2", "--s", "1", "--max", "1", "--tol", "1e-300")
    assert code == 4
    assert out == ""
    assert err == "bosonkit: failed: PrecisionExhaustedError: quadrature error 4.5334e-62 exceeds target 1e-300\n"
    assert len(calls) < 100


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
    code, out, _ = run(capsys, "verify", "moments", "--r", "1", "--s", "1", "--max", "2", "--format", "csv")
    assert code == 0
    sections = out.split("\n\n")
    assert len(sections) == 2
    results = list(csv.DictReader(io.StringIO(sections[0])))
    assert results == [{"family": "(1,1)", "measure": "dirac-comb", "kind": "exact"}]
    checks = list(csv.DictReader(io.StringIO(sections[1])))
    assert {c["status"] for c in checks} == {"pass"}
    # verify egf fills no results, so it prints the checks table alone.
    code, out, _ = run(capsys, "verify", "egf", "--format", "csv")
    assert code == 0
    assert "\n\n" not in out
    assert out.startswith("name,status,detail\n")


def test_csv_header_is_first_row_keys():
    # The columns a section is given head its table, in their order; a section
    # without columns, such as checks when there are none, is left out.
    record = cli.OutputRecord("bell", {}, ("n", "value", "kind"), [("0", "1", "exact"), ("1", "1", "exact")])
    rows = list(csv.reader(io.StringIO(written(record, "csv"))))
    assert rows == [["n", "value", "kind"], ["0", "1", "exact"], ["1", "1", "exact"]]


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


# Usage errors keep the words argparse gave them, so scripts that match on
# them keep working.
ARGPARSE_MESSAGES = [
    (("stirling", "--r", "1"), "the following arguments are required: --s, --n"),
    (("bell", "--r", "1"), "the following arguments are required: --s, --max"),
    (("verify",), "the following arguments are required: suite"),
    ((), "the following arguments are required: command"),
    (("bell", "--r", "1", "--s", "1", "--max", "3", "--bogus"), "unrecognized arguments: --bogus"),
    (("verify", "dobinski", "--n", "3", "egf"), "unrecognized arguments: --n 3 egf"),
    (("bell", "--r", "x", "--s", "1", "--max", "3"), "argument --r: invalid int value: 'x'"),
    (("verify", "dobinski", "--tol", "abc"), "argument --tol: invalid float value: 'abc'"),
    (
        ("bell", "--r", "1", "--s", "1", "--max", "3", "--format", "xml"),
        "argument --format: invalid choice: 'xml' (choose from 'plain', 'json', 'csv')",
    ),
    (
        ("verify", "nosuchsuite"),
        "argument suite: invalid choice: 'nosuchsuite' (choose from 'dobinski', 'egf', 'norm', 'moments', 'all')",
    ),
    (("nosuchcommand",), "argument command: invalid choice: 'nosuchcommand' (choose from 'stirling', 'bell', 'verify')"),
    (("bell", "--s", "1", "--max", "3", "--r"), "argument --r: expected one argument"),
    (("bell", "--r", "--s", "1", "--max", "3"), "argument --r: expected one argument"),
]


@pytest.mark.parametrize("argv, message", ARGPARSE_MESSAGES, ids=[" ".join(a) or "no-arguments" for a, _ in ARGPARSE_MESSAGES])
def test_usage_messages_keep_argparse_wording(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"bosonkit: error: {message}\n")


def test_help_anywhere_prints_one_usage_text(capsys):
    texts = set()
    for argv in (("--help",), ("-h",), ("bell", "--help"), ("verify", "--r", "x", "-h"), ("nosuchcommand", "-h")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        texts.add(out)
    (text,) = texts
    assert text.startswith("usage: bosonkit stirling --r R --s S --n N")
    assert run(capsys)[0] == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("bell", "--r", "1", "--s", "1", "--max", "2", "--r", "2"), "--r"),
        (("bell", "--r=1", "--s", "1", "--max", "2", "--r", "1"), "--r"),
        (("stirling", "--r", "1", "--s", "1", "--n", "2", "--format", "json", "--format=csv"), "--format"),
        (("verify", "norm", "--printed-sign", "--r", "2", "--printed-sign"), "--printed-sign"),
    ],
)
def test_flag_given_twice_is_a_usage_error(capsys, argv, flag):
    # The parser once kept the last value and dropped the others silently.
    assert run(capsys, *argv) == (1, "", f"bosonkit: error: argument {flag}: given more than once\n")


@pytest.mark.parametrize("out", [("--out", ""), ("--out=",)])
def test_empty_out_is_a_usage_error(capsys, tmp_path, monkeypatch, out):
    # An empty file name once sent the output to stdout instead.
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "bell", "--r", "1", "--s", "1", "--max", "2", *out)
    assert (code, stdout, err) == (1, "", "bosonkit: error: argument --out: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


# One call per command: its flags as (name, value) pairs, the verify suite
# as None, which the parser places wherever it falls among them.
FLAG_ORDERS = {
    "stirling": [("--r", "3"), ("--s", "2"), ("--n", "5"), ("--format", "json")],
    "bell": [("--r", "2"), ("--s", "1"), ("--max", "6"), ("--format", "csv")],
    "verify": [(None, "norm"), ("--r", "2"), ("--order", "3"), ("--printed-sign", None), ("--format", "json")],
}


@given(
    command=st.sampled_from(sorted(FLAG_ORDERS)),
    order=st.permutations(range(5)),
    joined=st.lists(st.booleans(), min_size=5, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_flag_order_and_form_do_not_change_output(command, order, joined):
    # capsys is not reset between Hypothesis examples, so each call captures its own.
    def output(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *argv])
        return code, out.getvalue(), err.getvalue()

    flags = FLAG_ORDERS[command]
    argv = []
    for i in (i for i in order if i < len(flags)):
        name, value = flags[i]
        if name is None or value is None:
            argv.append(name or value)
        elif joined[i]:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    canonical = [a for name, value in flags for a in (name, value) if a is not None]
    assert output(argv) == output(canonical)


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
        ("verify", "moments", "--max", "2"),
        ("verify", "all", "--max", "1"),
    ],
)
def test_check_rows_share_one_shape(capsys, argv):
    _, record = json_record(capsys, *argv)
    assert len({tuple(row) for row in record["results"]}) <= 1
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
