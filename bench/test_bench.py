"""Tests of the benchmark's own code: python3 -m pytest bench

The references must agree with each other where their ranges overlap, and
the metrics the benchmark prints must be the ones BENCHMARK.json declares.
"""

import json
from math import comb, factorial
from pathlib import Path

import pytest

import references
import run
import workloads

FAMILIES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3)]


def test_bell_triangle_matches_explicit_sum():
    assert references.bell_triangle(10)[1:] == [sum(references.stirling_row(1, 1, n)) for n in range(1, 11)]
    assert references.bell_triangle(6) == [1, 1, 2, 5, 15, 52, 203]


def test_lah_matches_explicit_sum():
    for n in range(1, 11):
        assert references.lah_row(n) == references.stirling_row(2, 1, n)


@pytest.mark.parametrize("r,s", FAMILIES)
def test_bell_sweep_matches_row_sums(r, s):
    rows = [sum(references.stirling_row(r, s, n)) for n in range(1, 7)]
    assert references.bell_sweep(r, s, 6) == [1] + rows
    assert references.bell_numbers(r, s, 6) == [1] + rows


@pytest.mark.parametrize("r,s", FAMILIES)
def test_fock_action_matches_explicit_sum(r, s):
    for n in range(1, 4):
        word = ("c" * r + "a" * s) * n
        row = references.stirling_row(r, s, n)
        expected = {(n * (r - s) + k, k): c for k, c in zip(range(s, n * s + 1), row)}
        assert references.fock_normal_form(word) == expected


def test_fock_action_on_ladder_words():
    # a^m a+^m = sum_l C(m, l)^2 l! a+^(m-l) a^(m-l)
    for m in range(6):
        expected = {(m - l, m - l): comb(m, l) ** 2 * factorial(l) for l in range(m + 1)}
        assert references.fock_normal_form("a" * m + "c" * m) == expected


def test_random_words_depend_on_seed_only():
    def words(seed):
        return next(op.spec["words"] for op in workloads.sweep(seed) if op.name == "random-words")

    assert words(7) == words(7) != words(8)
    assert all(workloads._inversions(w) == workloads.SWEEP_WORD_INVERSIONS for w in words(7))


def test_printed_metrics_are_declared():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    fake_pass = {
        "times": [0.5, 2.0],
        "peak_rss_kb": 2048,
        "trace": {
            "calls": dict.fromkeys(run.tracing.SPANS, 1),
            "self_s": dict.fromkeys(run.tracing.SPANS, 0.1),
            "counts": {"numeric.sum_with_tail_bound.terms": 3},
        },
    }
    e2e = run.end_to_end([fake_pass], [0.1])
    layers = run.per_layer([fake_pass])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
    assert e2e["solve_s"]["value"] == 2.5
    assert e2e["op_geomean_ms"]["value"] == pytest.approx(1000.0)


@pytest.mark.parametrize(
    "output",
    [{"exception": "RuntimeError: boom"}, {"rc": 1, "stdout": ""}, {"rc": 3, "stdout": "{}"}],
)
def test_sweep_counts_a_crash_as_wrong_not_failed(output):
    for op in workloads.sweep(1):
        if op.spec["kind"] == "cli" or "exception" in output:
            assert op.check(output) not in (workloads.OK, workloads.FAILED)


def test_pass_count_depends_on_seconds_only():
    assert run.pass_count("sweep", 40) == 8
    assert run.pass_count("series", 40) == 23
    assert run.pass_count("series", 1) == run.MIN_PASSES
