"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The printed lines bypass capture so a plain ``pytest -v`` run shows the
verdict for every criterion even when everything passes.
"""

import json
import random
from itertools import islice
from math import factorial

from bosonkit.cli import main
from bosonkit.dobinski import (
    bell_hypergeometric,
    dobinski_classic,
    dobinski_rr,
    dobinski_rs,
    dobinski_rs_literal,
)
from bosonkit.errors import DivergentSeriesError
from bosonkit.genfunc import egf_classic, egf_r1, verify_normal_exponential
from bosonkit.measures import verify_moments
from bosonkit.operator_algebra import (
    ANNIHILATE,
    CREATE,
    MonomialSpec,
    NormalForm,
    monomial_power_rows,
    multiply,
    normal_order_word,
)
from bosonkit.stirling import bell, lah, stirling_rr_closed, stirling_table
from test_operator_algebra import coherent_expectation

BELL_CLASSIC = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def report(capsys, index, ok, note):
    with capsys.disabled():
        print(f"ACCEPTANCE {index:2d} {'PASS' if ok else 'FAIL'}  {note}")
    assert ok, f"criterion {index}: {note}"


def oracle(r, s, n):
    return bell(MonomialSpec(r, s, n))


def test_acceptance_01_oracle_self_consistency(capsys):
    rng = random.Random(20250814)
    ok = True
    for _ in range(200):
        raw = [rng.choice((CREATE, ANNIHILATE)) for _ in range(rng.randint(0, 24))]
        by_rewriting = normal_order_word(raw)
        by_contraction = NormalForm({(0, 0): 1})
        for letter in raw:
            factor = NormalForm({(1, 0) if letter is CREATE else (0, 1): 1})
            by_contraction = multiply(by_contraction, factor)
        if by_rewriting != by_contraction:
            ok = False
            break
    report(capsys, 1, ok, "rewriting vs contraction rule on 200 random words (len <= 24)")


def test_acceptance_02_classical_collapse(capsys):
    # At z = 1 the coherent-state element of the rewritten word (a+ a)^n is
    # B(n).
    by_rewriting = [
        coherent_expectation(normal_order_word([CREATE, ANNIHILATE] * n), 1)
        for n in range(11)
    ]
    dispatched = [oracle(1, 1, n) for n in range(11)]
    ok = by_rewriting == dispatched == BELL_CLASSIC
    for n in range(1, 8):
        # S(n, 0) = 0 for n >= 1, and S(n, n + 1) = 0 pads the shorter row.
        row = stirling_table(MonomialSpec(1, 1, n)) + [0]
        nxt = stirling_table(MonomialSpec(1, 1, n + 1))
        for k in range(1, n + 2):
            ok = ok and nxt[k] == k * row[k] + row[k - 1]
    report(capsys, 2, ok, "bell(1,1,0..10) frozen row, rewriting to n=10, classical triangle recurrence")


def test_acceptance_03_closed_form_equivalence(capsys):
    ok = True
    for r in (1, 2, 3):
        for n, row in enumerate(islice(monomial_power_rows(r, r), 5), start=1):
            for k in range(r, r * n + 1):
                ok = ok and stirling_rr_closed(r, n, k) == row[k]
    for n, row in enumerate(islice(monomial_power_rows(2, 1), 10), start=1):
        word = dict(normal_order_word([CREATE, CREATE, ANNIHILATE] * n).items())
        for k in range(1, n + 1):
            ok = ok and lah(n, k) == row[k] == word[(n + k, k)]
    report(capsys, 3, ok, "stirling_rr_closed (r<=3, n<=5) vs contraction engine; lah (n<=10) vs engine and rewriting")


def test_acceptance_04_dobinski_classic(capsys):
    ok = True
    for n in range(1, 11):
        value = dobinski_classic(n)
        ok = ok and value.to_integer() == BELL_CLASSIC[n] and float(value.abs_error) < 1e-6
    report(capsys, 4, ok, "dobinski_classic(n<=10) rounds to bell(1,1,n), abs_error < 1e-6")


def test_acceptance_05_dobinski_generalized(capsys):
    ok = True
    for r in (1, 2, 3):
        for n in range(1, 5):
            value = dobinski_rr(r, n)
            ok = ok and value.to_integer() == oracle(r, r, n) and float(value.abs_error) < 1e-6
    for r, s in ((2, 1), (3, 1), (3, 2)):
        for n in range(1, 6):
            value = dobinski_rs(r, s, n)
            ok = ok and value.to_integer() == oracle(r, s, n) and float(value.abs_error) < 1e-6
        flagged = False
        try:
            dobinski_rs_literal(r, s, 2)
        except DivergentSeriesError:
            flagged = True
        ok = ok and flagged
    report(capsys, 5, ok, "dobinski_rr/_rs round to the oracle; uncorrected variant flagged divergent")


def test_acceptance_06_hypergeometric_family(capsys):
    ok = True
    for n in range(1, 5):
        value = bell_hypergeometric(1, 1, n)
        target = oracle(2, 1, n)
        # to_integer returns the target only if the enclosure contains it.
        ok = ok and value.to_integer() == target
    report(capsys, 6, ok, "bell_hypergeometric(1,1,n<=4) matches bell(2,1,n) within bounds")


def test_acceptance_07_egf_identities(capsys):
    ok = True
    classic = egf_classic(8)
    for n in range(9):
        ok = ok and classic[n] * factorial(n) == oracle(1, 1, n)
    for r in (2, 3):
        series = egf_r1(r, 6)
        for n in range(7):
            ok = ok and series[n] * factorial(n) == oracle(r, 1, n)
        printed = egf_r1(r, 4, printed_sign=True)
        mismatch = next(
            (n for n in range(5) if printed[n] * factorial(n) != oracle(r, 1, n)), None
        )
        ok = ok and mismatch is not None and mismatch <= 2
    report(capsys, 7, ok, "EGF coefficients exact; printed exponent sign fails by order 2")


def test_acceptance_08_normal_ordered_exponential(capsys):
    ok = all(verify_normal_exponential(r, 5).ok for r in (1, 2, 3))
    report(capsys, 8, ok, "operator exponential identity exact through order 5, r in {1,2,3}")


def test_acceptance_09_moments(capsys):
    ok = True
    for r, s, n_max in ((1, 1, 5), (2, 2, 4), (2, 1, 5)):
        report_obj = verify_moments(r, s, n_max, tol=1e-9)
        ok = ok and all(c.ok for c in report_obj.checks)
        names = [c.name for c in report_obj.checks]
        ok = ok and "mass" in names
        if (r, s) == (2, 1):
            ok = ok and "positivity sample" in names
    report(capsys, 9, ok, "verify_moments at tol=1e-9 for (1,1), (2,2), (2,1) incl. mass and positivity")


def test_acceptance_10_cli_contract(capsys):
    code_a = main(["verify", "dobinski", "--r", "2", "--s", "1", "--max", "5"])
    code_b = main(["verify", "norm", "--r", "2", "--order", "5"])
    code_c = main(["verify", "norm", "--r", "2", "--order", "3", "--printed-sign"])
    capsys.readouterr()
    code_d = main(["bell", "--r", "2", "--s", "1", "--max", "6", "--format", "json"])
    json_text = capsys.readouterr().out
    round_trip = json.dumps(json.loads(json_text), indent=2) == json_text.rstrip("\n")
    ok = (code_a, code_b, code_c, code_d) == (0, 0, 3, 0) and round_trip
    report(capsys, 10, ok, "cmd_verify exit codes 0/0/3 and JSON round-trip")
