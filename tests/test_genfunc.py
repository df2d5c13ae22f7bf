"""Generating functions, operator exponentials, and the normalization order."""

from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from bosonkit import genfunc
from bosonkit.errors import OutOfRangeError, UnsupportedError
from bosonkit.genfunc import (
    _exp_rows,
    _row_str,
    egf_classic,
    egf_r1,
    egf_row_sums,
    select_normalization_order,
    verify_normal_exponential,
)
from bosonkit.operator_algebra import MonomialSpec, format_terms, monomial_power_rows
from bosonkit.stirling import bell, bell_sequence


def egf_row(series):
    """n! times the coefficients, the integer sequence the EGF encodes."""
    return [int(c * factorial(n)) for n, c in enumerate(series)]


def test_egfs_are_tuples_of_fractions():
    for series in (egf_classic(4), egf_r1(2, 4), egf_r1(3, 4, printed_sign=True)):
        assert isinstance(series, tuple) and len(series) == 5
        assert all(isinstance(c, Fraction) for c in series)
    assert egf_classic(0) == (Fraction(1),)
    assert egf_classic(3) == (1, 1, 1, Fraction(5, 6))


def test_r1_frozen_rows():
    assert egf_row(egf_r1(2, 6)) == [1, 1, 3, 13, 73, 501, 4051]
    assert egf_row(egf_r1(3, 6)) == [1, 1, 4, 25, 211, 2236, 28471]


def test_printed_sign_breaks_at_first_order():
    for r in (2, 3):
        got = egf_row(egf_r1(r, 4, printed_sign=True))
        targets = [bell(MonomialSpec(r, 1, n)) for n in range(5)]
        mismatch = next(n for n in range(5) if got[n] != targets[n])
        assert mismatch <= 2


def test_egf_validation():
    with pytest.raises(OutOfRangeError):
        egf_r1(1, 4)
    with pytest.raises(OutOfRangeError):
        egf_r1(2, -1)
    with pytest.raises(OutOfRangeError):
        egf_classic(-1)


def generalized_binomial(alpha, m):
    result = Fraction(1)
    for i in range(m):
        result = result * (alpha - i) / (i + 1)
    return result


def reference_rows(r, order, printed_sign):
    """The Taylor-coefficient recurrence in Fractions, apart from g's differential equation.

    F_m[j] is the coefficient of (a+ a)^j lam^m in exp{a+ a g}, built from
    m F_m = y sum_i i g_i F_(m-i) with g_i read off the generalized binomial
    (or e^(+-x) at r = 1).
    """
    if r == 1:
        g = [Fraction((-1 if printed_sign else 1) ** m, factorial(m)) for m in range(1, order + 1)]
    else:
        alpha = Fraction(1 if printed_sign else -1, r - 1)
        g = [generalized_binomial(alpha, m) * (1 - r) ** m for m in range(1, order + 1)]
    rows = [[Fraction(1)]]
    for m in range(1, order + 1):
        acc = [Fraction(0)] * (m + 1)
        for i, g_i in enumerate(g[:m], start=1):
            for j, c in enumerate(rows[m - i]):
                acc[j + 1] += i * g_i * c
        rows.append([c / m for c in acc])
    return rows


@pytest.mark.parametrize("printed_sign", [False, True])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_integer_recurrence_matches_fraction_reference(r, printed_sign):
    expected = reference_rows(r, 20, printed_sign)
    for order in (0, 1, 7, 20):
        if r >= 2:
            series = egf_r1(r, order, printed_sign=printed_sign)
        elif not printed_sign:
            series = egf_classic(order)
        else:
            continue  # egf_classic has no printed variant
        assert series == tuple(sum(row) for row in expected[: order + 1])
        assert all(isinstance(c, Fraction) for c in series)
    rows = list(_exp_rows(r, 20, printed_sign))
    assert [[Fraction(c, factorial(m)) for c in row] for m, row in enumerate(rows)] == expected
    assert egf_row_sums(r, 20, printed_sign) == list(map(sum, rows))
    engine = list(islice(monomial_power_rows(r, 1), 20))
    scaled = [[c * factorial(m) for c in expected[m]] for m in range(1, 21)]
    assert (engine == scaled) == (not printed_sign)
    assert verify_normal_exponential(r, 20, printed_sign=printed_sign).ok == (not printed_sign)


@pytest.mark.parametrize("printed_sign", [False, True])
def test_mismatch_rows_print_like_fractions(printed_sign):
    # A row of m! times the coefficients prints each as str(Fraction(c, m!)).
    for r in (1, 2, 3):
        for m, row in enumerate(_exp_rows(r, 9, printed_sign)):
            want = format_terms((((r - 1) * m + j, j), Fraction(c, factorial(m))) for j, c in enumerate(row))
            assert _row_str(r, m, row) == want, (r, m)


def test_operator_exponential_identity_holds():
    for r, order in ((1, 5), (2, 5), (3, 5), (4, 12), (1, 120), (3, 120)):
        check = verify_normal_exponential(r, order)
        assert check.ok
        assert check.name == f"normal-ordered exponential r={r} order<={order}"
        assert f"match through order {order}" in check.detail


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 4, 8])
def test_a_wrong_engine_entry_fails_at_its_order(monkeypatch, r, m):
    # At r = 1 the expansion takes the engine's own step, so the check must
    # still read the engine's rows, not a second copy of its own.
    real = genfunc.monomial_power_rows

    def tampered(r_, s_):
        for n, row in enumerate(real(r_, s_), start=1):
            if n == m:
                row = [*row[:-1], row[-1] + 1]
            yield row

    monkeypatch.setattr(genfunc, "monomial_power_rows", tampered)
    check = verify_normal_exponential(r, 8)
    assert not check.ok
    assert check.detail.startswith(f"r={r}: mismatch at order {m}; ")


def test_huge_r_tables_only_the_weights_a_row_can_reach():
    # r = 100000 has r + 1 binomial weights per row, but rows of order <= 3
    # reach only the first four.
    assert verify_normal_exponential(100000, 3).ok
    assert not verify_normal_exponential(100000, 3, printed_sign=True).ok


def test_operator_exponential_printed_sign_fails_immediately():
    for r, first in ((1, "a+ a"), (2, "a+^2 a"), (3, "a+^3 a")):
        for order in (3, 5):
            check = verify_normal_exponential(r, order, printed_sign=True)
            assert not check.ok
            assert check.name.endswith("(printed sign)")
            # Only the sign of the order-1 coefficient differs.
            assert check.detail == (
                f"r={r}: mismatch at order 1; normal ordering gives {first}, "
                f"double-dot expansion gives -1 {first}"
            )


def test_operator_exponential_validation():
    with pytest.raises(OutOfRangeError):
        verify_normal_exponential(0, 3)
    with pytest.raises(OutOfRangeError):
        verify_normal_exponential(2, 0)


def test_normalization_order_is_s_minus_one():
    for r in range(1, 6):
        for s in range(1, r + 1):
            assert select_normalization_order(r, s) == s - 1
    for r, s in ((1, 2), (3, 0), (0, 0)):
        with pytest.raises(UnsupportedError):
            select_normalization_order(r, s)
    with pytest.raises(TypeError):
        select_normalization_order(2.0, 1)


@pytest.mark.parametrize("r, s", [(3, 1), (4, 2)])
def test_growth_ratio_falls_toward_d_to_the_s(r, s):
    # rho_n = B(n+1) / ((n+1)^s B(n)) -> d^s puts the radius of
    # sum B(n) x^n / (n!)^s at d^-s; s = 1 and r = 2s are the proved cases.
    values = bell_sequence(r, s, 2001)
    limit = (r - s) ** s
    rho = [Fraction(values[n + 1], (n + 1) ** s * values[n]) for n in (100, 400, 2000)]
    assert rho[0] > rho[1] > rho[2] > limit
    assert rho[2] < Fraction(105, 100) * limit
