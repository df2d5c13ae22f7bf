"""Formal power series, operator exponentials, and the growth-rate heuristic."""

from fractions import Fraction
from math import factorial

import pytest

from bosonkit.errors import InconclusiveError, OutOfRangeError
from bosonkit.genfunc import (
    FormalSeries,
    _choose_t,
    _double_dot_exponential_series,
    egf_classic,
    egf_r1,
    select_normalization_order,
    verify_normal_exponential,
)
from bosonkit.operator_algebra import MonomialSpec
from bosonkit.stirling import bell


def egf_row(series):
    """n! times the coefficients, the integer sequence the EGF encodes."""
    return [int(c * factorial(n)) for n, c in enumerate(series.coeffs)]


def test_formal_series_basics():
    s = FormalSeries([1, 2, 3])
    assert s.order == 2
    assert s[1] == 2
    assert s.coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert s == FormalSeries([Fraction(1), Fraction(2), Fraction(3)])
    assert hash(s) == hash(FormalSeries([1, 2, 3]))
    with pytest.raises(ValueError):
        FormalSeries([])


def test_formal_series_arithmetic_truncates_to_shorter():
    a = FormalSeries([1, 1, 1, 1])
    b = FormalSeries([0, 1])
    assert (a + b).coeffs == (Fraction(1), Fraction(2))
    assert (a - b).order == 1
    assert (a * b).coeffs == (Fraction(0), Fraction(1))
    assert (2 * a)[3] == 2


def test_exp_log_style_recurrence():
    # exp(lam) built from the series lam agrees with the closed coefficients.
    lam = FormalSeries([0, 1, 0, 0, 0, 0])
    assert lam.exp() == FormalSeries.exp_lambda(5)
    with pytest.raises(ValueError):
        FormalSeries([1, 1]).exp()


def test_binomial_series_geometric_case():
    # (1 - lam)^(-1) = 1 + lam + lam^2 + ...
    s = FormalSeries.one_minus_c_lambda_pow(1, -1, 8)
    assert s.coeffs == tuple(Fraction(1) for _ in range(9))


def test_classic_egf_encodes_bell_numbers():
    targets = [int(bell(MonomialSpec(1, 1, n))) for n in range(9)]
    assert egf_row(egf_classic(8)) == targets


def test_r1_egf_encodes_generalized_bell_numbers():
    for r in (2, 3):
        targets = [int(bell(MonomialSpec(r, 1, n))) for n in range(7)]
        assert egf_row(egf_r1(r, 6)) == targets


def test_r1_frozen_rows():
    assert egf_row(egf_r1(2, 6)) == [1, 1, 3, 13, 73, 501, 4051]
    assert egf_row(egf_r1(3, 6)) == [1, 1, 4, 25, 211, 2236, 28471]


def test_printed_sign_breaks_at_first_order():
    for r in (2, 3):
        got = egf_row(egf_r1(r, 4, printed_sign=True))
        targets = [int(bell(MonomialSpec(r, 1, n))) for n in range(5)]
        mismatch = next(n for n in range(5) if got[n] != targets[n])
        assert mismatch <= 2


def test_egf_validation():
    with pytest.raises(OutOfRangeError):
        egf_r1(1, 4)
    with pytest.raises(OutOfRangeError):
        egf_r1(2, -1)
    with pytest.raises(OutOfRangeError):
        egf_classic(-1)


def test_operator_exponential_identity_holds():
    for r in (1, 2, 3):
        check = verify_normal_exponential(r, 5)
        assert check.ok
        assert check.name == f"normal-ordered exponential r={r} order<=5"
        assert "match through order 5" in check.detail


def test_operator_exponential_printed_sign_fails_immediately():
    for r in (1, 2, 3):
        check = verify_normal_exponential(r, 5, printed_sign=True)
        assert not check.ok
        assert check.name.endswith("(printed sign)")
        assert "mismatch at order 1" in check.detail
        # Only the sign of the order-1 coefficient differs.
        lhs, rhs = check.detail.split("normal ordering gives ")[1].split(", double-dot expansion gives ")
        assert rhs == "-1 " + lhs


def test_operator_exponential_validation():
    with pytest.raises(OutOfRangeError):
        verify_normal_exponential(0, 3)
    with pytest.raises(OutOfRangeError):
        verify_normal_exponential(2, 0)


def test_coherent_diagonal_of_double_dot_recovers_egf():
    # Substituting a+ -> 1, a -> 1 in the double-dot expansion collapses the
    # operator identity onto the scalar generating function.
    def diagonal(r):
        ops = _double_dot_exponential_series(r, 6, False)
        return [sum(poly.values(), Fraction(0)) for poly in ops]

    for r in (2, 3):
        assert diagonal(r) == list(egf_r1(r, 6).coeffs)
    assert diagonal(1) == list(egf_classic(6).coeffs)


def test_growth_heuristic_on_synthetic_data():
    assert _choose_t([factorial(n) ** 2 for n in range(12)]) == 1
    assert _choose_t([factorial(n) for n in range(12)]) == 0
    assert _choose_t([2**n for n in range(12)]) == 0
    hyper = [1]
    for n in range(10):
        hyper.append(hyper[-1] * 2 ** (2**n))
    with pytest.raises(InconclusiveError):
        _choose_t(hyper)
    with pytest.raises(OutOfRangeError):
        _choose_t([1, 1, 2, 5, 15, 52])


def test_normalization_order_per_family():
    assert select_normalization_order(1, 1, 10) == 0
    assert select_normalization_order(2, 1, 8) == 0
    assert select_normalization_order(2, 2, 8) == 1
    with pytest.raises(OutOfRangeError):
        select_normalization_order(1, 1, 5)
