"""Moment measures: combs, the continuous Bessel-type density, quadrature."""

from fractions import Fraction
from itertools import count, islice, repeat

import mpmath
import pytest
from mpmath import mp

from bosonkit.dobinski import dobinski_classic, dobinski_rr
from bosonkit.errors import (
    DomainError,
    OutOfRangeError,
    UnsupportedFamilyError,
    UnsupportedMomentError,
)
from bosonkit.measures import (
    ContinuousDensity,
    DiscreteMeasure,
    bessel_i,
    continuous_moment_series,
    dirac_comb,
    moment,
    rarefied_comb,
    verify_moments,
    weight_2r_r,
)
from bosonkit.numeric import SeriesSpec
from bosonkit.operator_algebra import MonomialSpec
from bosonkit.stirling import bell


def oracle(r, s, n):
    return bell(MonomialSpec(r, s, n))


def atoms(measure, count):
    """First ``count`` atoms of a discrete measure as exact (location, e * weight) pairs."""
    return [(Fraction(x), Fraction(1, q)) for x, q in islice(measure._atoms(), count)]


def test_dirac_comb_atoms():
    assert atoms(dirac_comb(), 4) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(3), Fraction(1, 6)),
    ]
    dirac_comb().check_atoms(64)


def test_dirac_comb_mass_is_one():
    mass = dirac_comb().mass()
    assert abs(mass.value - 1) <= mass.abs_error
    assert mass.abs_error < 1e-12
    # n = 0 is a legitimate moment here precisely because the mass is 1.
    assert moment(dirac_comb(), 0).to_integer() == 1


def test_dirac_comb_moments_are_bell_numbers():
    comb = dirac_comb()
    for n in range(1, 9):
        assert moment(comb, n).to_integer() == oracle(1, 1, n)


def test_dirac_comb_moment_is_the_classic_dobinski_series():
    # The n-th moment of the comb and Dobinski's series for B(n) sum the
    # same exact terms k^n / k!, so their enclosures are identical.
    for n in (1, 10, 30):
        comb_value = moment(dirac_comb(), n)
        series_value = dobinski_classic(n)
        assert comb_value.value == series_value.value
        assert comb_value.abs_error == series_value.abs_error


def test_rarefied_comb_moment_is_the_rr_dobinski_series():
    # x_k^{n-1} / k! with x_k = (k+r)!/k! is the (r, r) Dobinski term at
    # k + r, after its r leading zeros, so both sum the same rational.
    for r in (1, 2, 3):
        for n in (1, 5, 20):
            comb_value = moment(rarefied_comb(r), n)
            series_value = dobinski_rr(r, n)
            assert comb_value.value == series_value.value
            assert comb_value.abs_error == series_value.abs_error


def test_rarefied_comb_r1_shifts_the_integer_comb():
    comb = rarefied_comb(1)
    locations = [x for x, _ in atoms(comb, 5)]
    assert locations == [Fraction(k + 1) for k in range(5)]
    for n in range(1, 6):
        assert moment(comb, n).to_integer() == oracle(1, 1, n)


def test_rarefied_comb_r2():
    comb = rarefied_comb(2)
    assert atoms(comb, 4) == [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(6), Fraction(1, 6)),
        (Fraction(12), Fraction(1, 24)),
        (Fraction(20), Fraction(1, 120)),
    ]
    for n in range(1, 5):
        assert moment(comb, n).to_integer() == oracle(2, 2, n)


def test_rarefied_comb_mass_below_one():
    # (1/e) sum_k 1/(k+1)! = (e-1)/e for r = 1.
    mass = rarefied_comb(1).mass()
    with mp.workprec(120):
        assert abs(mass.value - (mp.e - 1) / mp.e) <= mass.abs_error
    with pytest.raises(UnsupportedMomentError):
        moment(rarefied_comb(1), 0)


def test_check_atoms_rejects_bad_measures():
    flat = DiscreteMeasure(
        label="flat", unit_mass=False, _atoms=lambda: repeat((Fraction(1), Fraction(1)))
    )
    with pytest.raises(DomainError):
        flat.check_atoms(3)
    signed = DiscreteMeasure(
        label="signed", unit_mass=False, _atoms=lambda: zip(map(Fraction, count()), repeat(Fraction(-1)))
    )
    with pytest.raises(DomainError):
        signed.check_atoms(1)


def test_bessel_series_spot_values():
    assert bessel_i(0, 0).value == 1
    assert bessel_i(1, 0).value == 0
    one = bessel_i(1, 2)
    with mp.workprec(120):
        assert abs(one.value - mp.mpf("1.5906368546373290634")) <= one.abs_error + mp.mpf("1e-19")


def test_bessel_series_against_mpmath_grid():
    # mpmath's besseli is an implementation-independent reference here.
    for nu in range(4):
        for y in ("0.5", "2", "10.25"):
            ours = bessel_i(nu, mp.mpf(y))
            with mp.workprec(140):
                reference = mpmath.besseli(nu, mp.mpf(y))
                assert abs(ours.value - reference) <= ours.abs_error
            assert ours.abs_error < mp.mpf("1e-25") * max(1, abs(ours.value))


def test_bessel_guards():
    with pytest.raises(OutOfRangeError):
        bessel_i(-1, 2)
    with pytest.raises(DomainError):
        bessel_i(1, -2)
    with pytest.raises(OutOfRangeError):
        bessel_i(1, 2, target_error=0)


def test_density_spot_value_and_domain():
    w = weight_2r_r(1).evaluate(1)
    with mp.workprec(120):
        assert abs(w.value - mp.mpf("0.21526928924893765916")) <= w.abs_error + mp.mpf("1e-19")
    with pytest.raises(DomainError):
        weight_2r_r(1).evaluate(0)
    with pytest.raises(DomainError):
        weight_2r_r(1).evaluate(-3)
    with pytest.raises(OutOfRangeError):
        weight_2r_r(1).evaluate(1, target_error=0)
    with pytest.raises(OutOfRangeError):
        weight_2r_r(0)


def test_density_positive_at_extremes():
    density = weight_2r_r(1)
    for x in ("1e-6", "1e3"):
        w = density.evaluate(mp.mpf(x), target_error=1e-40, bits=128)
        assert w.value - w.abs_error > 0


def test_quadrature_moments_match_oracle():
    density = weight_2r_r(1)
    for n in range(1, 6):
        got = moment(density, n)
        assert got.to_integer() == oracle(2, 1, n)


def test_moment_series_agrees_with_quadrature():
    # Two genuinely different routes to the same integrals.
    density = weight_2r_r(1)
    for n in range(1, 4):
        series_value = continuous_moment_series(1, n)
        quad_value = moment(density, n)
        assert series_value.agrees_with(quad_value)
        assert series_value.to_integer() == oracle(2, 1, n)


def test_continuous_mass_not_a_moment():
    with pytest.raises(UnsupportedMomentError):
        moment(weight_2r_r(1), 0)
    # The mass itself is still a certified quantity, (e-1)/e at r = 1.
    mass = continuous_moment_series(1, 0)
    with mp.workprec(120):
        assert abs(mass.value - (mp.e - 1) / mp.e) <= mass.abs_error


def test_moment_guards():
    with pytest.raises(OutOfRangeError):
        moment(dirac_comb(), -1)
    with pytest.raises(OutOfRangeError):
        moment(dirac_comb(), 1, target_error=0)
    with pytest.raises(TypeError):
        moment("not a measure", 1)
    with pytest.raises(OutOfRangeError):
        continuous_moment_series(0, 1)


def test_verify_moments_dirac_family():
    report = verify_moments(1, 1, 5)
    assert all(c.ok for c in report.checks)
    assert report.family == "dirac-comb"
    names = [c.name for c in report.checks]
    assert "mass" in names and "moment n=5" in names


def test_verify_moments_rarefied_family():
    report = verify_moments(2, 2, 4)
    assert all(c.ok for c in report.checks)
    assert report.family == "rarefied-comb(r=2)"
    mass = next(c for c in report.checks if c.name == "mass")
    assert "closed form" in mass.detail


def test_verify_moments_continuous_family():
    report = verify_moments(2, 1, 3)
    assert all(c.ok for c in report.checks)
    assert report.family == "bessel-density(r=1)"
    names = [c.name for c in report.checks]
    assert "positivity sample" in names
    assert any(n.startswith("series vs quadrature") for n in names)


def test_verify_moments_continuous_family_higher_r():
    # s = 2 exercises the branch without the quadrature mass cross-check.
    report = verify_moments(4, 2, 1)
    assert all(c.ok for c in report.checks)
    mass = next(c for c in report.checks if c.name == "mass")
    assert "reported" in mass.detail


def test_verify_moments_rejects_other_families():
    with pytest.raises(UnsupportedFamilyError):
        verify_moments(3, 1, 4)
    with pytest.raises(OutOfRangeError):
        verify_moments(1, 1, 0)


def test_continuous_density_is_plain_dataclass():
    assert ContinuousDensity(r=2) == weight_2r_r(2)
