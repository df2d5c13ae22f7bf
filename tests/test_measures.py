"""Moment measures: combs, the continuous Bessel-type density, quadrature."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice, repeat

import mpmath
import pytest
from mpmath import mp

from bosonkit import dobinski, measures, numeric
from bosonkit.cli import main
from bosonkit.dobinski import bell_hypergeometric, dobinski_classic, dobinski_rr, dobinski_rs
from bosonkit.errors import (
    DomainError,
    OutOfRangeError,
    PrecisionExhaustedError,
    UnsupportedFamilyError,
    UnsupportedMomentError,
)
from bosonkit.genfunc import egf_classic, egf_r1, verify_normal_exponential
from bosonkit.measures import (
    ContinuousDensity,
    DiscreteMeasure,
    bessel_i,
    continuous_moment_series,
    dirac_comb,
    moment,
    rarefied_comb,
    verify_moments,
)
from bosonkit.numeric import ErrorBoundedReal, SeriesSpec
from bosonkit.operator_algebra import MonomialSpec
from bosonkit.stirling import bell


def oracle(r, s, n):
    return bell(MonomialSpec(r, s, n))


def atoms(measure, count):
    """First ``count`` atoms of a discrete measure as exact (location, e * weight) pairs."""
    pairs, q = [], 1
    for x, m in islice(measure.atoms(), count):
        q *= m
        pairs.append((Fraction(x), Fraction(1, q)))
    return pairs


def test_dirac_comb_atoms():
    assert atoms(dirac_comb(), 4) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(3), Fraction(1, 6)),
    ]
    assert dirac_comb().check_atoms(64).ok


def test_dirac_comb_mass_is_one():
    mass = dirac_comb().mass()
    assert abs(mass.value - 1) <= mass.abs_error
    assert mass.abs_error < 1e-12
    # n = 0 is a legitimate moment here precisely because the mass is 1.
    assert moment(dirac_comb(), 0).to_integer() == 1


def test_rarefied_comb_r1_shifts_the_integer_comb():
    locations = [x for x, _ in atoms(rarefied_comb(1), 5)]
    assert locations == [Fraction(k + 1) for k in range(5)]


def test_rarefied_comb_r2():
    assert atoms(rarefied_comb(2), 4) == [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(6), Fraction(1, 6)),
        (Fraction(12), Fraction(1, 24)),
        (Fraction(20), Fraction(1, 120)),
    ]


def test_rarefied_comb_mass_below_one():
    # (1/e) sum_k 1/(k+1)! = (e-1)/e for r = 1.
    mass = rarefied_comb(1).mass()
    with mp.workprec(120):
        assert abs(mass.value - (mp.e - 1) / mp.e) <= mass.abs_error
    with pytest.raises(UnsupportedMomentError):
        moment(rarefied_comb(1), 0)


def test_combs_compare_and_hash_by_value():
    assert dirac_comb() == dirac_comb() == (1, 0)
    assert len({dirac_comb(), rarefied_comb(2), rarefied_comb(2)}) == 2
    with pytest.raises(OutOfRangeError):
        rarefied_comb(0)


@pytest.mark.parametrize("comb", [dirac_comb(), rarefied_comb(2)], ids=["dirac", "rarefied-2"])
@pytest.mark.parametrize("n, error", [(-1, OutOfRangeError), (-3, OutOfRangeError), (2.5, TypeError)])
def test_scaled_moment_terms_check_the_order(comb, n, error):
    # moment() checks the order before it draws any scaled moment term
    # x_j^n / j! from the held numerator row: n = -1 once yielded floats from
    # the rarefied comb and divided by zero in the Dirac comb's 0 ** -1.
    held = dobinski._held
    with pytest.raises(error):
        moment(comb, n)
    assert dobinski._held is held


def test_check_atoms_rejects_bad_measures(monkeypatch):
    monkeypatch.setattr(DiscreteMeasure, "atoms", lambda self: repeat((1, 1)))
    check = dirac_comb().check_atoms(3)
    assert (check.name, check.ok) == ("atom positivity", False)
    assert "not increasing at k=1" in check.detail
    monkeypatch.setattr(DiscreteMeasure, "atoms", lambda self: zip(count(), repeat(-1)))
    check = dirac_comb().check_atoms(1)
    assert (check.name, check.ok) == ("atom positivity", False)
    assert "weight at k=0" in check.detail
    # A zero factor m_2 leaves w_2 = w_1 / m_2 undefined, the weights after it too.
    monkeypatch.setattr(DiscreteMeasure, "atoms", lambda self: zip(count(), chain((1, 1), repeat(0))))
    check = dirac_comb().check_atoms(3)
    assert (check.name, check.ok) == ("atom positivity", False)
    assert "weight at k=2" in check.detail
    assert dirac_comb().check_atoms(2).ok


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
    for target in (0, math.nan):
        with pytest.raises(OutOfRangeError):
            bessel_i(1, 2, target_error=target)
    with pytest.raises(ValueError):
        bessel_i(0, 2, bits=8)
    with pytest.raises(TypeError):
        bessel_i(0, 2, bits=256.0)


def test_bessel_series_shares_the_summation_term_limit(monkeypatch):
    # I_0(50) needs about 35 terms before the ratio falls below 1/2.
    assert bessel_i(0, 50).value > 0
    monkeypatch.setattr(numeric, "MAX_TERMS", 20)
    with pytest.raises(PrecisionExhaustedError, match="did not settle"):
        bessel_i(0, 50)


@pytest.mark.parametrize("y", [mp.inf, mp.nan])
def test_bessel_rejects_non_finite_argument(y):
    with pytest.raises(DomainError):
        bessel_i(0, y)


def test_density_spot_value_and_domain():
    w = ContinuousDensity(1).evaluate(1)
    with mp.workprec(120):
        assert abs(w.value - mp.mpf("0.21526928924893765916")) <= w.abs_error + mp.mpf("1e-19")
    with pytest.raises(DomainError):
        ContinuousDensity(1).evaluate(0)
    with pytest.raises(DomainError):
        ContinuousDensity(1).evaluate(-3)
    for target in (0, math.nan):
        with pytest.raises(OutOfRangeError):
            ContinuousDensity(1).evaluate(1, target_error=target)
    with pytest.raises(ValueError):
        ContinuousDensity(1).evaluate(1, bits=8)
    with pytest.raises(OutOfRangeError):
        ContinuousDensity(0)


def test_density_rejects_infinite_x():
    with pytest.raises(DomainError):
        ContinuousDensity(1).evaluate(mp.inf)


def test_density_positive_at_extremes():
    density = ContinuousDensity(1)
    for x in ("1e-6", "1e3"):
        w = density.evaluate(mp.mpf(x), target_error=1e-40, bits=128)
        assert w.value - w.abs_error > 0


@lru_cache(maxsize=None)
def quadrature_moment(n):
    """moment(ContinuousDensity(1), n) at the default target, computed once per n."""
    return moment(ContinuousDensity(1), n)


def test_quadrature_moments_match_oracle():
    for n in range(1, 6):
        got = quadrature_moment(n)
        assert got.to_integer() == oracle(2, 1, n)


def test_moment_series_agrees_with_quadrature():
    # Two genuinely different routes to the same integrals.
    for n in range(1, 4):
        series_value = continuous_moment_series(1, n)
        quad_value = quadrature_moment(n)
        assert series_value.agrees_with(quad_value)
        assert series_value.to_integer() == oracle(2, 1, n)


def test_continuous_mass_not_a_moment():
    with pytest.raises(UnsupportedMomentError):
        moment(ContinuousDensity(1), 0)
    # The mass itself is still a certified quantity, (e-1)/e at r = 1.
    mass = continuous_moment_series(1, 0)
    with mp.workprec(120):
        assert abs(mass.value - (mp.e - 1) / mp.e) <= mass.abs_error


def test_moment_guards():
    with pytest.raises(OutOfRangeError):
        moment(dirac_comb(), -1)
    for target in (0, math.inf, math.nan):
        with pytest.raises(OutOfRangeError):
            moment(dirac_comb(), 3, target_error=target)
    with pytest.raises(TypeError):
        moment("not a measure", 1)
    with pytest.raises(OutOfRangeError):
        continuous_moment_series(0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dobinski_classic(2.5),
        lambda: dobinski_rr(2, 2.5),
        lambda: moment(dirac_comb(), 2.5),
        lambda: dobinski_rs(2, 1, 0.5),
        lambda: bell_hypergeometric(1, 1, 2.5),
        lambda: continuous_moment_series(1, 2.5),
        lambda: bessel_i(1.5, 2),
        lambda: ContinuousDensity(2.5),
        lambda: rarefied_comb(2.5),
        lambda: egf_r1(2.5, 3),
        lambda: egf_classic(2.5),
        lambda: verify_normal_exponential(2, 3.5),
        lambda: verify_moments(2, 1, 2.5),
    ],
    ids=[
        "dobinski_classic",
        "dobinski_rr",
        "moment",
        "dobinski_rs",
        "bell_hypergeometric",
        "continuous_moment_series",
        "bessel_i",
        "ContinuousDensity",
        "rarefied_comb",
        "egf_r1",
        "egf_classic",
        "verify_normal_exponential",
        "verify_moments",
    ],
)
def test_non_integer_order_is_a_type_error(call):
    # Each entry point checks the type itself, before any range check and
    # before the order reaches math.factorial, range() or Fraction.
    with pytest.raises(TypeError, match="must be"):
        call()


@pytest.mark.parametrize("r, s", [(1, 1), (2, 2), (2, 1)])
def test_verify_moments_rejects_bad_tol(r, s):
    for tol in (0, -1, math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            verify_moments(r, s, 2, tol)


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
    # At s = 2 the mass integrand u^{-1} exp(-u^2) I_2(2u) ~ u/2 is regular at
    # 0, so the series and the quadrature both measure the mass against the
    # closed form 1 - (1/e)(1/0! + 1/1!).
    report = verify_moments(4, 2, 1)
    assert all(c.ok for c in report.checks)
    mass = next(c for c in report.checks if c.name == "mass")
    assert "closed form 1 - (1/e) sum_{j<2} 1/j!" in mass.detail
    assert mass.detail.startswith("series ") and ", quadrature " in mass.detail
    assert [c.name for c in report.checks] == [
        "moment n=1",
        "mass",
        "series vs quadrature n=1",
        "positivity sample",
    ]


@pytest.mark.parametrize("r, s, n_max", [(2, 1, 5), (4, 2, 3)])
def test_verify_moments_bessel_budget(monkeypatch, r, s, n_max):
    # One quadrature pass evaluates the density once per node, for every
    # moment, the mass and the positivity check together.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bessel_i(*args, **kwargs)

    monkeypatch.setattr(measures, "bessel_i", counted)
    assert all(c.ok for c in verify_moments(r, s, n_max).checks)
    assert 0 < len(calls) < 1000


true_evaluate = ContinuousDensity.evaluate


def wrong_order(nu, y, *args, **kwargs):
    return bessel_i(nu + 1, y, *args, **kwargs)


def wrong_power(self, x, *args, **kwargs):
    # One more power of u = x^{1/(2r)} in the density's scale.
    w = true_evaluate(self, x, *args, **kwargs)
    u = mp.root(mp.mpf(x), 2 * self.r)
    return ErrorBoundedReal(w.value * u, w.abs_error * u)


@pytest.mark.parametrize(
    "target, name, mutant",
    [(measures, "bessel_i", wrong_order), (ContinuousDensity, "evaluate", wrong_power)],
)
def test_verify_moments_mutant_density_fails_a_moment(monkeypatch, target, name, mutant):
    monkeypatch.setattr(target, name, mutant)
    checks = {c.name: c.ok for c in verify_moments(2, 1, 3).checks}
    assert not all(checks[f"moment n={n}"] for n in range(1, 4))


def test_verify_moments_mass_check_can_fail(monkeypatch):
    def off_by_a_millionth(r, n, series=SeriesSpec()):
        value = continuous_moment_series(r, n, series)
        return ErrorBoundedReal(value.value + mp.mpf("1e-6"), value.abs_error)

    monkeypatch.setattr(measures, "continuous_moment_series", off_by_a_millionth)
    report = verify_moments(4, 2, 1)
    mass = next(c for c in report.checks if c.name == "mass")
    assert mass.ok is False
    assert all(c.ok for c in report.checks if c.name != "mass")


def test_verify_moments_comb_mass_check_can_fail(monkeypatch):
    mass = DiscreteMeasure.mass

    def off_by_a_millionth(self, series=SeriesSpec()):
        value = mass(self, series)
        return ErrorBoundedReal(value.value + mp.mpf("1e-6"), value.abs_error)

    monkeypatch.setattr(DiscreteMeasure, "mass", off_by_a_millionth)
    for r in (1, 2):
        checks = {c.name: c.ok for c in verify_moments(r, r, 2).checks}
        assert checks.pop("mass") is False
        assert all(checks.values())


def test_series_spec_is_one_per_typed_target():
    assert measures._series_spec(1e-12, 256) is measures._series_spec(1e-12, 256)
    # 1 and 1.0 are equal keys to a plain cache; each spec keeps the caller's target.
    assert type(measures._series_spec(1, 256).target_abs_error) is int
    assert type(measures._series_spec(1.0, 256).target_abs_error) is float


def test_density_run_makes_one_series_spec(capsys):
    # bessel_i checks its target, new at every quadrature node, without the
    # cache, so the run adds the density's one spec and evicts no other.
    measures._series_spec.cache_clear()
    assert main(["verify", "moments", "--r", "2", "--s", "1"]) == 0
    capsys.readouterr()
    assert measures._series_spec.cache_info().misses == 1


def test_verify_moments_rejects_other_families():
    with pytest.raises(UnsupportedFamilyError):
        verify_moments(3, 1, 4)
    for r, s in ((0, 0), (-1, -1), (3, 0), (2, 0), (0, 1)):
        with pytest.raises(UnsupportedFamilyError):
            verify_moments(r, s, 4)
    with pytest.raises(OutOfRangeError):
        verify_moments(1, 1, 0)


def test_continuous_density_compares_by_order():
    assert ContinuousDensity(r=2) == ContinuousDensity(2)
    assert ContinuousDensity(r=2) != ContinuousDensity(r=3)


@pytest.mark.parametrize("r, error", [(0, OutOfRangeError), (2.5, TypeError)])
def test_continuous_density_checks_its_order_when_built(r, error):
    with pytest.raises(error):
        ContinuousDensity(r)
