"""Moment measures whose power moments are generalized Bell numbers.

Three families are constructed here.  The Dirac comb carries atoms at the
non-negative integers and reproduces the classical Bell numbers; its rarefied
variant puts atoms at x_k = (k+r)!/k! and reproduces B_{r,r}(n); the family
(2r, r) has a continuous density on (0, inf) built from the modified Bessel
function I_r.  Verification is numeric but certified where we can make it so:
discrete moments are partial sums of exact integer-pair terms with a
geometric tail bound, the Bessel series carries a truncation bound, and the
quadrature tail past the cutoff is bounded analytically.  Only the quadrature error on the
finite interval is an estimate (two runs at different precision plus the
integrator's own estimate); tests pin it against a fully certified series
expansion of the same integral.  A discrete measure is read only through
its integer moment terms, its mass and its positivity check.
``verify_moments`` reports each comparison as a ``Check`` in a
``MomentReport``; the family passes when every check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, count, repeat
from math import factorial, perm
from operator import mul
from typing import Callable, Iterator

from mpmath import mp

from .dobinski import dobinski_rs
from .errors import (
    DomainError,
    OutOfRangeError,
    PrecisionExhaustedError,
    UnsupportedFamilyError,
    UnsupportedMomentError,
)
from .numeric import DEFAULT_BITS, Check, ErrorBoundedReal, SeriesSpec, sum_over_e
from .stirling import bell_sequence

__all__ = [
    "ContinuousDensity",
    "DiscreteMeasure",
    "MomentReport",
    "bessel_i",
    "continuous_moment_series",
    "dirac_comb",
    "moment",
    "rarefied_comb",
    "verify_moments",
    "weight_2r_r",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (x_k, w_k), k = 0, 1, ...; weights carry a common factor 1/e.

    The atom callable returns integers (x_k, q_k) with e * w_k = 1 / q_k; the
    single division by e is deferred to mass()/moment() so everything before
    the final rounding stays in exact integer arithmetic.
    """

    label: str
    unit_mass: bool
    _atom: Callable[[int], tuple[int, int]] = field(compare=False, repr=False)

    def check_atoms(self, count: int) -> None:
        """Positivity and strict ordering of the first ``count`` atoms."""
        previous = None
        for k in range(count):
            x, q = self._atom(k)
            if q <= 0:
                raise DomainError(f"{self.label}: weight at k={k} is 1/{q}")
            if previous is not None and x <= previous:
                raise DomainError(f"{self.label}: locations not increasing at k={k}")
            previous = x

    def scaled_moment_terms(self, n: int) -> Iterator[tuple[int, int]]:
        """Yields e * w_k * x_k^n as the integer pair (x_k^n, q_k)."""
        for k in count():
            x, q = self._atom(k)
            yield x**n, q

    def mass(self, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
        return sum_over_e(self.scaled_moment_terms(0), series)


def dirac_comb() -> DiscreteMeasure:
    """Atoms at x = k >= 0 with weight e^{-1}/k!; moments are B(n), mass 1.

    The atom at x = 0 (weight 1/e) contributes to the mass only: without it
    the comb over k >= 1 has mass (e-1)/e, with it normalization is exact and
    no moment of order n >= 1 changes.
    """

    def atom(k: int) -> tuple[int, int]:
        return k, factorial(k)

    return DiscreteMeasure(label="dirac-comb", unit_mass=True, _atom=atom)


def rarefied_comb(r: int) -> DiscreteMeasure:
    """Atoms at x_k = (k+r)!/k! with weight e^{-1}/(k! x_k).

    Dividing the weight by x_k turns the series sum (1/e) sum x_k^{n-1}/k!
    for B_{r,r}(n) into a genuine moment integral of x^n.  At r = 1 this is
    the integer comb shifted off zero.
    """
    if r < 1:
        raise OutOfRangeError("need r >= 1")

    def atom(k: int) -> tuple[int, int]:
        x = perm(k + r, r)
        return x, factorial(k) * x

    return DiscreteMeasure(label=f"rarefied-comb(r={r})", unit_mass=False, _atom=atom)


def bessel_i(nu: int, y, target_error=1e-30, *, bits: int = DEFAULT_BITS):
    """I_nu(y) for integer nu >= 0 and y >= 0, by the defining power series.

    Terms t_m = (y/2)^{2m+nu} / (m! (m+nu)!) have next/current ratio
    (y/2)^2 / ((m+1)(m+1+nu)), strictly decreasing in m, so once it drops
    below 1/2 the remainder is bounded by a geometric series.  The returned
    bound adds a roundoff allowance proportional to the term count.
    """
    if nu < 0 or not isinstance(nu, int):
        raise OutOfRangeError("order nu must be a non-negative integer")
    if target_error <= 0:
        raise OutOfRangeError("target_error must be positive")
    with mp.workprec(bits):
        ym = mp.mpf(y) if not isinstance(y, mp.mpf) else y
        if ym < 0:
            raise DomainError("argument y must be >= 0")
        if ym == 0:
            one_or_zero = mp.mpf(1 if nu == 0 else 0)
            return ErrorBoundedReal(one_or_zero, mp.mpf(0))
        half = ym / 2
        half_sq = half * half
        term = half**nu / factorial(nu)
        acc = term
        stop = mp.mpf(target_error) / 2
        # Also stop once further terms cannot move the working-precision
        # result, so a loose absolute target still gets a tight bound.
        saturate = mp.mpf(2) ** (16 - bits)
        m = 0
        while True:
            m += 1
            if m > 100000:
                raise PrecisionExhaustedError(
                    f"Bessel series for I_{nu}({float(ym)}) did not settle"
                )
            term = term * half_sq / (m * (m + nu))
            acc += term
            ratio = half_sq / ((m + 1) * (m + 1 + nu))
            if ratio < mp.mpf(1) / 2 and (term < stop or term < acc * saturate):
                tail = term * ratio / (1 - ratio)
                break
        roundoff = acc * mp.mpf(2) ** (4 - bits) * (m + 8)
        return ErrorBoundedReal(acc, tail + roundoff)


@dataclass(frozen=True)
class ContinuousDensity:
    """The density of the family (2r, r) on the positive half-axis.

    W(x) = (1/(e r)) x^{(2-3r)/(2r)} exp(-x^{1/r}) I_r(2 x^{1/(2r)}).
    In the variable u = x^{1/(2r)} every factor is a power of u, which is how
    evaluate() computes it.
    """

    r: int

    def evaluate(self, x, target_error=1e-30, *, bits: int = DEFAULT_BITS):
        if target_error <= 0:
            raise OutOfRangeError("target_error must be positive")
        with mp.workprec(bits):
            xm = mp.mpf(x)
            if xm <= 0:
                raise DomainError("density is defined for x > 0 only")
            u = mp.root(xm, 2 * self.r)
            # x^{(2-3r)/(2r)} = u^{2-3r} and exp(-x^{1/r}) = exp(-u^2).
            scale = u ** (2 - 3 * self.r) * mp.exp(-u * u) / (mp.e * self.r)
            iv = bessel_i(
                self.r,
                2 * u,
                target_error=mp.mpf(target_error) / (2 * scale),
                bits=bits,
            )
            value = scale * iv.value
            # exp and power conditioning: relative error grows with u^2.
            roundoff = abs(value) * (12 + u * u) * mp.mpf(2) ** (1 - bits)
            return ErrorBoundedReal(value, scale * iv.abs_error + roundoff)


def weight_2r_r(r: int) -> ContinuousDensity:
    """Continuous weight whose n-th moment is B_{2r,r}(n) for n >= 1."""
    if r < 1:
        raise OutOfRangeError("need r >= 1")
    return ContinuousDensity(r=r)


def _weight_moment_terms(r: int, n: int) -> Iterator[tuple[int, int]]:
    # Expanding I_r under the integral termwise and using
    # int_0^inf u^{2q+1} exp(-u^2) du = q!/2 gives the exact series
    # (1/e) sum_m (rn+m)! / (m! (m+r)!) for the n-th moment.
    numer, denom = factorial(r * n), factorial(r)
    for m in count(1):
        yield numer, denom
        numer *= r * n + m
        denom *= m * (m + r)


def continuous_moment_series(
    r: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """Certified series value of the n-th moment of weight_2r_r(r); n = 0 gives the mass."""
    if r < 1 or n < 0:
        raise OutOfRangeError("need r >= 1 and n >= 0")
    return sum_over_e(_weight_moment_terms(r, n), series)


def _quadrature_cutoff(a: int, target) -> tuple[int, object]:
    # Past the cutoff, I_r(2u) < exp(2u) bounds the integrand by
    # g(u) = u^a exp(-u^2 + 2u), whose log-derivative is -c(u) with
    # c(u) = 2u - 2 - a/u increasing.  Then integral_U^inf g <= g(U)/c(U).
    with mp.workprec(64):
        U = 4
        while True:
            c = mp.mpf(2 * U - 2) - mp.mpf(a) / U
            if c >= 2:
                g = mp.mpf(U) ** a * mp.exp(-U * U + 2 * U)
                if g < mp.mpf(target) / 10:
                    # 2/e < 1, so the certified tail (2/e) g/c also clears target/10.
                    tail = (2 / mp.e) * g / c * (1 + mp.mpf(2) ** -40)
                    return U, tail
            U += 2
            if U > 512:
                raise PrecisionExhaustedError("no workable quadrature cutoff")


def _continuous_moment(density: ContinuousDensity, n: int, target, bits: int):
    r = density.r
    a = 2 * r * n - r + 1
    U, tail = _quadrature_cutoff(a, target)
    quad_bits = max(96, min(bits, 192))

    def run(prec: int):
        with mp.workprec(prec):
            def integrand(u):
                return u**a * mp.exp(-u * u) * bessel_i(
                    r, 2 * u, target_error=mp.mpf(2) ** (8 - prec), bits=prec
                ).value

            return mp.quad(integrand, [0, U], error=True, maxdegree=8)

    coarse, err_coarse = run(quad_bits)
    fine, err_fine = run(quad_bits + 32)
    with mp.workprec(quad_bits + 32):
        value = 2 * fine / mp.e
        spread = abs(fine - coarse)
        estimate = (spread + err_fine + abs(value) * mp.mpf(2) ** (16 - quad_bits)) * 2
        total = estimate + mp.mpf(tail)
        if total > mp.mpf(target):
            raise PrecisionExhaustedError(
                f"quadrature error {mp.nstr(total, 6)} exceeds target {target}"
            )
        return ErrorBoundedReal(value, total)


def moment(measure, n: int, target_error=1e-12, *, bits: int = DEFAULT_BITS):
    """n-th power moment of a measure, with an absolute error bound.

    n = 0 is the total mass and is only a Bell-number moment for measures of
    unit mass; for the others it raises so a silent mismatch with
    B_{r,s}(0) = 1 cannot occur.  Their mass is still available through
    mass()/continuous_moment_series().
    """
    if n < 0:
        raise OutOfRangeError("moment order must be >= 0")
    if target_error <= 0:
        raise OutOfRangeError("target_error must be positive")
    series = SeriesSpec(working_precision=bits, target_abs_error=target_error)
    if isinstance(measure, DiscreteMeasure):
        if n == 0 and not measure.unit_mass:
            raise UnsupportedMomentError(
                f"{measure.label} has mass != 1; its n = 0 'moment' is not B(0)"
            )
        return sum_over_e(measure.scaled_moment_terms(n), series)
    if isinstance(measure, ContinuousDensity):
        if n == 0:
            raise UnsupportedMomentError(
                "the continuous family has mass != 1; use continuous_moment_series(r, 0)"
            )
        return _continuous_moment(measure, n, target_error, bits)
    raise TypeError(f"not a measure: {measure!r}")


@dataclass(frozen=True)
class MomentReport:
    family: str
    checks: tuple[Check, ...]


def _close(value: ErrorBoundedReal, expected, tol) -> bool:
    with mp.workprec(160):
        gap = abs(value.value - mp.mpf(expected))
        allowance = max(mp.mpf(tol) * abs(mp.mpf(expected)), value.abs_error)
        return bool(gap <= allowance)


def _moment_checks(measure, r: int, s: int, n_max: int, tol, bits: int):
    checks = []
    for n, expected in enumerate(bell_sequence(r, s, n_max)[1:], start=1):
        value = moment(measure, n, target_error=min(float(tol), 1e-10), bits=bits)
        ok = _close(value, expected, tol)
        checks.append(
            Check(
                name=f"moment n={n}",
                ok=ok,
                detail=f"got {value}, expected B_{{{r},{s}}}({n}) = {expected}",
            )
        )
    return checks


def _mass_closed_form_terms(r: int) -> Iterator[tuple[int, int]]:
    # (1/e) sum_k 1/(k+r)!; equals both the rarefied-comb mass and the
    # continuous mass for the same r (and (e-1)/e at r = 1).
    return zip(repeat(1), accumulate(count(r + 1), mul, initial=factorial(r)))


def verify_moments(r: int, s: int, n_max: int, tol=1e-9, *, bits: int = DEFAULT_BITS) -> MomentReport:
    """Check that a family's measure reproduces its Bell numbers.

    Supported families: (1,1) -> Dirac comb; r = s -> rarefied comb;
    r = 2s -> continuous Bessel-type density.  The report also carries the
    mass account and a positivity sample.
    """
    if n_max < 1:
        raise OutOfRangeError("need n_max >= 1")
    series = SeriesSpec(working_precision=bits, target_abs_error=1e-14)
    checks: list[Check] = []
    if (r, s) == (1, 1):
        comb = dirac_comb()
        family = comb.label
        checks += _moment_checks(comb, 1, 1, n_max, tol, bits)
        mass = comb.mass(series)
        checks.append(
            Check(
                name="mass",
                ok=_close(mass, 1, mp.mpf(1e-12)),
                detail=f"got {mass}, expected 1 (k = 0 atom included)",
            )
        )
        comb.check_atoms(64)
        checks.append(
            Check(name="atom positivity", ok=True, detail="first 64 atoms > 0, increasing")
        )
    elif r == s:
        comb = rarefied_comb(r)
        family = comb.label
        checks += _moment_checks(comb, r, s, n_max, tol, bits)
        mass = comb.mass(series)
        expected_mass = sum_over_e(_mass_closed_form_terms(r), series)
        checks.append(
            Check(
                name="mass",
                ok=bool(mass.agrees_with(expected_mass)),
                detail=(
                    f"got {mass}; closed form (1/e) sum 1/(k+{r})! = {expected_mass}; "
                    "mass < 1 is expected, B(0) = 1 is convention"
                ),
            )
        )
        comb.check_atoms(64)
        checks.append(
            Check(name="atom positivity", ok=True, detail="first 64 atoms > 0, increasing")
        )
    elif r == 2 * s:
        density = weight_2r_r(s)
        family = f"bessel-density(r={s})"
        checks += _moment_checks(density, r, s, n_max, tol, bits)
        mass = continuous_moment_series(s, 0, series)
        if s == 1:
            # At s = 1 the u-substituted mass integrand is regular at 0, so
            # the mass can also be measured by quadrature, independently of
            # the series expansion.
            mass_quad = _continuous_moment(density, 0, 1e-9, bits)
            with mp.workprec(bits):
                target_mass = (mp.e - 1) / mp.e
            mass_ok = _close(mass_quad, target_mass, mp.mpf(1e-9)) and bool(
                mass_quad.agrees_with(mass)
            )
            mass_detail = (
                f"quadrature {mass_quad}, series {mass}, expected (e-1)/e; "
                "mass < 1 is expected"
            )
        else:
            mass_ok = True
            mass_detail = f"series mass {mass} (reported; < 1 by construction)"
        checks.append(Check(name="mass", ok=mass_ok, detail=mass_detail))
        if s == 1:
            for n in range(1, min(n_max, 4) + 1):
                quad = moment(density, n, target_error=min(float(tol), 1e-10), bits=bits)
                srs = dobinski_rs(2, 1, n, SeriesSpec(working_precision=bits, target_abs_error=1e-14))
                checks.append(
                    Check(
                        name=f"series vs quadrature n={n}",
                        ok=bool(quad.agrees_with(srs)),
                        detail=f"quadrature {quad} vs series {srs}",
                    )
                )
        positive = 0
        points = 1000
        with mp.workprec(64):
            lo, hi = mp.log(mp.mpf("1e-6")), mp.log(mp.mpf("1e3"))
            xs = [mp.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
        for x in xs:
            w = density.evaluate(x, target_error=1e-40, bits=max(bits, 128))
            if w.value - w.abs_error > 0:
                positive += 1
        checks.append(
            Check(
                name="positivity sample",
                ok=positive == points,
                detail=f"{positive}/{points} log-spaced points in [1e-6, 1e3] strictly positive",
            )
        )
    else:
        raise UnsupportedFamilyError(
            f"no measure implemented for (r, s) = ({r}, {s}); "
            "supported: (1,1), r = s, r = 2s"
        )
    return MomentReport(family=family, checks=tuple(checks))
