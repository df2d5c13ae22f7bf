"""Moment measures whose power moments are generalized Bell numbers.

Two constructions cover three families.  One comb carries atoms at
x_j = j!/(j-r)! with weight e^{-1}/j! for j >= j0: at r = 1, j0 = 0 it is
the Dirac comb on the non-negative integers and reproduces the classical
Bell numbers; at j0 = r it is the rarefied comb and reproduces B_{r,r}(n).
The family (2s, s) has a continuous density on (0, inf) built from the
modified Bessel function I_s; its certified moment series is the (2s, s)
hypergeometric sum of ``bell_hypergeometric(s, 1, n)``.  Each measure has mass
1 - e^{-1} sum_{j<j0} 1/j!, with j0 = s for the density.
Verification is numeric but certified where we can make it so:
a comb's n-th moment, sum_j x_j^n e^{-1}/j!, is the Dobinski series of
B_{r,r}(n) term for term (its terms below j0 are zero), so ``moment`` returns
``dobinski_rr``; the Bessel series carries a truncation bound, and the
quadrature tail past the cutoff is bounded analytically.  The density's
moments, mass and positivity come from one tanh-sinh pass that evaluates it
once per node; only the pass's error on the finite interval is an estimate
(the difference of its last two levels), and tests pin it against a fully
certified series expansion of the same integral.  Only the density and the
closed-form mass compute in mpf, importing mpmath as they run; without it
they raise MissingDependencyError.  A comb is read only through its
moments, its mass and the positivity check of its atoms.
``verify_moments`` reports each comparison as a ``Check`` in a
``MomentReport``; the family passes when every check does.  A comb's
moments are certified, so each must round to its Bell number exactly.
``MomentReport``, ``DiscreteMeasure`` and ``ContinuousDensity`` are named
tuples like ``Check``; the last two check their fields when built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, count, islice, repeat
from math import factorial, inf, perm

from . import numeric
from .dobinski import dobinski_rr, dobinski_rs, hypergeometric_terms
from .errors import (
    DomainError,
    MissingDependencyError,
    OutOfRangeError,
    PrecisionExhaustedError,
    UnsupportedFamilyError,
    UnsupportedMomentError,
)
from .numeric import DEFAULT_BITS, Check, ErrorBoundedReal, SeriesSpec, rounds_to, sum_over_e
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
]


class DiscreteMeasure(namedtuple("DiscreteMeasure", "r j0")):
    """The comb of atoms x_j = j!/(j-r)! with weights e^{-1}/j!, j >= j0; j0 = r, or 0 at r = 1.

    atoms() starts a fresh stream of the integer pairs (x_k, m_k), j = j0 + k,
    with e * w_k = 1 / q_k and q_k = q_(k-1) m_k, and mass() sums the pairs
    (1, m_k) over e; its moments are Dobinski series (see ``moment``).
    """

    __slots__ = ()

    def __new__(cls, r: int, j0: int):
        if not all(isinstance(v, int) for v in (r, j0)):
            raise TypeError("r and j0 must be integers")
        if not (j0 == r >= 1 or (r, j0) == (1, 0)):
            raise OutOfRangeError("need j0 = r >= 1, or j0 = 0 at r = 1")
        return super().__new__(cls, r, j0)

    # namedtuple's _make, behind _replace, calls tuple.__new__ and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    label = property(lambda self: "dirac-comb" if self.j0 == 0 else f"rarefied-comb(r={self.r})")
    unit_mass = property(lambda self: self.j0 == 0)

    def _multipliers(self) -> Iterator[int]:
        # q_j = j!: m_j0 = j0! (the multipliers of the j < j0 terms folded in), m_j = j.
        return chain((factorial(self.j0),), count(self.j0 + 1))

    def atoms(self) -> Iterator[tuple[int, int]]:
        return zip(map(perm, count(self.j0), repeat(self.r)), self._multipliers())

    def check_atoms(self, count: int) -> Check:
        """Positivity of the weights and strict ordering of the first ``count`` atoms."""
        previous = None
        for k, (x, m) in enumerate(islice(self.atoms(), count)):
            if m <= 0:
                return Check("atom positivity", False, f"{self.label}: weight at k={k} has factor {m}")
            if previous is not None and x <= previous:
                return Check(
                    "atom positivity", False, f"{self.label}: locations not increasing at k={k}"
                )
            previous = x
        return Check("atom positivity", True, f"first {count} weights > 0, locations increasing")

    def mass(self, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
        return sum_over_e(zip(repeat(1), self._multipliers()), series)


def dirac_comb() -> DiscreteMeasure:
    """Atoms at x = k >= 0 with weight e^{-1}/k!; moments are B(n), mass 1.

    The atom at x = 0 (weight 1/e) contributes to the mass only: without it
    the comb over k >= 1 has mass (e-1)/e, with it normalization is exact and
    no moment of order n >= 1 changes.
    """
    return DiscreteMeasure(1, 0)


def rarefied_comb(r: int) -> DiscreteMeasure:
    """Atoms at x_k = (k+r)!/k! with weight e^{-1}/(k! x_k).

    Dividing the weight by x_k turns the series sum (1/e) sum x_k^{n-1}/k!
    for B_{r,r}(n) into a genuine moment integral of x^n.  At r = 1 this is
    the integer comb shifted off zero.
    """
    return DiscreteMeasure(r, r)


def _checked_spec(target_error, bits: int) -> SeriesSpec:
    """The accuracy checks every entry point makes first, and the spec they give.

    A target that is not positive and finite raises OutOfRangeError, and bits
    outside what SeriesSpec accepts raise its TypeError or ValueError.
    """
    if not 0 < target_error < inf:
        raise OutOfRangeError("target_error must be positive and finite")
    return SeriesSpec(working_precision=bits, target_abs_error=target_error)


# One spec serves each (target, bits), so its target pairs are reduced once;
# typed keys keep 1 and 1.0 apart, so the spec keeps the caller's target.
_series_spec = lru_cache(maxsize=32, typed=True)(_checked_spec)


def _mpmath():
    """The mpmath package, imported here, since only the density and the closed-form mass compute in mpf."""
    try:
        import mpmath
    except ImportError:
        raise MissingDependencyError(
            "mpmath is not installed; the density and the closed-form mass need it"
        ) from None
    return mpmath


def bessel_i(nu: int, y, target_error=1e-30, *, bits: int = DEFAULT_BITS) -> ErrorBoundedReal:
    """I_nu(y) for integer nu >= 0 and y >= 0, by the defining power series.

    Terms t_m = (y/2)^{2m+nu} / (m! (m+nu)!) have next/current ratio
    (y/2)^2 / ((m+1)(m+1+nu)), strictly decreasing in m, so once it drops
    below 1/2 the remainder is bounded by a geometric series.  The returned
    bound adds a roundoff allowance proportional to the term count.
    """
    mp = _mpmath().mp
    if not isinstance(nu, int):
        raise TypeError("order nu must be an integer")
    if nu < 0:
        raise OutOfRangeError("order nu must be >= 0")
    # Checked without the cache: the density passes a new target at every node.
    _checked_spec(target_error, bits)
    with mp.workprec(bits):
        ym = mp.mpf(y) if not isinstance(y, mp.mpf) else y
        if not 0 <= ym < mp.inf:
            raise DomainError("argument y must be finite and >= 0")
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
            if m > numeric.MAX_TERMS:
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


class ContinuousDensity(namedtuple("ContinuousDensity", "r")):
    """The density of the family (2r, r) on the positive half-axis, for integer r >= 1.

    W(x) = (1/(e r)) x^{(2-3r)/(2r)} exp(-x^{1/r}) I_r(2 x^{1/(2r)}).
    In the variable u = x^{1/(2r)} every factor is a power of u, which is how
    evaluate() computes it.
    """

    __slots__ = ()

    def __new__(cls, r: int):
        if not isinstance(r, int):
            raise TypeError("r must be an integer")
        if r < 1:
            raise OutOfRangeError("need r >= 1")
        return super().__new__(cls, r)

    # namedtuple's _make, behind _replace, calls tuple.__new__ and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def evaluate(self, x, target_error=1e-30, *, bits: int = DEFAULT_BITS) -> ErrorBoundedReal:
        mp = _mpmath().mp
        _series_spec(target_error, bits)
        with mp.workprec(bits):
            xm = mp.mpf(x)
            if not 0 < xm < mp.inf:
                raise DomainError("density is defined for finite x > 0 only")
            u = mp.root(xm, 2 * self.r)
            # x^{(2-3r)/(2r)} = u^{2-3r} and exp(-x^{1/r}) = exp(-u^2).
            scale = u ** (2 - 3 * self.r) * mp.exp(-u * u) / (mp.e * self.r)
            iv = bessel_i(self.r, 2 * u, target_error=mp.mpf(target_error) / (2 * scale), bits=bits)
            value = scale * iv.value
            # exp and power conditioning: relative error grows with u^2.
            roundoff = abs(value) * (12 + u * u) * mp.mpf(2) ** (1 - bits)
            return ErrorBoundedReal(value, scale * iv.abs_error + roundoff)


def continuous_moment_series(
    r: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """Certified series value of the n-th moment of ContinuousDensity(r); n = 0 gives the mass.

    Expanding I_r under the integral termwise and using
    int_0^inf u^{2q+1} exp(-u^2) du = q!/2 gives the exact series
    (1/e) sum_m (rn+m)!/(m! (m+r)!), which is (1/e) (rn)!/r! 1F1(rn+1; r+1; 1):
    the hypergeometric sum of the family (2r, r), summed by the same terms
    as ``bell_hypergeometric(r, 1, n)``.
    """
    if not all(isinstance(v, int) for v in (r, n)):
        raise TypeError("r and n must be integers")
    if r < 1 or n < 0:
        raise OutOfRangeError("need r >= 1 and n >= 0")
    return sum_over_e(hypergeometric_terms(r, 1, n, (factorial(r * n), factorial(r))), series)


def _quadrature_cutoff(exponents: list[int], target) -> tuple[int, list]:
    # Past the cutoff U, I_r(2u) < exp(2u) bounds the integrand
    # u^a exp(-u^2) I_r(2u) by g(u) = u^a exp(-u^2 + 2u), whose log-derivative
    # is -(2u - 2 - a/u) <= -c with c = 2U - 2 - max(a, 0)/U for u >= U.  Then
    # integral_U^inf g <= g(U)/c, for each exponent at the one U.
    mp = _mpmath().mp
    with mp.workprec(64):
        for U in range(4, 513, 2):
            envelopes = [(2 * U - 2 - mp.mpf(max(a, 0)) / U, mp.mpf(U) ** a * mp.exp(-U * U + 2 * U))
                         for a in exponents]
            if all(c >= 2 and g < mp.mpf(target) / 10 for c, g in envelopes):
                # 2/e < 1, so each certified tail (2/e) g/c also clears target/10.
                return U, [(2 / mp.e) * g / c * (1 + mp.mpf(2) ** -40) for c, g in envelopes]
    raise PrecisionExhaustedError("no workable quadrature cutoff")


def _quadrature(density: ContinuousDensity, orders: list[int], target, bits: int):
    """The moments of the given orders (0 is the mass) and the positivity check, by one pass.

    The n-th moment is the integral of W(x) x^n 2r u^{2r-1} du over (0, U),
    u = x^{1/(2r)}, plus the tail past U.  Each tanh-sinh degree adds the
    midpoints of the last one's nodes, so one density value per node serves
    every order and every level sum S_k = 2^-k sum w f(u).  A radius is
    |S_k - S_(k-1)|, the one estimate, plus the node enclosures, a rounding
    allowance and the tail.
    """
    mpmath = _mpmath()
    mp, TanhSinh = mpmath.mp, mpmath.calculus.quadrature.TanhSinh
    r = density.r
    U, tails = _quadrature_cutoff([2 * r * n - r + 1 for n in orders], target)
    prec = max(96, min(bits, 192)) + 32
    with mp.workprec(prec):
        # Below every node value's last bit: each Bessel series runs to working precision.
        tiny = mp.mpf(2) ** (-4 * prec)
        # Relative, per node: rounding a term, x = u^{2r} and a sum of < 2^14 terms.
        ulps = mp.mpf(2) ** (20 - prec)
        sums = [mp.zero] * len(orders)
        bounds = [mp.zero] * len(orders)
        # Level 1 has no level before it to differ from.
        results = [mp.inf] * len(orders)
        positive = nodes = 0
        for degree in range(1, 9):
            for u, w in TanhSinh(mp).get_nodes(0, U, degree, prec):
                x = u ** (2 * r)
                value, error = (mp.make_mpf(v._mpf_) for v in density.evaluate(x, target_error=tiny, bits=prec))
                positive += value > error
                nodes += 1
                # dx = 2r u^{2r-1} du = 2r (x/u) du.
                step = w * 2 * r * x / u
                radius = error + abs(value) * ulps
                for i, n in enumerate(orders):
                    weight = step * x**n
                    sums[i] += weight * value
                    bounds[i] += weight * radius
            h = mp.ldexp(1, -degree)
            previous, results = results, [h * total for total in sums]
            floors = [h * bound + tail for bound, tail in zip(bounds, tails)]
            radii = [abs(new - old) + floor for new, old, floor in zip(results, previous, floors)]
            if max(radii) <= target:
                break
            # More levels shrink |S_k - S_(k-1)| but not the floor, the node
            # enclosures' integral plus the tail.  A floor past twice the
            # target will not come down to it: report the floor now.
            if degree > 1 and max(floors) > 2 * target:
                radii = floors
                break
        if max(radii) > target:
            raise PrecisionExhaustedError(
                f"quadrature error {mp.nstr(max(radii), 6)} exceeds target {target}"
            )
        values = [ErrorBoundedReal(value, radius) for value, radius in zip(results, radii)]
    positivity = Check(
        name="positivity sample",
        ok=positive == nodes,
        detail=f"{positive}/{nodes} quadrature nodes in (0, {U ** (2 * r)}) strictly positive",
    )
    return values, positivity


def moment(measure, n: int, target_error=1e-12, *, bits: int = DEFAULT_BITS):
    """n-th power moment of a measure, with an absolute error bound.

    n = 0 is the total mass and is only a Bell-number moment for measures of
    unit mass; for the others it raises so a silent mismatch with
    B_{r,s}(0) = 1 cannot occur.  Their mass is still available through
    mass()/continuous_moment_series().
    """
    if not isinstance(n, int):
        raise TypeError("moment order must be an integer")
    if n < 0:
        raise OutOfRangeError("moment order must be >= 0")
    series = _series_spec(target_error, bits)
    if isinstance(measure, DiscreteMeasure):
        if n > 0:
            return dobinski_rr(measure.r, n, series)
        if not measure.unit_mass:
            raise UnsupportedMomentError(
                f"{measure.label} has mass != 1; its n = 0 'moment' is not B(0)"
            )
        return measure.mass(series)
    if isinstance(measure, ContinuousDensity):
        if n == 0:
            raise UnsupportedMomentError(
                "the continuous family has mass != 1; use continuous_moment_series(r, 0)"
            )
        return _quadrature(measure, [n], target_error, bits)[0][0]
    raise TypeError(f"not a measure: {measure!r}")


class MomentReport(namedtuple("MomentReport", "family checks")):
    """A family's name and its checks, a tuple of ``Check``."""

    __slots__ = ()


def _close(value: ErrorBoundedReal, expected, tol) -> bool:
    """Whether an estimate is within max(tol |expected|, its radius) of ``expected``."""
    mp = _mpmath().mp
    with mp.workprec(160):
        gap = abs(value.value - mp.mpf(expected))
        allowance = max(mp.mpf(tol) * abs(mp.mpf(expected)), value.abs_error)
        return bool(gap <= allowance)


def _family(r: int, s: int):
    """The measure of the family (r, s)."""
    if s >= 1:
        if (r, s) == (1, 1):
            return dirac_comb()
        if r == s:
            return rarefied_comb(r)
        if r == 2 * s:
            return ContinuousDensity(s)
    raise UnsupportedFamilyError(
        f"no measure implemented for (r, s) = ({r}, {s}); "
        "supported: r = s >= 1, r = 2s >= 2"
    )


def verify_moments(r: int, s: int, n_max: int, tol=1e-9, *, bits: int = DEFAULT_BITS) -> MomentReport:
    """Check that a family's measure reproduces its Bell numbers.

    Supported families: (1,1) -> Dirac comb; r = s -> rarefied comb;
    r = 2s -> continuous Bessel-type density; every other (r, s) raises
    UnsupportedFamilyError.  Every family runs the same checks in this order:
    the moments n = 1..n_max against the Bell numbers (a comb's certified
    moment passes only if it rounds to its Bell number, a density's
    quadrature estimate if it is within tol of it); the mass against the
    closed form 1 - e^{-1} sum_{j<j0} 1/j! (the density's also by quadrature);
    the density's moments n <= 4 against their Dobinski series; and positivity,
    of the comb's atoms or of the density at every quadrature node.  One
    quadrature pass gives the density's moments, its mass and its positivity.
    """
    if not all(isinstance(v, int) for v in (r, s, n_max)):
        raise TypeError("r, s and n_max must be integers")
    if n_max < 1:
        raise OutOfRangeError("need n_max >= 1")
    if not 0 < tol < inf:
        raise OutOfRangeError("tol must be positive and finite")
    measure = _family(r, s)
    discrete = isinstance(measure, DiscreteMeasure)
    j0 = measure.j0 if discrete else s
    series = SeriesSpec(working_precision=bits, target_abs_error=1e-14)
    target = min(float(tol), 1e-10)
    if discrete:
        values = [moment(measure, n, target_error=target, bits=bits) for n in range(1, n_max + 1)]
        routes = {"series": measure.mass(series)}
        positivity = measure.check_atoms(64)
    else:
        (mass, *values), positivity = _quadrature(measure, list(range(n_max + 1)), target, bits)
        routes = {"series": continuous_moment_series(s, 0, series), "quadrature": mass}
    checks = [
        Check(
            name=f"moment n={n}",
            ok=rounds_to(value, expected)[0] if discrete else _close(value, expected, tol),
            detail=f"got {value}, expected B_{{{r},{s}}}({n}) = {expected}",
        )
        for n, value, expected in zip(count(1), values, bell_sequence(r, s, n_max)[1:])
    ]
    mp = _mpmath().mp
    with mp.workprec(160):
        closed = 1 - mp.fsum(mp.mpf(1) / factorial(j) for j in range(j0)) / mp.e
        checks.append(
            Check(
                name="mass",
                ok=all(_close(mass, closed, 1e-12) for mass in routes.values()),
                detail=", ".join(f"{route} {mass}" for route, mass in routes.items())
                + f"; closed form 1 - (1/e) sum_{{j<{j0}}} 1/j! = {mp.nstr(closed, 20)}",
            )
        )
    if not discrete:
        for n, quad in enumerate(values[:4], start=1):
            srs = dobinski_rs(r, s, n, series)
            detail = f"quadrature {quad} vs series {srs}"
            checks.append(Check(f"series vs quadrature n={n}", quad.agrees_with(srs), detail))
    checks.append(positivity)
    family = measure.label if discrete else f"bessel-density(r={s})"
    return MomentReport(family=family, checks=tuple(checks))
