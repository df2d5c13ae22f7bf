"""High-precision plumbing: error-bounded reals and certified series summation.

Every infinite sum handled here has non-negative rational terms, zero only
before the first positive one, whose successive-term ratios are
non-increasing from there (each term is a fixed rational function of k
divided by k!), so a geometric bound on the omitted tail becomes valid once
the observed ratio drops below 1/2.  Each term arrives as an integer pair
(p_k, q_k), q_k > 0, meaning p_k / q_k; the partial sum is one unreduced
integer fraction over a running common denominator, and the stopping rule is
decided by integer cross-multiplication, so no rational is reduced per term.
Partial sums are exact; only the final division by e rounds, starting at the
working precision and doubling up to the fixed ceiling MAX_BITS = 4096.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath
from mpmath import mp

from .errors import NonIntegerResultError, PrecisionExhaustedError

DEFAULT_BITS = 256
MAX_BITS = 4096

_HALF = Fraction(1, 2)
# Upper bound on 1/e with slack for its own rounding.
_INV_E_UPPER = Fraction(37, 100)


@dataclass(frozen=True)
class Check:
    """One verification outcome: a named pass or fail with the reason."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SeriesSpec:
    """Precision policy: working precision in bits and an absolute error target."""

    working_precision: int = DEFAULT_BITS
    target_abs_error: float = 1e-12

    def __post_init__(self) -> None:
        if self.working_precision < 16:
            raise ValueError("working_precision must be at least 16 bits")
        if self.working_precision > MAX_BITS:
            raise ValueError(f"working_precision must be at most {MAX_BITS} bits")
        if not self.target_abs_error > 0:
            raise ValueError("target_abs_error must be positive")

    @property
    def target(self) -> Fraction:
        return Fraction(self.target_abs_error)


def _exact(x) -> Fraction:
    """x as a Fraction, without rounding; an mpf converts from its mantissa and exponent."""
    if isinstance(x, mpmath.mpf):
        man, exp = x.man_exp  # the magnitude; the sign is not part of it
        if x < 0:
            man = -man
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return Fraction(x)


@dataclass(frozen=True)
class ErrorBoundedReal:
    """A value together with a bound on |true - value|.

    The bound covers series truncation and accumulated rounding; rounding to
    an integer is only allowed while the bound stays below 1/2.  Both are
    finite and compared as exact rationals, at any magnitude and precision.
    """

    value: mpmath.mpf
    abs_error: mpmath.mpf

    def __post_init__(self) -> None:
        if not (mpmath.isfinite(self.value) and mpmath.isfinite(self.abs_error)):
            raise ValueError("value and abs_error must be finite")
        if self.abs_error < 0:
            raise ValueError("abs_error must be non-negative")

    def to_integer(self) -> int:
        """The unique integer inside the enclosure, if there is one.

        Requires abs_error < 1/2 (uniqueness) and the nearest integer to
        actually lie within the bound, so a tightly certified non-integer is
        rejected instead of silently rounded.
        """
        radius = _exact(self.abs_error)
        if not radius < _HALF:
            raise PrecisionExhaustedError(
                f"abs_error {self.abs_error} >= 1/2; cannot round to an integer"
            )
        value = _exact(self.value)
        nearest = round(value)
        if abs(value - nearest) > radius:
            raise NonIntegerResultError(
                f"enclosure {self} excludes every integer"
            )
        return nearest

    def agrees_with(self, other: "ErrorBoundedReal") -> bool:
        """Whether the two enclosures overlap."""
        gap = abs(_exact(self.value) - _exact(other.value))
        return gap <= _exact(self.abs_error) + _exact(other.abs_error)

    def __str__(self) -> str:
        return f"{mpmath.nstr(self.value, 20)} +/- {mpmath.nstr(self.abs_error, 3)}"


def sum_with_tail_bound(
    terms: Iterator[tuple[int, int]],
    stop_below: Fraction,
    *,
    max_terms: int = 100000,
) -> tuple[Fraction, Fraction, int]:
    """Sum terms p_k / q_k given as integer pairs, p_k >= 0 and q_k > 0.

    Terms must be zero only before the first positive one.  The partial sum
    is kept as one unreduced fraction T / D: when D divides q_k (the running
    denominators k!, (k+r)!, ... of every series here) the new term costs one
    multiply-add, T = T * (q_k // D) + p_k; otherwise T and D cross-multiply.

    Stops once the last summed term P / Q is positive and below
    ``stop_below`` = sn / sd (P * sd < sn * Q) and the next term p / q has
    ratio below 1/2 to it (2 * p * Q < P * q).  With ratios non-increasing
    from the first positive term on, the geometric series of that ratio
    bounds the tail by p * P / (q * P - p * Q).

    Returns (partial_sum, tail_bound, terms_summed), both rationals reduced.
    """
    if stop_below <= 0:
        raise ValueError("stop_below must be positive")
    sn, sd = stop_below.as_integer_ratio()
    total, denom = 0, 1
    prev_p, prev_q = 0, 1
    count = 0
    for p, q in terms:
        if p < 0:
            raise ValueError("series terms must be non-negative")
        if q <= 0:
            raise ValueError("series term denominators must be positive")
        if prev_p and prev_p * sd < sn * prev_q and 2 * p * prev_q < prev_p * q:
            tail = Fraction(p * prev_p, q * prev_p - p * prev_q)
            return Fraction(total, denom), tail, count
        scale, rem = divmod(q, denom)
        if rem:
            total, denom = total * q + p * denom, denom * q
        else:
            total, denom = total * scale + p, q
        prev_p, prev_q = p, q
        count += 1
        if count > max_terms:
            raise PrecisionExhaustedError(
                f"series did not meet the stopping rule within {max_terms} terms"
            )
    raise ValueError("term iterator exhausted before the stopping rule was met")


def _fraction_to_mpf(q: Fraction) -> mpmath.mpf:
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def quotient_by_e(q: Fraction, tail: Fraction, series: SeriesSpec) -> ErrorBoundedReal:
    """Evaluate q/e where the exact numerator lies in [q - tail, q + tail].

    The reported bound covers the tail and all rounding; the working precision
    is doubled (up to MAX_BITS) until the bound meets the target.
    """
    if tail < 0:
        raise ValueError("tail must be non-negative")
    # The tail part is precision-independent; fail early if it already blows
    # the budget (a truncation problem, not fixable by more bits).
    if tail * _INV_E_UPPER > series.target:
        raise PrecisionExhaustedError(
            "truncation tail alone exceeds the target error"
        )
    bits = series.working_precision
    while True:
        with mp.workprec(bits):
            value = _fraction_to_mpf(q) * mp.exp(-1)
            # Three roundings (two conversions, one multiply) plus slack.
            rounding = abs(value) * mp.mpf(2) ** (6 - bits) + mp.mpf(2) ** (-bits)
            err = _fraction_to_mpf(tail * _INV_E_UPPER) * (1 + mp.mpf(2) ** -20) + rounding
            target_f = _fraction_to_mpf(series.target)
            ok = err <= target_f
            result = ErrorBoundedReal(value=+value, abs_error=+err)
        if ok:
            return result
        if bits >= MAX_BITS:
            raise PrecisionExhaustedError(
                f"target {series.target_abs_error} unreachable at {MAX_BITS} bits"
            )
        bits = min(2 * bits, MAX_BITS)


def sum_over_e(
    terms: Iterator[tuple[int, int]], series: SeriesSpec, prefactor: Fraction = Fraction(1)
) -> ErrorBoundedReal:
    """(prefactor / e) * the sum of ``terms`` (integer pairs), with a certified bound.

    The tail contributes prefactor * tail / e to the value; stopping once
    terms drop below target / (2 * prefactor) keeps that within half the
    budget, and quotient_by_e accounts for the rest.
    """
    stop_below = series.target / (2 * max(prefactor, Fraction(1)))
    partial, tail, _ = sum_with_tail_bound(terms, stop_below)
    return quotient_by_e(prefactor * partial, prefactor * tail, series)

