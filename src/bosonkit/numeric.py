"""High-precision plumbing: error-bounded reals and certified series summation.

Every infinite sum handled here has non-negative rational terms, zero only
before the first positive one, whose successive-term ratios are
non-increasing from there (each term is a fixed rational function of k
divided by k!), so a geometric bound on the omitted tail becomes valid once
the observed ratio drops below 1/2.  Each term arrives as an integer pair
(p_k, m_k), meaning p_k / q_k with q_k = q_(k-1) m_k: the denominators k!,
(k+r)!, Pochhammer products, ... grow by a small factor m_k > 0 per term, so
a term costs one multiply-add and no rational is reduced per term.  Every
exact ratio (target, partial sum, tail) is an integer pair (num, den) too.
Partial sums are exact, and so is the final division by e up to one bracket:
a quotient q / e is enclosed by integer products with L <= 2^p / e <= U, cut
from a bracket cached per power-of-two width, at one precision p chosen from
the target, the bit length of q and the working precision before any
arithmetic, with no ceiling on p.  The enclosure is built from its last
integers, a midpoint and a radius over one power of two: its two mpfs are
the normalized raw tuples mpmath itself would make of them, and the one check
that can fail, radius >= 0, is made on the integer.  Rounding an enclosure to
an integer, or comparing two, is integer arithmetic too: each mpf is read as
signed mantissa and exponent, and all of them are shifted to one common
power of two.

``Check``, ``SeriesSpec`` and ``ErrorBoundedReal`` are named tuples, the last two
checked when built: they unpack, iterate and compare equal to a plain tuple.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Iterator, NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import MPZ, fzero

from .errors import BosonKitError, NonIntegerResultError, PrecisionExhaustedError

DEFAULT_BITS = 256
MAX_BITS = 4096  # the most working precision a caller may ask for
# The most terms a series may take before it is deemed not to converge.
_MAX_TERMS = 100000


class Check(NamedTuple):
    """One verification outcome: a named pass or fail with the reason.

    As a named tuple it unpacks, iterates and compares equal to the plain
    tuple (name, ok, detail).
    """

    name: str
    ok: bool
    detail: str


class SeriesSpec(namedtuple("SeriesSpec", "working_precision target_abs_error")):
    """Precision policy: an absolute error target and a working precision in bits.

    A series value's midpoint keeps at least working_precision significant
    bits; more are used when the target needs them.
    """

    # No __slots__: the cached properties below keep their values in the instance dict.
    def __new__(cls, working_precision: int = DEFAULT_BITS, target_abs_error: float = 1e-12):
        if not isinstance(working_precision, int):
            raise TypeError("working_precision must be an integer")
        if working_precision < 16:
            raise ValueError("working_precision must be at least 16 bits")
        if working_precision > MAX_BITS:
            raise ValueError(f"working_precision must be at most {MAX_BITS} bits")
        if not 0 < target_abs_error < math.inf:
            raise ValueError("target_abs_error must be positive and finite")
        return super().__new__(cls, working_precision, target_abs_error)

    # namedtuple's _make, behind _replace, calls tuple.__new__ and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @functools.cached_property
    def target(self) -> tuple[int, int]:
        """target_abs_error as a reduced pair, via as_integer_ratio() or an mpf's mantissa and exponent."""
        if isinstance(self.target_abs_error, mpmath.mpf):
            man, exp = _signed_man_exp(self.target_abs_error)
            return _reduced(man << max(exp, 0), 1 << max(-exp, 0))
        return _reduced(*self.target_abs_error.as_integer_ratio())

    @functools.cached_property
    def half_target(self) -> tuple[int, int]:
        """target / 2 as a reduced pair, the size below which a series may stop adding terms."""
        return _reduced(self.target[0], 2 * self.target[1])


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms; bit lengths of the pair steer quotient_by_e's precision."""
    g = math.gcd(num, den)
    return num // g, den // g


def _signed_man_exp(x: mpmath.mpf) -> tuple[int, int]:
    """(man, exp) with x = man * 2^exp exactly; man carries the sign, which mpf.man_exp drops."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


class ErrorBoundedReal(namedtuple("ErrorBoundedReal", "value abs_error")):
    """A value together with a bound on |true - value|.

    The bound covers series truncation and accumulated rounding; rounding to
    an integer is only allowed while the bound stays below 1/2.  Both are
    finite mpf numbers, compared exactly as integers over a common power of
    two, at any magnitude and precision.  The constructor checks them on
    their raw mpf tuples; a series value is built by ``_from_dyadic`` from
    the integers it was computed in, and needs only its radius checked.
    """

    __slots__ = ()

    def __new__(cls, value: mpmath.mpf, abs_error: mpmath.mpf):
        if not (isinstance(value, mpmath.mpf) and isinstance(abs_error, mpmath.mpf)):
            raise TypeError("value and abs_error must be mpmath mpf numbers")
        # A raw mpf is (sign, man, exp, bc); inf and nan alone have bc < 0,
        # and zero has sign 0, so a set sign bit on a finite mpf is negative.
        (_, _, _, bc), (sign, _, _, r_bc) = value._mpf_, abs_error._mpf_
        if bc < 0 or r_bc < 0:
            raise ValueError("value and abs_error must be finite")
        if sign:
            raise ValueError("abs_error must be non-negative")
        return tuple.__new__(cls, (value, abs_error))

    @classmethod
    def _from_dyadic(cls, man: int, radius: int, exp: int) -> "ErrorBoundedReal":
        """The enclosure man * 2^exp +/- radius * 2^exp, checked and built from its integers."""
        if radius < 0:
            raise ValueError("abs_error must be non-negative")
        return tuple.__new__(cls, (_dyadic(man, exp), _dyadic(radius, exp)))

    # namedtuple's _make, behind _replace, calls tuple.__new__ and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def to_integer(self) -> int:
        """The unique integer inside the enclosure, if there is one.

        Requires abs_error < 1/2 (uniqueness) and the nearest integer to
        actually lie within the bound, so a tightly certified non-integer is
        rejected instead of silently rounded.  Value and radius are read as
        signed mantissa and exponent and compared as integers in units of one
        common power of two, 2^e with e <= -1, in which 1/2 is exact.  A value
        halfway between two integers is 1/2 from both, outside every radius
        below 1/2, so it needs no tie rule.
        """
        r_man, r_exp = _signed_man_exp(self.abs_error)
        v_man, v_exp = _signed_man_exp(self.value)
        e = min(r_exp, v_exp, -1)
        radius, half = r_man << (r_exp - e), 1 << (-1 - e)
        if not radius < half:
            raise PrecisionExhaustedError(
                f"abs_error {self.abs_error} >= 1/2; cannot round to an integer"
            )
        value = v_man << (v_exp - e)
        nearest = (value + half) >> -e
        if abs(value - (nearest << -e)) > radius:
            raise NonIntegerResultError(
                f"enclosure {self} excludes every integer"
            )
        return nearest

    def agrees_with(self, other: "ErrorBoundedReal") -> bool:
        """Whether the two enclosures overlap, decided in integers as to_integer is."""
        parts = [
            _signed_man_exp(x)
            for x in (self.value, other.value, self.abs_error, other.abs_error)
        ]
        e = min(exp for _, exp in parts)
        a, b, ra, rb = (man << (exp - e) for man, exp in parts)
        return abs(a - b) <= ra + rb

    def __str__(self) -> str:
        return f"{mpmath.nstr(self.value, 20)} +/- {mpmath.nstr(self.abs_error, 3)}"


def rounds_to(value: ErrorBoundedReal, expected: int) -> tuple[bool, BosonKitError | None]:
    """(to_integer() == expected, None), or (False, to_integer's error) if it rounds to no integer."""
    try:
        return value.to_integer() == expected, None
    except (NonIntegerResultError, PrecisionExhaustedError) as exc:
        return False, exc


def sum_with_tail_bound(
    terms: Iterator[tuple[int, int]],
    stop_below: tuple[int, int],
) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Sum terms p_k / q_k given as integer pairs (p_k, m_k), p_k >= 0 and m_k > 0.

    The denominators run as q_k = q_(k-1) * m_k from q_(-1) = 1, and terms
    must be zero only before the first positive one.  The partial sum is kept
    as one unreduced fraction T / D with D = q_k, so a term costs one
    multiply-add: T = T * m_k + p_k and D = D * m_k.

    Stops once the last summed term P / D is below ``stop_below`` = (sn, sd)
    (P * sd < sn * D) and the next term p / (D m) has ratio below 1/2 to it
    (2 * p < P * m, which also needs P > 0).  With ratios non-increasing
    from the first positive term on, the geometric series of that ratio
    bounds the tail by p * P / (D * (m * P - p)).  Bit lengths settle the
    stop test first for most terms: bl(P) - bl(D) >= bl(sn) - bl(sd) + 2 gives
    P / D > 2^(bl(P) - 1 - bl(D)) >= 2^(bl(sn) - bl(sd) + 1) > sn / sd.

    Returns ((T, D), (tail_n, tail_d), terms_summed), unreduced; quotient_by_e reduces them.
    """
    sn, sd = stop_below
    if sn <= 0 or sd <= 0:
        raise ValueError("stop_below must be positive")
    screen = sn.bit_length() - sd.bit_length() + 2
    total, denom = 0, 1
    prev = 0
    count = 0
    for p, m in terms:
        if p < 0:
            raise ValueError("series terms must be non-negative")
        if m <= 0:
            raise ValueError("series term multipliers must be positive")
        near = prev.bit_length() - denom.bit_length() < screen
        if near and 2 * p < prev * m and prev * sd < sn * denom:
            return (total, denom), (p * prev, denom * (m * prev - p)), count
        total, denom = total * m + p, denom * m
        prev = p
        count += 1
        if count > _MAX_TERMS:
            raise PrecisionExhaustedError(
                f"series did not meet the stopping rule within {_MAX_TERMS} terms"
            )
    raise ValueError("term iterator exhausted before the stopping rule was met")


@functools.lru_cache(maxsize=None)
def _inv_e_fixed(width: int) -> tuple[int, int]:
    """Integers L <= 2^M / e <= U with M = width, from the series of 1/e.

    t_k = floor(2^M / k!) is exact by repeated floor division, and the
    alternating sum of t_0 .. t_K, where t_(K+1) = 0, differs from 2^M / e by
    less than one per term for the floors and less than one for the tail
    beyond K, so widening it by K + 2 brackets 2^M / e.
    """
    t, k, total = 1 << width, 0, 0
    while t:
        total += -t if k & 1 else t
        k += 1
        t //= k
    return total - (k + 1), total + (k + 1)  # k = K + 1 here


def _inv_e_bracket(p: int) -> tuple[int, int]:
    """Integers L_p <= 2^p / e <= U_p with U_p - L_p <= 2, for any p >= 0.

    They are the bracket at the least power-of-two width with 64 guard bits
    above p, shifted down past the guard bits, which drops its own width.
    """
    width = 1 << (p + 64).bit_length()
    low, high = _inv_e_fixed(width)
    shift = width - p
    return low >> shift, -(-high >> shift)


def _dyadic(man: int, exp: int) -> mpmath.mpf:
    """man * 2^exp as an mpf, exactly, whatever the context precision.

    Its raw tuple is the one mpmath's from_man_exp(man, exp) normalizes to,
    built here in integers: zero is fzero, and otherwise the sign goes to its
    own field and the mantissa loses its trailing zero bits to the exponent.
    """
    if not man:
        return mp.make_mpf(fzero)
    sign = 0
    if man < 0:
        sign, man = 1, -man
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return mp.make_mpf((sign, MPZ(man), exp, man.bit_length()))


def quotient_by_e(q: tuple[int, int], tail: tuple[int, int], series: SeriesSpec) -> ErrorBoundedReal:
    """Enclose Q/e for every Q in [q - tail, q + tail], q and tail non-negative.

    q = num / den and the tail are integer pairs, reduced first since the
    precision reads their bit lengths (9/6 gives the enclosure of 3/2); all of
    it is integer arithmetic on them, the target pair and the bracket of 1/e.
    The tail's share of the radius, tail / e bounded with the 64-bit bracket,
    does not depend on precision: if it alone reaches the target no precision
    helps.  What it leaves of the target is the rounding budget.  The result's
    number of fraction bits, ``frac``, is chosen once from it: the rounding,
    at most 2^(1 - frac), takes under a quarter of the budget, and with |q| < 2^mag
    the midpoint keeps frac + mag >= working_precision significant bits.

    With L_p <= 2^p / e <= U_p at p = frac + mag + 1, lo = floor(q L_p / 2^(mag+1))
    and hi = ceil(q U_p / 2^(mag+1)) bracket 2^frac q / e and differ by at most
    2.  The midpoint is (lo + hi) / 2^(frac+1) and the radius
    (hi - lo + 2 t) / 2^(frac+1), t being the tail's share in units of 2^-frac,
    rounded up; both convert to mpf exactly, and the radius is checked
    against the target in integers.
    """
    if min(q[0], tail[0]) < 0 or min(q[1], tail[1]) <= 0:
        raise ValueError("q and tail must be non-negative, with positive denominators")
    (num, den), (tail_n, tail_d) = _reduced(*q), _reduced(*tail)
    goal_n, goal_d = series.target
    _, inv_e = _inv_e_bracket(64)  # 1/e <= inv_e / 2^64
    # The budget slack_n / slack_d = target - tail * inv_e / 2^64.
    slack_d = goal_d * tail_d << 64
    slack_n = (goal_n * tail_d << 64) - goal_d * tail_n * inv_e
    if slack_n <= 0:
        raise PrecisionExhaustedError(
            "truncation tail alone exceeds the target error"
        )
    mag = num.bit_length() - den.bit_length() + 1  # q < 2^mag
    # 2^-budget_bits < slack, so 2^(1 - frac) < slack / 4.
    budget_bits = slack_d.bit_length() - slack_n.bit_length() + 1
    frac = max(series.working_precision - mag, budget_bits + 3, 0)
    low, high = _inv_e_bracket(frac + mag + 1)
    # Divide the products by 2^(mag + 1), multiplying instead when mag + 1 < 0.
    up, down = max(-mag - 1, 0), max(mag + 1, 0)
    lo = (num * low << up) // (den << down)
    hi = -(-(num * high << up) // (den << down))
    share = -(-(tail_n * inv_e << frac) // (tail_d << 64))
    width = hi - lo + 2 * share
    if width * goal_d > goal_n << (frac + 1):
        raise PrecisionExhaustedError(
            f"target {series.target_abs_error} unreachable at {frac + mag} bits"
        )
    return ErrorBoundedReal._from_dyadic(lo + hi, width, -frac - 1)


def sum_over_e(terms: Iterator[tuple[int, int]], series: SeriesSpec) -> ErrorBoundedReal:
    """(1/e) * the sum of ``terms`` (integer pairs (p_k, m_k)), with a certified bound.

    A constant factor of the sum, such as the hypergeometric prefactor, is
    carried by the terms themselves.  The tail contributes tail / e to the
    value; stopping once terms drop below target / 2 keeps that within half
    the budget, and quotient_by_e accounts for the rest.
    """
    partial, tail, _ = sum_with_tail_bound(terms, series.half_target)
    return quotient_by_e(partial, tail, series)
