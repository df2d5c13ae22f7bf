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
from a bracket cached per power-of-two width, at one precision p chosen before
any arithmetic from the target, the working precision and exact binary
logarithms of q and of the rounding budget, with no ceiling on p; they read
values, not representations, so no pair is reduced by a gcd.  The enclosure
keeps its last integers, a midpoint and a radius as ``Dyadic`` numbers, and
the one check that can fail, radius >= 0, is made on the integer.  Rounding
an enclosure to an integer, comparing two and printing one are integer
arithmetic too: no certified series loads mpmath, which only a caller's
arithmetic on a Dyadic imports.

``Check``, ``SeriesSpec`` and ``ErrorBoundedReal`` are named tuples, the last two
checked when built: they unpack, iterate and compare equal to a plain tuple.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from operator import add, eq, ge, gt, le, lt, mul, sub, truediv

from .errors import BosonKitError, NonIntegerResultError, PrecisionExhaustedError

DEFAULT_BITS = 256
MAX_BITS = 4096  # the most working precision a caller may ask for
# The most terms a series may take before it is deemed not to converge.
MAX_TERMS = 100000


class Check(namedtuple("Check", "name ok detail")):
    """One verification outcome: a named pass or fail with the reason.

    As a named tuple it unpacks, iterates and compares equal to the plain
    tuple (name, ok, detail).
    """

    __slots__ = ()


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
        exact = _to_dyadic(self.target_abs_error)
        if exact is None:
            return _reduced(*self.target_abs_error.as_integer_ratio())
        return _reduced(exact.man << max(exact.exp, 0), 1 << max(-exact.exp, 0))

    @functools.cached_property
    def half_target(self) -> tuple[int, int]:
        """target / 2 as a reduced pair, the size below which a series may stop adding terms."""
        return _reduced(self.target[0], 2 * self.target[1])


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, as a spec's target and half target are given."""
    g = math.gcd(num, den)
    return num // g, den // g


def _floor_log2(num: int, den: int) -> int:
    """floor(log2(num / den)) for num, den > 0: bit lengths, then one shift-and-compare."""
    d = num.bit_length() - den.bit_length()  # 2^(d-1) < num / den < 2^(d+1)
    return d - (num << max(-d, 0) < den << max(d, 0))


class Dyadic:
    """The exact number man * 2^exp, man signed, normalized as mpmath normalizes an mpf: man odd, or (0, 0).

    ``man_exp`` and ``_mpf_`` read as an equal mpf's, so mpmath takes a Dyadic as one.  Comparisons
    with ints, floats, Dyadics and mpfs, -, abs(), float() and hash() are exact; + - * / give mpfs.
    """

    __slots__ = ("man", "exp")

    def __new__(cls, man: int, exp: int):
        self = object.__new__(cls)
        if not man & 1:  # even, or zero
            zeros = (man & -man).bit_length() - 1
            man, exp = (man >> zeros, exp + zeros) if man else (0, 0)
        self.man, self.exp = man, exp
        return self

    man_exp = property(lambda self: (abs(self.man), self.exp))

    @property
    def _mpf_(self) -> tuple:
        from mpmath.libmp import MPZ  # loaded here, since only mpmath reads the raw tuple
        return int(self.man < 0), MPZ(abs(self.man)), self.exp, abs(self.man).bit_length()

    def _compare(op):
        def compare(self, other):
            other = _to_dyadic(other)
            if not isinstance(other, Dyadic):  # None for a type it does not know, else inf or nan
                return NotImplemented if other is None else op(0.0, other)
            e = min(self.exp, other.exp)
            return op(self.man << (self.exp - e), other.man << (other.exp - e))
        return compare

    def _by_mpmath(op):
        def mpf(x):
            from mpmath import mp  # loaded here, since only arithmetic on a Dyadic needs it
            return mp.make_mpf(x._mpf_)
        return lambda self, other: op(mpf(self), other), lambda self, other: op(other, mpf(self))

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_compare, (eq, lt, le, gt, ge))
    (__add__, __radd__), (__sub__, __rsub__) = map(_by_mpmath, (add, sub))
    (__mul__, __rmul__), (__truediv__, __rtruediv__) = map(_by_mpmath, (mul, truediv))
    del _compare, _by_mpmath
    __neg__ = lambda self: Dyadic(-self.man, self.exp)
    __abs__ = lambda self: Dyadic(abs(self.man), self.exp)
    __bool__ = lambda self: self.man != 0
    __reduce__ = lambda self: (Dyadic, (self.man, self.exp))
    __repr__ = lambda self: f"Dyadic({self.man}, {self.exp})"
    # Every digit: man * 2^exp is man * 5^-exp * 10^exp.
    __str__ = lambda self: _layout(self.man * 5 ** -min(self.exp, 0) << max(self.exp, 0), min(self.exp, 0))

    def __float__(self) -> float:
        # As mpf's float(): man rounded to nearest at 53 bits (two guard bits over a sticky one), then scaled.
        man, cut = abs(self.man), max(abs(self.man).bit_length() - 55, 0)
        top = float(man >> cut | (man % (1 << cut) != 0))
        try:
            return math.ldexp(-top if self.man < 0 else top, self.exp + cut)
        except OverflowError:
            return -math.inf if self.man < 0 else math.inf

    # Python's hash of the rational man * 2^exp, which equal ints, floats and mpfs share.
    __hash__ = lambda self: hash(self.man * pow(2, self.exp, sys.hash_info.modulus))


def _to_dyadic(x) -> Dyadic | float | None:
    """x exactly as a Dyadic if it is one, an int, a float or an mpf; inf or nan as a float; else None."""
    if isinstance(x, (Dyadic, int)):
        return x if isinstance(x, Dyadic) else Dyadic(int(x), 0)
    if isinstance(x, float) and math.isfinite(x):
        man, den = x.as_integer_ratio()
        return Dyadic(man, 1 - den.bit_length())
    raw = getattr(x, "_mpf_", None)
    if raw is None:
        return x if isinstance(x, float) else None
    sign, man, exp, bc = raw  # inf and nan alone have bc < 0
    return float(x) if bc < 0 else Dyadic(-int(man) if sign else int(man), exp)


class ErrorBoundedReal(namedtuple("ErrorBoundedReal", "value abs_error")):
    """A value together with a bound on |true - value|.

    The bound covers series truncation and accumulated rounding; rounding to
    an integer is only allowed while the bound stays below 1/2.  Both are
    finite ``Dyadic`` numbers, compared exactly as integers over a common
    power of two, at any magnitude and precision.  The constructor converts
    mpfs exactly; a series value is built by ``_from_dyadic`` from the
    integers it was computed in, and needs only its radius checked.
    """

    __slots__ = ()

    def __new__(cls, value: Dyadic, abs_error: Dyadic):
        if not all(isinstance(x, Dyadic) or hasattr(x, "_mpf_") for x in (value, abs_error)):
            raise TypeError("value and abs_error must be mpmath mpf numbers or Dyadic")
        value, abs_error = _to_dyadic(value), _to_dyadic(abs_error)
        if isinstance(value, float) or isinstance(abs_error, float):
            raise ValueError("value and abs_error must be finite")
        if abs_error.man < 0:
            raise ValueError("abs_error must be non-negative")
        return tuple.__new__(cls, (value, abs_error))

    @classmethod
    def _from_dyadic(cls, man: int, radius: int, exp: int) -> "ErrorBoundedReal":
        """The enclosure man * 2^exp +/- radius * 2^exp, checked and built from its integers."""
        if radius < 0:
            raise ValueError("abs_error must be non-negative")
        return tuple.__new__(cls, (Dyadic(man, exp), Dyadic(radius, exp)))

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
        v, r = self
        e = min(r.exp, v.exp, -1)
        radius, half = r.man << (r.exp - e), 1 << (-1 - e)
        if not radius < half:
            # The radius as str(self) prints it, rounded up, so the message stays true.
            raise PrecisionExhaustedError(
                f"abs_error {str(self).rpartition(' +/- ')[2]} >= 1/2; cannot round to an integer"
            )
        value = v.man << (v.exp - e)
        nearest = (value + half) >> -e
        if abs(value - (nearest << -e)) > radius:
            raise NonIntegerResultError(
                f"enclosure {self} excludes every integer"
            )
        return nearest

    def agrees_with(self, other: "ErrorBoundedReal") -> bool:
        """Whether the two enclosures overlap, decided in integers as to_integer is."""
        parts = (self.value, other.value, self.abs_error, other.abs_error)
        e = min(x.exp for x in parts)
        a, b, ra, rb = (x.man << (x.exp - e) for x in parts)
        return abs(a - b) <= ra + rb

    def __str__(self) -> str:
        """The enclosure m +/- r printed from its integers, so that the printed interval holds it.

        As Arb's arb_get_str does: with 10^q <= r < 10^(q+1), m is rounded to a multiple of 10^q, off
        by eps <= 10^q / 2, and r + eps is rounded up to 3 significant digits; r = 0 prints m exactly.
        Both are laid out as nstr(x, 20) and nstr(x, 3) lay them out.
        """
        value, radius = self
        if not radius:
            return f"{value} +/- 0.0"
        # The midpoint m / den and the radius r / den, den a power of two.
        shift = max(-value.exp, -radius.exp, 0)
        den = 1 << shift
        m, r = value.man << (value.exp + shift), radius.man << (radius.exp + shift)
        q = math.floor(math.log10(radius.man) + radius.exp * math.log10(2))
        while r * 10 ** max(-q, 0) < den * 10 ** max(q, 0):  # radius < 10^q
            q -= 1
        while r * 10 ** max(-q - 1, 0) >= den * 10 ** max(q + 1, 0):  # radius >= 10^(q+1)
            q += 1
        # In units of 1 / (den 10^max(-q, 0)): the midpoint m, the radius r and 10^q = unit.
        m, r, unit = (m, r, 10**q * den) if q >= 0 else (m * 10**-q, r * 10**-q, den)
        n = (2 * m + unit) // (2 * unit)
        bound = r + abs(m - n * unit)
        p = q + (bound >= 10 * unit)  # 10^p <= bound < 10^(p+1)
        return f"{_layout(n, q)} +/- {_layout(-(-100 * bound // (unit * 10 ** (p - q))), p - 2, -5, 3)}"


def _digits(n: int) -> str:
    """str(n) for n >= 0, split in halves past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        high, low = divmod(n, 10 ** (k := n.bit_length() * 3 // 20))  # k: about half its digits
        return _digits(high) + _digits(low).rjust(k, "0")


def _layout(n: int, q: int, low: int = -6, high: int = 20) -> str:
    """n * 10^q as nstr(x, 20) lays it out: fixed-point if low < lead < high, 10^lead its first digit's place."""
    digits = _digits(abs(n))
    lead = len(digits) - 1 + q if n else 0
    point, exponent = (max(lead, 0) + 1, "") if low < lead < high else (1, f"e{lead:+d}")
    digits = ("0" * -lead + digits if low < lead < 0 else digits).ljust(point + 1, "0")
    return f"{'-' * (n < 0)}{digits[:point]}.{digits[point:].rstrip('0') or '0'}{exponent}"


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

    Returns ((T, D), (tail_n, tail_d), terms_summed), unreduced; quotient_by_e reads them as given.
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
        if count > MAX_TERMS:
            raise PrecisionExhaustedError(
                f"series did not meet the stopping rule within {MAX_TERMS} terms"
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


@functools.lru_cache(maxsize=16)
def _inv_e_bracket(p: int) -> tuple[int, int]:
    """Integers L_p <= 2^p / e <= U_p with U_p - L_p <= 2, for any p >= 0.

    They are the bracket at the least power-of-two width with 64 guard bits
    above p, shifted down past the guard bits, which drops its own width.
    """
    width = 1 << (p + 64).bit_length()
    low, high = _inv_e_fixed(width)
    shift = width - p
    return low >> shift, -(-high >> shift)


def quotient_by_e(q: tuple[int, int], tail: tuple[int, int], series: SeriesSpec) -> ErrorBoundedReal:
    """Enclose Q/e for every Q in [q - tail, q + tail], q and tail non-negative.

    q = num / den and the tail are integer pairs, read as given: the precision
    reads exact binary logarithms of values, never a pair's bit lengths, so 9/6
    gives the enclosure of 3/2 and no gcd is taken.  All of it is integer
    arithmetic on them, the target pair and the bracket of 1/e.
    The tail's share of the radius, tail / e bounded with the 64-bit bracket,
    does not depend on precision: if it alone reaches the target no precision
    helps.  What it leaves of the target is the rounding budget.  The result's
    number of fraction bits, ``frac``, is chosen once from it: the rounding,
    at most 2^(1 - frac), takes under a quarter of the budget, and with
    mag = floor(log2 q) + 1 (0 at q = 0), so q < 2^mag, the midpoint keeps
    frac + mag >= working_precision significant bits.

    With L_p <= 2^p / e <= U_p at p = frac + mag + 1, lo = floor(q L_p / 2^(mag+1))
    and hi = ceil(q U_p / 2^(mag+1)) bracket 2^frac q / e and differ by at most
    2.  The midpoint is (lo + hi) / 2^(frac+1) and the radius
    (hi - lo + 2 t) / 2^(frac+1), t being the tail's share in units of 2^-frac,
    rounded up; both are kept as Dyadic numbers, exactly, and the radius is
    checked against the target in integers.
    """
    if min(q[0], tail[0]) < 0 or min(q[1], tail[1]) <= 0:
        raise ValueError("q and tail must be non-negative, with positive denominators")
    (num, den), (tail_n, tail_d) = q, tail
    goal_n, goal_d = series.target
    _, inv_e = _inv_e_bracket(64)  # 1/e <= inv_e / 2^64
    # The budget slack_n / slack_d = target - tail * inv_e / 2^64.
    slack_d = goal_d * tail_d << 64
    slack_n = (goal_n * tail_d << 64) - goal_d * tail_n * inv_e
    if slack_n <= 0:
        raise PrecisionExhaustedError(
            "truncation tail alone exceeds the target error"
        )
    mag = _floor_log2(num, den) + 1 if num else 0  # q < 2^mag
    # 2^-budget_bits < slack / 2, so 2^(1 - frac) < slack / 8.
    budget_bits = _floor_log2(slack_d, slack_n) + 2
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
