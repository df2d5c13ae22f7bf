"""Formal power series checks of the generating-function identities.

Everything here is exact: truncated series in lam with Fraction coefficients,
or with operator-polynomial coefficients for the normally ordered exponential
check.  No floating point enters this module.

The closed exponential generating function for B_{r,1}(n) is
exp{(1 - (r-1) lam)^(-1/(r-1)) - 1}; the positive-exponent variant that a
naive reading suggests produces alternating coefficients (exp(-lam) at r = 2)
and is kept only so its failure can be demonstrated (``printed_sign=True``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Sequence

from .errors import InconclusiveError, OutOfRangeError
from .numeric import Check, binomial_coefficient
from .operator_algebra import monomial_power_rows
from .stirling import bell_sequence

__all__ = [
    "FormalSeries",
    "egf_classic",
    "egf_r1",
    "select_normalization_order",
    "verify_normal_exponential",
]


class FormalSeries:
    """Truncated power series in lam with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]) -> None:
        object.__setattr__(
            self, "_coeffs", tuple(Fraction(c) for c in coeffs)
        )
        if not self._coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FormalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, m: int) -> Fraction:
        return self._coeffs[m]

    def __eq__(self, other) -> bool:
        if isinstance(other, FormalSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"FormalSeries({list(self._coeffs)!r})"

    # Arithmetic; binary operations truncate to the shorter order.

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self[m] + other[m] for m in range(n + 1)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self[m] - other[m] for m in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self._coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += a * other[j]
            return FormalSeries(out)
        if isinstance(other, (int, Fraction)):
            return FormalSeries([c * other for c in self._coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def shift_constant(self, delta: Fraction | int) -> "FormalSeries":
        return FormalSeries((self[0] + delta,) + self._coeffs[1:])

    def exp(self) -> "FormalSeries":
        """exp of a series with zero constant term, by the ODE recurrence."""
        if self[0]:
            raise ValueError("exp requires zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, m + 1):
                if self[i]:
                    acc += i * self[i] * out[m - i]
            out[m] = acc / m
        return FormalSeries(out)

    @staticmethod
    def exp_lambda(order: int) -> "FormalSeries":
        """The series of e^lam through the given order."""
        return FormalSeries([Fraction(1, factorial(m)) for m in range(order + 1)])

    @staticmethod
    def one_minus_c_lambda_pow(c, alpha, order: int) -> "FormalSeries":
        """(1 - c lam)^alpha via the generalized binomial series, exact."""
        c = Fraction(c)
        alpha = Fraction(alpha)
        return FormalSeries(
            [binomial_coefficient(alpha, m) * (-c) ** m for m in range(order + 1)]
        )


def egf_classic(order: int) -> FormalSeries:
    """exp(e^lam - 1); n! times coefficient n is the Bell number B(n)."""
    if order < 0:
        raise OutOfRangeError("order must be >= 0")
    return FormalSeries.exp_lambda(order).shift_constant(-1).exp()


def egf_r1(r: int, order: int, *, printed_sign: bool = False) -> FormalSeries:
    """exp{(1-(r-1)lam)^(-1/(r-1)) - 1}; n! coeff[n] = B_{r,1}(n) for r >= 2.

    printed_sign=True uses exponent +1/(r-1) instead, which does not
    reproduce the Bell numbers; it is provided so the failure can be shown.
    """
    if r < 2:
        raise OutOfRangeError("need r >= 2 (r = 1 is the classical EGF)")
    if order < 0:
        raise OutOfRangeError("order must be >= 0")
    alpha = Fraction(1 if printed_sign else -1, r - 1)
    inner = FormalSeries.one_minus_c_lambda_pow(r - 1, alpha, order).shift_constant(-1)
    return inner.exp()


# Operator-valued series: coefficients are commutative polynomials in the
# symbols a+ (creation) and a (annihilation), stored as {(i, j): Fraction}
# with the monomial a+^i a^j at key (i, j).  Inside double-dot ordering the
# symbols commute, so polynomial multiplication just adds exponents.

OpPoly = dict[tuple[int, int], Fraction]


def _poly_add_scaled(into: OpPoly, src: OpPoly, factor: Fraction) -> None:
    if not factor:
        return
    for key, c in src.items():
        new = into.get(key, Fraction(0)) + c * factor
        if new:
            into[key] = new
        else:
            into.pop(key, None)


def _poly_mul(x: OpPoly, y: OpPoly) -> OpPoly:
    out: OpPoly = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            key = (i1 + i2, j1 + j2)
            new = out.get(key, Fraction(0)) + c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def _op_series_exp(f: Sequence[OpPoly]) -> list[OpPoly]:
    # Same ODE recurrence as FormalSeries.exp, over the polynomial ring.
    if f[0]:
        raise ValueError("exp requires zero constant term")
    n = len(f) - 1
    out: list[OpPoly] = [{(0, 0): Fraction(1)}] + [{} for _ in range(n)]
    for m in range(1, n + 1):
        acc: OpPoly = {}
        for i in range(1, m + 1):
            if f[i]:
                _poly_add_scaled(acc, _poly_mul(f[i], out[m - i]), Fraction(i))
        out[m] = {k: c / m for k, c in acc.items()}
    return out


def _normal_ordered_power_series(r: int, order: int) -> list[OpPoly]:
    # Left side: exact normal ordering, coeff[m] = NF[((a+)^r a)^m] / m!,
    # where row m holds the coefficient of a+^(m(r-1)+k) a^k at k.
    coeffs: list[OpPoly] = [{(0, 0): Fraction(1)}]
    for m, row in enumerate(islice(monomial_power_rows(r, 1), order), start=1):
        coeffs.append(
            {((r - 1) * m + k, k): Fraction(c, factorial(m)) for k, c in enumerate(row) if c}
        )
    return coeffs


def _double_dot_exponential_series(
    r: int, order: int, printed_sign: bool
) -> list[OpPoly]:
    # Right side: expand the double-dot exponential with commuting symbols and
    # read each monomial a+^i a^j as already normally ordered.
    exponent: list[OpPoly] = [{} for _ in range(order + 1)]
    if r == 1:
        # Reduces to :exp{a+ a (e^lam - 1)}: (e^-lam with the printed sign).
        for m in range(1, order + 1):
            scalar = Fraction((-1) ** m if printed_sign else 1, factorial(m))
            exponent[m] = {(1, 1): scalar}
    else:
        alpha = Fraction(1 if printed_sign else -1, r - 1)
        for m in range(1, order + 1):
            scalar = binomial_coefficient(alpha, m) * Fraction(-(r - 1)) ** m
            if scalar:
                # lam^m carries a+^((r-1)m) from the binomial, times a+ a.
                exponent[m] = {((r - 1) * m + 1, 1): scalar}
    return _op_series_exp(exponent)


def _poly_str(poly: OpPoly) -> str:
    if not poly:
        return "0"
    parts = []
    for (i, j), c in sorted(poly.items(), reverse=True):
        factors = [] if c == 1 and (i or j) else [str(c)]
        if i:
            factors.append("a+" if i == 1 else f"a+^{i}")
        if j:
            factors.append("a" if j == 1 else f"a^{j}")
        parts.append(" ".join(factors))
    return " + ".join(parts)


def verify_normal_exponential(r: int, order: int, *, printed_sign: bool = False) -> Check:
    """Compare exact normal ordering of e^{lam (a+)^r a} with its closed form.

    The left side normal orders each power with the contraction engine; the
    right side expands the double-dot exponential formally.  Equality must
    hold order by order as exact operator-coefficient identity; the check's
    detail names the first order where it does not.
    """
    if r < 1 or order < 1:
        raise OutOfRangeError("need r >= 1 and order >= 1")
    name = f"normal-ordered exponential r={r} order<={order}"
    if printed_sign:
        name += " (printed sign)"
    lhs = _normal_ordered_power_series(r, order)
    rhs = _double_dot_exponential_series(r, order, printed_sign)
    for m, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return Check(
                name,
                False,
                f"r={r}: mismatch at order {m}; normal ordering gives {_poly_str(left)}, "
                f"double-dot expansion gives {_poly_str(right)}",
            )
    return Check(name, True, f"r={r}: match through order {order}")


def _choose_t(values: Sequence[int], *, t_max: int = 6) -> int:
    """Smallest t with q_n / n^(t+1) non-increasing over the tail of the data.

    ``values`` is B(0..N).  Heuristic: the growth ratio q_n = B(n+1)/B(n)
    behaves like n^(t+1) exactly when sum B(n)/(n!)^(t+1) has a finite radius
    of convergence; boundedness is probed by requiring the normalized ratios
    to stop increasing, and stability by the choice surviving removal of the
    last data point.
    """
    if len(values) < 7:
        raise OutOfRangeError("need Bell values through n >= 6")
    ratios = [Fraction(values[n + 1], values[n]) for n in range(1, len(values) - 1)]

    def bounded(t: int, window: Sequence[Fraction]) -> bool:
        normalized = [q / Fraction((n + 1) ** (t + 1)) for n, q in enumerate(window)]
        tail = max(3, len(normalized) // 2)
        recent = normalized[-tail:]
        return all(b <= a for a, b in zip(recent, recent[1:]))

    def pick(window: Sequence[Fraction]) -> int | None:
        for t in range(t_max + 1):
            if bounded(t, window):
                return t
        return None

    t_full = pick(ratios)
    t_shorter = pick(ratios[:-1])
    if t_full is None or t_full != t_shorter:
        raise InconclusiveError(
            f"growth ratios not stabilized by n = {len(values) - 1}"
        )
    return t_full


def select_normalization_order(r: int, s: int, max_n: int) -> int:
    """Heuristic t such that sum B_{r,s}(n)/(n!)^(t+1) looks convergent.

    Probes the empirical ratios B(n+1)/B(n) up to max_n; the answer is a
    finite-radius heuristic, not a proof, and callers should label it so.
    """
    if max_n < 6:
        raise OutOfRangeError("need max_n >= 6 for a meaningful ratio probe")
    return _choose_t(bell_sequence(r, s, max_n))
