"""Exact generating-function identities, read off the contraction engine's rows.

The paper closes the normally ordered exponential of lam (a+)^r a as a
double-dot exponential :exp{a+ a g(lam a+^(r-1))}:, where

    g(x) = e^x - 1                            at r = 1,
    g(x) = (1 - (r-1) x)^(-1/(r-1)) - 1       at r >= 2.

Both levels of the identity are one series.  With g = sum_m g_m x^m and y
standing for a+ a, the coefficient F_m of lam^m in exp{y g} obeys
m F_m = y sum_i i g_i F_(m-i).  On G_m = m! F_m this is an integer recurrence,
G_m[j+1] = sum_i C(m-1, i-1) h_i G_(m-i)[j] with h_i = i! g_i =
prod_{t<i} (sigma + t(r-1)) and sigma = +1 at every r >= 1.  Row G_m[j] is m!
times the coefficient of a+^((r-1)m+j) a^j, so G_m lines up index for index
with row m of ``monomial_power_rows(r, 1)``, the normal form of ((a+)^r a)^m,
and ``verify_normal_exponential`` compares the two integer lists.  At
a+ = a = 1 (the coherent-state diagonal) the row sums over m! are the
exponential generating function of B_{r,1}(n), which ``egf_classic`` and
``egf_r1`` return as a tuple of Fractions.  Everything here is exact.

The sign variant that a naive reading suggests (exponent +1/(r-1) at r >= 2,
g(x) = e^-x - 1 at r = 1) is sigma = -1.  It produces alternating
coefficients (exp(-lam) at r = 2) and is kept only so its failure can be
demonstrated (``printed_sign=True``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial
from operator import add
from typing import Sequence

from .errors import InconclusiveError, OutOfRangeError
from .numeric import Check
from .operator_algebra import format_terms, monomial_power_rows
from .stirling import bell_sequence

__all__ = [
    "egf_classic",
    "egf_r1",
    "select_normalization_order",
    "verify_normal_exponential",
]

# Largest normalization order t that _choose_t tries.
_T_MAX = 6


def _exp_rows(r: int, order: int, printed_sign: bool) -> list[list[int]]:
    """Rows G_0..G_order of exp{y g}; G_m[j] is m! times the coefficient of y^j lam^m."""
    sigma = -1 if printed_sign else 1
    h = [1]  # h[i] = prod_{t<i} (sigma + t(r-1)), which is i! g_i for i >= 1
    for t in range(order):
        h.append(h[-1] * (sigma + t * (r - 1)))
    rows = [[1]]
    for m in range(1, order + 1):
        acc = [0] * (m + 1)
        for i in range(1, m + 1):
            weight = comb(m - 1, i - 1) * h[i]
            # Multiplying by y moves entry j to j + 1; G_(m-i) has m - i + 1 entries.
            acc[1 : m - i + 2] = map(add, acc[1 : m - i + 2], [weight * c for c in rows[m - i]])
        rows.append(acc)
    return rows


def _egf(r: int, order: int, printed_sign: bool) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(sum(row), factorial(m)) for m, row in enumerate(_exp_rows(r, order, printed_sign))
    )


def egf_classic(order: int) -> tuple[Fraction, ...]:
    """exp(e^lam - 1) through lam^order; n! times coefficient n is B(n)."""
    if not isinstance(order, int):
        raise TypeError("order must be an integer")
    if order < 0:
        raise OutOfRangeError("order must be >= 0")
    return _egf(1, order, False)


def egf_r1(r: int, order: int, *, printed_sign: bool = False) -> tuple[Fraction, ...]:
    """exp{(1-(r-1)lam)^(-1/(r-1)) - 1}; n! coeff[n] = B_{r,1}(n) for r >= 2.

    printed_sign=True uses exponent +1/(r-1) instead, which does not
    reproduce the Bell numbers; it is provided so the failure can be shown.
    """
    if not all(isinstance(v, int) for v in (r, order)):
        raise TypeError("r and order must be integers")
    if r < 2:
        raise OutOfRangeError("need r >= 2 (r = 1 is the classical EGF)")
    if order < 0:
        raise OutOfRangeError("order must be >= 0")
    return _egf(r, order, printed_sign)


def _row_str(r: int, m: int, row: list[int]) -> str:
    # Entry j of row m is m! times the coefficient of a+^((r-1)m+j) a^j.
    return format_terms((((r - 1) * m + j, j), Fraction(c, factorial(m))) for j, c in enumerate(row))


def verify_normal_exponential(r: int, order: int, *, printed_sign: bool = False) -> Check:
    """Compare exact normal ordering of e^{lam (a+)^r a} with its closed form.

    Row m of the contraction engine divided by m! is the normal form of the
    lam^m coefficient; the double-dot expansion gives m! times the same row
    through the integer exp recurrence.  Equality must hold order by order as
    an exact operator identity; the check's detail names the first order
    where it does not.
    """
    if not all(isinstance(v, int) for v in (r, order)):
        raise TypeError("r and order must be integers")
    if r < 1 or order < 1:
        raise OutOfRangeError("need r >= 1 and order >= 1")
    name = f"normal-ordered exponential r={r} order<={order}"
    if printed_sign:
        name += " (printed sign)"
    expansion = _exp_rows(r, order, printed_sign)
    for m, row in enumerate(islice(monomial_power_rows(r, 1), order), start=1):
        if row != expansion[m]:
            return Check(
                name,
                False,
                f"r={r}: mismatch at order {m}; normal ordering gives {_row_str(r, m, row)}, "
                f"double-dot expansion gives {_row_str(r, m, expansion[m])}",
            )
    return Check(name, True, f"r={r}: match through order {order}")


def _choose_t(values: Sequence[int]) -> int:
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
        for t in range(_T_MAX + 1):
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
