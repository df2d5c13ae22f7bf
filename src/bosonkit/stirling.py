"""Generalized Stirling coefficients and Bell row sums for boson monomial powers.

S_{r,s}(n, k) is the coefficient of a+^(n(r-s)+k) a^k in the normal ordering
of [(a+)^r a^s]^n, with k running over s..ns; B_{r,s}(n) is the row sum.
A row is a plain ``list[int]`` of length ns + 1 indexed by k, with zeros
below k = s: the format of the streaming contraction engine
``monomial_power_rows`` in operator_algebra, which advances a whole row per
list pass.  The one exception is a single (2, 1) row, which the unsigned Lah
numbers give faster than n engine steps, by one small multiply and one exact
divide per entry; Bell sweeps read the engine for every family, (2, 1)
included.  The r = s closed form is kept as an independent cross-check and
is not on any dispatch path.
"""

from __future__ import annotations

from itertools import islice
from math import comb, factorial, perm

from .errors import NonIntegerResultError, OutOfRangeError
from .operator_algebra import MonomialSpec, monomial_power_rows

__all__ = [
    "bell",
    "bell_sequence",
    "lah",
    "stirling_rr_closed",
    "stirling_table",
]


def stirling_rr_closed(r: int, n: int, k: int) -> int:
    """S_{r,r}(n, k) by the alternating closed form, in integer arithmetic.

    k! S_{r,r}(n, k) = sum_{p=0}^{k-r} (-1)^p C(k, p) [(k-p)!/(k-p-r)!]^n,
    valid for r <= k <= rn.  The sum must be a non-negative multiple of k!;
    anything else signals an implementation bug.
    """
    if r < 1 or n < 1:
        raise OutOfRangeError("need r >= 1 and n >= 1")
    if not r <= k <= r * n:
        raise OutOfRangeError(f"k = {k} outside [{r}, {r * n}]")
    total = sum(
        (-1) ** p * comb(k, p) * perm(k - p, r) ** n for p in range(k - r + 1)
    )
    value, remainder = divmod(total, factorial(k))
    if remainder or value < 0:
        raise NonIntegerResultError(
            f"closed form for S_{{{r},{r}}}({n},{k}) gave {total}/{k}!"
        )
    return value


def lah(n: int, k: int) -> int:
    """Unsigned Lah number n!/k! C(n-1, k-1), equal to S_{2,1}(n, k)."""
    if not 1 <= k <= n:
        raise OutOfRangeError(f"k = {k} outside [1, {n}]")
    return factorial(n) // factorial(k) * comb(n - 1, k - 1)


def stirling_table(spec: MonomialSpec) -> list[int]:
    """The row k -> S_{r,s}(n, k) of length ns + 1, zero below k = s.

    (2, 1) rows start from lah(n, 1) = n! and step by
    lah(n, k + 1) = lah(n, k) (n - k) / (k (k + 1)); every other family reads
    row n of the contraction engine.
    """
    if spec.n < 1:
        raise OutOfRangeError("need n >= 1")
    if (spec.r, spec.s) == (2, 1):
        row = [0, factorial(spec.n)]
        for k in range(1, spec.n):
            row.append(row[k] * (spec.n - k) // (k * (k + 1)))
        return row
    return next(islice(monomial_power_rows(spec.r, spec.s), spec.n - 1, None))


def bell(spec: MonomialSpec) -> int:
    """Generalized Bell number B_{r,s}(n), the row sum; 1 at n = 0 by convention."""
    if spec.n == 0:
        return 1
    return sum(stirling_table(spec))


def bell_sequence(r: int, s: int, n_max: int) -> list[int]:
    """B_{r,s}(0..n_max) from one pass of the contraction engine."""
    MonomialSpec(r=r, s=s, n=n_max)
    return [1] + [sum(row) for row in islice(monomial_power_rows(r, s), n_max)]
