"""Generalized Stirling coefficients and Bell row sums for boson monomial powers.

S_{r,s}(n, k) is the coefficient of a+^(n(r-s)+k) a^k in the normal ordering
of [(a+)^r a^s]^n, with k running over s..ns; B_{r,s}(n) is the row sum.
Rows come from the streaming contraction engine ``monomial_power_rows`` in
operator_algebra, which advances a whole row per list pass.  The one
exception is a single (2, 1) row, which the unsigned Lah numbers give faster
than n engine steps; Bell sweeps read the engine for every family, (2, 1)
included.  The r = s closed form is kept as an independent cross-check and
is not on any dispatch path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, factorial, perm

from .errors import NonIntegerResultError, OutOfRangeError
from .operator_algebra import MonomialSpec, monomial_power_rows

__all__ = [
    "StirlingTable",
    "bell",
    "bell_sequence",
    "lah",
    "stirling",
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


def stirling(spec: MonomialSpec, k: int) -> int:
    """S_{r,s}(n, k), read off the full row."""
    if spec.n < 1:
        raise OutOfRangeError("need n >= 1")
    if not spec.s <= k <= spec.n * spec.s:
        raise OutOfRangeError(
            f"k = {k} outside [{spec.s}, {spec.n * spec.s}] for {spec}"
        )
    return stirling_table(spec).values[k]


@dataclass(frozen=True)
class StirlingTable:
    """Full coefficient row k -> S_{r,s}(n, k) for one (r, s, n)."""

    spec: MonomialSpec
    values: dict[int, int]

    def row(self) -> list[int]:
        """Values in increasing k order."""
        return [self.values[k] for k in sorted(self.values)]

    def row_sum(self) -> int:
        return sum(self.values.values())


def stirling_table(spec: MonomialSpec) -> StirlingTable:
    """The full row: Lah numbers for (2, 1), the contraction engine otherwise."""
    if spec.n < 1:
        raise OutOfRangeError("need n >= 1")
    ks = range(spec.s, spec.n * spec.s + 1)
    if (spec.r, spec.s) == (2, 1):
        values = {k: lah(spec.n, k) for k in ks}
    else:
        row = next(islice(monomial_power_rows(spec.r, spec.s), spec.n - 1, None))
        values = {k: row[k] for k in ks}
    return StirlingTable(spec=spec, values=values)


def bell(spec: MonomialSpec) -> int:
    """Generalized Bell number B_{r,s}(n), the row sum; 1 at n = 0 by convention."""
    if spec.n == 0:
        return 1
    return stirling_table(spec).row_sum()


def bell_sequence(r: int, s: int, n_max: int) -> list[int]:
    """B_{r,s}(0..n_max) from one pass of the contraction engine."""
    MonomialSpec(r=r, s=s, n=n_max)
    return [1] + [sum(row) for row in islice(monomial_power_rows(r, s), n_max)]
