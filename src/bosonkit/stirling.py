"""Generalized Stirling coefficients and Bell row sums for boson monomial powers.

S_{r,s}(n, k) is the coefficient of a+^(n(r-s)+k) a^k in the normal ordering
of [(a+)^r a^s]^n, with k running over s..ns; B_{r,s}(n) is the row sum.
A row is a plain ``list[int]`` of length ns + 1 indexed by k, with zeros
below k = s: the format of the streaming contraction engine
``monomial_power_rows`` in operator_algebra, which advances a whole row by
one list pass per annihilator.  The engine serves every row except r = 2s,
whose rows have a closed form, and the Bell sweeps of r = s; every Bell
sweep with r > s is a recurrence in n.  With d = r - s, f(x) = x!/(x-s)!, K ~ Poisson(1) and the
Dobinski numerator N_k(n) = prod_{j<n} f(k+jd), B(n) = E[N_K(n)].

The r = 2s rows have a closed form: N_k telescopes to one falling factorial,
(k+N)!/(k-s)! with N = ns - s, N_k = sum_j S(n, j) k!/(k-j)! (a^j acting on
|k>), and Vandermonde's identity expands (k+N)!/(k-s)! in the falling
factorials k!/(k-j)!, so S_{2s,s}(n, j) = C(ns, j) N!/(j-s)!, the unsigned
Lah numbers at s = 1.

Every r > s Bell sweep, r = 2s included, follows the Poisson shift (Stanley's
D-finite recurrences; Blasiak, Penson & Solomon 2003 for the Dobinski form):

* A_j(n) = E[N_{K+j}(n)] are integers, A_j(0) = 1 and B(n) = A_0(n);
* E[K^(i) h(K)] = E[h(K+i)] for the falling factorial x^(i), and
  Vandermonde gives f(x+c) = sum_i C(s, i) x^(i) c^(s-i);
* step: N_k(n+1) = N_k(n) f(k+nd), so
  A_j(n+1) = sum_{i=0..s} C(s, i) (j+nd)^(s-i) A_{j+i}(n);
* chain: N_{k+d}(n) f(k) = N_k(n) f(k+nd), so
  sum_{i=0..s} C(s, i) j^(s-i) A_{j+d+i}(n) = A_j(n+1), whose i = s term is
  A_{j+r}(n) with coefficient 1 and whose other terms are A_r..A_{r+j-1}(n);
* so step j = 0..s-1 each followed by its chain extends A_0..A_{r-1}(n) to
  A_{r+s-1}(n) in time for step j = s..r-1, with no division.  At (2, 1),
  A_0(n) = 1, 1, 3, 13, 73, the Lah row sums.

Each branch that skips the engine stays because an op of the benchmark's
``sweep`` workload runs it faster.  The r = 2s row, one small multiply and
one exact divide per entry, takes 0.14 ms on ``stirling-2-1-300`` against
7.4 ms for the engine's row.  A Poisson-shift step is r s + s (s - 1)/2 big-by-small
products on r + s integers: 0.44 ms on ``bell-3-2-150`` against 8.3 ms for
the engine's rows, and 0.34 ms on ``bell-2-1-300`` against 10 ms.  At d = 0
the chain is an identity and closes nothing, so the r = s sweeps,
``bell-1-1-100`` and ``bell-2-2-40``, read the engine.  Best of several
runs, Python 3.11 on a shared 2-core Xeon.  The engine stays the reference
for every closed form and recurrence in the tests.  The r = s closed form is
kept as an independent cross-check and is not on any dispatch path.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, count, islice
from math import comb, factorial, perm

from .errors import NonIntegerResultError, OutOfRangeError
from .operator_algebra import MonomialSpec, monomial_power_rows

__all__ = [
    "bell",
    "bell_sequence",
    "bell_values",
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
    if not all(isinstance(v, int) for v in (r, n, k)):
        raise TypeError("r, n and k must be integers")
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

    r = 2s rows start from S(n, s) = m!/s!, m = ns, and step by
    S(n, k + 1) = S(n, k) (m - k) / ((k + 1) (k + 1 - s)), the ratio of
    C(m, k) (m - s)!/(k - s)! at k + 1 and k; every other family reads row n
    of the contraction engine.
    """
    if spec.n < 1:
        raise OutOfRangeError("need n >= 1")
    if spec.r == 2 * spec.s:
        s, m = spec.s, spec.n * spec.s
        row = [0] * s + [factorial(m) // factorial(s)]
        for k in range(s, m):
            row.append(row[k] * (m - k) // ((k + 1) * (k + 1 - s)))
        return row
    return next(islice(monomial_power_rows(spec.r, spec.s), spec.n - 1, None))


def bell(spec: MonomialSpec) -> int:
    """Generalized Bell number B_{r,s}(n), the row sum; 1 at n = 0 by convention."""
    return next(islice(bell_values(spec.r, spec.s), spec.n, None))


def _poisson_shift_values(r: int, s: int) -> Iterator[int]:
    """B_{r,s}(n) = A_0(n) for n = 0, 1, ..., d = r - s >= 1, holding r + s integers.

    Step n computes A_j(n + 1) = sum_i C(s, i) (j + nd)^(s-i) A_{j+i}(n) for
    j = 0..r-1 and, after each j < s, the chain value
    A_{r+j}(n) = A_j(n + 1) - sum_{k<j} C(s, j-k) j!/k! A_{r+k}(n), which
    the steps from j + d on read.
    """
    d = r - s
    # (i, C(s, i), m) for i = s-1..0: y^(s-i) = y^(s-i-1) (y - m), m = s-i-1.
    terms = [(i, comb(s, i), s - i - 1) for i in range(s - 1, -1, -1)]
    chain = [[(r + k, comb(s, j - k) * perm(j, j - k)) for k in range(j)] for j in range(s)]
    a = [1] * r
    for x in count(0, d):
        yield a[0]
        nxt = []
        for j in range(r):
            y, value, falling = x + j, a[j + s], 1
            for i, c, m in terms:
                falling *= y - m
                value += c * falling * a[j + i]
            nxt.append(value)
            if j < s:
                a.append(value - sum(c * a[k] for k, c in chain[j]))
        a = nxt


def bell_values(r: int, s: int) -> Iterator[int]:
    """B_{r,s}(0), B_{r,s}(1), ... without end; (r, s) is checked at the call.

    r > s steps the Poisson-shift recurrence of the A_j(n); r = s sums the
    rows of one pass of the contraction engine.  The iterator holds the
    state of its recurrence, never the values it has yielded.
    """
    MonomialSpec(r=r, s=s, n=0)
    if r > s:
        return _poisson_shift_values(r, s)
    return chain([1], map(sum, monomial_power_rows(r, s)))


def bell_sequence(r: int, s: int, n_max: int) -> list[int]:
    """B_{r,s}(0..n_max), the first n_max + 1 values of ``bell_values``."""
    MonomialSpec(r=r, s=s, n=n_max)
    return list(islice(bell_values(r, s), n_max + 1))
