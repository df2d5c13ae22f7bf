"""Exact generating-function identities, read off the contraction engine's rows.

The paper closes the normally ordered exponential of lam (a+)^r a as a
double-dot exponential :exp{a+ a g(lam a+^(r-1))}:, where

    g(x) = e^x - 1                            at r = 1,
    g(x) = (1 - (r-1) x)^(-1/(r-1)) - 1       at r >= 2.

Both levels of the identity are one series.  With y standing for a+ a, let
G_m[j] be m! times the coefficient of y^j lam^m in F = exp{y g}.  It is m!
times the coefficient of a+^((r-1)m+j) a^j, so G_m lines up index for index
with row m of ``monomial_power_rows(r, 1)``, the normal form of
((a+)^r a)^m, and ``verify_normal_exponential`` compares the two integer
lists order by order, holding one row of each.

The rows follow from g's differential equation.  With c = r - 1, sigma = +1
and alpha = 1 + c sigma = r, 1 + g = (1 - c x)^(-sigma/c) obeys
g' = sigma (1+g)^alpha (g' = 1 + g at r = 1).  So v = F_x / y is
sigma (1+g)^alpha F, and as d_y F = g F and d_y v = g v, each power of g acts
on F and on v as the same power of d_y.  Read at y^(J-1) lam^m, this gives
G_(m+1) from G_m alone (``_exp_rows``): at sigma = +1,

    G_(m+1)[J] = sum_{i<=r} C(r,i) (J-1+i)!/(J-1)! G_m[J-1+i],

a copy of row m and min(r, m) whole-row passes over it, O(min(r, order) order)
products per row.  At r = 1 this is the engine's own step S(m+1, J) = S(m, J-1) + J S(m, J), so
the check compares two codes for one recurrence there and two recurrences
at r >= 2.

Taylor coefficients serve the row sums instead.  With g = sum_m g_m x^m,
F_m obeys m F_m = y sum_i i g_i F_(m-i), and h_i = i! g_i =
prod_{t<i} (sigma + t(r-1)).  Summed over j this gives the row sums B_0 = 1
and B_m = sum_{i=1..m} C(m-1, i-1) h_i B_(m-i), O(m) products per row.  At
a+ = a = 1 (the coherent-state diagonal) the row sums over m! are the
exponential generating function of B_{r,1}(n), which ``egf_classic`` and
``egf_r1`` return as a tuple of Fractions.  Everything here is exact.

The generalized Bell numbers grow like (n!)^s, so the series
sum B_{r,s}(n) x^n / (n!)^(t+1) has normalization order t = s - 1 for every
family (Blasiak, Penson & Solomon, Ann. Comb. 7, 2003).  For r > s, with
d = r - s, the ratio rho_n = B(n+1) / ((n+1)^s B(n)) tends to d^s, which
makes the radius at t = s - 1 equal to d^-s.  Two cases are proved:

* s = 1: the EGF exp(g) above is singular at x = 1/(r-1) = 1/d;
* r = 2s: with N = ns - s the Dobinski numerator telescopes to
  (k+N)!/(k-s)!, so B(n) = e^-1 sum_k (k+N)!/((k-s)! k!) is
  (ns)!/s! 1F1(ns+1; s+1; 1)/e, and Kummer's transformation
  1F1(a; b; 1) = e 1F1(b-a; b; -1) makes it the terminating
  (ns)!/s! 1F1(-N; s+1; -1) = G(N), where G(N) = N! L_N^(s)(-1).
  Perron's formula for Laguerre polynomials off the positive axis
  (Szego, Orthogonal Polynomials, 8.22) gives rho_n -> s^s = d^s.

The other r > s families are measured, not proved: rho_n falls toward d^s
from above along ``bell_sequence``.  At r = s, B_{r,r}(n) is (n!)^r times a
factor of order (log n)^(-rn), so the series is entire at t = s - 1; at
t = s - 2 every family's series has radius 0.

The sign variant that a naive reading suggests (exponent +1/(r-1) at r >= 2,
g(x) = e^-x - 1 at r = 1) is sigma = -1.  It produces alternating
coefficients (exp(-lam) at r = 2) and is kept only so its failure can be
demonstrated (``printed_sign=True``).  Its alpha = 2 - r is negative at
r >= 3, where each row solves a triangular system instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, islice
from math import comb, factorial, gcd, perm
from operator import add, mul, neg

from .errors import OutOfRangeError
from .numeric import Check
from .operator_algebra import MonomialSpec, format_terms, monomial_power_rows

__all__ = [
    "egf_classic",
    "egf_r1",
    "select_normalization_order",
    "verify_normal_exponential",
]


def _weights(r: int, order: int, printed_sign: bool) -> list[int]:
    """h_0..h_order with h_i = prod_{t<i} (sigma + t(r-1)), which is i! g_i for i >= 1."""
    sigma = -1 if printed_sign else 1
    return list(accumulate((sigma + t * (r - 1) for t in range(order)), mul, initial=1))


def _exp_rows(r: int, order: int, printed_sign: bool) -> Iterator[list[int]]:
    """Yield G_0..G_order of exp{y g}; G_m[j] is m! times the coefficient of y^j lam^m.

    g' = sigma (1+g)^alpha (module docstring) gives, with a = max(-alpha, 0),
    b = max(alpha, 0) and G_(m+1)[0] = 0, for J = 1..m+1,

        sum_{i<=a} C(a,i) (J-1+i)!/(J-1)! G_(m+1)[J+i]
            = sigma sum_{i<=b} C(b,i) (J-1+i)!/(J-1)! G_m[J-1+i].

    The weights C(n,i) (k+i)!/k! are tabled once, for i <= min(n, order),
    since row m reaches only i <= m; the i = 0 weights are all 1.  At
    sigma = +1, a = 0 and b = r, so row m + 1 is a copy of row m and min(r, m)
    C-level passes over it: O(min(r, order) order) products, and at r = 1 the
    engine's step S(m+1, J) = S(m, J-1) + J S(m, J).  Only the printed sign at
    r >= 3 has a > 0; its triangular left side is solved from the top index
    down.  Both sides are linear, so sigma is applied to the finished row.
    """
    sigma = -1 if printed_sign else 1
    alpha = 1 + sigma * (r - 1)
    a, b = max(-alpha, 0), max(alpha, 0)
    # right[i][k] = C(b,i) (k+i)!/k!; left[k][i-1] = C(a,i) (k+i)!/k! for i >= 1.
    ks = range(order + 1)
    right = [[comb(b, i) * perm(k + i, i) for k in ks] for i in range(min(b, order) + 1)]
    left = list(zip(*([comb(a, i) * perm(k + i, i) for k in ks] for i in range(1, min(a, order) + 1))))
    row = [1]
    for m in range(order):
        yield row
        acc = row[:]  # acc[k] is sigma times the entry J = k + 1
        for i in range(1, min(b, m) + 1):
            acc[: m + 1 - i] = map(add, acc, map(mul, right[i], row[i:]))
        for k in range(m, -1, -1) if a else ():
            acc[k] -= sum(map(mul, left[k], acc[k + 1 : k + 1 + a]))
        row = [0, *acc] if sigma > 0 else [0, *map(neg, acc)]
    yield row


def egf_row_sums(r: int, order: int, printed_sign: bool) -> list[int]:
    """B_0..B_order, the row sums of G_0..G_order: m! times the EGF's coefficient m."""
    h = _weights(r, order, printed_sign)
    sums = [1]
    for m in range(1, order + 1):
        sums.append(sum(comb(m - 1, i - 1) * h[i] * sums[m - i] for i in range(1, m + 1)))
    return sums


def _egf(r: int, order: int, printed_sign: bool) -> tuple:
    from fractions import Fraction  # loaded here, since no command needs it
    return tuple(Fraction(b, factorial(m)) for m, b in enumerate(egf_row_sums(r, order, printed_sign)))


def egf_classic(order: int) -> tuple:
    """exp(e^lam - 1) through lam^order, as a tuple of Fractions; n! times coefficient n is B(n)."""
    if not isinstance(order, int):
        raise TypeError("order must be an integer")
    if order < 0:
        raise OutOfRangeError("order must be >= 0")
    return _egf(1, order, False)


def egf_r1(r: int, order: int, *, printed_sign: bool = False) -> tuple:
    """exp{(1-(r-1)lam)^(-1/(r-1)) - 1} as a tuple of Fractions; n! coeff[n] = B_{r,1}(n) for r >= 2.

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
    # Entry j of row m is m! times the coefficient of a+^((r-1)m+j) a^j.  It
    # prints c/m! as str(Fraction) does: an int, or reduced as "num/den".
    f = factorial(m)
    coefficients = (c // g if (g := gcd(c, f)) == f else f"{c // g}/{f // g}" for c in row)
    return format_terms((((r - 1) * m + j, j), c) for j, c in enumerate(coefficients))


def verify_normal_exponential(r: int, order: int, *, printed_sign: bool = False) -> Check:
    """Compare exact normal ordering of e^{lam (a+)^r a} with its closed form.

    Row m of the contraction engine divided by m! is the normal form of the
    lam^m coefficient; the double-dot expansion gives m! times the same row
    through the row recurrence of ``_exp_rows``, drawn in step with the
    engine's.  Equality must hold order by order as an exact operator
    identity; the check's detail names the first order where it does not.
    """
    if not all(isinstance(v, int) for v in (r, order)):
        raise TypeError("r and order must be integers")
    if r < 1 or order < 1:
        raise OutOfRangeError("need r >= 1 and order >= 1")
    name = f"normal-ordered exponential r={r} order<={order}"
    if printed_sign:
        name += " (printed sign)"
    # The expansion comes first, so the engine draws no row past the order.
    pairs = zip(islice(_exp_rows(r, order, printed_sign), 1, None), monomial_power_rows(r, 1))
    for m, (expected, row) in enumerate(pairs, start=1):
        if row != expected:
            return Check(
                name,
                False,
                f"r={r}: mismatch at order {m}; normal ordering gives {_row_str(r, m, row)}, "
                f"double-dot expansion gives {_row_str(r, m, expected)}",
            )
    return Check(name, True, f"r={r}: match through order {order}")


# bench/tracing.py traces this name; nothing in src/ calls it.
def select_normalization_order(r: int, s: int) -> int:
    """The normalization order t = s - 1 of the family (r, s), r >= s >= 1.

    At t = s - 1 the series sum B_{r,s}(n) x^n / (n!)^(t+1) has radius d^-s
    for r > s, with d = r - s: proved at s = 1 and at r = 2s, measured for
    the other families.  At r = s it is entire, and at t = s - 2 its radius
    is 0.  The module docstring gives the argument.
    """
    MonomialSpec(r=r, s=s, n=1)  # family validation only
    return s - 1
