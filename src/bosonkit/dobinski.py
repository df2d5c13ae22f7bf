"""Dobinski-type series for classical and generalized Bell numbers.

Each B_{r,s}(n) admits a representation (prefactor/e) * sum_k t_k with exact
rational terms t_k.  Terms are generated exactly, summed with a certified
geometric tail bound, and only the final division by e is rounded, so every
series value is an ErrorBoundedReal that provably rounds to the integer the
rewriting oracle produces.

The r > s series carries a 1/k! factor in each term; without it the k-sum has
non-decaying terms and a divergence guard rejects it (see
``dobinski_rs_literal``).  Gamma-function ratios G(n+x)/G(1+x) are reduced to
the rising product prod_{m=1}^{n-1} (x + m), so no transcendental function
other than e enters at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import DivergentSeriesError, OutOfRangeError, UnsupportedError
from .numeric import ErrorBoundedReal, SeriesSpec, sum_over_e

__all__ = [
    "bell_hypergeometric",
    "classic_terms",
    "dobinski_classic",
    "dobinski_rr",
    "dobinski_rs",
    "dobinski_rs_literal",
    "hypergeometric_terms",
    "rr_terms",
    "rs_terms",
]


def classic_terms(n: int) -> Iterator[Fraction]:
    """Terms k^n / k! of the classical series for B(n)."""
    kfact = 1
    k = 0
    while True:
        yield Fraction(k**n, kfact)
        k += 1
        kfact *= k


def rr_terms(r: int, n: int) -> Iterator[Fraction]:
    """Terms [(k+r)!/k!]^(n-1) / k! of the series for B_{r,r}(n)."""
    kfact = 1
    k = 0
    while True:
        rising = 1
        for i in range(1, r + 1):
            rising *= k + i
        yield Fraction(rising ** (n - 1), kfact)
        k += 1
        kfact *= k


def rs_terms(r: int, s_exp: int, n: int) -> Iterator[Fraction]:
    """Terms of the corrected r > s series, including the 1/k! factor.

    t_k = (1/k!) prod_{j=1}^{s} prod_{m=1}^{n-1} ((k+j)/(r-s) + m).
    """
    kfact = 1
    for k, term in enumerate(_rs_literal_terms(r, s_exp, n)):
        if k:
            kfact *= k
        yield term / kfact


def _rs_literal_terms(r: int, s_exp: int, n: int) -> Iterator[Fraction]:
    # The series as printed: no 1/k! damping.
    d = r - s_exp
    k = 0
    while True:
        prod = Fraction(1)
        for j in range(1, s_exp + 1):
            x = Fraction(k + j, d)
            for m in range(1, n):
                prod *= x + m
        yield prod
        k += 1


def hypergeometric_terms(p: int, r: int, n: int) -> Iterator[Fraction]:
    """Terms of rFr(pn+1, ..., pn+1+p(r-1); 1+p, ..., 1+p+p(r-1); 1)."""
    upper = [p * n + 1 + p * (j - 1) for j in range(1, r + 1)]
    lower = [1 + p * j for j in range(1, r + 1)]
    term = Fraction(1)
    k = 0
    while True:
        yield term
        for a, b in zip(upper, lower):
            term *= Fraction(a + k, b + k)
        term /= k + 1
        k += 1


def dobinski_classic(n: int, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
    """(1/e) sum_k k^n / k!, which rounds to the classical Bell number B(n)."""
    if n < 1:
        raise OutOfRangeError("need n >= 1")
    return sum_over_e(classic_terms(n), series)


def dobinski_rr(r: int, n: int, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
    """(1/e) sum_k [(k+r)!/k!]^(n-1) / k!, rounding to B_{r,r}(n)."""
    if r < 1 or n < 1:
        raise OutOfRangeError("need r >= 1 and n >= 1")
    return sum_over_e(rr_terms(r, n), series)


def dobinski_rs(
    r: int, s_exp: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """Corrected r > s series, rounding to B_{r,s}(n).

    [(r-s)^(s(n-1)) / e] sum_k (1/k!) prod_{j<=s} prod_{m<n} ((k+j)/(r-s)+m).
    """
    if s_exp < 1 or r <= s_exp:
        raise UnsupportedError(f"need r > s >= 1, got ({r}, {s_exp})")
    if n < 1:
        raise OutOfRangeError("need n >= 1")
    prefactor = Fraction((r - s_exp) ** (s_exp * (n - 1)))
    return sum_over_e(rs_terms(r, s_exp, n), series, prefactor)


def dobinski_rs_literal(
    r: int, s_exp: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """The r > s series exactly as printed, without the 1/k! factor.

    Kept so the discrepancy is reproducible: the terms never decay, a
    divergence guard trips after 16 consecutive non-decreasing terms, and
    DivergentSeriesError is raised.
    """
    if s_exp < 1 or r <= s_exp:
        raise UnsupportedError(f"need r > s >= 1, got ({r}, {s_exp})")
    if n < 1:
        raise OutOfRangeError("need n >= 1")

    def guarded() -> Iterator[Fraction]:
        nondecreasing = 0
        prev: Fraction | None = None
        for term in _rs_literal_terms(r, s_exp, n):
            if prev is not None and prev > 0 and term >= prev:
                nondecreasing += 1
                if nondecreasing >= 16:
                    raise DivergentSeriesError(
                        f"terms of the literal (r,s)=({r},{s_exp}) series do not decay"
                    )
            else:
                nondecreasing = 0
            yield term
            prev = term

    prefactor = Fraction((r - s_exp) ** (s_exp * (n - 1)))
    return sum_over_e(guarded(), series, prefactor)


def bell_hypergeometric(
    p: int,
    r: int,
    n: int,
    series: SeriesSpec = SeriesSpec(),
    *,
    reduced_prefactor: bool = False,
) -> ErrorBoundedReal:
    """Hypergeometric form of the family B_{pr+p, pr}(n).

    (1/e) [prod_{j=1}^{r} (p(n-1+j))!/(pj)!] rFr(pn+1, ..., pn+1+p(r-1);
    1+p, ..., 1+p+p(r-1); 1), summed term by term with the same tail bound
    as the other series.

    The prefactor numerator must carry p(n-1+j), not p(n-1)+j: collecting
    the general r > s series for s = pr into blocks of p consecutive
    integers gives prod_{j} (p(n-1+j))!/(pj)! exactly, and only that choice
    rounds to the integer B_{pr+p,pr}(n) once p >= 2 (at p = 1 the two
    agree).  ``reduced_prefactor=True`` evaluates the p(n-1)+j variant so
    the difference is reproducible; expect a certified non-integer from it.
    """
    if p < 1 or r < 1 or n < 1:
        raise OutOfRangeError("need p, r, n >= 1")
    prefactor = Fraction(1)
    for j in range(1, r + 1):
        numerator = p * (n - 1) + j if reduced_prefactor else p * (n - 1 + j)
        prefactor *= Fraction(factorial(numerator), factorial(p * j))
    return sum_over_e(hypergeometric_terms(p, r, n), series, prefactor)
