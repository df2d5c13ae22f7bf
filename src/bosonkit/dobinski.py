"""Dobinski-type series for classical and generalized Bell numbers.

With a+ = x and a = d/dx, the monomial (a+)^r a^s sends x^k to
k!/(k-s)! x^(k+d), where d = r - s, so its n-th power sends x^k to
N_k x^(k+nd) and the coherent-state matrix element of that power is one
series for every family:

    B_{r,s}(n) = (1/e) sum_k N_k / k!,   N_k = prod_{j<n} (k+jd)! / (k+jd-s)!.

The classical case (1,1) and r = s are its d = 0 cases, N_k = (k!/(k-s)!)^n,
and also the moments of the combs in ``measures``.  Consecutive orders share
their numerators: order n + 1 starts from the row of order n that the last
series drew, N_k(n+1) = N_k(n) (k+nd)!/(k+nd-s)!, a row no other module reads.
Terms are exact integer pairs (N_k, max(k, 1)), read as N_k / k! with
k! = (k-1)! k, summed with a certified geometric tail bound, and only the
final division by e is rounded, so every series value is an
ErrorBoundedReal that provably rounds to the integer the rewriting oracle
produces.  Without the 1/k! factor the k-sum has non-decaying terms and a
divergence guard rejects it (see ``dobinski_rs_literal``).  The
hypergeometric form keeps its own terms as an independent cross-check; with
one upper and one lower parameter they are also the moment series of the
(2p, p) Bessel density (``measures.continuous_moment_series``).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, count, filterfalse, repeat
from math import factorial, perm, prod
from operator import mul

from .errors import DivergentSeriesError, OutOfRangeError, UnsupportedError
from .numeric import ErrorBoundedReal, SeriesSpec, sum_over_e

__all__ = [
    "bell_hypergeometric",
    "dobinski_classic",
    "dobinski_rr",
    "dobinski_rs",
    "dobinski_rs_literal",
    "dobinski_terms",
    "hypergeometric_terms",
]


# (r, s, n, row): the numerators N_0, N_1, ... that the last series drew.  A row
# only ever holds values right for its key, so calls that race lose only the reuse.
_held: tuple[int, int, int, list[int]] = (0, 0, 0, [])


def _numerators(r: int, s: int, n: int) -> Iterator[int]:
    """N_k = prod_{j<n} f(k+jd), k = 0, 1, 2, ..., with f(x) = x!/(x-s)! and d = r - s >= 0.

    The row drawn is held for the next call; if that is order n + 1 of the
    same family, its head N_k(n+1) = N_k(n) f(k+nd) is mapped in C with no
    Python frame per term.  Past the head, N_k is f(k)^n at d = 0, again in
    C, and at d > 0 steps within its residue class mod d,
    N_k = N_(k-d) f(k-d+nd) / f(k-d).  Either way each is appended to the
    row as it is drawn.
    """
    global _held
    *family, held = _held
    factors = map(perm, count((n - 1) * (r - s)), repeat(s))
    row = list(map(mul, held, factors)) if family == [r, s, n - 1] else []
    _held = r, s, n, row
    if r > s:
        return chain(row, _drawn(row, s, r - s, n))
    # row.append returns None, so filterfalse passes every value on, appended first.
    return chain(row, filterfalse(row.append, map(pow, map(perm, count(len(row)), repeat(s)), repeat(n))))


def _drawn(row: list[int], s: int, d: int, n: int) -> Iterator[int]:
    """The numerators past the end of ``row`` for d > 0, appended to it as they are drawn."""
    for k in count(len(row)):
        if k < s + d:
            numer = prod(perm(k + j * d, s) for j in range(n))
        else:
            numer = row[k - d] * perm(k - d + n * d, s) // perm(k - d, s)
        row.append(numer)
        yield numer


def dobinski_terms(r: int, s: int, n: int) -> Iterator[tuple[int, int]]:
    """Terms N_k / k! of the Dobinski series for B_{r,s}(n), r >= s >= 1.

    Each is yielded as the integer pair (N_k, max(k, 1)), as k! = (k-1)! k.
    They are zero for k < s and positive from k = s on, where the ratio of
    consecutive terms, prod_{j<n} prod_{i<s} (1 + 1/(k+jd-i)) / (k+1), does
    not increase in k: the premise of the summation's geometric tail bound.
    """
    if not all(isinstance(v, int) for v in (r, s, n)):
        raise TypeError("r, s and n must be integers")
    if not r >= s >= 1 or n < 1:
        raise OutOfRangeError(f"need r >= s >= 1 and n >= 1, got ({r}, {s}, {n})")
    return zip(_numerators(r, s, n), chain((1,), count(1)))


def _rising(starts: list[int]) -> Iterator[int]:
    """prod_j (a_j + k) for k = 0, 1, ...; one parameter steps as a bare count, with no product."""
    if len(starts) == 1:
        return count(starts[0])
    return map(prod, zip(*map(count, starts)))


def hypergeometric_terms(
    p: int, r: int, n: int, prefactor: tuple[int, int] = (1, 1)
) -> Iterator[tuple[int, int]]:
    """Terms of prefactor * rFr(pn+1, ..., pn+1+p(r-1); 1+p, ..., 1+p+p(r-1); 1).

    The k-th term, prefactor * prod_j (a_j)_k / (k! prod_j (b_j)_k) with the
    prefactor the integer pair (u, v), is yielded as the pair (u prod_j (a_j)_k,
    m_k) of running products, m_0 = v and m_(k+1) = (k+1) prod_j (b_j + k).
    """
    upper = [p * n + 1 + p * (j - 1) for j in range(1, r + 1)]
    lower = [1 + p * j for j in range(1, r + 1)]
    numer, denom = prefactor
    numerators = accumulate(_rising(upper), mul, initial=numer)
    multipliers = map(mul, count(1), _rising(lower))
    return zip(numerators, chain((denom,), multipliers))


def dobinski_classic(n: int, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
    """(1/e) sum_k k^n / k!, which rounds to the classical Bell number B(n)."""
    return sum_over_e(dobinski_terms(1, 1, n), series)


def dobinski_rr(r: int, n: int, series: SeriesSpec = SeriesSpec()) -> ErrorBoundedReal:
    """(1/e) sum_k [k!/(k-r)!]^n / k!, rounding to B_{r,r}(n)."""
    return sum_over_e(dobinski_terms(r, r, n), series)


def _check_rs(r: int, s_exp: int, n: int) -> None:
    if not all(isinstance(v, int) for v in (r, s_exp, n)):
        raise TypeError("r, s and n must be integers")
    if s_exp < 1 or r <= s_exp:
        raise UnsupportedError(f"need r > s >= 1, got ({r}, {s_exp})")
    if n < 1:
        raise OutOfRangeError("need n >= 1")


def dobinski_rs(
    r: int, s_exp: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """(1/e) sum_k N_k / k! for r > s, rounding to B_{r,s}(n)."""
    _check_rs(r, s_exp, n)
    return sum_over_e(dobinski_terms(r, s_exp, n), series)


def dobinski_rs_literal(
    r: int, s_exp: int, n: int, series: SeriesSpec = SeriesSpec()
) -> ErrorBoundedReal:
    """The r > s series with the 1/k! factor dropped, as printed: (1/e) sum_k N_k.

    Kept so the discrepancy is reproducible: the terms never decay, a
    divergence guard trips after 16 consecutive non-decreasing terms, and
    DivergentSeriesError is raised.
    """
    _check_rs(r, s_exp, n)

    def guarded() -> Iterator[tuple[int, int]]:
        nondecreasing = 0
        prev = 0
        for term in _numerators(r, s_exp, n):
            if prev > 0 and term >= prev:
                nondecreasing += 1
                if nondecreasing >= 16:
                    raise DivergentSeriesError(
                        f"terms of the literal (r,s)=({r},{s_exp}) series do not decay"
                    )
            else:
                nondecreasing = 0
            yield term, 1
            prev = term

    return sum_over_e(guarded(), series)


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
    as the other series; the prefactor is folded into every term.

    The prefactor numerator must carry p(n-1+j), not p(n-1)+j: collecting
    the general r > s series for s = pr into blocks of p consecutive
    integers gives prod_{j} (p(n-1+j))!/(pj)! exactly, and only that choice
    rounds to the integer B_{pr+p,pr}(n) once p >= 2 (at p = 1 the two
    agree).  ``reduced_prefactor=True`` evaluates the p(n-1)+j variant so
    the difference is reproducible; expect a certified non-integer from it.
    """
    if not all(isinstance(v, int) for v in (p, r, n)):
        raise TypeError("p, r and n must be integers")
    if p < 1 or r < 1 or n < 1:
        raise OutOfRangeError("need p, r, n >= 1")
    blocks = range(1, r + 1)
    tops = (p * (n - 1) + j if reduced_prefactor else p * (n - 1 + j) for j in blocks)
    prefactor = prod(map(factorial, tops)), prod(factorial(p * j) for j in blocks)
    return sum_over_e(hypergeometric_terms(p, r, n, prefactor), series)
