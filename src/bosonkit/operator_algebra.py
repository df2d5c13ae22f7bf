"""Exact single-mode boson operator algebra in normally ordered form.

A word over the letters a (annihilation) and a+ (creation) with commutator
[a, a+] = 1 equals, as an operator identity, a unique integer combination of
normally ordered monomials a+^i a^j.  This module computes that canonical
form by two independent routes:

* one left-to-right pass applying a a+ -> a+ a + 1, used as the cross-check
  oracle: each a+ read is carried to the front across the a^j of every term
  of the prefix's normal form by j applications of the rule, and the j
  contractions, which all leave the same word, merge into the coefficient j.
  Only that count enters, no weight of the contraction rule below, so the
  two routes stay independent.  A word with p letters a+ and q letters a
  costs at most p (q + 1) multiply-adds;
* a closed contraction rule
  a^j a+^i = sum_l C(j, l) C(i, l) l!  a+^(i-l) a^(j-l)
  giving polynomial-cost products of normal forms.

A word is any iterable of ``Letter`` members.  A ``NormalForm`` is an
immutable map (i, j) -> coefficient, read through ``items()`` and compared
with ``==``; it has no arithmetic of its own, and products go through
``multiply``.

Powers of the monomial a+^r a^s come from one streaming engine,
``monomial_power_rows``: every term of [(a+)^r a^s]^n has the same excess
n(r - s) of creation over annihilation, so the power is a single row of
coefficients indexed by k.  Left multiplication by a+^r a^s takes the row
from n to n + 1 in s whole-list passes, one per annihilator, each applying
the single commutation a a+^m = a+^m a + m a+^(m-1); the a+^r then only
relabels the excess.  The closed contraction rule stays in ``multiply``
only; the tests cross the engine against it applied on the right, entry by
entry, against the oracle and against the paper's explicit formula.  All
coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, count, islice
from math import comb, factorial
from operator import add, index, mul

from .errors import OutOfRangeError, UnsupportedError

__all__ = [
    "ANNIHILATE",
    "CREATE",
    "Letter",
    "MonomialSpec",
    "NormalForm",
    "format_terms",
    "monomial_power_normal_form",
    "monomial_power_rows",
    "multiply",
    "normal_order_word",
]


class Letter(enum.Enum):
    """A single boson letter: CREATE is a+, ANNIHILATE is a."""

    CREATE = "a+"
    ANNIHILATE = "a"


CREATE = Letter.CREATE
ANNIHILATE = Letter.ANNIHILATE


class NormalForm:
    """Integer combination of normally ordered monomials a+^i a^j.

    Immutable once built; zero coefficients are never stored and repeated
    keys are summed.  {} is the zero operator and {(0, 0): 1} the identity.
    Exponents and coefficients must be integers (``operator.index``), not truncated.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = (),
    ) -> None:
        data: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            i, j, c = index(i), index(j), index(c)
            if i < 0 or j < 0:
                raise ValueError("exponents must be non-negative")
            if c == 0:
                continue
            key = (i, j)
            new = data.get(key, 0) + c
            if new:
                data[key] = new
            else:
                data.pop(key, None)
        object.__setattr__(self, "_terms", data)

    @classmethod
    def _of(cls, data: dict[tuple[int, int], int]) -> NormalForm:
        """The form holding ``data`` itself, unchecked.

        The caller built ``data`` exactly as ``__init__`` would leave it: each
        key a pair of non-negative ints, each coefficient a non-zero int.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NormalForm is immutable")

    def items(self):
        return self._terms.items()

    def __eq__(self, other) -> bool:
        if isinstance(other, NormalForm):
            return self._terms == other._terms
        return NotImplemented

    def __str__(self) -> str:
        return format_terms(self._terms.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"({i}, {j}): {c}" for (i, j), c in sorted(self._terms.items()))
        return f"NormalForm({{{inner}}})"


def format_terms(items: Iterable[tuple[tuple[int, int], object]]) -> str:
    """Print ((i, j), c) pairs as "c a+^i a^j + ...", highest (i, j) first.

    Zero coefficients are left out, a coefficient 1 is left out of a
    non-constant term, and no terms at all print as "0".
    """
    parts = []
    for (i, j), c in sorted(((key, c) for key, c in items if c), reverse=True):
        factors = []
        if c != 1 or (i == 0 and j == 0):
            factors.append(str(c))
        if i:
            factors.append("a+" if i == 1 else f"a+^{i}")
        if j:
            factors.append("a" if j == 1 else f"a^{j}")
        parts.append(" ".join(factors))
    return " + ".join(parts) or "0"


def normal_order_word(word: Iterable[Letter]) -> NormalForm:
    """Normal order a word by the rule a a+ -> a+ a + 1, in one left-to-right pass.

    The normal form of the prefix read so far is kept as a row: every term
    a+^i a^j of it has i - j equal to the prefix's excess e of a+ over a, so
    entry j holds the coefficient of a+^(j+e) a^j.  An a moves each term from
    j to j + 1.  An a+ carries the new letter across a^j by j applications of
    the rule, a^j a+ = a+ a^j + j a^(j-1): the swap keeps the entry at j, and
    the j contractions all leave the same word, so they merge into j times
    the entry, added in at j - 1.  Each a+ is one pass over the row, at most
    one entry per a read so far.
    """
    letters = tuple(word)
    if any(not isinstance(x, Letter) for x in letters):
        raise TypeError("letters must be Letter members")
    row = [1]
    for x in letters:
        if x is CREATE:
            row = [*map(add, row, map(mul, count(1), row[1:])), row[-1]]
        else:
            row.insert(0, 0)
    excess = 2 * letters.count(CREATE) - len(letters)
    return NormalForm._of({(j + excess, j): c for j, c in enumerate(row) if c})


def multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product of two normal forms via the closed contraction rule."""
    acc: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            base = c1 * c2
            for l in range(min(j1, i2) + 1):
                key = (i1 + i2 - l, j1 + j2 - l)
                weight = base * comb(j1, l) * comb(i2, l) * factorial(l)
                acc[key] = acc.get(key, 0) + weight
    return NormalForm(acc)


class MonomialSpec(namedtuple("MonomialSpec", "r s n")):
    """Parameters of the monomial power [(a+)^r a^s]^n with r >= s >= 1."""

    __slots__ = ()

    def __new__(cls, r: int, s: int, n: int):
        for name, value in zip(cls._fields, (r, s, n)):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
        if s < 1 or r < s:
            raise UnsupportedError(f"(r, s) = ({r}, {s}) not supported: need r >= s >= 1")
        if n < 0:
            raise OutOfRangeError(f"power n = {n} must be non-negative")
        return super().__new__(cls, r, s, n)

    # namedtuple's _make, behind _replace, calls tuple.__new__ and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def excess(self) -> int:
        """Net creation degree n(r - s) of the normally ordered power."""
        return self.n * (self.r - self.s)


def monomial_power_rows(r: int, s: int) -> Iterator[list[int]]:
    """Yield the rows k -> S_{r,s}(n, k) of [(a+)^r a^s]^n for n = 1, 2, ...

    Row n is a list of length ns + 1 whose entry k is the coefficient of
    a+^m a^k, m = n(r-s) + k; entries below k = s are zero.  Each step
    multiplies by a+^r a^s on the left (powers commute) one annihilator at a
    time: a row at excess e holds sum_k c_k a+^(e+k) a^k, and
    a a+^(e+k) = a+^(e+k) a + (e+k) a+^(e+k-1), so one a gives the row
    c'_k = c_(k-1) + (e+k) c_k at excess e - 1.  Row n + 1 is s such passes
    from e = n(r-s) down, and a+^r then restores the excess to (n+1)(r-s).
    Only the row is held.  (r, s) is validated when the first row is drawn.
    """
    MonomialSpec(r=r, s=s, n=1)
    row = [0] * s + [1]
    for start in count(r - s, r - s):  # start = n(r - s) for row n
        yield row
        for t in range(s):
            row = [*map(add, chain((0,), row), map(mul, row, count(start - t))), row[-1]]


def monomial_power_normal_form(spec: MonomialSpec) -> NormalForm:
    """Normal form of [(a+)^r a^s]^n; the identity for n = 0."""
    if spec.n == 0:
        return NormalForm._of({(0, 0): 1})
    row = next(islice(monomial_power_rows(spec.r, spec.s), spec.n - 1, None))
    return NormalForm._of({(spec.excess + k, k): c for k, c in enumerate(row) if c})

