"""Exact single-mode boson operator algebra in normally ordered form.

A word over the letters a (annihilation) and a+ (creation) with commutator
[a, a+] = 1 equals, as an operator identity, a unique integer combination of
normally ordered monomials a+^i a^j.  This module computes that canonical
form by two independent routes:

* a letter-by-letter rewriting engine applying a a+ -> a+ a + 1 until no
  defect remains, used as the cross-check oracle: it expands pending words
  in decreasing (length, inversion count) order, so each distinct word is
  expanded exactly once, with its coefficient already merged;
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
coefficients indexed by k, and one contraction a^s a+^m on the left takes
the row from n to n + 1 in s + 1 whole-list passes, one per number of
contractions.  All coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count, islice
from math import comb, factorial, perm
from operator import add, mul
from typing import Iterable, Iterator, Mapping

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
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = (),
    ) -> None:
        data: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            i, j, c = int(i), int(j), int(c)
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


def normal_order_word(word: Iterable[Letter], *, strategy: str = "leftmost") -> NormalForm:
    """Normal order a word by exhaustive application of a a+ -> a+ a + 1.

    Rewriting a defect a a+ turns a word into two: the swap a+ a keeps the
    length and lowers the inversion count (pairs of an a before an a+) by
    exactly one, and the contraction shortens the word by two.  Pending words
    sit in buckets keyed by (length, inversions) and the largest key is
    expanded first, so every word that can produce a given word is expanded
    before it.  Coefficients merge when a word arrives, and each distinct word
    is expanded exactly once, with its full coefficient.

    ``strategy`` picks which adjacent defect is rewritten first ("leftmost" or
    "rightmost"); the result is independent of that choice, which the test
    suite uses as a confluence check.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    find = str.find if strategy == "leftmost" else str.rfind
    letters = tuple(word)
    if any(not isinstance(x, Letter) for x in letters):
        raise TypeError("letters must be Letter members")
    # One character per letter, "+" for a+ and "a" for a, so a defect is the
    # substring "a+".
    start = "".join("+" if x is CREATE else "a" for x in letters)
    inversions = sum(start.count("a", 0, pos) for pos, x in enumerate(start) if x == "+")
    buckets: dict[tuple[int, int], dict[str, int]] = {(len(start), inversions): {start: 1}}
    done: dict[tuple[int, int], int] = {}
    for length in range(len(start), -1, -2):
        for inv in range(inversions, -1, -1):
            for w, c in buckets.pop((length, inv), {}).items():
                pos = find(w, "a+")
                if pos < 0:
                    # Defect-free words have the shape a+^i a^j.
                    key = (w.count("+"), w.count("a"))
                    done[key] = done.get(key, 0) + c
                    continue
                # The contraction removes the a at pos, inverted with every a+
                # after it, and the a+ at pos + 1, inverted with every a
                # before it; the removed pair itself is counted in both.
                lost = w.count("+", pos + 1) + w.count("a", 0, pos + 1) - 1
                for nxt, key in (
                    (w[:pos] + "+a" + w[pos + 2 :], (length, inv - 1)),
                    (w[:pos] + w[pos + 2 :], (length - 2, inv - lost)),
                ):
                    bucket = buckets.setdefault(key, {})
                    bucket[nxt] = bucket.get(nxt, 0) + c
    return NormalForm(done)


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


@dataclass(frozen=True)
class MonomialSpec:
    """Parameters of the monomial power [(a+)^r a^s]^n with r >= s >= 1."""

    r: int
    s: int
    n: int

    def __post_init__(self) -> None:
        for name in ("r", "s", "n"):
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"{name} must be an integer")
        if self.s < 1 or self.r < self.s:
            raise UnsupportedError(
                f"(r, s) = ({self.r}, {self.s}) not supported: need r >= s >= 1"
            )
        if self.n < 0:
            raise OutOfRangeError(f"power n = {self.n} must be non-negative")

    @property
    def excess(self) -> int:
        """Net creation degree n(r - s) of the normally ordered power."""
        return self.n * (self.r - self.s)


def monomial_power_rows(r: int, s: int) -> Iterator[list[int]]:
    """Yield the rows k -> S_{r,s}(n, k) of [(a+)^r a^s]^n for n = 1, 2, ...

    Row n is a list of length ns + 1 whose entry k is the coefficient of
    a+^m a^k, m = n(r-s) + k; entries below k = s are zero.  Each step
    multiplies by a+^r a^s on the left (powers commute): a^s a+^m moves
    W_l[m] = C(s, l) m!/(m-l)! times the entry at k to k + s - l, so the next
    row is the row shifted by s plus, per l = 1..s, one list pass adding the
    row times W_l[n(r-s):] in from index s - l; W_l[m] = 0 for m < l.  Only
    the row and the small-integer lists W_l (nr + 1 entries) are held.  (r, s)
    is validated when the first row is drawn.
    """
    MonomialSpec(r=r, s=s, n=1)
    weights: list[list[int]] = [[] for _ in range(s)]  # weights[l - 1] is W_l
    row = [0] * s + [1]
    for start in count(r - s, r - s):  # start = n(r - s) for row n
        yield row
        end = start + len(row)
        for m in range(len(weights[0]), end):
            for l, w in enumerate(weights, start=1):
                w.append(comb(s, l) * perm(m, l))
        nxt = [0] * s + row
        for l, w in enumerate(weights, start=1):
            lo, hi = s - l, s - l + len(row)
            nxt[lo:hi] = map(add, nxt[lo:hi], map(mul, row, w[start:end]))
        row = nxt


def monomial_power_normal_form(spec: MonomialSpec) -> NormalForm:
    """Normal form of [(a+)^r a^s]^n; the identity for n = 0."""
    if spec.n == 0:
        return NormalForm({(0, 0): 1})
    row = next(islice(monomial_power_rows(spec.r, spec.s), spec.n - 1, None))
    return NormalForm({(spec.excess + k, k): c for k, c in enumerate(row) if c})

