"""Reference values computed apart from bosonkit: standard library only.

Nothing here imports from ``src/``.  Each quantity comes from a formula of
its own, not from the program's algorithms:

* ``bell_triangle``: classical Bell numbers B(n) by Aitken's array;
* ``lah_row``: the unsigned Lah numbers n!/k! C(n-1, k-1), i.e. S_{2,1}(n, k);
* ``stirling_row``: the paper's explicit sum
  S_{r,s}(n, k) = ((-1)^k / k!) sum_{p=s}^{k} (-1)^p C(k, p)
                  prod_{j=1}^{n} (p + (j-1)(r-s))^{falling s};
* ``bell_sweep``: B_{r,s}(0..N) from the same explicit sum with the k-sum
  done in closed form (see its docstring);
* ``fock_normal_form``: the normal form of any word, read off its action on
  polynomials (a+ = multiplication by x, a = d/dx).
"""

from __future__ import annotations

from math import comb, factorial


def bell_triangle(n_max: int) -> list[int]:
    """B(0..n_max) by Aitken's array: each row starts with the last entry
    of the row above, and each next entry adds the entry above it."""
    values = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        values.append(row[0])
    return values


def lah_row(n: int) -> list[int]:
    """S_{2,1}(n, k) for k = 1..n."""
    return [factorial(n) // factorial(k) * comb(n - 1, k - 1) for k in range(1, n + 1)]


def _falling(x: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= x - i
    return out


def stirling_row(r: int, s: int, n: int) -> list[int]:
    """S_{r,s}(n, k) for k = s..ns by the explicit alternating sum."""
    d = r - s
    top = n * s
    products = []
    for p in range(top + 1):
        prod = 1
        for j in range(1, n + 1):
            prod *= _falling(p + (j - 1) * d, s)
        products.append(prod)
    row = []
    for k in range(s, top + 1):
        total = sum((-1) ** p * comb(k, p) * products[p] for p in range(s, k + 1))
        value, rest = divmod((-1) ** k * total, factorial(k))
        if rest or value < 0:
            raise ArithmeticError(f"explicit sum for S_{{{r},{s}}}({n},{k}) is not a count")
        row.append(value)
    return row


def _derangements(m_max: int) -> list[int]:
    d = [1, 0]
    for m in range(2, m_max + 1):
        d.append((m - 1) * (d[-1] + d[-2]))
    return d[: m_max + 1]


def bell_sweep(r: int, s: int, n_max: int) -> list[int]:
    """B_{r,s}(0..n_max), with B(0) = 1.

    Summing the explicit sum over k = s..K with K = ns (the summand is the
    k-th forward difference of a degree-K polynomial in p, so it vanishes
    past K) and exchanging the sums gives
    B_{r,s}(n) = (1/K!) sum_{p=s}^{K} C(K, p) D(K-p) P_p(n),
    where D is the derangement number and P_p(n) the product in the explicit
    sum, updated from P_p(n-1) one factor at a time.
    """
    d = r - s
    p_max = n_max * s
    derange = _derangements(p_max)
    products = [1] * (p_max + 1)
    values = [1]
    for n in range(1, n_max + 1):
        for p in range(p_max + 1):
            products[p] *= _falling(p + (n - 1) * d, s)
        top = n * s
        total = sum(
            comb(top, p) * derange[top - p] * products[p] for p in range(s, top + 1)
        )
        value, rest = divmod(total, factorial(top))
        if rest:
            raise ArithmeticError(f"B_{{{r},{s}}}({n}) is not an integer")
        values.append(value)
    return values


def bell_numbers(r: int, s: int, n_max: int) -> list[int]:
    """B_{r,s}(0..n_max) from whichever reference fits the family."""
    if (r, s) == (1, 1):
        return bell_triangle(n_max)
    if (r, s) == (2, 1):
        return [1] + [sum(lah_row(n)) for n in range(1, n_max + 1)]
    return bell_sweep(r, s, n_max)


def fock_normal_form(word: str) -> dict[tuple[int, int], int]:
    """Normal form {(i, j): c} of a word over 'c' (a+) and 'a' (a).

    The word acts on x^k as w(k) x^(k+e), with e = #c - #a; a normal form
    sum_j c_j a+^(j+e) a^j acts as sum_j c_j k!/(k-j)! x^(k+e).  Matching
    the two for k = 0, 1, ..., #a solves for c_j one at a time.
    """
    excess = word.count("c") - word.count("a")
    coeffs: list[int] = []
    for k in range(word.count("a") + 1):
        coef, power = 1, k
        for letter in reversed(word):
            if letter == "c":
                power += 1
            elif letter == "a":
                coef *= power
                power -= 1
            else:
                raise ValueError(f"unknown letter {letter!r}")
            if coef == 0:
                break
        known = sum(c * factorial(k) // factorial(k - j) for j, c in enumerate(coeffs))
        c_k, rest = divmod(coef - known, factorial(k))
        if rest:
            raise ArithmeticError(f"no integer normal form for {word!r}")
        coeffs.append(c_k)
    return {(j + excess, j): c for j, c in enumerate(coeffs) if c}
