"""Every route to a Stirling row and to a Bell number, in one table, crossed.

A Stirling row k -> S_{r,s}(n, k), k = 0..ns, comes from
* ``engine``: row n of the contraction engine ``monomial_power_rows``;
* ``stirling_table``: the dispatch, a closed form at r = 2s;
* ``explicit formula``: the paper's k! S_{r,s}(n, k) =
  sum_j (-1)^(k-j) C(k, j) N_j(n), N_j(n) = prod_{i<n} (j+id)!/(j+id-s)!,
  d = r - s (Blasiak, Penson & Solomon, Ann. Comb. 7, 2003), computed here;
* ``normal_order_word``: the literal word ((a+)^r a^s)^n, up to 40 letters;
* ``stirling_rr_closed`` at r = s and ``lah`` at (2, 1).

A Bell number B_{r,s}(n) is the engine row's sum; it comes exactly from
``bell_sequence``, ``bell`` and, at s = 1, n! times the n-th
coefficient of ``egf_classic`` or ``egf_r1``.  Certified series round to it:
the Dobinski series, ``bell_hypergeometric(p, q, n)`` where (r, s) =
(pq + p, pq), the comb moments at r = s and ``continuous_moment_series(s, n)``
at r = 2s.  A comb moment is the Dobinski series and the density's moment
series sums the q = 1 hypergeometric terms, so those enclosures agree bit for bit.

Every route runs on every family 1 <= s <= r <= 5 at n = 1..10 and on fixed
rows: (1,1,30), (2,2,20) and (3,3,20); six rows past 2^256; each family
r > s, r != 2s with 6 <= r <= 8 at n = 20, and its s = 1 ones also at n = 40;
the r = 2s rows (6,3,10), (6,3,30), (8,4,30) and (10,5,30); and (2,1,60).
Every r > s Bell sweep steps the Poisson shift, r = 2s included.
"""

from itertools import islice
from math import comb, factorial, perm, prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonkit.dobinski import bell_hypergeometric, dobinski_classic, dobinski_rr, dobinski_rs
from bosonkit.genfunc import egf_classic, egf_r1
from bosonkit.measures import continuous_moment_series, dirac_comb, moment, rarefied_comb
from bosonkit.operator_algebra import (
    ANNIHILATE,
    CREATE,
    MonomialSpec,
    monomial_power_rows,
    normal_order_word,
)
from bosonkit.stirling import bell, bell_sequence, lah, stirling_rr_closed, stirling_table

# Every family 1 <= s <= r <= 5 at n = 1..10.  Hypothesis draws distinct
# cases, so max_examples = len(GRID) visits each once.
GRID = [(r, s, n) for r in range(1, 6) for s in range(1, r + 1) for n in range(1, 11)]
# Rows whose largest entries have 358, 326, 364, 382, 329 and 2080 bits.
PAST_2_256 = [(3, 2, 40), (5, 3, 24), (4, 1, 60), (1, 1, 100), (3, 3, 30), (2, 1, 300)]
# Every family r > s with 6 <= r <= 8 whose row the engine makes.  Each Bell
# sweep here steps the Poisson shift; (6,3) and (8,4) step it too, but their
# rows are closed forms, so they come in through the r = 2s rows of FIXED.
SHIFT_ROWS = [(r, s, 20) for r in range(6, 9) for s in range(1, r) if r != 2 * s]
# Past the grid: the s = 1 shift families at n = 40, where the EGF route runs;
# the r = 2s closed rows and Poisson-shift sweeps at s = 3..5; lah at n = 60.
FIXED = [
    (1, 1, 30), (2, 2, 20), (3, 3, 20), *PAST_2_256, *SHIFT_ROWS, (6, 1, 40), (7, 1, 40), (8, 1, 40),
    (6, 3, 10), (6, 3, 30), (8, 4, 30), (10, 5, 30), (2, 1, 60),
]


def engine_row(r, s, n):
    return next(islice(monomial_power_rows(r, s), n - 1, None))


def explicit_row(r, s, n):
    d = r - s
    numerators = [prod(perm(j + i * d, s) for i in range(n)) for j in range(n * s + 1)]
    row = []
    for k in range(n * s + 1):
        total = sum((-1) ** (k - j) * comb(k, j) * numerators[j] for j in range(k + 1))
        value, rest = divmod(total, factorial(k))
        assert rest == 0 and value >= 0, (r, s, n, k)
        row.append(value)
    return row


def word_row(r, s, n):
    row = [0] * (n * s + 1)
    for (i, j), c in normal_order_word(([CREATE] * r + [ANNIHILATE] * s) * n).items():
        assert i - j == n * (r - s)
        row[j] = c
    return row


def always(r, s, n):
    return True


# name: (where the route is defined, the route).
STIRLING_ROUTES = {
    "engine": (always, engine_row),
    "stirling_table": (always, lambda r, s, n: stirling_table(MonomialSpec(r, s, n))),
    "explicit formula": (always, explicit_row),
    "normal_order_word": (lambda r, s, n: (r + s) * n <= 40, word_row),
    "stirling_rr_closed": (
        lambda r, s, n: r == s,
        lambda r, s, n: [0] * r + [stirling_rr_closed(r, n, k) for k in range(r, r * n + 1)],
    ),
    "lah": (
        lambda r, s, n: (r, s) == (2, 1),
        lambda r, s, n: [0] + [lah(n, k) for k in range(1, n + 1)],
    ),
}

# Each gives the engine row's sum exactly.
BELL_ROUTES = {
    "bell_sequence": (always, lambda r, s, n: bell_sequence(r, s, n)[n]),
    "bell": (always, lambda r, s, n: bell(MonomialSpec(r, s, n))),
    "EGF": (
        lambda r, s, n: s == 1,
        lambda r, s, n: (egf_classic(n) if r == 1 else egf_r1(r, n))[n] * factorial(n),
    ),
}

# Each is a certified enclosure of the engine row's sum.
SERIES_ROUTES = {
    "Dobinski": (always, lambda r, s, n: dobinski_rr(r, n) if r == s else dobinski_rs(r, s, n)),
    "dobinski_classic": (lambda r, s, n: r == 1, lambda r, s, n: dobinski_classic(n)),
    "Dirac comb": (lambda r, s, n: r == 1, lambda r, s, n: moment(dirac_comb(), n)),
    "rarefied comb": (lambda r, s, n: r == s, lambda r, s, n: moment(rarefied_comb(r), n)),
    "bell_hypergeometric": (
        lambda r, s, n: r > s and s % (r - s) == 0,
        lambda r, s, n: bell_hypergeometric(r - s, s // (r - s), n),
    ),
    "continuous_moment_series": (
        lambda r, s, n: r == 2 * s,
        lambda r, s, n: continuous_moment_series(s, n),
    ),
}

# Series routes that sum the same rationals as another.
SAME_TERMS = {
    "Dirac comb": "dobinski_classic",
    "rarefied comb": "Dobinski",
    "continuous_moment_series": "bell_hypergeometric",
}


def run_routes(table, case):
    return {name: route(*case) for name, (where, route) in table.items() if where(*case)}


@given(st.sampled_from(GRID))
@settings(max_examples=len(GRID), deadline=None)
def test_every_route_agrees(case):
    rows = run_routes(STIRLING_ROUTES, case)
    engine = rows["engine"]
    assert case not in PAST_2_256 or max(engine) > 2**256
    for name, row in rows.items():
        assert row == engine, (name, case)
    bell_number = sum(engine)
    values = run_routes(BELL_ROUTES, case)
    assert values == dict.fromkeys(values, bell_number), case
    series = run_routes(SERIES_ROUTES, case)
    for name, value in series.items():
        assert value.to_integer() == bell_number, (name, case)
        assert value.abs_error < 1e-11, (name, case)
    for name, other in SAME_TERMS.items():
        if name in series:
            got, want = series[name], series[other]
            assert (got.value, got.abs_error) == (want.value, want.abs_error), (name, case)


# Hypothesis runs the explicit examples, the last one added first, before it
# draws from GRID; so the fixed rows run in FIXED order.
for case in reversed(FIXED):
    test_every_route_agrees = example(case)(test_every_route_agrees)
