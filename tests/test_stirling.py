"""Closed forms and dispatch against the row engine and the rewriting oracle."""

import sys
import tracemalloc
from itertools import islice

import pytest

from bosonkit.errors import OutOfRangeError, UnsupportedError
from bosonkit.operator_algebra import (
    ANNIHILATE,
    CREATE,
    MonomialSpec,
    monomial_power_rows,
    normal_order_word,
)
from bosonkit.stirling import (
    bell,
    bell_sequence,
    lah,
    stirling_rr_closed,
    stirling_table,
)

# Classical Bell numbers B(0)..B(10), the r = s = 1 row sums.
BELL_CLASSIC = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def engine_row(r, s, n):
    """Row n of the contraction engine as k -> S_{r,s}(n, k), k = s..ns."""
    row = next(islice(monomial_power_rows(r, s), n - 1, None))
    return {k: row[k] for k in range(s, n * s + 1)}


def word_row(r, s, n):
    """The same row read off the rewritten literal word ((a+)^r a^s)^n."""
    nf = normal_order_word(([CREATE] * r + [ANNIHILATE] * s) * n)
    assert all(i - j == n * (r - s) for (i, j), _ in nf.items())
    return {j: c for (i, j), c in nf.items()}


def test_classical_triangle_recurrence():
    # S(n+1, k) = k S(n, k) + S(n, k-1); S(n, 0) = 0 for n >= 1.
    for n in range(1, 8):
        row = stirling_table(MonomialSpec(1, 1, n)) + [0]
        nxt = stirling_table(MonomialSpec(1, 1, n + 1))
        assert nxt[0] == 0
        for k in range(1, n + 2):
            assert nxt[k] == k * row[k] + row[k - 1]


def test_rr_closed_row_two_two():
    assert {k: stirling_rr_closed(2, 2, k) for k in (2, 3, 4)} == {2: 2, 3: 4, 4: 1}


def test_rr_closed_matches_oracle():
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4, 5):
            oracle = engine_row(r, r, n)
            for k in range(r, r * n + 1):
                assert stirling_rr_closed(r, n, k) == oracle[k]


def test_lah_matches_oracle():
    for n in range(1, 7):
        oracle = engine_row(2, 1, n)
        for k in range(1, n + 1):
            assert lah(n, k) == oracle[k]


@pytest.mark.parametrize("r, n", [(1, 100), (3, 30)])
def test_rr_closed_matches_engine_past_2_256(r, n):
    row = engine_row(r, r, n)
    assert max(row.values()) > 2**256
    assert row == {k: stirling_rr_closed(r, n, k) for k in row}


def test_lah_matches_engine_past_2_256():
    row = engine_row(2, 1, 300)
    assert max(row.values()) > 2**256
    assert row == {k: lah(300, k) for k in row}


def test_lah_row_by_ratio_matches_lah():
    # The (2, 1) row steps lah(n, k + 1) = lah(n, k) (n - k) / (k (k + 1))
    # from n!; lah() computes each entry from its own factorials.
    for n in [*range(1, 61), 300]:
        assert stirling_table(MonomialSpec(2, 1, n)) == [0] + [lah(n, k) for k in range(1, n + 1)], n


def test_lah_frozen_row_four():
    assert [lah(4, k) for k in (1, 2, 3, 4)] == [24, 36, 12, 1]


def test_oracle_only_family():
    spec = MonomialSpec(3, 1, 2)
    assert stirling_table(spec) == [0, 3, 1]


def test_dispatch_equals_oracle():
    # Every r >= s with r <= 4 whose literal word has at most 12 letters.
    for r in range(1, 5):
        for s in range(1, r + 1):
            for n in range(1, 12 // (r + s) + 1):
                oracle = word_row(r, s, n)
                assert engine_row(r, s, n) == oracle, (r, s, n)
                row = stirling_table(MonomialSpec(r, s, n))
                assert row == [oracle.get(k, 0) for k in range(n * s + 1)], (r, s, n)


def test_bell_sequence_matches_per_n_bell():
    # The families of the benchmark's Bell sweeps, at small max.
    for r, s in ((1, 1), (2, 2), (2, 1), (3, 2), (4, 2), (5, 3)):
        per_n = [bell(MonomialSpec(r, s, n)) for n in range(9)]
        assert bell_sequence(r, s, 8) == per_n, (r, s)
    assert bell_sequence(1, 1, 10) == BELL_CLASSIC
    assert bell_sequence(3, 1, 0) == [1]
    with pytest.raises(UnsupportedError):
        bell_sequence(2, 3, 0)
    with pytest.raises(OutOfRangeError):
        bell_sequence(1, 1, -1)


def test_k_range_enforced():
    with pytest.raises(OutOfRangeError):
        stirling_rr_closed(2, 3, 1)
    with pytest.raises(OutOfRangeError):
        lah(4, 5)
    with pytest.raises(OutOfRangeError):
        lah(4, 0)


def test_table_needs_positive_n():
    with pytest.raises(OutOfRangeError):
        stirling_table(MonomialSpec(2, 1, 0))
    with pytest.raises(OutOfRangeError):
        stirling_table(MonomialSpec(3, 2, 0))


def test_bell_row_sums():
    for n, target in enumerate(BELL_CLASSIC):
        assert bell(MonomialSpec(1, 1, n)) == target


def test_bell_quadratic_family():
    # B_{2,2}(0..6)
    targets = [1, 1, 7, 87, 1657, 43833, 1515903]
    for n, target in enumerate(targets):
        assert bell(MonomialSpec(2, 2, n)) == target


def test_bell_lah_family():
    # B_{2,1}(0..8)
    targets = [1, 1, 3, 13, 73, 501, 4051, 37633, 394353]
    for n, target in enumerate(targets):
        assert bell(MonomialSpec(2, 1, n)) == target


def test_bell_spot_values():
    assert bell(MonomialSpec(3, 1, 2)) == 4
    assert bell(MonomialSpec(3, 1, 3)) == 25
    assert bell(MonomialSpec(3, 2, 2)) == 13
    assert bell(MonomialSpec(3, 2, 3)) == 355
    assert bell(MonomialSpec(3, 2, 4)) == 16333
    assert bell(MonomialSpec(3, 3, 2)) == 34
    assert bell(MonomialSpec(4, 2, 2)) == 21


def deep_size(xs):
    return sys.getsizeof(xs) + sum(sys.getsizeof(x) for x in xs)


def test_bell_sweep_memory_stays_bounded():
    # The engine holds one row, its successor, the list-pass temporaries and
    # s weight lists of up to nr + 1 small integers: about 2.4 final rows at
    # the peak for (2, 1) and 4.3 for (5, 3), where keeping every row would
    # take about 100 and 28.  The bound leaves room for allocator noise.
    for r, s, n in ((2, 1, 300), (5, 3, 80)):
        final_row = engine_row(r, s, n)
        tracemalloc.start()
        try:
            values = bell_sequence(r, s, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values[-1] == sum(final_row.values())
        assert peak <= 6 * deep_size(list(final_row.values())) + deep_size(values), (r, s)


def test_bell_value_is_indexable():
    b = bell(MonomialSpec(1, 1, 3))
    assert type(b) is int
    assert list(range(10))[b] == 5

