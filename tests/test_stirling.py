"""Frozen values, validation and memory bounds of the closed forms, dispatch and Bell sweeps.

Their routes are crossed against the row engine in tests/test_routes.py.
"""

import sys
import tracemalloc
from itertools import islice

import pytest

from bosonkit.errors import OutOfRangeError, UnsupportedError
from bosonkit.operator_algebra import MonomialSpec, monomial_power_rows
from bosonkit.stirling import (
    bell,
    bell_sequence,
    bell_values,
    lah,
    stirling_rr_closed,
    stirling_table,
)

# Classical Bell numbers B(0)..B(10), the r = s = 1 row sums.
BELL_CLASSIC = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_rr_closed_row_two_two():
    assert {k: stirling_rr_closed(2, 2, k) for k in (2, 3, 4)} == {2: 2, 3: 4, 4: 1}


def test_lah_frozen_row_four():
    assert [lah(4, k) for k in (1, 2, 3, 4)] == [24, 36, 12, 1]


def test_oracle_only_family():
    spec = MonomialSpec(3, 1, 2)
    assert stirling_table(spec) == [0, 3, 1]


def test_bell_sequence_validation():
    assert bell_sequence(1, 1, 10) == BELL_CLASSIC
    assert bell_sequence(3, 1, 0) == [1]
    with pytest.raises(UnsupportedError):
        bell_sequence(2, 3, 0)
    with pytest.raises(OutOfRangeError):
        bell_sequence(1, 1, -1)
    # The iterator checks (r, s) when it is made, before any value is drawn.
    with pytest.raises(UnsupportedError):
        bell_values(2, 3)


@pytest.mark.parametrize("args", [(2, 2.0, 2), (1, 3.0, 2), (2.0, 2, 2), (2, 2, 2.0)])
def test_rr_closed_rejects_non_integers(args):
    # A float n would pass through perm(...) ** n and divmod and come back a float.
    with pytest.raises(TypeError):
        stirling_rr_closed(*args)


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
    # Only the r = s sweeps read the engine.  It holds one row, its
    # successor and the list-pass temporaries: about 2.1 final rows beyond
    # the output at the peak for both (1, 1) and (3, 3), where keeping every
    # row would take about 105 and 23.  The bound leaves room for allocator
    # noise.
    for r, s, n in ((1, 1, 300), (3, 3, 60)):
        # Row n of the engine, entries k = s..ns.
        final_row = next(islice(monomial_power_rows(r, s), n - 1, None))[s:]
        tracemalloc.start()
        try:
            values = bell_sequence(r, s, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values[-1] == sum(final_row)
        assert peak <= 6 * deep_size(final_row) + deep_size(values), (r, s)


def test_poisson_shift_sweep_memory_stays_bounded():
    # The last step holds A_0..A_(r+s-1)(n - 1), builds A_0..A_(r-1)(n),
    # whose first entry is the output, and makes two temporaries per
    # product: about 2r + s values beyond the output, each about as large as
    # the last one, plus about 1 KB of small lists and the generator frame.
    # Keeping the A_j of every n would add about r + s times the output.
    # The r = 2s families (2, 1) and (4, 2) step the same recurrence.
    for r, s, n in ((3, 2, 150), (5, 3, 80), (3, 1, 1000), (2, 1, 1000), (4, 2, 300)):
        tracemalloc.start()
        try:
            values = bell_sequence(r, s, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = (2 * r + s + 2) * sys.getsizeof(values[-1]) + 2048
        assert peak <= deep_size(values) + sys.getsizeof(values) + state, (r, s)


def test_bell_value_is_indexable():
    b = bell(MonomialSpec(1, 1, 3))
    assert type(b) is int
    assert list(range(10))[b] == 5

