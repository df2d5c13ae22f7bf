"""Certified series evaluation against the exact rewriting oracle."""

import functools
import gc
import hashlib
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_abs, mpf_neg

import bosonkit
from bosonkit import dobinski, numeric
from bosonkit.cli import main
from bosonkit.dobinski import (
    _numerators,
    bell_hypergeometric,
    dobinski_classic,
    dobinski_rr,
    dobinski_rs,
    dobinski_rs_literal,
    dobinski_terms,
    hypergeometric_terms,
)
from bosonkit.errors import (
    DivergentSeriesError,
    NonIntegerResultError,
    OutOfRangeError,
    PrecisionExhaustedError,
    UnsupportedError,
)
from bosonkit.numeric import (
    MAX_BITS,
    ErrorBoundedReal,
    SeriesSpec,
    Dyadic,
    _inv_e_bracket,
    _inv_e_fixed,
    quotient_by_e,
    sum_over_e,
    sum_with_tail_bound,
)
from bosonkit.measures import (
    ContinuousDensity,
    continuous_moment_series,
    dirac_comb,
    moment,
    rarefied_comb,
)
from bosonkit.operator_algebra import MonomialSpec
from bosonkit.stirling import bell, bell_sequence


def _exact(x) -> Fraction:
    """An mpf as a Fraction, without rounding, from its mantissa and exponent."""
    man, exp = x.man_exp  # the magnitude; the sign is not part of it
    if x < 0:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def ratio(x: Fraction) -> tuple[int, int]:
    """A Fraction as the kernel's integer pair."""
    return x.as_integer_ratio()


def rationals(result):
    """A kernel result ((T, D), (tail_n, tail_d), count) with its two pairs as Fractions."""
    (num, den), (tail_n, tail_d), count = result
    return Fraction(num, den), Fraction(tail_n, tail_d), count


def encloses(value, x):
    """Whether x lies within value.abs_error of value.value, as exact rationals."""
    return abs(_exact(value.value) - x) <= _exact(value.abs_error)


def oracle(r, s, n):
    return bell(MonomialSpec(r, s, n))


def test_rs_validation():
    with pytest.raises(UnsupportedError):
        dobinski_rs(2, 2, 3)
    with pytest.raises(UnsupportedError):
        dobinski_rs(1, 2, 3)
    with pytest.raises(OutOfRangeError):
        dobinski_rs(2, 1, 0)
    with pytest.raises(OutOfRangeError):
        dobinski_classic(0)
    with pytest.raises(OutOfRangeError):
        dobinski_rr(0, 2)


def test_literal_series_diverges():
    # Without the 1/k! damping the printed series cannot converge, whether
    # its numerators run as one chain (d = 1) or as d = 2, 3 chains.
    for r, s in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
        for n in (1, 2, 3):
            with pytest.raises(DivergentSeriesError):
                dobinski_rs_literal(r, s, n)


def strided_numerators(r, s, n):
    """N_k as the strided product of a growing list of falling factorials x!/(x-s)!."""
    d = r - s
    falling = [0] * s + [math.factorial(s)]
    for k in itertools.count():
        top = k + (n - 1) * d
        for x in range(len(falling), top + 1):
            falling.append(falling[-1] * x // (x - s))
        yield falling[k] ** n if d == 0 else math.prod(falling[k : top + 1 : d])


def test_numerators_match_strided_products():
    # d = 0, d = 1 (one chain) and d >= 2 (d chains, one per residue class).
    # Walking n up, each order starts from the row the one below drew and
    # computes three more terms past it; walking down, every row is fresh.
    for r in range(1, 7):
        for s in range(1, r + 1):
            for n in [*range(1, 9), *range(8, 0, -1)]:
                got = list(itertools.islice(_numerators(r, s, n), 60 + 3 * n))
                want = list(itertools.islice(strided_numerators(r, s, n), 60 + 3 * n))
                assert got == want, (r, s, n)


_STRIDED = {}


def strided_head(r, s, n, stop):
    """The first ``stop`` strided numerators of (r, s, n), grown on demand."""
    rest, head = _STRIDED.setdefault((r, s, n), (strided_numerators(r, s, n), []))
    head.extend(itertools.islice(rest, max(0, stop - len(head))))
    return head[:stop]


FAMILIES = [(r, s) for r in range(1, 7) for s in range(1, r + 1)]
# Each call: (kind, family index, order step, terms to draw or iterator to resume).
CALLS = st.tuples(
    st.sampled_from(["draw", "resume", "moment", "mass", "literal"]),
    st.integers(0, 2),
    st.integers(-2, 2),
    st.integers(0, 30),
)


@given(st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=3), st.lists(CALLS, max_size=12))
@example([(3, 1), (3, 2)], [("draw", 0, 0, 10), ("draw", 1, 1, 10)])  # a key without s
@example([(2, 2)], [("draw", 0, 0, 10), ("draw", 0, 0, 10)])  # reuse at n, not n - 1
@example([(1, 1)], [("mass", 0, 0, 0), ("moment", 0, 1, 0), ("moment", 0, 1, 0)])
@settings(max_examples=150, deadline=None)
def test_held_row_never_leaks_a_wrong_numerator(pool, calls):
    # Random call sequences over a few families, orders stepping by -2..2
    # from the last call's, with partial draws and iterators resumed after
    # later calls: every numerator drawn is the strided product, and every
    # comb moment, comb mass and literal series that ran in between is right.
    # A comb's mass draws no numerators, so it leaves the held row as it was.
    live, last_n = [], 1
    for kind, which, step, size in calls:
        r, s = pool[which % len(pool)]
        n = min(max(last_n + step, 1), 8)
        comb = dirac_comb() if (r, which) == (1, 0) else rarefied_comb(r)
        if kind == "resume" and live:
            family, pos, numerators = live[size % len(live)]
            got = list(itertools.islice(numerators, size))
            assert got == strided_head(*family, pos[0] + size)[pos[0] :], family
            pos[0] += size
            continue
        last_n = n
        if kind == "draw" or kind == "resume":  # with nothing to resume, draw anew
            numerators = _numerators(r, s, n)
            got = list(itertools.islice(numerators, size))
            assert got == strided_head(r, s, n, size), (r, s, n)
            live.append(((r, s, n), [size], numerators))
        elif kind == "moment":
            assert moment(comb, n).to_integer() == oracle(r, r, n), (comb, n)
        elif kind == "mass":
            held = dobinski._held
            numerators = itertools.islice(strided_numerators(r, r, 0), comb.j0, None)
            multipliers = itertools.chain((math.factorial(comb.j0),), itertools.count(comb.j0 + 1))
            terms = zip(numerators, multipliers)
            assert comb.mass() == sum_over_e(terms, SeriesSpec()), comb
            assert dobinski._held is held
        elif r > s:
            with pytest.raises(DivergentSeriesError):
                dobinski_rs_literal(r, s, n)


def test_held_row_is_right_across_threads():
    # Six threads walk orders 1..6 of random families through the one held
    # row, switching every microsecond: a race may cost the reuse, never a value.
    want = {
        (r, s, n): list(itertools.islice(strided_numerators(r, s, n), 40))
        for r in range(1, 5)
        for s in range(1, r + 1)
        for n in range(1, 7)
    }
    wrong, done = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(150):
            r = rng.randint(1, 4)
            s = rng.randint(1, r)
            for n in range(1, 7):
                size = rng.randint(0, 40)
                if list(itertools.islice(_numerators(r, s, n), size)) != want[r, s, n][:size]:
                    wrong.append((r, s, n))
        done.append(seed)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert sorted(done) == list(range(6))
    assert wrong == []


def test_consecutive_orders_reuse_the_held_row(capsys, monkeypatch):
    # Order 40 maps its head from order 39's row and computes only the terms
    # that series did not draw.
    dobinski_classic(39)
    fresh, drawn = [], bosonkit.dobinski._drawn

    def counted(*args):
        for numerator in drawn(*args):
            fresh.append(numerator)
            yield numerator

    monkeypatch.setattr(bosonkit.dobinski, "_drawn", counted)
    dobinski_classic(40)
    monkeypatch.undo()
    assert bosonkit.dobinski._held[:3] == (1, 1, 40)
    assert len(fresh) <= 3
    # A sweep of 700 orders leaves one of its rows alive, the last one:
    # (1, 1) rows start 0, 1, 2^n, 3^n, and those past order 40 are its.
    gc.collect()
    assert main(["verify", "dobinski", "--r", "1", "--s", "1", "--max", "700"]) == 0
    capsys.readouterr()
    gc.collect()
    rows = [
        obj
        for obj in gc.get_objects()
        if type(obj) is list
        and len(obj) > 3
        and obj[:2] == [0, 1]
        and type(obj[2]) is int
        and obj[2] > 2**40
        and obj[3] == 3 ** (obj[2].bit_length() - 1)
    ]
    assert [row[2] for row in rows] == [2**700]
    assert rows[0] is bosonkit.dobinski._held[3]


def test_hypergeometric_rounds_to_bell():
    # bell_hypergeometric(p, q, n) targets the family (r, s) = (pq + p, pq);
    # tests/test_routes.py crosses it at every such family up to r = 5.
    for n in range(1, 4):
        value = bell_hypergeometric(2, 2, n)
        assert value.to_integer() == oracle(6, 4, n)
        assert value.agrees_with(dobinski_rs(6, 4, n))


def test_reduced_prefactor_is_not_integral_for_p_two():
    # The weaker prefactor variant certifies a non-integer once p >= 2 ...
    value = bell_hypergeometric(2, 1, 2, reduced_prefactor=True)
    assert value.abs_error < 1e-9
    with pytest.raises(NonIntegerResultError):
        value.to_integer()
    # ... and is indistinguishable from the full one at p = 1.
    a = bell_hypergeometric(1, 2, 3, reduced_prefactor=True)
    b = bell_hypergeometric(1, 2, 3)
    assert a.value == b.value and a.abs_error == b.abs_error


def test_reduced_prefactor_stays_a_certified_non_integer():
    # Folding a prefactor below 1 into the terms may stop the sum earlier;
    # the result must still be tight enough to exclude every integer.
    for n in range(2, 7):
        value = bell_hypergeometric(2, 1, n, reduced_prefactor=True)
        assert value.abs_error <= SeriesSpec().target_abs_error
        with pytest.raises(NonIntegerResultError):
            value.to_integer()


@pytest.mark.parametrize("p, r, n", [(1, 1, 5), (1, 2, 7), (2, 1, 20), (2, 2, 4), (3, 1, 6)])
def test_folded_prefactor_keeps_stop_partial_and_tail(p, r, n):
    # With P >= 1, summing P * t_k to target / 2 stops where summing t_k to
    # target / (2P) did, with P times the partial sum and the tail.
    prefactor = Fraction(1)
    for j in range(1, r + 1):
        prefactor *= Fraction(math.factorial(p * (n - 1 + j)), math.factorial(p * j))
    assert prefactor >= 1
    target = Fraction(*SeriesSpec().target)
    folded = sum_with_tail_bound(hypergeometric_terms(p, r, n, ratio(prefactor)), ratio(target / 2))
    plain, tail, count = rationals(
        sum_with_tail_bound(hypergeometric_terms(p, r, n), ratio(target / (2 * prefactor)))
    )
    assert rationals(folded) == (prefactor * plain, prefactor * tail, count)


def test_hypergeometric_validation():
    with pytest.raises(OutOfRangeError):
        bell_hypergeometric(0, 1, 2)
    with pytest.raises(OutOfRangeError):
        bell_hypergeometric(1, 1, 0)


def term_values(pairs):
    """The rationals p_k / q_k of a stream of pairs (p_k, m_k), q_k = q_(k-1) m_k, q_(-1) = 1."""
    q = 1
    for p, m in pairs:
        q *= m
        yield Fraction(p, q)


def test_term_ratios_eventually_non_increasing():
    # The tail bound holds only if the terms are zero before the first
    # positive one and their next/last ratios do not grow from there; probe
    # 80 terms of every Dobinski family up to r = 5, n = 6.
    for r in range(1, 6):
        for s in range(1, r + 1):
            for n in range(1, 7):
                terms = list(term_values(itertools.islice(dobinski_terms(r, s, n), 80)))
                assert all(t == 0 for t in terms[:s]) and all(t > 0 for t in terms[s:])
                ratios = [b / a for a, b in zip(terms[s:], terms[s + 1 :])]
                assert all(x >= y for x, y in zip(ratios, ratios[1:])), (r, s, n)
    terms = list(term_values(itertools.islice(hypergeometric_terms(2, 2, 3), 80)))
    ratios = [b / a for a, b in zip(terms, terms[1:])]
    assert all(x >= y for x, y in zip(ratios, ratios[1:]))


def test_terms_validation():
    for args in ((1, 2, 3), (2, 0, 3), (2, 1, 0)):
        with pytest.raises(OutOfRangeError):
            dobinski_terms(*args)


def test_partial_sum_brackets_truth():
    # sum_k k/k! = e exactly; the returned enclosure must contain it.
    partial, tail, count = rationals(sum_with_tail_bound(dobinski_terms(1, 1, 1), (1, 10**15)))
    with mp.workprec(120):
        truth = mp.e
        low = mp.mpf(partial.numerator) / partial.denominator
        high = mp.mpf((partial + tail).numerator) / (partial + tail).denominator
        assert low <= truth <= high
    assert count > 10


def test_tail_bound_shrinks_with_more_terms():
    _, tail_short, n_short = rationals(sum_with_tail_bound(dobinski_terms(1, 1, 5), (1, 10**9)))
    _, tail_long, n_long = rationals(sum_with_tail_bound(dobinski_terms(1, 1, 5), (1, 10**15)))
    assert n_long > n_short
    assert tail_long < tail_short


def test_sum_guards():
    with pytest.raises(ValueError):
        sum_with_tail_bound(iter([(1, 1)]), (1, 1))
    for bad in ((-1, 1), (1, 0), (1, -2)):
        with pytest.raises(ValueError):
            sum_with_tail_bound(iter([bad, (1, 1)]), (1, 1))
    for stop in ((0, 1), (-1, 2), (1, -2)):
        with pytest.raises(ValueError):
            sum_with_tail_bound(dobinski_terms(1, 1, 2), stop)
    with pytest.raises(PrecisionExhaustedError):
        sum_with_tail_bound(itertools.repeat((1, 1)), (1, 10))


def reference_sum(terms, stop_below):
    """The stopping rule of sum_with_tail_bound in plain Fraction arithmetic."""
    total, prev, count = Fraction(0), None, 0
    for term in term_values(terms):
        if prev is not None and 0 < prev < stop_below and term / prev < Fraction(1, 2):
            return total, term / (1 - term / prev), count
        total += term
        prev = term
        count += 1
    raise AssertionError("terms exhausted")


def chained(fractions):
    """Pairs (a_k, b_k), each meaning a_k / b_k, as (a_k prod_{j<k} b_j, b_k)."""
    scale = 1
    for a, b in fractions:
        yield a * scale, b
        scale *= b


def _coprime_terms():
    # 2^k / (k! (2k+1)): ratios 2(2k+1)/((k+1)(2k+3)) decrease, and from
    # k = 1 on no b_k divides the next, so q_k is far from the least
    # common denominator.
    return chained((2**k, math.factorial(k) * (2 * k + 1)) for k in itertools.count())


def _slow_ratio_terms():
    # 10^k / (k! 10^60): below either stop from the start, so the ratio test
    # alone decides, and it fails until k = 19.
    return chained((10**k, math.factorial(k) * 10**60) for k in itertools.count())


def _boundary_terms():
    # 1 / (4^k k! 10^60): the first term equals the smaller stop exactly.
    return chained((1, 4**k * math.factorial(k) * 10**60) for k in itertools.count())


def _reduced_dobinski_terms(r, s, n):
    # The same rationals as reduced pairs, chained over their denominators.
    values = term_values(dobinski_terms(r, s, n))
    return chained(value.as_integer_ratio() for value in values)


def _comb_terms(comb, n):
    # e x_j^n w_j from the comb's atom stream, whose first multiplier folds in j0!.
    return ((x**n, m) for x, m in comb.atoms())


def test_kernel_matches_fraction_reference():
    makers = [
        partial(dobinski_terms, r, s, n)
        for r in range(1, 5)
        for s in range(1, r + 1)
        for n in range(1, 6)
    ]
    makers.append(partial(hypergeometric_terms, 2, 2, 3))
    # The moment series of ContinuousDensity(r), as continuous_moment_series builds it.
    makers += [
        partial(hypergeometric_terms, r, 1, n, (math.factorial(r * n), math.factorial(r)))
        for r in (1, 2, 3)
        for n in range(6)
    ]
    combs = [dirac_comb(), rarefied_comb(1), rarefied_comb(2), rarefied_comb(3)]
    makers += [partial(_comb_terms, comb, n) for comb in combs for n in (0, 1, 5)]
    makers += [_coprime_terms, _slow_ratio_terms, _boundary_terms]
    makers += [partial(_reduced_dobinski_terms, *rsn) for rsn in ((1, 1, 4), (3, 2, 3), (4, 1, 2))]
    for make in makers:
        for stop_below in (Fraction(1, 2 * 10**12), Fraction(1, 10**60)):
            got = rationals(sum_with_tail_bound(make(), ratio(stop_below)))
            assert got == reference_sum(make(), stop_below), (make, stop_below)


@st.composite
def screened_streams(draw):
    """A stop sn / sd, and a head of zero terms then a first positive term
    P / D with bl(P) - bl(D) at the kernel's screen limit
    bl(sn) - bl(sd) + 2 or one bit either side of it, then ratios to the
    last term that never increase and fall to zero."""
    stop = Fraction(draw(st.integers(1, 2**200)), draw(st.integers(1, 2**200)))
    sn, sd = stop.as_integer_ratio()
    gap = sn.bit_length() - sd.bit_length() + 2 + draw(st.sampled_from([-1, 0, 1]))
    head = [(0, m) for m in draw(st.lists(st.integers(1, 2**64), max_size=3))]
    before = math.prod(m for _, m in head)
    first = draw(st.integers(1, 2**64))
    first <<= max(0, 1 - gap - (before * first).bit_length())  # so bl(P) >= 1
    bits = (before * first).bit_length() + gap
    head.append((draw(st.integers(1 << (bits - 1), (1 << bits) - 1)), first))
    ratios = draw(
        st.lists(st.fractions(Fraction(1, 2**20), Fraction(4), max_denominator=2**30), max_size=12)
    )
    ratios.sort(reverse=True)
    last = min(ratios[-1:] + [Fraction(1, 4)])
    return stop, head, ratios + [last / j for j in range(1, 200)]


def stream(head, ratios):
    """head, then each next term its predecessor times the next ratio u / v: (p u, v)."""
    yield from head
    p = head[-1][0]
    for ratio in ratios:
        u, v = ratio.as_integer_ratio()
        p *= u
        yield p, v


@given(screened_streams())
@settings(max_examples=300, deadline=None)
def test_kernel_screen_matches_fraction_reference(case):
    stop, head, ratios = case
    got = rationals(sum_with_tail_bound(stream(head, ratios), ratio(stop)))
    assert got == reference_sum(stream(head, ratios), stop)


@given(screened_streams(), st.integers(1, 2**64), st.integers(1, 2**64))
@settings(max_examples=100, deadline=None)
def test_pair_kernel_matches_fraction_reference(case, g, h):
    # The same rationals in other representations: every numerator and the
    # first multiplier times g, the stop's pair times h.  The sum reads only
    # their values, and quotient_by_e reduces what it is handed, so both give
    # the reference's values and the enclosure of the reduced pairs, bit for bit.
    stop, head, ratios = case
    scaled = ((p * g, m * g if k == 0 else m) for k, (p, m) in enumerate(stream(head, ratios)))
    partial_sum, tail, count = sum_with_tail_bound(scaled, (stop.numerator * h, stop.denominator * h))
    want = reference_sum(stream(head, ratios), stop)
    assert (Fraction(*partial_sum), Fraction(*tail), count) == want
    spec = SeriesSpec(target_abs_error=2 * stop)
    value = quotient_by_e(partial_sum, tail, spec)
    reduced = quotient_by_e(ratio(want[0]), ratio(want[1]), spec)
    assert [x._mpf_ for x in value] == [x._mpf_ for x in reduced]
    mid, radius = _exact(value.value), _exact(value.abs_error)
    assert radius <= 2 * stop
    below, above = inv_e_rationals()
    for numerator in (want[0] - want[1], want[0] + want[1]):
        assert mid - radius <= numerator * below and numerator * above <= mid + radius


def test_quotient_by_e_escalates_precision():
    # 16 working bits cannot hit 1e-30; the precision chosen from the target can.
    tight = SeriesSpec(working_precision=16, target_abs_error=1e-30)
    value = quotient_by_e((1, 1), (0, 1), tight)
    with mp.workprec(200):
        assert abs(value.value - mp.exp(-1)) <= value.abs_error
    # 2^4000 / e to 1e-30 takes a bracket of over 4100 bits, past MAX_BITS.
    huge = quotient_by_e((2**4000, 1), (0, 1), tight)
    with mp.workprec(4400):
        scaled = _exact(mp.ldexp(mp.exp(-1), 4000))
    radius = _exact(huge.abs_error)
    assert radius <= Fraction(*tight.target)
    assert abs(_exact(huge.value) - scaled) + Fraction(1, 2**300) <= radius


def test_quotient_by_e_rejects_hopeless_tail():
    spec = SeriesSpec(target_abs_error=1e-12)
    with pytest.raises(PrecisionExhaustedError):
        quotient_by_e((1, 1), (1, 10**6), spec)
    with pytest.raises(ValueError):
        quotient_by_e((1, 1), (-1, 1), spec)


def test_inv_e_fixed_point_bracket():
    for width in (256, 512, 8192):
        low, high = _inv_e_fixed(width)
        with mp.workprec(width + 128):
            scaled = _exact(mp.ldexp(mp.exp(-1), width))
        assert low < scaled < high
        # Narrow enough that every shift by 64 or more bits leaves U_p - L_p <= 2.
        assert high - low < 2**64


@given(st.integers(16, 2**15))
@settings(max_examples=60, deadline=None)
def test_inv_e_bracket_holds_and_is_tight(p):
    low, high = _inv_e_bracket(p)
    # mpmath at p + 128 bits gives 2^p / e to within 2^-128.
    with mp.workprec(p + 128):
        scaled = _exact(mp.ldexp(mp.exp(-1), p))
    slack = Fraction(1, 2**100)
    assert low <= scaled - slack and scaled + slack <= high
    assert high - low <= 2


@functools.cache
def inv_e_rationals():
    """Two consecutive partial sums of sum (-1)^k / k!; 1/e lies between them."""
    sums = list(itertools.accumulate(Fraction((-1) ** k, math.factorial(k)) for k in range(702)))
    return min(sums[-2:]), max(sums[-2:])


@given(
    st.integers(-40, 2999),
    st.integers(1, 2**64),
    st.data(),
    st.integers(0, 1023),
    st.integers(1, 40),
    st.integers(16, 1024),
)
@settings(max_examples=150, deadline=None)
def test_quotient_by_e_encloses_exactly(exp2, den, data, tail_fraction, digits, bits):
    # q in [2^exp2, 2^(exp2 + 1)), so from 2^-40 to 2^3000; the tail runs from
    # 0 to just under the pre-check's limit tail / e = target.
    q = Fraction(den + data.draw(st.integers(0, den - 1)), den) * Fraction(2) ** exp2
    spec = SeriesSpec(working_precision=bits, target_abs_error=10.0**-digits)
    target = Fraction(*spec.target)
    tail = target * Fraction(27182, 10000) * Fraction(tail_fraction, 1024)
    value = quotient_by_e(ratio(q), ratio(tail), spec)
    mid, radius = _exact(value.value), _exact(value.abs_error)
    assert radius <= target
    below, above = inv_e_rationals()
    for numerator in (q - tail, q + tail):
        ends = (numerator * below, numerator * above)
        assert mid - radius <= min(ends) and max(ends) <= mid + radius


def test_quotient_by_e_rejects_negative_q():
    with pytest.raises(ValueError):
        quotient_by_e((-1, 1), (0, 1), SeriesSpec())
    for q, tail in (((1, 0), (0, 1)), ((1, -1), (0, 1)), ((1, 1), (0, 0))):
        with pytest.raises(ValueError):
            quotient_by_e(q, tail, SeriesSpec())


def test_quotient_by_e_reads_the_reduced_pair():
    # The precision reads bit lengths: 3/2 has mag 1, but 9/6 read as given
    # would have mag 2, another frac and other mantissas.
    spec = SeriesSpec()
    for tail in ((0, 1), (1, 10**14), (3, 7 * 2**50)):
        reduced = quotient_by_e((3, 2), tail, spec)
        scaled = quotient_by_e((9, 6), (tail[0] * 12, tail[1] * 12), spec)
        assert [x._mpf_ for x in scaled] == [x._mpf_ for x in reduced], tail


def test_division_by_e_takes_no_gcd(monkeypatch):
    # A spec reduces its target pairs once; the division reads q and the tail
    # as given, so it runs with the reduction gone.
    spec = SeriesSpec()
    spec.target, spec.half_target

    def reduced(num, den):
        raise AssertionError(f"{num}/{den} reduced")

    monkeypatch.setattr(numeric, "_reduced", reduced)
    value = quotient_by_e((9 * 2**300, 6), (12, 12 * 10**14), spec)
    assert value == quotient_by_e((3 * 2**300, 2), (1, 10**14), spec)
    assert sum_over_e(dobinski_terms(1, 1, 80), spec).to_integer() == bell(MonomialSpec(1, 1, 80))


@given(
    st.integers(0, 2**64),
    st.integers(0, 336),
    st.integers(1, 2**64),
    st.integers(0, 1023),
    st.integers(1, 2**64),
    st.integers(1, 2**64),
)
@example(2**64, 336, 3, 512, 6, 10)  # q near 2^398: the budget, not the working precision, sets frac
@settings(max_examples=150, deadline=None)
def test_quotient_by_e_reads_values_in_both_regimes(man, shift, b, tail_fraction, g, h):
    # q = a / b, a up to 2^400, and the tail, scaled by g and h, give the same
    # enclosure bit for bit, whether the working precision sets the fraction
    # bits (small q) or the rounding budget does (q past about 2^210).
    a = man << shift
    spec = SeriesSpec()
    target = Fraction(*spec.target)
    q = Fraction(a, b)
    tail = target * Fraction(27182, 10000) * Fraction(tail_fraction, 1024)
    value = quotient_by_e((a, b), ratio(tail), spec)
    scaled = quotient_by_e((a * g, b * g), (tail.numerator * h, tail.denominator * h), spec)
    assert [(x.man, x.exp) for x in scaled] == [(x.man, x.exp) for x in value]
    mid, radius = _exact(value.value), _exact(value.abs_error)
    assert radius <= target
    below, above = inv_e_rationals()
    for numerator in (q - tail, q + tail):
        ends = (numerator * below, numerator * above)
        assert mid - radius <= min(ends) and max(ends) <= mid + radius


def test_target_is_a_reduced_pair_of_any_exact_number():
    for target in (1e-12, 3, Fraction(6, 4), Decimal("0.25"), mp.mpf(0.75), mp.mpf(2) ** -1100):
        spec = SeriesSpec(target_abs_error=target)
        exact = Fraction(target) if not isinstance(target, mp.mpf) else _exact(target)
        assert spec.target == ratio(exact)
        assert spec.half_target == ratio(exact / 2)


def test_series_round_to_exact_integers_past_2_8192():
    # Each quotient needs a bracket of 1/e far wider than MAX_BITS.
    classic = bell(MonomialSpec(1, 1, 1240))
    assert classic.bit_length() > 8192
    assert dobinski_classic(1240).to_integer() == classic
    assert moment(dirac_comb(), 1240).to_integer() == classic
    laguerre = bell_sequence(2, 1, 1900)[1900]
    assert laguerre.bit_length() > 16384
    for value in (
        dobinski_rs(2, 1, 1900),
        bell_hypergeometric(1, 1, 1900),
        continuous_moment_series(1, 1900),
    ):
        assert value.to_integer() == laguerre


def test_import_leaves_the_bracket_uncomputed():
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import bosonkit, bosonkit.cli; from bosonkit.numeric import _inv_e_fixed; "
        "print(_inv_e_fixed.cache_info().currsize)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(working_precision=8)
    with pytest.raises(TypeError):
        SeriesSpec(working_precision=100.5)
    for target in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SeriesSpec(target_abs_error=target)
    with pytest.raises(ValueError):
        SeriesSpec(working_precision=MAX_BITS + 1)
    assert SeriesSpec(working_precision=MAX_BITS).working_precision == MAX_BITS


@pytest.mark.parametrize(
    "record, bad",
    [
        (SeriesSpec(), {"working_precision": 8}),
        (MonomialSpec(1, 1, 2), {"s": 0}),
        (ErrorBoundedReal(mp.mpf(1), mp.mpf(0)), {"abs_error": mp.mpf(-1)}),
        (ErrorBoundedReal(mp.mpf(1), mp.mpf(0)), {"value": 1}),
        (ContinuousDensity(1), {"r": 0}),
        (dirac_comb(), {"j0": 5}),
    ],
    ids=["SeriesSpec", "MonomialSpec", "ErrorBoundedReal", "ErrorBoundedReal-int", "ContinuousDensity",
         "DiscreteMeasure"],
)
def test_replace_and_make_check_fields(record, bad):
    values = [bad.get(field, value) for field, value in zip(record._fields, record)]
    with pytest.raises(Exception) as built:
        type(record)(*values)
    for build in (lambda: record._replace(**bad), lambda: type(record)._make(values)):
        with pytest.raises(built.type, match=re.escape(str(built.value))):
            build()


def test_error_bounded_real_rounding():
    near = ErrorBoundedReal(value=mp.mpf("4.9999999"), abs_error=mp.mpf("1e-3"))
    assert near.to_integer() == 5
    wide = ErrorBoundedReal(value=mp.mpf("5.0"), abs_error=mp.mpf("0.5"))
    with pytest.raises(PrecisionExhaustedError):
        wide.to_integer()
    off = ErrorBoundedReal(value=mp.mpf("174.16666666666666"), abs_error=mp.mpf("1e-10"))
    with pytest.raises(NonIntegerResultError):
        off.to_integer()
    with pytest.raises(ValueError):
        ErrorBoundedReal(value=mp.mpf(1), abs_error=mp.mpf(-1))
    assert encloses(near, 5) and not encloses(near, 6)
    assert "+/-" in str(near)


def test_rounding_error_quotes_the_printed_radius():
    # 5 +/- (1/2 + 2^-301): every digit of the radius would take 348
    # characters; the message quotes it as str() prints it, rounded up.
    wide = ErrorBoundedReal._from_dyadic(5 << 301, (1 << 300) + 1, -301)
    assert str(wide) == "5.0 +/- 0.501"
    with pytest.raises(PrecisionExhaustedError) as failed:
        wide.to_integer()
    message = str(failed.value)
    assert len(message) < 100 and "0.501 >= 1/2" in message, message


def test_agrees_with_is_symmetric_overlap():
    a = ErrorBoundedReal(value=mp.mpf("1.0"), abs_error=mp.mpf("0.2"))
    b = ErrorBoundedReal(value=mp.mpf("1.3"), abs_error=mp.mpf("0.2"))
    c = ErrorBoundedReal(value=mp.mpf("2.0"), abs_error=mp.mpf("0.1"))
    assert a.agrees_with(b) and b.agrees_with(a)
    assert not a.agrees_with(c)


def reference_to_integer(value):
    """to_integer in Fraction arithmetic, rounding half to even."""
    radius = _exact(value.abs_error)
    if not radius < Fraction(1, 2):
        raise PrecisionExhaustedError("radius")
    mid = _exact(value.value)
    nearest = round(mid)
    if abs(mid - nearest) > radius:
        raise NonIntegerResultError("non-integer")
    return nearest


def reference_agrees_with(a, b):
    return abs(_exact(a.value) - _exact(b.value)) <= _exact(a.abs_error) + _exact(b.abs_error)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionExhaustedError, NonIntegerResultError) as exc:
        return type(exc)


def dyadic(x: Fraction):
    """A Fraction with a power-of-two denominator as an exact mpf."""
    num, den = x.as_integer_ratio()
    return Dyadic(num, 1 - den.bit_length())


DYADICS = st.builds(
    lambda man, exp: Fraction(man) * Fraction(2) ** exp,
    st.integers(-(2**80), 2**80),
    st.integers(-200, 200),
)
HALF_INTEGERS = st.builds(lambda k: k + Fraction(1, 2), st.integers(-(2**70), 2**70))
NEAR_INTEGERS = st.builds(
    lambda k, man, exp: k + Fraction(man) * Fraction(2) ** exp,
    st.integers(-(2**70), 2**70),
    st.integers(-(2**20), 2**20),
    st.integers(-200, -1),
)
VALUES = st.one_of(DYADICS, HALF_INTEGERS, NEAR_INTEGERS)
RADII = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(1, 2)),
    st.builds(lambda k: Fraction(1, 2) - Fraction(1, 2**k), st.integers(2, 200)),
    st.builds(abs, DYADICS),
)


@given(VALUES, RADII, VALUES, RADII, st.sampled_from([20, 4096]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_integer_rounding_matches_fraction_reference(v1, r1, v2, r2, prec, touching):
    # When ``touching``, the second enclosure just meets the first.
    if touching:
        v2 = v1 + (r1 + r2) * (1 if v2 >= 0 else -1)
    with mp.workprec(prec):
        a = ErrorBoundedReal(dyadic(v1), dyadic(r1))
        b = ErrorBoundedReal(dyadic(v2), dyadic(r2))
        assert outcome(a.to_integer) == outcome(reference_to_integer, a)
        assert outcome(b.to_integer) == outcome(reference_to_integer, b)
        assert a.agrees_with(b) == b.agrees_with(a) == reference_agrees_with(a, b)


def test_tighter_target_tightens_bound():
    loose = dobinski_classic(6, SeriesSpec(target_abs_error=1e-6))
    tight = dobinski_classic(6, SeriesSpec(target_abs_error=1e-20))
    assert tight.abs_error < loose.abs_error
    assert loose.to_integer() == tight.to_integer() == 203
    assert loose.agrees_with(tight)


# Every series family, each at the first n with B > 2^53 and at the first
# with B > 2^256: (series, (r, s) of its Bell numbers, n past 2^53, n past 2^256).
BIG_SERIES = [
    pytest.param(dobinski_classic, (1, 1), 23, 73, id="classic"),
    pytest.param(lambda n: dobinski_rr(2, n), (2, 2), 12, 37, id="rr-2"),
    pytest.param(lambda n: dobinski_rr(3, n), (3, 3), 8, 25, id="rr-3"),
    pytest.param(lambda n: dobinski_rr(4, n), (4, 4), 6, 19, id="rr-4"),
    pytest.param(lambda n: dobinski_rs(2, 1, n), (2, 1), 17, 55, id="rs-2-1"),
    pytest.param(lambda n: dobinski_rs(3, 1, n), (3, 1), 15, 49, id="rs-3-1"),
    pytest.param(lambda n: dobinski_rs(3, 2, n), (3, 2), 10, 31, id="rs-3-2"),
    pytest.param(lambda n: dobinski_rs(4, 1, n), (4, 1), 14, 46, id="rs-4-1"),
    pytest.param(lambda n: dobinski_rs(4, 3, n), (4, 3), 7, 22, id="rs-4-3"),
    pytest.param(lambda n: dobinski_rs(5, 2, n), (5, 2), 8, 26, id="rs-5-2"),
    pytest.param(lambda n: bell_hypergeometric(1, 1, n), (2, 1), 17, 55, id="hyp-1-1"),
    pytest.param(lambda n: bell_hypergeometric(1, 2, n), (3, 2), 10, 31, id="hyp-1-2"),
    pytest.param(lambda n: bell_hypergeometric(2, 1, n), (4, 2), 9, 28, id="hyp-2-1"),
    pytest.param(lambda n: continuous_moment_series(1, n), (2, 1), 17, 55, id="bessel-1"),
    pytest.param(lambda n: continuous_moment_series(2, n), (4, 2), 9, 28, id="bessel-2"),
    pytest.param(lambda n: moment(dirac_comb(), n), (1, 1), 23, 73, id="dirac-comb"),
    pytest.param(lambda n: moment(rarefied_comb(2), n), (2, 2), 12, 37, id="rarefied-2"),
    pytest.param(lambda n: moment(rarefied_comb(3), n), (3, 3), 8, 25, id="rarefied-3"),
]


@pytest.mark.parametrize("series, family, n_float, n_wide", BIG_SERIES)
def test_rounds_past_float_and_working_precision(series, family, n_float, n_wide):
    targets = bell_sequence(*family, n_wide)
    for n, limit in ((n_float, 2**53), (n_wide, 2**256)):
        target = targets[n]
        assert target > limit
        value = series(n)
        assert value.to_integer() == target
        assert encloses(value, target) and not encloses(value, target + 1)
        assert float(value.abs_error) < 1e-6


# (value.man_exp, abs_error.man_exp) at the default SeriesSpec, frozen so the
# midpoints and bounds that series values print cannot drift unnoticed, with
# the family and n of the Bell number each encloses.  The last two pairs are
# the enclosure the same series gave while the division by e ran in mpf at a
# doubling precision; the integer division must overlap it.
FROZEN_ENCLOSURES = [
    pytest.param(
        lambda: dobinski_classic(73),
        (1, 1, 73),
        (214834623568478894452765605511928333367140719361291003997161390043701285425833, 0),
        (1, -43),
        (6219037475876635312905671894446080138538834816097502676678349191969960417398695481746797890556928428478113357257358204988953206289842829902494347839760013, -254),
        (629095680923958399751515846110947536410309716480743548410680131955630005002130100066194606928276769131750530181222546604919944723800062767653803950000251, -560),
        id="classic-73",
    ),
    pytest.param(
        lambda: dobinski_rr(3, 25),
        (3, 3, 25),
        (4583015241728789895131027571960579701050194194961592914977071009332851295277273, 0),
        (1, -43),
        (4145913358173752297926769776482431967987020218117238210314295145907991819922808851268033902113196289181762678729105844606665225903206111896355579210320555, -249),
        (10135165881445069055245833089063440562851396223473825656404565259661711473380607532126572260695635976984645957687300758550237278625436784813857478232444227, -563),
        id="rr-3-25",
    ),
    pytest.param(
        lambda: dobinski_rs(2, 1, 55),
        (2, 1, 55),
        (292619712104570605474946344715618629945888031659478262707520281581304692729201, 0),
        (1, -43),
        (1058845244269069176204257259587114809490800608899862436771839512954278195506881920343008650841536798276481641731032438398617924983919217727436074628736601, -251),
        (3768171085999827183488704558049417476732786032133118516410103623269630227159343757338882184431457122212032750889231553780997007397000893943954701929284097, -559),
        id="rs-2-1-55",
    ),
    pytest.param(
        lambda: dobinski_rs(3, 2, 31),
        (3, 2, 31),
        (1481536532823407633456641985738316440305625222530519034575511125318241843955571, 0),
        (1, -43),
        (1340236018883062900993519230421874193256760426289731568122907029900266480933273043086653719424821140863562481530241220617350154488820084386833779516227163, -249),
        (9306043000701194656320461474504422031596103632900044332200291258414070469115835914346578328433348147038291067464808085461371599960344896290147554626839599, -562),
        id="rs-3-2-31",
    ),
]


@pytest.mark.parametrize(
    "series, family, value, abs_error, parent_value, parent_abs_error", FROZEN_ENCLOSURES
)
def test_enclosures_are_frozen(series, family, value, abs_error, parent_value, parent_abs_error):
    got = series()
    assert got.value.man_exp == value
    assert got.abs_error.man_exp == abs_error
    assert encloses(got, oracle(*family))
    assert got.agrees_with(ErrorBoundedReal(Dyadic(*parent_value), Dyadic(*parent_abs_error)))


# (value.man_exp, abs_error.man_exp) of hypergeometric series (prefactor in
# the terms) past GOLDEN_DIGESTS' n <= 12, pinned so that a change in how
# terms are built cannot move a bit of either.  hyp-2-1-20 was re-pinned when
# the division by e began choosing its precision from exact binary logarithms
# of the values: one more fraction bit, and a radius one unit smaller.
BIT_IDENTICAL = [
    pytest.param(
        lambda: bell_hypergeometric(2, 1, 20),
        (54361237336621672910269523815927142343626965912352438575338741988814224570965, -87),
        (353650081073, -87),
        id="hyp-2-1-20",
    ),
    pytest.param(
        lambda: bell_hypergeometric(1, 2, 25),
        (32945358743260714520496500909860026517311867800531505286267198348203491589533, -58),
        (613, -58),
        id="hyp-1-2-25",
    ),
]


@pytest.mark.parametrize("series, value, abs_error", BIT_IDENTICAL)
def test_series_values_are_bit_identical(series, value, abs_error):
    got = series()
    assert got.value.man_exp == value
    assert got.abs_error.man_exp == abs_error


def golden_grid(spec):
    """Every series family at n <= 12, each a (label, thunk) computing one ErrorBoundedReal."""
    bits, target = spec.working_precision, spec.target_abs_error
    grid = [(f"classic {n}", partial(dobinski_classic, n, spec)) for n in range(1, 13)]
    for r in range(1, 5):
        grid += [(f"rr {r} {n}", partial(dobinski_rr, r, n, spec)) for n in range(1, 13)]
        for s in range(1, r):
            grid += [(f"rs {r} {s} {n}", partial(dobinski_rs, r, s, n, spec)) for n in range(1, 13)]
    for p, q, reduced in itertools.product((1, 2, 3), (1, 2), (False, True)):
        grid += [
            (f"hyp {p} {q} {n} {reduced}", partial(bell_hypergeometric, p, q, n, spec, reduced_prefactor=reduced))
            for n in range(1, 13)
        ]
    for r in (1, 2, 3):
        grid += [(f"bessel {r} {n}", partial(continuous_moment_series, r, n, spec)) for n in range(13)]
    combs = [(0, dirac_comb())] + [(1, rarefied_comb(r)) for r in (1, 2, 3)]
    for first, comb in combs:
        grid += [
            (f"{comb.label} {n}", partial(moment, comb, n, target_error=target, bits=bits))
            for n in range(first, 13)
        ]
        grid.append((f"{comb.label} mass", partial(comb.mass, spec)))
    return grid


def series_digest(spec):
    """SHA-256 over the signed (mantissa, exponent) of every grid value and bound."""
    h = hashlib.sha256()
    for label, thunk in golden_grid(spec):
        got = thunk()
        parts = []
        for x in (got.value, got.abs_error):
            sign, man, exp, _ = x._mpf_
            parts.append(f"{-man if sign else man} {exp}")
        h.update(f"{label}: {' '.join(parts)}\n".encode())
    return h.hexdigest()


# Digests of golden_grid at two specs; a change to how terms are built or
# summed must leave every bit of every output in place.  Both were re-pinned
# when the division by e began choosing its precision from exact binary
# logarithms of the values instead of the bit lengths of reduced pairs.
GOLDEN_DIGESTS = [
    pytest.param(SeriesSpec(), "b73093dc8708e277aa32f8f951e7e3a0c49add074aa7324ad8268817257de199", id="default"),
    pytest.param(SeriesSpec(128, 1e-30), "a0322ef7e4788749aaea337ca7a4f0ad87cbf9b3f6177f596288e0fe57ddb46a", id="128-bits-1e-30"),
]


@pytest.mark.parametrize("spec, digest", GOLDEN_DIGESTS)
def test_series_outputs_match_golden_digest(spec, digest):
    assert series_digest(spec) == digest


def test_rounding_ignores_ambient_precision():
    value = dobinski_classic(25)
    with mp.workprec(512):
        shifted = ErrorBoundedReal(value.value + 1, abs_error=value.abs_error)
    with mp.workprec(20):
        assert value.to_integer() == 4638590332229999353
        assert value.agrees_with(dobinski_rr(1, 25))
        assert not value.agrees_with(shifted)


@given(st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_classic_to_integer_matches_oracle(n):
    assert dobinski_classic(n).to_integer() == bell_sequence(1, 1, n)[n]


COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@given(
    man=st.integers(-(2**300), 2**300),
    zeros=st.integers(0, 300),
    exp=st.integers(-5000, 5000),
    k=st.integers(-(2**400), 2**400),
    f=st.floats(),
)
@example(man=2**1100 + 1, zeros=0, exp=-1100, k=0, f=math.inf)  # a mantissa past the float range
@settings(max_examples=300, deadline=None)
def test_dyadic_matches_from_man_exp(man, zeros, exp, k, f):
    # from_man_exp is mpmath's own normalization, read here as the reference only.
    reference = from_man_exp(man << zeros, exp)
    built = Dyadic(man << zeros, exp)
    assert built._mpf_ == reference
    assert list(map(type, built._mpf_)) == list(map(type, reference))
    x = mp.make_mpf(reference)
    assert built.man_exp == x.man_exp
    assert (-built)._mpf_ == mpf_neg(reference) and abs(built)._mpf_ == mpf_abs(reference)
    assert float(built) == float(x) and bool(built) == bool(x)
    # Every comparison reads as the mpf's, with the Dyadic on either side,
    # against ints, floats (infinities and nan too), mpfs and Dyadics; what
    # compares equal hashes equal.
    above = from_man_exp((man << zeros) + 1, exp)
    for other in (k, f, int(x), float(x), x, mp.make_mpf(above)):
        for op in COMPARISONS:
            assert op(built, other) == op(x, other), (op, other)
            assert op(other, built) == op(other, x), (op, other)
        if built == other:
            assert hash(built) == hash(other)
    for op in COMPARISONS:
        assert op(built, Dyadic((man << zeros) + 1, exp)) == op(x, mp.make_mpf(above))
    # Arithmetic is mpmath's, at its working precision.
    got = (built + k, k - built, built * k, built / 3, 3 / (built or 1))
    assert got == (x + k, k - x, x * k, x / 3, 3 / (x or 1))
    radius = abs(man) << zeros
    enclosure = ErrorBoundedReal._from_dyadic(man << zeros, radius, exp)
    assert enclosure == (Dyadic(man << zeros, exp), Dyadic(radius, exp))
    assert enclosure == ErrorBoundedReal(*enclosure)
    if radius:
        with pytest.raises(ValueError, match="abs_error must be non-negative"):
            ErrorBoundedReal._from_dyadic(man << zeros, -radius, exp)


def parsed(text: str) -> Fraction:
    """A printed number read back exactly, with the int-to-str digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


# man * 2^exp with 2^(e-1) <= |man * 2^exp| < 2^e, e in -300..30000, of either sign or zero.
MAGNITUDES = st.builds(
    lambda man, e: Dyadic(man, e - man.bit_length()), st.integers(-(2**64), 2**64), st.integers(-300, 30000)
)


@given(MAGNITUDES, st.one_of(st.just(Dyadic(0, 0)), MAGNITUDES.map(abs)))
@settings(max_examples=300, deadline=None)
def test_printed_enclosure_holds_the_stored_one(value, radius):
    text = str(ErrorBoundedReal(value, radius))  # under the digit limit: the printer splits past it
    got, printed_radius = map(parsed, text.split(" +/- "))
    assert abs(_exact(value) - got) + _exact(radius) <= printed_radius
    if not radius:
        assert (got, printed_radius) == (_exact(value), 0)


def test_printed_dobinski_intervals_hold_their_integers(capsys):
    # Past 20 digits a midpoint cut to 20 of them can miss its integer;
    # printed from its integers, every interval must hold it.
    assert main(["verify", "dobinski", "--r", "1", "--s", "1", "--max", "60"]) == 0
    printed = re.findall(r"got (\S+) \+/- (\S+), expected (\d+)$", capsys.readouterr().out, re.MULTILINE)
    assert len(printed) == 60
    for got, radius, expected in printed:
        assert abs(Fraction(got) - int(expected)) <= Fraction(radius), (got, radius, expected)


def test_enclosure_must_be_finite():
    with pytest.raises(ValueError):
        ErrorBoundedReal(value=mp.mpf(1), abs_error=mp.inf)
    with pytest.raises(ValueError):
        ErrorBoundedReal(value=mp.nan, abs_error=mp.mpf(0))
    # Only an mpf has the mantissa and exponent that rounding and overlap read.
    for value, abs_error in ((1, 0), (1.0, 0.0), (mp.mpf(1), 0.0)):
        with pytest.raises(TypeError, match="must be mpmath mpf"):
            ErrorBoundedReal(value, abs_error)
    # An mpf target is read exactly, so it gives the enclosure its float does.
    assert dobinski_classic(5, SeriesSpec(256, mp.mpf(1e-12))) == dobinski_classic(5)
