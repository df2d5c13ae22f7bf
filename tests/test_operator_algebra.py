"""Rewriting engine versus contraction-rule multiplication, exact only."""

import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonkit.errors import OutOfRangeError, UnsupportedError
from bosonkit.operator_algebra import (
    ANNIHILATE,
    CREATE,
    MonomialSpec,
    NormalForm,
    format_terms,
    monomial_power_normal_form,
    monomial_power_rows,
    multiply,
    normal_order_word,
)

letters = st.sampled_from([CREATE, ANNIHILATE])


def contraction_route(word):
    """Normal order by multiplying one letter at a time with the closed rule."""
    acc = NormalForm({(0, 0): 1})
    for letter in word:
        single = NormalForm({(1, 0) if letter is CREATE else (0, 1): 1})
        acc = multiply(acc, single)
    return acc


def coherent_expectation(nf, z):
    """Diagonal coherent-state matrix element sum_ij c_ij conj(z)^i z^j.

    For the eigenstate |z> of the annihilation operator, a normally ordered
    monomial a+^i a^j contributes conj(z)^i z^j.  Exact when z is an int,
    Fraction, or similar exact real type.
    """
    z_conj = z.conjugate() if isinstance(z, complex) else z
    return sum(c * z_conj**i * z**j for (i, j), c in nf.items())


def test_single_commutator():
    word = [ANNIHILATE, CREATE]
    expected = NormalForm({(1, 1): 1, (0, 0): 1})
    assert normal_order_word(word) == expected
    assert normal_order_word(word, strategy="rightmost") == expected


def test_a_squared_adagger():
    # a a a+ = a+ a^2 + 2 a
    word = [ANNIHILATE, ANNIHILATE, CREATE]
    expected = NormalForm({(1, 2): 1, (0, 1): 2})
    assert normal_order_word(word) == expected


def test_number_operator_squared():
    word = [CREATE, ANNIHILATE] * 2
    expected = NormalForm({(2, 2): 1, (1, 1): 1})
    assert normal_order_word(word) == expected


def test_iterated_quadratic_monomial():
    # ((a+)^2 a^2)^2 = a+^4 a^4 + 4 a+^3 a^3 + 2 a+^2 a^2
    nf = monomial_power_normal_form(MonomialSpec(r=2, s=2, n=2))
    assert dict(nf.items()) == {(4, 4): 1, (3, 3): 4, (2, 2): 2}


def test_iterated_cubic_creation_monomial():
    # ((a+)^3 a)^2 = a+^6 a^2 + 3 a+^5 a
    nf = monomial_power_normal_form(MonomialSpec(r=3, s=1, n=2))
    assert dict(nf.items()) == {(6, 2): 1, (5, 1): 3}


@given(st.lists(letters, max_size=20))
@settings(max_examples=120, deadline=None)
def test_strategies_confluent(raw):
    assert normal_order_word(raw, strategy="leftmost") == normal_order_word(
        raw, strategy="rightmost"
    )


@given(st.lists(letters, max_size=20))
@settings(max_examples=120, deadline=None)
def test_rewriting_matches_contraction(raw):
    assert normal_order_word(raw) == contraction_route(raw)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_ladder_closed_form_past_float_range(strategy):
    # a^m a+^m = sum_k k! C(m, k)^2 a+^(m-k) a^(m-k); at m = 20 the
    # coefficients pass 2^53.
    for m in range(21):
        nf = normal_order_word([ANNIHILATE] * m + [CREATE] * m, strategy=strategy)
        expected = {(m - k, m - k): factorial(k) * comb(m, k) ** 2 for k in range(m + 1)}
        assert dict(nf.items()) == expected
    assert max(expected.values()) > 2**53


def fock_action(word, k):
    """Coefficient c of word . x^k = c x^(k + d), reading a+ = x and a = d/dx."""
    coeff, degree = 1, k
    for letter in reversed(word):
        if letter is CREATE:
            degree += 1
        else:
            coeff *= degree
            degree -= 1
    return coeff


@pytest.mark.parametrize("excess", [3, 1, 0, -2, -4])
def test_rewriting_matches_fock_action(excess):
    # A term a+^i a^j sends x^k to k!/(k-j)! x^(k+i-j); the word's letters
    # act on x^k directly, right to left.  Values at k = 0..len(word) fix a
    # polynomial in k of degree at most len(word), so they fix the form.
    rng = random.Random(1000 + excess)
    for _ in range(12):
        length = rng.randrange(abs(excess), 17, 2)
        word = [CREATE] * ((length + excess) // 2) + [ANNIHILATE] * ((length - excess) // 2)
        rng.shuffle(word)
        for strategy in ("leftmost", "rightmost"):
            nf = normal_order_word(word, strategy=strategy)
            assert all(i - j == excess for (i, j), _ in nf.items())
            for k in range(len(word) + 1):
                assert sum(c * perm(k, j) for (_, j), c in nf.items()) == fock_action(word, k)


@given(st.lists(letters, max_size=6), st.lists(letters, max_size=6))
@settings(max_examples=80, deadline=None)
def test_multiply_is_a_homomorphism(raw1, raw2):
    lhs = normal_order_word(raw1 + raw2)
    rhs = multiply(normal_order_word(raw1), normal_order_word(raw2))
    assert lhs == rhs


def test_normal_form_drops_zero_terms():
    nf = NormalForm({(1, 1): 0, (2, 0): 5})
    assert dict(nf.items()) == {(2, 0): 5}
    # Repeated keys are summed, and a sum of zero is dropped too.
    assert NormalForm([((2, 1), 3), ((2, 1), -3)]) == NormalForm()
    assert nf != 17


def test_normal_form_is_immutable():
    nf = NormalForm({(1, 1): 1})
    with pytest.raises(AttributeError):
        nf._terms = {}


def test_normal_form_prints_through_format_terms():
    nf = NormalForm({(2, 2): 1, (1, 1): 3, (0, 0): 1})
    assert str(nf) == "a+^2 a^2 + 3 a+ a + 1"
    assert str(nf) == format_terms(nf.items())
    assert str(NormalForm()) == "0"
    # Rational coefficients print as Fractions; zero ones are left out.
    assert format_terms([((3, 1), Fraction(1, 2)), ((2, 0), Fraction(0)), ((4, 2), Fraction(1))]) == (
        "a+^4 a^2 + 1/2 a+^3 a"
    )
    assert format_terms([((1, 1), Fraction(0))]) == "0"


def test_normal_form_rejects_negative_exponents():
    with pytest.raises(ValueError):
        NormalForm({(-1, 0): 1})


def test_monomial_spec_validation():
    with pytest.raises(UnsupportedError):
        MonomialSpec(r=2, s=3, n=1)
    with pytest.raises(UnsupportedError):
        MonomialSpec(r=1, s=0, n=1)
    with pytest.raises(OutOfRangeError):
        MonomialSpec(r=2, s=1, n=-1)
    assert MonomialSpec(r=3, s=1, n=4).excess == 8


def test_monomial_power_rows_classical_row():
    rows = list(islice(monomial_power_rows(1, 1), 4))
    assert rows[3] == [0, 1, 7, 6, 1]


def reference_rows(r, s):
    """The right-multiplied contraction step, entry by entry, kept as a reference.

    Row n times a+^r a^s: a^k a+^r = sum_l C(k, l) C(r, l) l! a+^(r-l) a^(k-l)
    moves the entry at k to k - l + s, which is r + 1 terms per entry where
    the engine's left multiplication has s + 1.
    """
    weights = [comb(r, l) for l in range(r + 1)]
    row = [0] * s + [1]
    while True:
        yield row
        nxt = [0] * (len(row) + s)
        for k, c in enumerate(row):
            for l in range(min(k, r) + 1):
                nxt[k - l + s] += c * weights[l]
                c *= k - l
        row = nxt


@pytest.mark.parametrize(
    "r, s, n_max",
    [(r, s, 40) for r in range(1, 7) for s in range(1, r + 1)]
    + [(2, 1, 300), (3, 2, 150), (4, 1, 200), (5, 3, 80)],
)
def test_monomial_power_rows_match_entrywise_step(r, s, n_max):
    # The left-multiplied whole-row passes against the right-multiplied
    # per-entry step; the long runs take the entries past 2^256 and the
    # weight lists W_l to nr + 1 entries.
    pairs = islice(zip(monomial_power_rows(r, s), reference_rows(r, s)), n_max)
    for n, (row, expected) in enumerate(pairs, start=1):
        assert row == expected, (r, s, n)
    if n_max > 40:
        assert max(row) > 2**256


def test_monomial_power_rows_shape():
    # Row n has length ns + 1, zeros below k = s and positive entries from
    # k = s on; the normal form carries the same coefficients.
    for r, s in ((3, 1), (3, 2), (4, 4)):
        for n, row in enumerate(islice(monomial_power_rows(r, s), 6), start=1):
            assert len(row) == n * s + 1
            assert row[:s] == [0] * s and all(row[s:])
            nf = monomial_power_normal_form(MonomialSpec(r=r, s=s, n=n))
            assert dict(nf.items()) == {(n * (r - s) + k, k): c for k, c in enumerate(row) if c}
    with pytest.raises(UnsupportedError):
        next(monomial_power_rows(1, 2))


def test_coherent_expectation_counts_partitions():
    # At z = 1 the diagonal element of (a+ a)^n is the Bell number.
    for n, target in ((1, 1), (2, 2), (3, 5), (4, 15)):
        nf = monomial_power_normal_form(MonomialSpec(r=1, s=1, n=n))
        assert coherent_expectation(nf, 1) == target


def test_coherent_expectation_complex_argument():
    nf = NormalForm({(1, 1): 1})
    z = 1 + 1j
    assert coherent_expectation(nf, z) == pytest.approx(2.0)


def test_word_validation():
    with pytest.raises(TypeError):
        normal_order_word(["a"])
    with pytest.raises(TypeError):
        normal_order_word([CREATE, "a+"], strategy="rightmost")
