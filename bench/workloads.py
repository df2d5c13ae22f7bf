"""The benchmark's workloads: fixed operation lists and the checks on their outputs.

Each workload builds, from the seed, a list of ``Op``: the JSON spec a pass
runs and a check that judges the pass's output against ``references``.  A
check returns ``OK``, ``FAILED`` or a string saying what is wrong.  Only
``series`` returns ``FAILED``, for the one known fault it keeps; in ``sweep``
an operation that raises or exits other than 0 is wrong.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import references

OK = "ok"
FAILED = "failed"


@dataclass(frozen=True)
class Op:
    name: str
    spec: dict
    check: Callable[[dict], str]


def _mpf(pair) -> Fraction:
    man, exp = pair
    return Fraction(man) * Fraction(2) ** exp


def _cli_record(output: dict) -> dict | str:
    """The JSON record of a CLI op that exited 0, or what went wrong instead."""
    if "exception" in output:
        return f"raised {output['exception']}"
    if output["rc"] != 0:
        return f"exited {output['rc']}"
    return json.loads(output["stdout"])


# -- sweep: exact normal ordering --------------------------------------------

# Bell sweeps, one per branch of the Stirling dispatch: r = s closed form,
# Lah, and powers of the monomial built by the contraction product.
SWEEP_BELL = ((1, 1, 100), (2, 2, 40), (2, 1, 300), (3, 2, 150), (4, 2, 100), (5, 3, 80))
# Single rows, run before the sweeps: the closed forms for (1,1), (3,3) and
# Lah (2,1), and oracle rows of families that no sweep touches, so their
# powers start cold.
SWEEP_ROWS = ((1, 1, 100), (3, 3, 30), (2, 1, 300), (4, 1, 60), (4, 3, 40), (5, 2, 40))
# a^m a+^m, whose rewriting cost grows about tenfold per step in m.
SWEEP_LADDERS = (5, 6, 7)
# Seeded words of 7 a and 7 a+ with exactly 24 inversions (an a before an
# a+), normal ordered as one batch.  Rewriting cost grows about 1.25x per
# inversion and varies far less at a fixed count, so the seed changes the
# words but hardly the work.
SWEEP_WORDS = 32
SWEEP_WORD_LETTERS = 7
SWEEP_WORD_INVERSIONS = 24
SWEEP_EXPONENTIAL = ((1, 24), (2, 24), (3, 24))
# The exact suites of `verify all` at their defaults, after the sweeps: many
# small `bell` lookups, some of them hits in the power cache the sweeps
# filled.  The `moments` suite is left out; see README.md.
SWEEP_SUITES = ("dobinski", "egf", "norm")


def _check_values(expected: list[int]):
    """Check the ``value`` column of a `stirling` or `bell` record."""

    def check(output: dict) -> str:
        record = _cli_record(output)
        if isinstance(record, str):
            return record
        got = [int(row["value"]) for row in record["results"]]
        return OK if got == expected else "values differ from the reference"

    return check


def _check_words(words: list[str]):
    expected = [references.fock_normal_form(w) for w in words]

    def check(output: dict) -> str:
        if "exception" in output:
            return f"raised {output['exception']}"
        got = [{(i, j): c for i, j, c in form} for form in output["forms"]]
        bad = [w for w, g, e in zip(words, got, expected) if g != e]
        return OK if not bad else f"normal form of {bad[0]} differs from the Fock-space action"

    return check


def _check_identity_holds(output: dict) -> str:
    if "exception" in output:
        return f"raised {output['exception']}"
    return OK if output["ok"] else "normally ordered exponential reported a mismatch"


def _inversions(word: str) -> int:
    count = seen_a = 0
    for letter in word:
        if letter == "a":
            seen_a += 1
        else:
            count += seen_a
    return count


def _random_word(rng: random.Random) -> str:
    letters = list("c" * SWEEP_WORD_LETTERS + "a" * SWEEP_WORD_LETTERS)
    while True:
        rng.shuffle(letters)
        if _inversions(letters) == SWEEP_WORD_INVERSIONS:
            return "".join(letters)


def sweep(seed: int) -> list[Op]:
    ops = []
    for r, s, n in SWEEP_ROWS:
        argv = ["stirling", "--r", str(r), "--s", str(s), "--n", str(n), "--format", "json"]
        expected = references.lah_row(n) if (r, s) == (2, 1) else references.stirling_row(r, s, n)
        ops.append(Op(f"stirling-{r}-{s}-{n}", {"kind": "cli", "argv": argv}, _check_values(expected)))
    for r, s, n_max in SWEEP_BELL:
        argv = ["bell", "--r", str(r), "--s", str(s), "--max", str(n_max), "--format", "json"]
        expected = references.bell_numbers(r, s, n_max)
        ops.append(Op(f"bell-{r}-{s}-{n_max}", {"kind": "cli", "argv": argv}, _check_values(expected)))
    for m in SWEEP_LADDERS:
        words = ["a" * m + "c" * m]
        ops.append(Op(f"ladder-{m}", {"kind": "words", "words": words}, _check_words(words)))
    rng = random.Random(seed)
    words = [_random_word(rng) for _ in range(SWEEP_WORDS)]
    ops.append(Op("random-words", {"kind": "words", "words": words}, _check_words(words)))
    for r, order in SWEEP_EXPONENTIAL:
        spec = {"kind": "normal_exponential", "r": r, "order": order}
        ops.append(Op(f"exponential-{r}-{order}", spec, _check_identity_holds))
    for suite in SWEEP_SUITES:
        argv = ["verify", suite, "--format", "json"]
        ops.append(Op(f"verify-{suite}", {"kind": "cli", "argv": argv}, _check_verify_record(suite)))
    return ops


# -- series: certified Dobinski-type series -----------------------------------

# (library function, leading arguments, (r, s) of the Bell numbers it gives).
SERIES_FAMILIES = (
    ("dobinski_classic", (), (1, 1)),
    ("dobinski_rr", (2,), (2, 2)),
    ("dobinski_rr", (3,), (3, 3)),
    ("dobinski_rs", (2, 1), (2, 1)),
    ("dobinski_rs", (3, 1), (3, 1)),
    ("dobinski_rs", (3, 2), (3, 2)),
    ("bell_hypergeometric", (1, 1), (2, 1)),
    ("bell_hypergeometric", (1, 2), (3, 2)),
    ("bell_hypergeometric", (2, 1), (4, 2)),
    ("continuous_moment_series", (1,), (2, 1)),
    ("continuous_moment_series", (2,), (4, 2)),
)
# Discrete measures: (constructor and its arguments, (r, s)).
SERIES_MEASURES = ((("dirac_comb",), (1, 1)), (("rarefied_comb", 2), (2, 2)), (("rarefied_comb", 3), (3, 3)))
# The library's default absolute error target for every function above.
SERIES_TARGET = Fraction(1e-12)
FLOAT_LIMIT = 2**53
SERIES_LIMIT = 2**256


def _series_n_range(values: list[int]) -> range:
    """n = 1 up to the first n whose Bell number exceeds 2^256."""
    return range(1, next(n for n, b in enumerate(values) if b > SERIES_LIMIT) + 1)


def _check_series(expected: int):
    def check(output: dict) -> str:
        if "exception" in output:
            return f"evaluation raised {output['exception']}"
        value, radius = _mpf(output["value"]), _mpf(output["abs_error"])
        if abs(value - expected) > radius:
            return f"enclosure misses the reference {expected}"
        if radius > SERIES_TARGET:
            return f"radius {float(radius):.3g} exceeds the target"
        if output["integer"] == expected:
            return OK
        # Known fault: to_integer compares at 53 bits and rejects the integer
        # its own enclosure contains once B > 2^53.
        if output["error"] == "NonIntegerResultError" and expected > FLOAT_LIMIT:
            return FAILED
        return f"to_integer gave {output['integer']} ({output['error']}), expected {expected}"

    return check


@functools.lru_cache(maxsize=None)
def _bell_table(r: int, s: int) -> list[int]:
    """B_{r,s}(0..80): past every n the series workload and the verify suites reach."""
    return references.bell_numbers(r, s, 80)


def series(seed: int) -> list[Op]:
    del seed  # the operation list is the same for every seed
    ops = []
    for fn, lead, (r, s) in SERIES_FAMILIES:
        values = _bell_table(r, s)
        for n in _series_n_range(values):
            spec = {"kind": "series", "fn": fn, "args": [*lead, n]}
            ops.append(Op(f"{fn}{list(lead)}-{n}", spec, _check_series(values[n])))
    for measure, (r, s) in SERIES_MEASURES:
        values = _bell_table(r, s)
        for n in _series_n_range(values):
            spec = {"kind": "series", "fn": "moment", "measure": list(measure), "args": [n]}
            ops.append(Op(f"moment{list(measure)}-{n}", spec, _check_series(values[n])))
    return ops


# -- checks on the records of `bosonkit verify` -------------------------------

_GOT = re.compile(r"got (\S+) \+/- (\S+), expected (\d+)$")
_SERIES_NAME = re.compile(r"(?:dobinski|hypergeometric) (?:classic|\(r=s=(\d+)\)|\((\d+),(\d+)\)) n=(\d+)$")
_EGF = re.compile(r"egf \((\d+),1\) n=(\d+)$")
_EGF_DETAIL = re.compile(r"n! coeff = (\d+), oracle (\d+)$")


def _near(got: str, err: str, expected: int) -> bool:
    # The record prints values to 20 and bounds to 3 significant digits;
    # allow for that rounding too.
    value = Fraction(got)
    slack = abs(value) * Fraction(1, 10**19)
    return abs(value - expected) <= Fraction(err) * Fraction(101, 100) + slack


def _bell(r: int, s: int, n: int) -> int:
    return _bell_table(r, s)[n]


def _check_verify_record(suite: str):
    def compared(check: dict) -> str | None:
        """Compare one check's numbers with the references; None if it has none."""
        name, detail = check["name"], check["detail"]
        if m := _SERIES_NAME.match(name):
            rr, r, s, n = m.groups()
            r, s = (int(rr), int(rr)) if rr else (int(r or 1), int(s or 1))
            got = _GOT.search(detail)
            expected = _bell(r, s, int(n))
            ok = got and int(got[3]) == expected and _near(got[1], got[2], expected)
            return OK if ok else f"{name}: {detail}"
        if m := _EGF.match(name):
            got = _EGF_DETAIL.search(detail)
            expected = _bell(int(m[1]), 1, int(m[2]))
            ok = got and int(got[1]) == int(got[2]) == expected
            return OK if ok else f"{name}: {detail}"
        return None

    def check(output: dict) -> str:
        record = _cli_record(output)
        if isinstance(record, str):
            return f"verify {suite} {record}"
        failing = [c["name"] for c in record["checks"] if c["status"] != "pass"]
        if failing:
            return f"verify {suite}: failing checks {failing[:3]}"
        outcomes = [o for o in map(compared, record["checks"]) if o is not None]
        if suite != "norm" and not outcomes:
            return f"verify {suite}: no check carried a number to compare"
        wrong = [o for o in outcomes if o != OK]
        return wrong[0] if wrong else OK

    return check


WORKLOADS = {"sweep": sweep, "series": series}
