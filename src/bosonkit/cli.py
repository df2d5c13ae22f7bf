"""Command-line front end.

Three subcommands, each read in one pass against the flag table
``_COMMANDS``: ``stirling`` prints one row of the generalized triangle,
``bell`` a run of Bell numbers, and ``verify`` runs a check suite (dobinski,
egf, norm, moments, or all) over a default grid or one given family.  Each
suite reads only some ``verify`` flags and rejects any other, so no flag is
accepted and then ignored; ``parameters`` echo the flags the suite read.
Exit codes: 0 all checks passed, 1 usage error (worded as argparse words it)
or output that cannot be written (an ``--out`` file, or stdout on a closed
pipe or a full device), 2 unsupported parameter combination, 3 at least one
verification check failed (a value that does not round to its integer is a
failed check), 4 any other BosonKitError, such as exhausted precision,
reported on one line.

Output is plain text by default; ``--format json`` emits a versioned record
whose integers are decimal strings (arbitrary precision survives any JSON
parser) and whose reals carry an explicit error bound.  ``--format csv``
emits one flat table per section.  A section (results, then checks) is one
header of column names and rows of cells in that order, each cell a decimal
integer (an ``int``) or a string; the command names the results' columns,
and checks always have name, status and detail.  ``bell`` and ``stirling``
hand their values over as ints, which every format prints in decimal and
JSON quotes without escaping, since digits need none.  Strings are quoted by
``_json.encode_basestring_ascii``, the C function that ``json.encoder``
re-exports on CPython, so the json package is never loaded; there is no
pure-Python fallback, and the module runs on CPython only.  Every BosonKitError
is raised before the first byte; then, in every format, each row is
formatted and written in turn.  Each check is a ``Check`` named
tuple, renamed per family with ``_replace``.  The ``--printed-sign`` and
``--printed-b5`` flags run variants of two identities in forms that do not
hold, so the corrections the library applies stay visible and reproducible;
expect exit code 3 from them.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as _quote
from itertools import chain, count, islice, repeat
from math import isfinite
from types import SimpleNamespace

from .dobinski import (
    bell_hypergeometric,
    dobinski_classic,
    dobinski_rr,
    dobinski_rs,
    dobinski_rs_literal,
)
from .errors import (
    BosonKitError,
    DivergentSeriesError,
    OutOfRangeError,
    UnsupportedError,
)
from .genfunc import egf_row_sums, verify_normal_exponential
from .measures import verify_moments
from .numeric import DEFAULT_BITS, MAX_BITS, Check, ErrorBoundedReal, SeriesSpec, rounds_to
from .operator_algebra import MonomialSpec
from .stirling import bell_sequence, bell_values, stirling_table

__all__ = ["OutputRecord", "console_main", "main"]


class _UsageError(Exception):
    pass


class OutputRecord:
    """What a command prints; ``results``, read once by ``write``, holds tuples in ``columns`` order.

    A section's rows share one shape: the same columns, and in each column
    the same cell type, ``int`` or ``str``, as its first row.
    """

    def __init__(self, command: str, parameters: dict[str, str], columns=(), results=(), checks=()) -> None:
        self.command = command
        self.parameters = parameters
        self.columns = columns
        self.results = results
        self.checks = checks

    def _sections(self):
        # csv leaves out a section without columns, and checks have none when empty.
        check_rows = ((c.name, "pass" if c.ok else "fail", c.detail) for c in self.checks)
        return (self.columns, self.results), (("name", "status", "detail") if self.checks else (), check_rows)

    def write(self, fmt: str, out) -> None:
        """Write the record in ``fmt`` (plain, json or csv) to the text stream ``out``, a row at a time."""
        getattr(self, f"_write_{fmt}")(out)

    def _write_json(self, out) -> None:
        # json.dumps(record, indent=2) of the record with every int cell as
        # str(cell), byte for byte: every field is a string or a flat object
        # of strings, escaped by the encoder's own C function.  Each object's
        # layout is built once, a section's from its first row, and each row
        # fills it in.
        values = self.parameters.values()
        parameters = _json_layout(self.parameters, "  ", values) % tuple(map(_quote, values))
        out.write(f'{{\n  "schema": 1,\n  "command": {_quote(self.command)},\n  "parameters": {parameters},\n')
        for key, (columns, rows), end in zip(("results", "checks"), self._sections(), (",\n", "\n}\n")):
            out.write(f'  "{key}": [')
            rows = iter(rows)
            if (first := next(rows, None)) is None:
                out.write("]" + end)
                continue
            layout = "%s" + _json_layout(columns, "    ", first)
            strings = [i for i, cell in enumerate(first) if type(cell) is not int]
            lead = "\n    "
            for row in chain((first,), rows):
                cells = [*row]
                for i in strings:
                    cells[i] = _quote(cells[i])
                out.write(layout % (lead, *cells))
                lead = ",\n    "
            out.write("\n  ]" + end)

    def _write_csv(self, out) -> None:
        # One flat table per section with columns, headed by them, with a
        # blank line between them; most commands fill only one.
        import csv  # loaded here, since no other output format needs it
        writer = csv.writer(out, lineterminator="\n")
        gap = ""
        for columns, rows in self._sections():
            if columns:
                out.write(gap)
                writer.writerow(columns)
                writer.writerows(rows)
                gap = "\n"

    def _write_plain(self, out) -> None:
        out.write(f"command: {self.command}\n")
        if self.parameters:
            out.write("parameters: " + " ".join(f"{k}={v}" for k, v in self.parameters.items()) + "\n")
        for row in self.results:
            out.write("  " + " ".join(f"{k}={v}" for k, v in zip(self.columns, row)) + "\n")
        for c in self.checks:
            out.write(f"{'pass' if c.ok else 'FAIL'}  {c.name}: {c.detail}\n")
        if self.checks:
            passed = sum(c.ok for c in self.checks)
            out.write(f"summary: {passed}/{len(self.checks)} checks passed\n")


def _json_layout(keys, indent: str, cells) -> str:
    """The %-template of an object with these keys, as indent=2 prints it at this indentation.

    A key whose cell is an int takes a "%d" slot, since decimal digits need
    no escaping; any other value fills one %s, quoted already.  A % in a key
    is escaped.
    """
    if not keys:
        return "{}"
    lead = "\n  " + indent
    slots = ('"%d"' if type(cell) is int else "%s" for cell in cells)
    fields = ("," + lead).join(_quote(k).replace("%", "%%") + ": " + slot for k, slot in zip(keys, slots))
    return "{" + lead + fields + "\n" + indent + "}"


def _resolve_bits(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("BOSONKIT_BITS")
        if raw is None:
            return DEFAULT_BITS
        try:
            value = int(raw)
        except ValueError:
            raise _UsageError(f"BOSONKIT_BITS must be an integer, got {raw!r}")
    if value < 16:
        raise _UsageError("--bits must be at least 16")
    if value > MAX_BITS:
        raise _UsageError(f"--bits must be at most {MAX_BITS}")
    return value


def _series(bits: int, tol: float) -> SeriesSpec:
    # Series targets sit an order of magnitude under the comparison
    # tolerance so rounding to integers is never the limiting step.
    if (target := min(tol, 1e-9) / 8) == 0:
        raise _UsageError(f"--tol {tol!r} is too small: its series target tol/8 underflows to 0")
    return SeriesSpec(working_precision=bits, target_abs_error=target)


def _check_rounds_to(name: str, value: ErrorBoundedReal, expected: int) -> Check:
    ok, error = rounds_to(value, expected)
    if error is not None:
        return Check(name, False, f"cannot round {value}: {error}")
    return Check(name, ok, f"got {value}, expected {expected}")


# -- verify suites ----------------------------------------------------------
#
# Each suite takes the parsed arguments, reads only the flags _SUITES lists
# for it and validates them at once, then returns a generator of Checks (and,
# from moments only, of result rows: plain tuples); so ``verify all`` rejects
# a bad flag of any suite before the first check runs.


def _dobinski_family(r: int, s: int, n_max: int, series: SeriesSpec, printed_b5: bool):
    for n, target in enumerate(bell_sequence(r, s, n_max)[1:], start=1):
        if printed_b5:
            name = f"uncorrected series ({r},{s}) n={n}"
            try:
                value = dobinski_rs_literal(r, s, n, series)
            except DivergentSeriesError as exc:
                yield Check(name, False, f"diverges: {exc}")
                continue
        elif (r, s) == (1, 1):
            value = dobinski_classic(n, series)
            name = f"dobinski classic n={n}"
        elif r == s:
            value = dobinski_rr(r, n, series)
            name = f"dobinski (r=s={r}) n={n}"
        else:
            value = dobinski_rs(r, s, n, series)
            name = f"dobinski ({r},{s}) n={n}"
        yield _check_rounds_to(name, value, target)
        if not printed_b5 and r > s and s % (r - s) == 0:
            # (r, s) = (p(q+1), pq) is also covered by the hypergeometric
            # form with p = r - s; the two series must agree.
            p = r - s
            q = s // p
            hyp = bell_hypergeometric(p, q, n, series)
            yield _check_rounds_to(f"hypergeometric ({r},{s}) n={n}", hyp, target)
            yield Check(
                f"series agree ({r},{s}) n={n}",
                bool(value.agrees_with(hyp)),
                f"direct {value} vs hypergeometric {hyp}",
            )


def _divergence_flag(r: int, s: int, n: int, series: SeriesSpec) -> Check:
    name = f"uncorrected series diverges ({r},{s}) n={n}"
    try:
        value = dobinski_rs_literal(r, s, n, series)
    except DivergentSeriesError as exc:
        return Check(name, True, f"flagged divergent as expected: {exc}")
    return Check(name, False, f"expected divergence, got {value}")


def _verify_dobinski(ns):
    series = _series(ns.bits, ns.tol)
    if (ns.r is None) != (ns.s is None):
        raise _UsageError("give both --r and --s, or neither")
    n_max = ns.max if ns.max is not None else 5
    if n_max < 1:
        raise _UsageError("--max must be >= 1")
    if ns.r is not None:
        MonomialSpec(r=ns.r, s=ns.s, n=1)  # family validation only
        if ns.printed_b5 and ns.r <= ns.s:
            raise _UsageError("--printed-b5 applies to families with r > s")
        return _dobinski_family(ns.r, ns.s, n_max, series, ns.printed_b5)
    if ns.printed_b5:
        raise _UsageError("--printed-b5 needs an explicit --r/--s family")
    return _dobinski_grid(n_max, series)


def _dobinski_grid(n_max: int, series: SeriesSpec):
    yield from _dobinski_family(1, 1, min(n_max + 5, 10), series, False)
    for r in (2, 3):
        yield from _dobinski_family(r, r, min(n_max, 4), series, False)
    for r, s in ((2, 1), (3, 1), (3, 2)):
        yield from _dobinski_family(r, s, n_max, series, False)
        yield _divergence_flag(r, s, 2, series)
    # p = 2 hypergeometric family; at p = 1 the rFr series is termwise
    # proportional to the direct one, so this is the substantive cross.
    yield from _dobinski_family(4, 2, min(n_max, 4), series, False)


def _egf_family(r: int, n_max: int, printed_sign: bool):
    label = "egf printed sign" if printed_sign else "egf"
    pairs = zip(egf_row_sums(r, n_max, printed_sign), bell_sequence(r, 1, n_max))
    for n, (got, expected) in enumerate(pairs):
        yield Check(f"{label} ({r},1) n={n}", got == expected, f"n! coeff = {got}, oracle {expected}")


def _egf_printed_sign_rejected(r: int) -> Check:
    mismatch = next((n for n, c in enumerate(_egf_family(r, 4, True)) if not c.ok), None)
    return Check(
        f"printed exponent sign rejected (r={r})",
        mismatch is not None and mismatch <= 2,
        f"first mismatch at order {mismatch}",
    )


def _verify_egf(ns):
    if ns.max is not None and ns.max < 0:
        raise _UsageError("--max must be >= 0")
    if ns.r is not None:
        r = ns.r
        if r < 1:
            raise _UsageError("--r must be >= 1")
        if ns.printed_sign and r < 2:
            raise _UsageError("--printed-sign needs r >= 2")
        n_max = ns.max if ns.max is not None else (8 if r == 1 else 6)
        return _egf_family(r, n_max, ns.printed_sign)
    if ns.printed_sign:
        raise _UsageError("--printed-sign needs an explicit --r")
    return _egf_grid(ns.max)


def _egf_grid(n_max: int | None):
    yield from _egf_family(1, n_max if n_max is not None else 8, False)
    for r in (2, 3):
        yield from _egf_family(r, min(n_max, 6) if n_max is not None else 6, False)
        yield _egf_printed_sign_rejected(r)


def _verify_norm(ns):
    order = ns.order if ns.order is not None else 5
    if order < 1:
        raise _UsageError("--order must be >= 1")
    if ns.r is not None and ns.r < 1:
        raise _UsageError("--r must be >= 1")
    if ns.r is None and ns.printed_sign:
        raise _UsageError("--printed-sign needs an explicit --r")
    return _norm_checks(ns.r, order, ns.printed_sign)


def _norm_checks(r: int | None, order: int, printed_sign: bool):
    if r is not None:
        yield verify_normal_exponential(r, order, printed_sign=printed_sign)
        return
    for r in (1, 2, 3):
        yield verify_normal_exponential(r, order)
    for r in (1, 2, 3):
        check = verify_normal_exponential(r, 3, printed_sign=True)
        yield Check(f"printed exponent sign rejected (r={r})", not check.ok, check.detail)


def _verify_moments(ns):
    if (ns.r is None) != (ns.s is None):
        raise _UsageError("give both --r and --s, or neither")
    if ns.max is not None and ns.max < 1:
        raise _UsageError("--max must be >= 1")
    if ns.r is not None:
        grid = [(ns.r, ns.s, ns.max if ns.max is not None else 5)]
    else:
        grid = [(1, 1, 5), (2, 2, 4), (2, 1, 5)]
        if ns.max is not None:
            grid = [(r, s, min(n, ns.max)) for r, s, n in grid]
    return _moment_checks(grid, ns.tol, ns.bits)


def _moment_checks(grid: list, tol: float, bits: int):
    for r, s, n_max in grid:
        report = verify_moments(r, s, n_max, tol, bits=bits)
        yield f"({r},{s})", report.family, "exact"
        yield from (c._replace(name=f"({r},{s}) {c.name}") for c in report.checks)


# The flags each suite reads; ``verify all`` reads their union and runs the
# suites in this order.  A flag given to a suite that does not read it is a
# usage error rather than silently ignored.
_SUITES = {
    "dobinski": (_verify_dobinski, ("bits", "tol", "r", "s", "max", "printed_b5")),
    "egf": (_verify_egf, ("r", "max", "printed_sign")),
    "norm": (_verify_norm, ("r", "order", "printed_sign")),
    "moments": (_verify_moments, ("bits", "tol", "r", "s", "max")),
}


# -- command handlers -------------------------------------------------------


def _cmd_stirling(ns) -> OutputRecord:
    MonomialSpec(r=ns.r, s=ns.s, n=1)  # family validation only
    if ns.n < 1:
        raise _UsageError("--n must be >= 1")
    spec = MonomialSpec(r=ns.r, s=ns.s, n=ns.n)
    row = stirling_table(spec)
    results = zip(count(spec.s), islice(row, spec.s, None), repeat("exact"))
    return OutputRecord("stirling", dict(r=str(ns.r), s=str(ns.s), n=str(ns.n)), ("k", "value", "kind"), results)


def _cmd_bell(ns) -> OutputRecord:
    if ns.max < 0:
        raise _UsageError("--max must be >= 0")
    results = zip(count(), islice(bell_values(ns.r, ns.s), ns.max + 1), repeat("exact"))
    return OutputRecord("bell", dict(r=str(ns.r), s=str(ns.s), max=str(ns.max)), ("n", "value", "kind"), results)


def _cmd_verify(ns) -> OutputRecord:
    suites = list(_SUITES) if ns.suite == "all" else [ns.suite]
    reads = {flag for suite in suites for flag in _SUITES[suite][1]}
    # A flag was given when its value is not the table's default (None, or
    # False for an on/off flag; 0 is a value).
    for flag, (_, default) in _COMMANDS["verify"][2].items():
        if flag not in reads and getattr(ns, flag) is not default:
            raise _UsageError(f"verify {ns.suite} does not read --{flag.replace('_', '-')}")
    if "bits" in reads:
        ns.bits = _resolve_bits(ns.bits)
    if "tol" in reads:
        ns.tol = 1e-9 if ns.tol is None else ns.tol
        if not isfinite(ns.tol):
            raise _UsageError("--tol must be finite")
        if ns.tol <= 0:
            raise _UsageError("--tol must be positive")
    parameters = {"suite": ns.suite}
    for flag, (_, default) in _COMMANDS["verify"][2].items():
        value = getattr(ns, flag)
        if value is not default:
            parameters[flag] = "true" if value is True else repr(value)
    # Every suite validates its flags here, before the first check runs.
    items = [item for run in [_SUITES[suite][0](ns) for suite in suites] for item in run]
    checks = [item for item in items if type(item) is Check]
    results = [item for item in items if type(item) is not Check]  # the rows of _moment_checks
    columns = ("family", "measure", "kind") if "moments" in suites else ()
    return OutputRecord(f"verify {ns.suite}", parameters, columns, results, checks)


# -- command line -------------------------------------------------------------
# command -> (handler, positional (name, choices) or (), flags as name -> (type,
# default) in the order verify echoes them); a type is int, float, str, bool
# (on/off) or a tuple of choices, and a default of ... makes the flag required.
_OUTPUT_FLAGS = {"format": (("plain", "json", "csv"), "plain"), "out": (str, None)}
_COMMANDS = {
    "stirling": (_cmd_stirling, (), {"r": (int, ...), "s": (int, ...), "n": (int, ...)}),
    "bell": (_cmd_bell, (), {"r": (int, ...), "s": (int, ...), "max": (int, ...)}),
    "verify": (_cmd_verify, ("suite", (*_SUITES, "all")), {
        "bits": (int, None), "tol": (float, None), "r": (int, None), "s": (int, None), "max": (int, None),
        "order": (int, None), "printed_sign": (bool, False), "printed_b5": (bool, False)}),
}
_HELP = f"""\
usage: bosonkit stirling --r R --s S --n N [--format FORMAT] [--out FILE]
       bosonkit bell --r R --s S --max MAX [--format FORMAT] [--out FILE]
       bosonkit verify SUITE [--r R] [--s S] [--max MAX] [--order ORDER] [--tol TOL] [--bits BITS]
                             [--printed-sign] [--printed-b5] [--format FORMAT] [--out FILE]
SUITE: {", ".join(_COMMANDS["verify"][1][1])}.  FORMAT: plain (default), json, csv.  TOL: default 1e-9.
BITS: default {DEFAULT_BITS}, or BOSONKIT_BITS.  Give each flag once, as --name VALUE or --name=VALUE.
verify moments exits 4 when its quadrature cannot reach TOL, or when mpmath is not installed.
"""


def _choice(argument: str, value: str, choices) -> str:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {argument}: invalid choice: {value!r} (choose from {listed})")
    return value


def _parse(argv) -> SimpleNamespace:
    """The namespace the handlers read; usage errors keep argparse's wording."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    handler, positional, flags = _COMMANDS[_choice("command", argv[0], _COMMANDS)]
    flags = {**flags, **_OUTPUT_FLAGS}
    options = {"--" + name.replace("_", "-"): name for name in flags}
    values, extras, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        option, eq, text = token.partition("=")
        name = options.get(option)
        kind = flags[name][0] if name else None
        if name in values:
            raise _UsageError(f"argument {option}: given more than once")
        if kind is bool and not eq:
            values[name] = True
        elif positional and positional[0] not in values and not token.startswith("-"):
            values[positional[0]] = _choice(positional[0], token, positional[1])
        elif kind is None or kind is bool:
            extras.append(token)
        else:
            text = text if eq else next(tokens, "--")  # "-1" is a value, "--r" never
            if text.startswith("--") and not eq or kind is str and not text:
                raise _UsageError(f"argument {option}: expected one argument")
            try:
                values[name] = _choice(option, text, kind) if isinstance(kind, tuple) else kind(text)
            except ValueError:
                raise _UsageError(f"argument {option}: invalid {kind.__name__} value: {text!r}") from None
    missing = [option for option, name in options.items() if flags[name][1] is ... and name not in values]
    missing += [name for name in positional[:1] if name not in values]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(handler=handler, **({name: default for name, (_, default) in flags.items()} | values))


def main(argv=None) -> int:
    # Exact results can run past the interpreter's limit on int-to-str
    # conversion (4,300 digits by default, Python 3.10.7 on); lift it for
    # this call only, since main also runs in-process.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_HELP)
        return 0
    try:
        ns = _parse(argv)
        record = ns.handler(ns)
    except (_UsageError, OutOfRangeError) as exc:
        print(f"bosonkit: error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedError as exc:
        print(f"bosonkit: unsupported: {exc}", file=sys.stderr)
        return 2
    except BosonKitError as exc:
        print(f"bosonkit: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    try:
        if ns.out is not None:
            with open(ns.out, "w", encoding="utf-8") as handle:
                record.write(ns.format, handle)
        else:
            # Read at call time, so that a caller's contextlib.redirect_stdout holds.
            record.write(ns.format, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:  # also a closed pipe or a full device on stdout
        reason = exc.strerror or exc
        print(f"bosonkit: error: cannot write {ns.out or '<stdout>'}: {reason}", file=sys.stderr)
        return 1
    return 0 if all(c.ok for c in record.checks) else 3


def console_main() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported it; with fd 1 on devnull the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
