"""Command-line front end.

Three subcommands: ``stirling`` prints one row of the generalized triangle,
``bell`` prints a run of Bell numbers, and ``verify`` runs a named check
suite (dobinski, egf, norm, moments, or all) over a default grid or over one
family given explicitly.  Each suite reads only some of the ``verify`` flags
and rejects any other with a usage error, so no flag is accepted and then
ignored; ``parameters`` echo the flags the suite read.  Exit codes: 0 all
checks passed, 1 usage error or an ``--out`` file that cannot be written,
2 unsupported parameter combination, 3 at least one verification check
failed (a value that does not round to its integer is a failed check), 4 any
other BosonKitError, such as exhausted precision, reported on one line.

Output is plain text by default; ``--format json`` emits a versioned record
whose integers are decimal strings (arbitrary precision survives any JSON
parser) and whose reals carry an explicit error bound.  ``--format csv``
emits flat tables, each headed by the union of its rows' keys.  The
``--printed-sign`` and ``--printed-b5`` flags run variants of two identities
in forms that do not hold, so the corrections the library applies stay
visible and reproducible; expect exit code 3 from them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
from math import factorial, isfinite

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
    InconclusiveError,
    OutOfRangeError,
    UnsupportedError,
)
from .genfunc import egf_classic, egf_r1, select_normalization_order, verify_normal_exponential
from .measures import verify_moments
from .numeric import DEFAULT_BITS, MAX_BITS, Check, ErrorBoundedReal, SeriesSpec
from .operator_algebra import MonomialSpec
from .stirling import bell_sequence, stirling_table

__all__ = ["OutputRecord", "console_main", "main"]


class _UsageError(Exception):
    pass


@dataclass
class OutputRecord:
    command: str
    parameters: dict[str, str]
    results: list[dict[str, str]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    def _check_rows(self) -> list[dict[str, str]]:
        return [
            {"name": c.name, "status": "pass" if c.ok else "fail", "detail": c.detail}
            for c in self.checks
        ]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": self._check_rows(),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte.

        With ``indent`` set the json module encodes in pure Python, so each
        field is encoded compactly by the C encoder and indented here.
        """
        fields = (f"{_encode_depth2(k)}: {_indented(v)}" for k, v in self.to_dict().items())
        return "{\n  " + ",\n  ".join(fields) + "\n}"

    def to_csv(self) -> str:
        # One flat table per section; most commands populate only one.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        sections = [s for s in (self.results, self._check_rows()) if s]
        for index, rows in enumerate(sections):
            if index:
                buf.write("\n")
            # Rows of one section may differ in keys; the header is their union.
            header = list(dict.fromkeys(col for row in rows for col in row))
            writer.writerow(header)
            for row in rows:
                writer.writerow([row.get(col, "") for col in header])
        return buf.getvalue().rstrip("\n")

    def to_plain(self) -> str:
        lines = [f"command: {self.command}"]
        if self.parameters:
            joined = " ".join(f"{k}={v}" for k, v in self.parameters.items())
            lines.append(f"parameters: {joined}")
        for row in self.results:
            lines.append("  " + " ".join(f"{k}={v}" for k, v in row.items()))
        for c in self.checks:
            lines.append(f"{'pass' if c.ok else 'FAIL'}  {c.name}: {c.detail}")
        if self.checks:
            passed = sum(c.ok for c in self.checks)
            lines.append(f"summary: {passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_plain()


# Compact encoders whose item separator already holds the line break and the
# indentation that indent=2 puts before a key at depth 2 (the parameters) and
# at depth 3 (a key of a result or check row).
_encode_depth2 = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_encode_depth3 = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _indented(value) -> str:
    """A top-level field of ``OutputRecord.to_dict`` as indent=2 prints it.

    The field is a scalar, a flat dict or a list of flat dicts.  An encoded
    string never holds a raw newline, so in a list every "},\n      {" is a
    row boundary and "{\n      \n    }" can only be an empty row.
    """
    if isinstance(value, list):
        if not value:
            return "[]"
        body = _encode_depth3(value)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        return ("[\n    {\n      " + body + "\n    }\n  ]").replace("{\n      \n    }", "{}")
    if isinstance(value, dict) and value:
        return "{\n    " + _encode_depth2(value)[1:-1] + "\n  }"
    return _encode_depth2(value)


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
    return SeriesSpec(working_precision=bits, target_abs_error=min(tol, 1e-9) / 8)


def _check_rounds_to(name: str, value: ErrorBoundedReal, expected: int) -> Check:
    try:
        rounded = value.to_integer()
    except BosonKitError as exc:
        return Check(name, False, f"cannot round {value}: {exc}")
    ok = rounded == expected and float(value.abs_error) < 1e-6
    return Check(name, ok, f"got {value}, expected {expected}")


# -- verify suites ----------------------------------------------------------
#
# Each suite takes the parsed arguments, reads only the flags _SUITES lists
# for it and validates them at once, then returns a generator of Checks that
# may append rows to ``results``; so ``verify all`` rejects a bad flag of any
# suite before the first check runs.


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


def _verify_dobinski(ns, results: list):
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
    series = egf_classic(n_max) if r == 1 else egf_r1(r, n_max, printed_sign=printed_sign)
    label = "egf printed sign" if printed_sign else "egf"
    for n, expected in enumerate(bell_sequence(r, 1, n_max)):
        got = series[n] * factorial(n)
        yield Check(f"{label} ({r},1) n={n}", got == expected, f"n! coeff = {got}, oracle {expected}")


def _egf_printed_sign_rejected(r: int) -> Check:
    mismatch = next((n for n, c in enumerate(_egf_family(r, 4, True)) if not c.ok), None)
    return Check(
        f"printed exponent sign rejected (r={r})",
        mismatch is not None and mismatch <= 2,
        f"first mismatch at order {mismatch}",
    )


def _normalization_row(results: list, r: int, s: int, probe_n: int, expected: int) -> Check:
    name = f"normalization order ({r},{s})"
    try:
        t = select_normalization_order(r, s, probe_n)
    except InconclusiveError as exc:
        return Check(name, False, str(exc))
    results.append({"family": f"({r},{s})", "normalization_order": str(t), "kind": "heuristic"})
    return Check(name, t == expected, f"t = {t}, expected {expected} (series sum B(n) x^n / (n!)^(t+1))")


def _verify_egf(ns, results: list):
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
    return _egf_grid(ns.max, results)


def _egf_grid(n_max: int | None, results: list):
    yield from _egf_family(1, n_max if n_max is not None else 8, False)
    for r in (2, 3):
        yield from _egf_family(r, min(n_max, 6) if n_max is not None else 6, False)
        yield _egf_printed_sign_rejected(r)
    yield _normalization_row(results, 1, 1, 10, 0)
    yield _normalization_row(results, 2, 1, 8, 0)
    yield _normalization_row(results, 2, 2, 8, 1)


def _verify_norm(ns, results: list):
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


def _verify_moments(ns, results: list):
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
    return _moment_checks(grid, ns.tol, ns.bits, results)


def _moment_checks(grid: list, tol: float, bits: int, results: list):
    for r, s, n_max in grid:
        report = verify_moments(r, s, n_max, tol, bits=bits)
        results.append({"family": f"({r},{s})", "measure": report.family, "kind": "exact"})
        yield from (replace(c, name=f"({r},{s}) {c.name}") for c in report.checks)


# The flags each suite reads; ``verify all`` reads their union and runs the
# suites in this order.  A flag given to a suite that does not read it is a
# usage error rather than silently ignored.
_SUITES = {
    "dobinski": (_verify_dobinski, ("bits", "tol", "r", "s", "max", "printed_b5")),
    "egf": (_verify_egf, ("r", "max", "printed_sign")),
    "norm": (_verify_norm, ("r", "order", "printed_sign")),
    "moments": (_verify_moments, ("bits", "tol", "r", "s", "max")),
}
# Flag order in the echoed parameters.
_VERIFY_FLAGS = ("bits", "tol", "r", "s", "max", "order", "printed_sign", "printed_b5")


def _given(value) -> bool:
    # Unset flags parse to None, or to False for on/off flags; 0 is a value.
    return value is not None and value is not False


# -- command handlers -------------------------------------------------------


def _cmd_stirling(ns) -> OutputRecord:
    MonomialSpec(r=ns.r, s=ns.s, n=1)  # family validation only
    if ns.n < 1:
        raise _UsageError("--n must be >= 1")
    spec = MonomialSpec(r=ns.r, s=ns.s, n=ns.n)
    row = stirling_table(spec)
    record = OutputRecord(
        command="stirling",
        parameters={"r": str(ns.r), "s": str(ns.s), "n": str(ns.n)},
    )
    for k in range(spec.s, spec.n * spec.s + 1):
        record.results.append(
            {"k": str(k), "value": str(row[k]), "kind": "exact"}
        )
    return record


def _cmd_bell(ns) -> OutputRecord:
    if ns.max < 0:
        raise _UsageError("--max must be >= 0")
    record = OutputRecord(
        command="bell",
        parameters={"r": str(ns.r), "s": str(ns.s), "max": str(ns.max)},
    )
    for n, value in enumerate(bell_sequence(ns.r, ns.s, ns.max)):
        record.results.append({"n": str(n), "value": str(value), "kind": "exact"})
    return record


def _cmd_verify(ns) -> OutputRecord:
    suites = list(_SUITES) if ns.suite == "all" else [ns.suite]
    reads = {flag for suite in suites for flag in _SUITES[suite][1]}
    for flag in _VERIFY_FLAGS:
        if flag not in reads and _given(getattr(ns, flag)):
            option = "--" + flag.replace("_", "-")
            raise _UsageError(f"verify {ns.suite} does not read {option}")
    if "bits" in reads:
        ns.bits = _resolve_bits(ns.bits)
    if "tol" in reads:
        ns.tol = 1e-9 if ns.tol is None else ns.tol
        if not isfinite(ns.tol):
            raise _UsageError("--tol must be finite")
        if ns.tol <= 0:
            raise _UsageError("--tol must be positive")
    parameters = {"suite": ns.suite}
    for flag in _VERIFY_FLAGS:
        value = getattr(ns, flag)
        if _given(value):
            parameters[flag] = "true" if value is True else repr(value)
    record = OutputRecord(command=f"verify {ns.suite}", parameters=parameters)
    # Every suite validates its flags here, before the first check runs.
    runs = [_SUITES[suite][0](ns, record.results) for suite in suites]
    for checks in runs:
        record.checks.extend(checks)
    return record


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = _Parser(prog="bosonkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p_st = sub.add_parser("stirling", help="one row of the generalized Stirling triangle")
    p_st.add_argument("--r", type=int, required=True)
    p_st.add_argument("--s", type=int, required=True)
    p_st.add_argument("--n", type=int, required=True)
    common(p_st)
    p_st.set_defaults(handler=_cmd_stirling)

    p_be = sub.add_parser("bell", help="generalized Bell numbers B(0..max)")
    p_be.add_argument("--r", type=int, required=True)
    p_be.add_argument("--s", type=int, required=True)
    p_be.add_argument("--max", type=int, required=True)
    common(p_be)
    p_be.set_defaults(handler=_cmd_bell)

    p_ve = sub.add_parser("verify", help="run a verification suite")
    p_ve.add_argument("suite", choices=(*_SUITES, "all"))
    p_ve.add_argument("--r", type=int, default=None)
    p_ve.add_argument("--s", type=int, default=None)
    p_ve.add_argument("--max", type=int, default=None)
    p_ve.add_argument("--order", type=int, default=None)
    p_ve.add_argument("--tol", type=float, default=None,
                      help="verification tolerance (default 1e-9)")
    p_ve.add_argument("--bits", type=int, default=None,
                      help=f"minimum significant bits of a series midpoint (default {DEFAULT_BITS}, or BOSONKIT_BITS)")
    p_ve.add_argument("--printed-sign", action="store_true",
                      help="run the sign variant of the closed exponential that does not hold")
    p_ve.add_argument("--printed-b5", action="store_true",
                      help="run the uncorrected r>s series (diverges)")
    common(p_ve)
    p_ve.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"bosonkit: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return int(exc.code or 0)
    try:
        record = ns.handler(ns)
    except _UsageError as exc:
        print(f"bosonkit: error: {exc}", file=sys.stderr)
        return 1
    except OutOfRangeError as exc:
        print(f"bosonkit: error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedError as exc:
        print(f"bosonkit: unsupported: {exc}", file=sys.stderr)
        return 2
    except BosonKitError as exc:
        print(f"bosonkit: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    text = record.render(ns.format)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"bosonkit: error: cannot write {ns.out}: {reason}", file=sys.stderr)
            return 1
    else:
        print(text)
    return 0 if all(c.ok for c in record.checks) else 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
