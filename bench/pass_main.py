"""One benchmark pass: a fresh interpreter that imports bosonkit and runs a
fixed list of operations in order, timing each one.

    python3 bench/pass_main.py            # ops as JSON on stdin, result on stdout
    python3 bench/pass_main.py --setup    # import only; print when it finished

``src`` must be on PYTHONPATH.  The first thing the pass does is import
bosonkit and its command line, as every ``bosonkit`` command does, and read
the monotonic clock, which the parent compares with the
moment it started the interpreter to get the set-up time.  Each op is timed
as a whole; reading the request and writing the result are not, and what the
op does around its call into bosonkit costs microseconds.
"""

import sys
import time

import bosonkit
import bosonkit.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

_LETTERS = {"c": bosonkit.CREATE, "a": bosonkit.ANNIHILATE}


def _mpf_exact(x) -> list[int]:
    man, exp = x.man_exp
    return [int(man), int(exp)]


def _cli(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bosonkit.cli.main(op["argv"])
    return {"rc": rc, "stdout": buf.getvalue()}


def _words(op):
    forms = [bosonkit.normal_order_word([_LETTERS[x] for x in w]) for w in op["words"]]
    return {"forms": [[[i, j, c] for (i, j), c in nf.items()] for nf in forms]}


def _normal_exponential(op):
    return {"ok": bosonkit.verify_normal_exponential(op["r"], op["order"]).ok}


def _series(op):
    fn = getattr(bosonkit, op["fn"])
    args = list(op["args"])
    if "measure" in op:
        name, *params = op["measure"]
        args.insert(0, getattr(bosonkit, name)(*params))
    value = fn(*args)
    try:
        integer, error = value.to_integer(), None
    except bosonkit.BosonKitError as exc:
        integer, error = None, type(exc).__name__
    return {
        "value": _mpf_exact(value.value),
        "abs_error": _mpf_exact(value.abs_error),
        "integer": integer,
        "error": error,
    }


def _peak_rss_kb() -> int:
    # VmHWM is this interpreter's own high-water mark.  ru_maxrss is not: it
    # keeps the parent's resident size from before the exec, so it grows
    # with the results the parent holds.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_KINDS = {"cli": _cli, "words": _words, "normal_exponential": _normal_exponential, "series": _series}


def run(ops, tracer=None) -> dict:
    times, outputs = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            output = _KINDS[op["kind"]](op)
        except Exception as exc:  # recorded per op; the parent counts it as failed
            output = {"exception": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - start)
        outputs.append(output)
    result = {
        "imported_at": IMPORTED_AT,
        "times": times,
        "outputs": outputs,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main() -> None:
    if sys.argv[1:] == ["--setup"]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.install()
    print(json.dumps(run(request["ops"], tracer)))


if __name__ == "__main__":
    main()
