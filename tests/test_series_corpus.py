"""Every output of the benchmark's ``series`` workload, pinned in tier-1.

The op list of ``bench/workloads.py`` is the same for every seed: 602
certified series calls up to B > 2^256.  Each op runs in process, and its
output becomes one line: the midpoint's and the radius's signed mantissa and
exponent, then ``to_integer()`` or the name of the error it raised.
``series_corpus.txt`` holds one tag per op, the first 16 hex digits of the
line's sha256, and ``DIGEST`` is the sha256 of that file.  A change in any
output bit changes the digest, and the test names the first op whose tag
moved.

    PYTHONPATH=src python tests/test_series_corpus.py          # every output line, to diff two trees
    PYTHONPATH=src python tests/test_series_corpus.py --tags   # the tag file, to re-pin on purpose
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import bosonkit

BENCH = Path(__file__).resolve().parents[1] / "bench"
CORPUS = Path(__file__).with_name("series_corpus.txt")
DIGEST = "1da59374e88d67b1419c9dd3f57b44bf1b3b8c11804f615a3a7772d782f01d60"


def series_ops():
    # workloads imports references from its own directory.
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its own module while it builds Op
    spec.loader.exec_module(module)
    return module.series(seed=0)


def output_lines():
    """(op name, output line) for every series op, in the workload's order."""
    for op in series_ops():
        args = list(op.spec["args"])
        if "measure" in op.spec:
            name, *params = op.spec["measure"]
            args.insert(0, getattr(bosonkit, name)(*params))
        value, radius = enclosure = getattr(bosonkit, op.spec["fn"])(*args)
        try:
            rounded = str(enclosure.to_integer())
        except bosonkit.BosonKitError as exc:
            rounded = type(exc).__name__
        yield op.name, f"{value.man} {value.exp} {radius.man} {radius.exp} {rounded}"


def tag_text() -> str:
    return "".join(
        f"{name} {hashlib.sha256(line.encode()).hexdigest()[:16]}\n" for name, line in output_lines()
    )


def test_series_outputs_match_the_corpus():
    text = tag_text()
    assert hashlib.sha256(CORPUS.read_bytes()).hexdigest() == DIGEST, "series_corpus.txt moved"
    if hashlib.sha256(text.encode()).hexdigest() != DIGEST:
        pinned = CORPUS.read_text().splitlines()
        got = text.splitlines()
        first = next((i for i, pair in enumerate(zip(got, pinned)) if pair[0] != pair[1]), None)
        where = "the op count" if first is None else f"op {first}, {got[first].rpartition(' ')[0]}"
        raise AssertionError(f"series outputs differ from the corpus, first at {where}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--tags"]:
        sys.stdout.write(tag_text())
    else:
        for name, line in output_lines():
            print(name, line)
