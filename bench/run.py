"""Fixed-work benchmark of bosonkit.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

A pass is one fresh interpreter (``pass_main.py``) with ``src`` on its path
that imports bosonkit and runs the workload's fixed operation list once,
timing each operation.  A run is a fixed number of passes, started one after
another from this single process: ``--seconds`` divided by the workload's
nominal pass time on the reference machine.  The count does not depend on how
fast the program is, so two versions are timed on the same number of samples.
A fresh interpreter per pass keeps bosonkit's unbounded power cache from
turning repeats into cache hits, so every pass does the same work.
References are computed here, once per run and outside every pass.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every pass runs with spans around
bosonkit's public functions and the metrics are the per-layer ones, and the
spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import FAILED, OK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Each operation is reported by its fastest pass.  The machine's speed
# switches between states for seconds at a time, and an operation timed in
# several passes meets the fast state at least once in most runs.
MIN_PASSES = 5
# Nominal wall time of one pass on the reference machine (2 cores of a shared
# Xeon host), set-up probes included; it fixes the pass count of a run.
PASS_SECONDS = {"sweep": 5.0, "series": 1.75}
# Import-only set-up probes per run, spread evenly over its passes; set-up
# time is their minimum, for the same reason as the operation times.
SETUP_PROBES = 30
# No pass starts that could end later than this into the run, so a run ends
# within three minutes even on a machine several times slower.
RUN_LIMIT_S = 140
PASS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def _interpreter(args: list[str], stdin: str = "") -> dict:
    """Run pass_main.py in a fresh interpreter; add its set-up and wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # Hash randomization changes dict probing in the rewriting engine from one
    # interpreter to the next; a fixed seed makes every pass do the same work.
    env["PYTHONHASHSEED"] = "0"
    # Import from bytecode, as an installed bosonkit does, whatever the
    # caller's environment says; the untimed first interpreter writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "pass_main.py"), *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=PASS_TIMEOUT_S,
    )
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise BenchError(f"pass interpreter exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["imported_at"] - started
    result["wall_s"] = wall
    return result


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def run_passes(ops: list, trace: bool, count: int, setups: list[float] | None = None) -> list[dict]:
    """``count`` passes of ``ops``; with ``setups``, SETUP_PROBES set-up probes between them."""
    request = json.dumps({"ops": [op.spec for op in ops], "trace": trace})
    passes: list[dict] = []
    started = time.monotonic()
    for i in range(count):
        if setups is not None:
            probes = SETUP_PROBES * (i + 1) // count - SETUP_PROBES * i // count
            setups.extend(_interpreter(["--setup"])["setup_s"] for _ in range(probes))
        passes.append(_interpreter([], request))
        next_end = time.monotonic() - started + max(p["wall_s"] for p in passes)
        if i + 1 < count and next_end > RUN_LIMIT_S:
            print(f"bench: run cut after {i + 1} of {count} passes at {RUN_LIMIT_S} s", file=sys.stderr)
            break
    return passes


def judge(ops: list, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, what is wrong) over every operation of every pass."""
    attempted = failed = 0
    wrong = []
    for p in passes:
        for op, output in zip(ops, p["outputs"], strict=True):
            outcome = op.check(output)
            attempted += 1
            if outcome == FAILED:
                failed += 1
            elif outcome != OK:
                wrong.append(f"{op.name}: {outcome}")
    return attempted, failed, wrong


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_times(passes: list[dict]) -> list[float]:
    """Each operation's fastest time over the passes of the run."""
    return [min(column) for column in zip(*(p["times"] for p in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    best = op_times(passes)
    return {
        "setup_s": _metric(min(setups), "s"),
        "solve_s": _metric(sum(best), "s"),
        "op_geomean_ms": _metric(1000 * math.exp(statistics.fmean(map(math.log, best))), "ms"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(passes: list[dict]) -> dict:
    """Median over passes of each span's calls and self time, and module totals."""
    traces = [p["trace"] for p in passes]
    metrics = {}
    modules: dict[str, list[str]] = {}
    for name in tracing.SPANS:
        modules.setdefault(name.split(".")[0], []).append(name)
        metrics[f"{name}.calls"] = _metric(statistics.median(t["calls"][name] for t in traces), "count")
        metrics[f"{name}.self_s"] = _metric(statistics.median(t["self_s"][name] for t in traces), "s")
    for key in traces[0]["counts"]:
        metrics[key] = _metric(statistics.median(t["counts"][key] for t in traces), "count")
    for module, names in modules.items():
        busy = [sum(t["self_s"][n] for n in names) for t in traces]
        metrics[f"{module}.self_s"] = _metric(statistics.median(busy), "s")
    return metrics


def write_trace(workload: str, seed: int, passes: list[dict]) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "solve_s": sum(op_times(passes)),
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "passes": [p["trace"] for p in passes],
    }
    path.write_text(json.dumps(record))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.WORKLOADS[workload](seed)
    _interpreter(["--setup"])  # untimed: writes the bytecode caches
    setups: list[float] = []
    passes = run_passes(ops, trace, pass_count(workload, seconds), setups=setups)
    attempted, failed, wrong = judge(ops, passes)
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    if trace:
        path = write_trace(workload, seed, passes)
        print(f"traced solve_s {sum(op_times(passes)):.4f} s; spans in {path.relative_to(ROOT)}", file=sys.stderr)
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setups)
    print(f"{workload}: {len(passes)} passes of {len(ops)} ops", file=sys.stderr)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> bool:
    """One pass of each workload, checked; prints a line per workload."""
    all_correct = True
    for name, build in workloads.WORKLOADS.items():
        ops = build(1)
        passes = run_passes(ops, trace=False, count=1)
        attempted, failed, wrong = judge(ops, passes)
        all_correct &= not wrong
        print(
            f"{name}: {'correct' if not wrong else 'WRONG'}, {attempted} ops, {failed} failed, "
            f"solve {sum(passes[0]['times']):.2f} s"
        )
        for line in wrong[:10]:
            print(f"  wrong: {line}")
    return all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of each workload, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "bosonkit" / "__init__.py").is_file():
        print(f"bench: no bosonkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
