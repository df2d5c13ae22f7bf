"""The benchmark's trace spans name callables that exist in ``src/``.

``bench/tracing.py`` wraps each ``SPANS`` entry by module and attribute path
when a traced run starts; a public name removed from the library would break
that run.  The file is loaded by path, and ``install()`` is not called.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import bosonkit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_callable():
    spans = load_tracing().SPANS
    assert spans
    for name, (module_name, path) in spans.items():
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(target, attr), f"{name}: {module_name} has no {path}"
            target = getattr(target, attr)
        assert callable(target), f"{name}: {module_name}.{path} is not callable"


def test_importing_the_cli_loads_every_span_module():
    # install() finds each span's module in sys.modules after the pass has
    # imported bosonkit and bosonkit.cli; a module the package loads lazily
    # would be missing there, and every traced pass would fail.
    modules = sorted({module_name for module_name, _ in load_tracing().SPANS.values()})
    src = str(Path(bosonkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, bosonkit, bosonkit.cli\nprint([m for m in {modules!r} if m not in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
