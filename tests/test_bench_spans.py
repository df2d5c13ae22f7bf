"""The benchmark's trace spans name callables that exist in ``src/``.

``bench/tracing.py`` wraps each ``SPANS`` entry by module and attribute path
when a traced run starts; a public name removed from the library would break
that run.  The file is loaded by path, and ``install()`` is not called.
"""

import importlib
import importlib.util
from pathlib import Path

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
