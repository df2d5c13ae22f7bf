"""Spans around bosonkit's public functions, installed from outside ``src/``.

``install()`` wraps each function in ``SPANS`` and rebinds the wrapper under
every name that refers to the original in every ``bosonkit`` module, so
calls through ``from .stirling import bell`` in ``cli`` or ``measures`` are
traced as well as calls through the package.  Submodules are reached through
``sys.modules``: the attribute ``bosonkit.stirling`` is the function
``stirling``, not the module.  Methods are wrapped on their class.

Spans stay in memory as (id, parent id, name, start, end) and go out with
the pass result.  A span's self time is its duration minus the time covered
by the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute path) of the wrapped callable.
SPANS = {
    "operator_algebra.normal_order_word": ("bosonkit.operator_algebra", "normal_order_word"),
    "operator_algebra.multiply": ("bosonkit.operator_algebra", "multiply"),
    "operator_algebra.monomial_power_normal_form": ("bosonkit.operator_algebra", "monomial_power_normal_form"),
    "stirling.stirling_table": ("bosonkit.stirling", "stirling_table"),
    "stirling.stirling_rr_closed": ("bosonkit.stirling", "stirling_rr_closed"),
    "stirling.lah": ("bosonkit.stirling", "lah"),
    "stirling.bell": ("bosonkit.stirling", "bell"),
    "numeric.sum_with_tail_bound": ("bosonkit.numeric", "sum_with_tail_bound"),
    "numeric.quotient_by_e": ("bosonkit.numeric", "quotient_by_e"),
    "numeric.to_integer": ("bosonkit.numeric", "ErrorBoundedReal.to_integer"),
    "dobinski.dobinski_classic": ("bosonkit.dobinski", "dobinski_classic"),
    "dobinski.dobinski_rr": ("bosonkit.dobinski", "dobinski_rr"),
    "dobinski.dobinski_rs": ("bosonkit.dobinski", "dobinski_rs"),
    "dobinski.bell_hypergeometric": ("bosonkit.dobinski", "bell_hypergeometric"),
    "genfunc.egf_classic": ("bosonkit.genfunc", "egf_classic"),
    "genfunc.egf_r1": ("bosonkit.genfunc", "egf_r1"),
    "genfunc.verify_normal_exponential": ("bosonkit.genfunc", "verify_normal_exponential"),
    "genfunc.select_normalization_order": ("bosonkit.genfunc", "select_normalization_order"),
    "measures.moment": ("bosonkit.measures", "moment"),
    "measures.continuous_moment_series": ("bosonkit.measures", "continuous_moment_series"),
    "cli.main": ("bosonkit.cli", "main"),
}

# sum_with_tail_bound returns (partial sum, tail bound, terms summed).
TERMS_SPAN = "numeric.sum_with_tail_bound"


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts = {f"{TERMS_SPAN}.terms": 0}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1

    def wrap(self, name: str, fn):
        index = self.names.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, parent, index, start, end))
            if name == TERMS_SPAN:
                self.counts[f"{TERMS_SPAN}.terms"] += result[2]
            return result

        return traced

    def report(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "spans": self.spans,
        }


def _bosonkit_modules():
    return [m for key, m in list(sys.modules.items()) if key == "bosonkit" or key.startswith("bosonkit.")]


def install() -> Tracer:
    """Wrap every span in SPANS; call once, after ``import bosonkit``."""
    tracer = Tracer()
    modules = _bosonkit_modules()
    for name, (module_name, path) in SPANS.items():
        module = sys.modules[module_name]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(module, path)
        traced = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
    return tracer
