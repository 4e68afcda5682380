"""Spans around calls into minorbit's public functions, for the traced run.

The tracer wraps each function listed in TRACED and rebinds every name in
the loaded minorbit modules that refers to it, so calls the modules make
to each other are recorded too, nested under the caller's span.  The
program itself is unchanged; the untraced run installs nothing.  Spans
are kept in memory as tuples (name, start_ns, end_ns, parent, request)
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# module -> {function: metric}; one metric may group several functions.
TRACED = {
    "cli": {"main": "cli.main"},
    "root_system": {"build": "root_system.build"},
    "long_root_poset": {"levels": "long_root_poset.levels", "d_matrix": "long_root_poset.d_matrix"},
    "orbit_cohomology": {"minimal_orbit_cohomology": "orbit_cohomology.cohomology"},
    "int_linalg": {
        "smith": "int_linalg.smith",
        "cokernel": "int_linalg.cokernel",
        "kernel_rank": "int_linalg.kernel_rank",
        "is_prime": "int_linalg.is_prime",
    },
    "decomposition": {
        "decomp_minimal": "decomposition.decomp",
        "decomp_subregular": "decomposition.decomp",
        "simple_singularity": "decomposition.decomp",
    },
    "gln_springer": {
        "springer_image": "gln_springer.springer_image",
        "adjacent_in_dominance": "gln_springer.adjacent",
        "decomp_adjacent": "gln_springer.adjacent",
    },
    "weyl_oracle": {
        "verify_level_length": "weyl_oracle.verify_level_length",
        "verify_reflection_length": "weyl_oracle.verify_reflection_length",
    },
}
METRIC_OF = {f"{m}.{f}": metric for m, funcs in TRACED.items() for f, metric in funcs.items()}
TIMED_METRICS = sorted(set(METRIC_OF.values()) - {"cli.main"})
# smith's call count is reported as int_linalg.matrices
COUNTED_METRICS = [m for m in TIMED_METRICS if m != "int_linalg.smith"]


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        loaded = [mod for name, mod in sys.modules.items() if name == "minorbit" or name.startswith("minorbit.")]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"minorbit.{module_name}")
            for function_name in functions:
                original = getattr(module, function_name)
                wrapper = self._wrap(f"{module_name}.{function_name}", module_name, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def merge(self, spans: list, counters: dict, request_offset: int | None = None) -> None:
        """Add the spans and counters another process recorded.  Their
        request ids are shifted by request_offset, or all become the current
        request."""
        offset = len(self.spans)
        self.spans.extend(
            (
                name,
                start,
                end,
                None if parent is None else parent + offset,
                self.request if request_offset is None else request + request_offset,
            )
            for name, start, end, parent, request in spans
        )
        for key, value in counters.items():
            if key == "int_linalg.transform_bits_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append((name, start, end, self._stack[-1] if self._stack else None, self.request))

    def _wrap(self, name: str, module_name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            misses = _misses(fn)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[f"{module_name}.errors"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if misses is None or _misses(fn) != misses:
                _count(counters, name, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count(counters: Counter, name: str, result) -> None:
    """Work counters taken from a call's result (cache misses only)."""
    if name == "root_system.build":
        counters["root_system.roots"] += len(result.roots)
    elif name == "long_root_poset.d_matrix":
        counters["long_root_poset.entries"] += sum(len(row) for row in result)
        counters["long_root_poset.nonzero"] += sum(1 for row in result for x in row if x)
    elif name == "int_linalg.smith":
        counters["int_linalg.matrices"] += 1
        bits = max((abs(x).bit_length() for t in (result.left, result.right) for row in t for x in row), default=0)
        counters["int_linalg.transform_bits_max"] = max(counters["int_linalg.transform_bits_max"], bits)


def layer_metrics(spans: list[tuple], counters: Counter, passes: float) -> dict[str, float]:
    """Per-layer numbers per pass of the request list; `passes` is a
    fraction when a hard cap ended a round mid-pass.

    A metric's time sums its spans that are not nested inside another span
    of the same metric.  cli.format is the self time of cli.main: argument
    parsing, formatting and printing, without the layer calls it made.
    """
    time_ns: Counter = Counter()
    calls: Counter = Counter()
    child_ns: Counter = Counter()
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child_ns[parent] += end - start
        metric = METRIC_OF.get(name, name)
        up = parent
        while up is not None and METRIC_OF.get(spans[up][0], spans[up][0]) != metric:
            up = spans[up][3]
        if up is None:
            time_ns[metric] += end - start
            calls[metric] += 1
    format_ns = sum(end - start - child_ns[i] for i, (name, start, end, _, _) in enumerate(spans) if name == "cli.main")

    per_pass = 1 / max(passes, 1)
    out = {f"{m}_ms": time_ns[m] / 1e6 * per_pass for m in TIMED_METRICS}
    out.update({f"{m}_calls": calls[m] * per_pass for m in COUNTED_METRICS})
    out["cli.startup_ms"] = time_ns["cli.startup"] / 1e6 * per_pass
    out["cli.format_ms"] = format_ns / 1e6 * per_pass
    for name in ("cli.output_bytes", "root_system.roots", "long_root_poset.entries", "int_linalg.matrices"):
        out[name] = counters[name] * per_pass
    entries = counters["long_root_poset.entries"]
    out["long_root_poset.nonzero_ratio"] = counters["long_root_poset.nonzero"] / entries if entries else 0.0
    out["int_linalg.transform_bits_max"] = counters["int_linalg.transform_bits_max"]
    for module in TRACED:
        out[f"{module}.errors"] = counters[f"{module}.errors"]
    return out
