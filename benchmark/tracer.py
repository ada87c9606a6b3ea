"""Per-function spans around the program's public functions.

``Tracer.install`` wraps every public function (no leading underscore,
defined in the module itself) of the modules named in ``MODULES`` and
rebinds each wrapper wherever the original is bound in a loaded
``gcodeguard`` module, so ``from .gcode import parse_document`` call sites
are traced too. Each span records its call count, wall time, the time its
traced children covered (self time is the difference) and the rise of the
process's high-water RSS (``ru_maxrss``) across each call.

Functions that run once per line or once per number are left unwrapped:
their cost would be dominated by the wrapper, and it is already inside the
span of the per-file function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from dataclasses import asdict, dataclass

MODULES = ("synthgen", "mutate", "gcode", "features", "detectors", "evaluate", "cli")
PER_LINE = frozenset({
    "gcode.parse_line",
    "gcode.count_decimals",
    "gcode.render_command",
    "gcode.make_command",
    "mutate.format_minimal",
})


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    rss_rise_kb: int = 0
    lines: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._open: list[list[float]] = []

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"gcodeguard.{short}")
            for name, obj in vars(module).items():
                key = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or key in PER_LINE
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gcodeguard" and not mod_name.startswith("gcodeguard."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_key = key
            if key == "detectors.run_detector":
                span_key = f"{key}.{args[0] if args else kwargs['name']}"
            rss_before = max_rss_kb()
            children = [0.0]
            tracer._open.append(children)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._open.pop()
                span = tracer.spans.setdefault(span_key, Span())
                span.calls += 1
                span.seconds += elapsed
                span.child_seconds += children[0]
                span.rss_rise_kb += max_rss_kb() - rss_before
                if tracer._open:
                    tracer._open[-1][0] += elapsed
            if key == "gcode.parse_document":
                span.lines += len(result)
            return result

        return traced

    def to_json_dict(self) -> dict:
        return {key: asdict(span) for key, span in sorted(self.spans.items())}
