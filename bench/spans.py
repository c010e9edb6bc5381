"""In-memory span recorder for the traced benchmark run.

A span is one call into a levdyn module's public function, recorded by
the benchmark around that call: name (``module.function``), start and
end on the system-wide monotonic clock, the index of the enclosing span
(``None`` at the top), the run it belongs to and a dict of work counts
(map steps, rows, ticks, ...) attached at the boundary.  Spans stay in
memory and are written out once, when the traced process ends.

The spans never reach inside pool workers: a worker process keeps its
own copy of the recorder, and what it records there is discarded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: span-name prefix -> layer it is charged to ("cli" is argument handling)
LAYER_OF = {"cli": "config"}

#: the modules of src/levdyn that the benchmark reports on, as layers
LAYERS = ("config", "sweep", "orbits", "lyap", "maps", "attractor", "micro", "output")

#: benchmark modules whose imported levdyn names are traced as well
BENCH_MODULES = ("micro_conv",)

#: count hook: (counts dict, bound arguments, result) -> None
CountHook = Callable[[dict, dict, Any], None]


class Tracer:
    """Records spans; ``run`` tags the spans opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.run = "main"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        counts: dict = {}
        parent = self._stack[-1] if self._stack else None
        record = [name, time.monotonic(), None, parent, self.run, counts]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield counts
        finally:
            record[2] = time.monotonic()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        """``fn`` with a span around every call; ``count`` sees its arguments
        and result after the span has closed, so it is not timed."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counts, bound.arguments, result)
            return result

        return traced

    def install(self, targets: dict[tuple[str, str], CountHook | None]) -> None:
        """Trace each ``(module, function)`` wherever a levdyn or benchmark
        module holds it by name, so calls made through ``from x import f``
        are recorded too."""
        holders = [
            module for name, module in sys.modules.items()
            if name.startswith("levdyn") or name in BENCH_MODULES
        ]
        for (module_name, fn_name), count in targets.items():
            original = getattr(sys.modules[module_name], fn_name)
            traced = self.wrap(f"{module_name.rsplit('.', 1)[-1]}.{fn_name}", original, count)
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return LAYER_OF.get(prefix, prefix)


def self_times(spans: list[list[Any]], run: str) -> dict[str, float]:
    """Seconds of self time per span-name prefix within one run.

    A span's self time is its duration minus the part of it that its
    direct children cover.  Spans are recorded on one thread, so children
    never overlap one another; the union is still merged for safety.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, span_run, _ in spans:
        if parent is not None and span_run == run:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _, span_run, _) in enumerate(spans):
        if span_run != run:
            continue
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start = max(c_start, cursor)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        key = name.split(".", 1)[0]
        totals[key] = totals.get(key, 0.0) + (end - start) - covered
    return totals
