"""In-memory span tracer for the benchmark's traced run.

A span is one call into a layer's public entry point: its name, start,
end and the span that caused it (the innermost span open when it
started).  Every span is folded into a per-name aggregate as it closes
(calls, total time, time covered by child spans), so a layer's *self
time* is its spans' total minus the part of that interval its child
spans cover.  Spans whose names are in ``logged`` are also kept verbatim
(name, parent, start, end) and written out with the aggregates when the
run ends; the millions of fine-grained routing/traffic calls are only
aggregated, which keeps the trace small and its overhead bounded.

The tracer wraps callables; it never edits the program's source.  The
wrappers are installed on instances or module attributes by
:mod:`perfbench.monitor`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Aggregate slots: [calls, total seconds, seconds covered by children].
CALLS, TOTAL, CHILD = 0, 1, 2


class Tracer:
    """Nested spans with online self-time accounting."""

    def __init__(
        self,
        logged: Sequence[str] = (),
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.clock = clock
        self.logged = frozenset(logged)
        #: name -> [calls, total_s, child_s]
        self.stats: Dict[str, List[float]] = {}
        #: Open spans, innermost last: [name, child seconds so far].
        self._stack: List[List[Any]] = []
        #: Verbatim (name, parent, start, end) of the logged spans.
        self.log: List[Tuple[str, Optional[str], float, float]] = []

    def _slot(self, name: str) -> List[float]:
        slot = self.stats.get(name)
        if slot is None:
            slot = self.stats[name] = [0, 0.0, 0.0]
        return slot

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with every call recorded as a span called *name*."""
        slot = self._slot(name)
        stack = self._stack
        clock = self.clock
        log = self.log if name in self.logged else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                slot[CALLS] += 1
                slot[TOTAL] += elapsed
                slot[CHILD] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if log is not None:
                    parent = stack[-1][0] if stack else None
                    log.append((name, parent, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Call *fn* once inside a span called *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- readout ---------------------------------------------------------

    def calls(self, name: str) -> int:
        slot = self.stats.get(name)
        return int(slot[CALLS]) if slot else 0

    def total(self, name: str) -> float:
        slot = self.stats.get(name)
        return slot[TOTAL] if slot else 0.0

    def self_time(self, name: str) -> float:
        """Total time of *name*'s spans minus their child spans' time."""
        slot = self.stats.get(name)
        return slot[TOTAL] - slot[CHILD] if slot else 0.0

    def self_time_prefix(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with *prefix*."""
        return sum(
            slot[TOTAL] - slot[CHILD]
            for name, slot in self.stats.items()
            if name.startswith(prefix)
        )

    def self_time_all(self) -> float:
        return sum(slot[TOTAL] - slot[CHILD] for slot in self.stats.values())

    def dump(self) -> Dict[str, Any]:
        """JSON-ready aggregates and logged spans."""
        return {
            "spans": {
                name: {
                    "calls": int(slot[CALLS]),
                    "total_s": slot[TOTAL],
                    "self_s": slot[TOTAL] - slot[CHILD],
                }
                for name, slot in sorted(self.stats.items())
            },
            "log": [
                {"name": name, "parent": parent, "start": start, "end": end}
                for name, parent, start, end in self.log
            ],
        }
