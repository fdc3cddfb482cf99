"""Watch the program's engines from outside: checks, counts, spans.

:class:`Monitor` is installed around one workload pass.  It replaces a
handful of module attributes with thin subclasses or pass-through
functions and restores them on exit:

* ``repro.experiments.runner.Engine`` / ``BatchEngine`` — every engine
  the runner builds is adopted: after its point finishes its flits are
  checked for conservation (each lane, for a batch) and its simulated
  cycles and flit moves are counted;
* ``run_point`` / ``run_batch`` as the sweep executor
  (``repro.experiments.parallel``) and the equivalence suite
  (``repro.analysis.equivalence``) call them — the end of a point, and
  the results it produced.

Always-on work is O(1) per point and per ``run_cycles`` call, so the
timed runs use it too.  With a
:class:`~perfbench.tracing.Tracer`, the monitor also wraps each layer's
public entry points in spans: engine construction and ``run_cycles``,
the routing algorithm and ``RouteTable`` methods, traffic sampling,
``Topology.distance``, ``ConvergenceChecker.converged`` and the
runner's summary fold.  Nothing under ``src/`` is edited.

For the set-up probe, ``stop_at_first_cycle`` makes the first
``run_cycles`` call raise :class:`FirstCycle`.  A timed run passes
``pause``: a callable run before every untraced ``run_cycles`` call
(the harness uses it to spread its set-up probes over the pass), whose
time is counted as the monitor's own and left out of the pass's clock.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer

#: Algorithm methods timed as the routing layer.
ROUTING_METHODS = (
    "candidates_cached", "state_key", "advance", "new_state",
    "message_class",
)


class FirstCycle(Exception):
    """Raised by the set-up probe when the first cycle is about to run."""


class Monitor:
    """Adopts engines, checks conservation, counts work; optionally traces."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        stop_at_first_cycle: bool = False,
        pause: Optional[Callable[[], None]] = None,
    ) -> None:
        self.tracer = tracer
        self.stop_at_first_cycle = stop_at_first_cycle
        self.pause = pause
        self._saved: List[Tuple[Any, str, Any]] = []
        self._pending: List[Tuple[str, Any, List[int]]] = []
        #: Finished results, in completion order.
        self.results: List[Any] = []
        #: Engines / lanes whose conservation check failed.
        self.conservation_failures = 0
        #: Lane seeds of every finished batch engine, in completion order.
        self.batch_seeds: List[List[int]] = []
        self._harness_s = 0.0
        #: Per engine kind ("engine", "batch.strict", "batch.relaxed"):
        #: cycles, steps, running-lane sum over steps, flit moves.
        self.work: Dict[str, Dict[str, int]] = {}

    @property
    def harness_s(self) -> float:
        """Seconds the monitor's own checks took inside the pass.

        The workloads subtract it from their timed wall clock.  When
        tracing it is the ``harness.finish`` spans' time, which the
        per-layer self-time sum leaves out too.
        """
        if self.tracer is not None:
            return self.tracer.total("harness.finish")
        return self._harness_s

    # -- install / restore -------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Monitor":
        from repro.analysis import equivalence
        from repro.experiments import parallel, runner

        self._set(runner, "Engine",
                  self._engine_class(runner.Engine, batch=False))
        self._set(runner, "BatchEngine",
                  self._engine_class(runner.BatchEngine, batch=True))
        for module, name in ((parallel, "run_point"),
                             (parallel, "run_batch"),
                             (equivalence, "run_batch")):
            self._set(module, name,
                      self._point_runner(getattr(module, name), name))
        if self.tracer is not None:
            self._install_trace_modules()
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        self._pending.clear()

    # -- engines -----------------------------------------------------------

    def _engine_class(self, base: type, batch: bool) -> type:
        monitor = self

        class Watched(base):  # type: ignore[misc, valid-type]
            def __init__(self, config: Any, *args: Any, **kwargs: Any):
                kind = f"batch.{config.identity}" if batch else "engine"
                tracer = monitor.tracer
                if tracer is None:
                    super().__init__(config, *args, **kwargs)
                else:
                    tracer.call(
                        f"{kind}.construct", super().__init__, config,
                        *args, **kwargs,
                    )
                monitor._adopt(self, kind)

        Watched.__name__ = base.__name__
        Watched.__qualname__ = base.__qualname__
        return Watched

    def _adopt(self, engine: Any, kind: str) -> None:
        counts = [0, 0]  # steps, running lanes summed over steps
        self._pending.append((kind, engine, counts))
        if self.stop_at_first_cycle:
            def first_cycle(cycles: int) -> None:
                raise FirstCycle()

            engine.run_cycles = first_cycle
            return
        tracer = self.tracer
        if tracer is None:
            if self.pause is not None:
                engine.run_cycles = self._paused(engine.run_cycles)
            return
        step = engine.step

        def counted_step() -> None:
            counts[0] += 1
            step()

        engine.step = counted_step
        traced = tracer.wrap(f"{kind}.run_cycles", engine.run_cycles)
        if kind == "engine":
            engine.run_cycles = traced
        else:
            def counted_run_cycles(cycles: int) -> None:
                # Lanes stop between run_cycles calls (a deadlocked lane
                # stops inside one, and fails the pass), so the running
                # count is read once per call, outside the traced span.
                running = len(engine.running_lane_indices)
                before = counts[0]
                traced(cycles)
                counts[1] += running * (counts[0] - before)

            engine.run_cycles = counted_run_cycles
        _wrap_methods(tracer, engine.algorithm, "routing", ROUTING_METHODS)
        _wrap_methods(tracer, engine.traffic, "traffic",
                      ("sample_destination",))
        _wrap_methods(tracer, engine.topology, "topology", ("distance",))

    def _finish(self, results: List[Any]) -> None:
        """Check and count every engine adopted since the last point."""
        for kind, engine, counts in self._pending:
            work = self.work.setdefault(
                kind,
                {"cycles": 0, "steps": 0, "running": 0, "flit_moves": 0,
                 "engines": 0},
            )
            work["engines"] += 1
            work["steps"] += counts[0]
            work["running"] += counts[1]
            if kind == "engine":
                work["cycles"] += engine.cycle
                work["flit_moves"] += engine.flits_moved_total
                if not engine.conservation_check():
                    self.conservation_failures += 1
            else:
                self.batch_seeds.append([lane.seed for lane in engine.lanes])
                for index, lane in enumerate(engine.lanes):
                    work["cycles"] += lane.cycle
                    work["flit_moves"] += lane.flits_moved_total
                    if not engine.conservation_check(index):
                        self.conservation_failures += 1
        self._pending.clear()
        self.results.extend(results)

    def _paused(self, run_cycles: Callable[[int], None]
                ) -> Callable[[int], None]:
        pause = self.pause
        assert pause is not None

        def paused_run_cycles(cycles: int) -> None:
            started = perf_counter()
            pause()
            self._harness_s += perf_counter() - started
            run_cycles(cycles)

        return paused_run_cycles

    def _point_runner(self, fn: Callable[..., Any], name: str):
        monitor = self
        span = f"experiments.{name}"

        def run(config: Any, *args: Any, **kwargs: Any) -> Any:
            tracer = monitor.tracer
            if tracer is None:
                out = fn(config, *args, **kwargs)
            else:
                out = tracer.call(span, fn, config, *args, **kwargs)
            results = out if isinstance(out, list) else [out]
            if tracer is None:
                started = perf_counter()
                monitor._finish(results)
                monitor._harness_s += perf_counter() - started
            else:
                tracer.call("harness.finish", monitor._finish, results)
            return out

        return run

    # -- trace-only module wrappers -----------------------------------------

    def _install_trace_modules(self) -> None:
        from repro.experiments import runner
        from repro.simulator import batch

        tracer = self.tracer
        assert tracer is not None
        self._set(
            batch, "destinations_from_uniforms",
            tracer.wrap("traffic.destinations_from_uniforms",
                        batch.destinations_from_uniforms),
        )
        for name in ("GapBuffer", "UniformBuffer"):
            self._set(batch, name, _traced_subclass(
                getattr(batch, name), tracer, {"take": "traffic.buffer_take"}
            ))
        self._set(batch, "RouteTable", _traced_subclass(
            batch.RouteTable, tracer,
            {"row_for": "routing.table.row_for",
             "successor": "routing.table.successor"},
        ))
        self._set(runner, "ConvergenceChecker", _traced_subclass(
            runner.ConvergenceChecker, tracer,
            {"converged": "stats.converged"},
        ))
        self._set(
            runner, "summarize_components",
            tracer.wrap("stats.summarize", runner.summarize_components),
        )


def _wrap_methods(tracer: Tracer, obj: Any, layer: str,
                  names: Tuple[str, ...]) -> None:
    """Shadow *obj*'s methods with traced instance attributes (once)."""
    for name in names:
        if name in vars(obj):
            continue  # shared instance, already wrapped
        setattr(obj, name, tracer.wrap(f"{layer}.{name}",
                                       getattr(obj, name)))


def _traced_subclass(base: type, tracer: Tracer,
                     spans: Dict[str, str]) -> type:
    """A subclass of *base* whose instances trace the named methods."""

    class Traced(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            for method, span in spans.items():
                setattr(self, method,
                        tracer.wrap(span, getattr(self, method)))

    Traced.__name__ = base.__name__
    Traced.__qualname__ = base.__qualname__
    return Traced
