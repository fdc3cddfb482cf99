"""One benchmark run: set-up probes, timed passes, checks, metrics.

A timed run (``--trace 0``) repeats whole passes of its workload until
``--seconds`` have elapsed (a pass is never cut short, so at least one
runs) and reports the median pass; its set-up probes are spread over
the run.  A traced run (``--trace 1``) runs
one untraced pass and then one traced pass, so the difference between
the two is the tracing overhead, and reports the per-layer metrics of
the traced pass.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.monitor import FirstCycle, Monitor
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, PassOutcome, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "_out")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Set-up probes of a timed run: one before the first pass, then one at
#: the first run_cycles call after each PROBE_EVERY_S seconds, and at
#: least MIN_SETUP_PROBES in all (setup_s is their median).
PROBE_EVERY_S = 5.0
MIN_SETUP_PROBES = 5
#: Spans kept verbatim in the written trace (the rest are aggregated).
LOGGED_SPANS = (
    "engine.construct", "batch.strict.construct", "batch.relaxed.construct",
    "experiments.run_point", "experiments.run_batch", "experiments.sweep",
    "campaigns.run_campaign", "campaigns.store.load",
    "equivalence.compare_point",
)


# -- host diagnostics (recorded next to every run, never a metric) -------


def calibration_s() -> float:
    """A fixed pure-Python loop's wall time: a host-speed reading."""
    started = perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return perf_counter() - started


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [int(x) for x in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: Optional[Tuple[int, int]],
                after: Optional[Tuple[int, int]]) -> Optional[float]:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# -- set-up --------------------------------------------------------------


def probe_first_cycle(workload: Workload, seed: int) -> float:
    """Run *workload* up to its first simulated cycle; return the clock."""
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with Monitor(stop_at_first_cycle=True) as monitor:
            workload.run_pass(seed, monitor, OUT_DIR)
    except FirstCycle:
        return perf_counter()
    raise RuntimeError(f"{workload.name}: no cycle was simulated")


def probe_setup(name: str, seed: int) -> float:
    """Process start to first simulated cycle, in a fresh process.

    ``perf_counter`` reads the system-wide monotonic clock, so the
    child's reading at its first cycle minus the parent's reading just
    before the spawn is the child's whole set-up: interpreter start,
    imports, spec expansion, store opening, first engine and route
    table.
    """
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", name, "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "first":
        raise RuntimeError(
            f"set-up probe failed ({proc.returncode}): "
            f"{proc.stderr.strip()[-400:]}"
        )
    return float(lines[1]) - started


class SetupProbes:
    """Set-up probes spread over a timed run.

    The host's speed drifts over seconds to minutes and a probe lasts
    half a second, so probes taken back to back all read one host
    state.  Spread over the run, their median averages the states the
    run met, as the pass's wall clock does.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.times: List[float] = []
        self._last = perf_counter()

    def take(self) -> None:
        self.times.append(probe_setup(self.name, self.seed))
        self._last = perf_counter()

    def take_if_due(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()


# -- runs ------------------------------------------------------------------


def run_pass(workload: Workload, seed: int,
             tracer: Optional[Tracer] = None,
             pause: Optional[Callable[[], None]] = None,
             ) -> Tuple[PassOutcome, Monitor]:
    os.makedirs(OUT_DIR, exist_ok=True)
    with Monitor(tracer=tracer, pause=pause) as monitor:
        outcome = workload.run_pass(seed, monitor, OUT_DIR)
    return outcome, monitor


def timed_run(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    probes = SetupProbes(name, seed)
    probes.take()
    outcomes: List[PassOutcome] = []
    started = perf_counter()
    while not outcomes or perf_counter() - started < seconds:
        outcome, _monitor = run_pass(workload, seed,
                                     pause=probes.take_if_due)
        outcomes.append(outcome)
    while len(probes.times) < MIN_SETUP_PROBES:
        probes.take()
    walls = [o.wall_s for o in outcomes]
    values = {
        "wall_s": statistics.median(walls),
        "sim_cycles_per_s": statistics.median(
            o.lane_cycles / o.wall_s for o in outcomes),
        "sampled_flits_per_s": statistics.median(
            o.sampled_flits / o.wall_s for o in outcomes),
        "setup_s": statistics.median(probes.times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "metrics": values,
        "units": units("end_to_end"),
        "outcomes": outcomes,
        "samples": {"passes": len(outcomes),
                    "setup_probes": len(probes.times)},
        "raw": {"pass_wall_s": walls, "setup_s": probes.times},
    }


def traced_run(name: str, seed: int) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    plain, _monitor = run_pass(workload, seed)
    tracer = Tracer(logged=LOGGED_SPANS)
    traced, monitor = run_pass(workload, seed, tracer)
    values = layer_metrics(tracer, monitor, traced, plain)
    return {
        "metrics": values,
        "units": units("per_layer"),
        "outcomes": [plain, traced],
        "samples": {"passes": 2},
        "trace": tracer.dump(),
    }


def units(section: str) -> Dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return {m["name"]: m["unit"] for m in json.load(stream)[section]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fail_share(outcomes: List[PassOutcome]) -> float:
    """Failed operations over operations attempted, across passes."""
    attempted = sum(o.attempted for o in outcomes)
    return _ratio(sum(o.failed for o in outcomes), attempted)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, monitor: Monitor, traced: PassOutcome,
                  plain: PassOutcome) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer is idle)."""
    t = tracer
    m: Dict[str, float] = {}
    m["fail_share"] = fail_share([plain, traced])
    m["oracle_dev_pct"] = traced.oracle_dev_pct

    def work(kind: str) -> Dict[str, int]:
        return monitor.work.get(kind, {"cycles": 0, "steps": 0, "running": 0,
                                       "flit_moves": 0})

    w = work("engine")
    self_s = t.self_time("engine.run_cycles")
    m["engine.construct_s"] = t.self_time("engine.construct")
    m["engine.self_s"] = self_s
    m["engine.cycles"] = w["cycles"]
    m["engine.steps"] = w["steps"]
    m["engine.fastforward_share"] = (
        1.0 - w["steps"] / w["cycles"] if w["cycles"] else 0.0
    )
    m["engine.flit_moves"] = w["flit_moves"]
    m["engine.us_per_flit"] = _ratio(self_s, w["flit_moves"], 1e6)

    for identity in ("strict", "relaxed"):
        kind = f"batch.{identity}"
        w = work(kind)
        self_s = t.self_time(f"{kind}.run_cycles")
        m[f"{kind}.construct_s"] = t.self_time(f"{kind}.construct")
        m[f"{kind}.self_s"] = self_s
        m[f"{kind}.steps"] = w["steps"]
        m[f"{kind}.lane_cycles"] = w["cycles"]
        m[f"{kind}.mean_running_lanes"] = _ratio(w["running"], w["steps"])
        m[f"{kind}.us_per_step"] = _ratio(self_s, w["steps"], 1e6)
        m[f"{kind}.us_per_lane_cycle"] = _ratio(self_s, w["cycles"], 1e6)
        m[f"{kind}.flit_moves"] = w["flit_moves"]
        m[f"{kind}.us_per_flit"] = _ratio(self_s, w["flit_moves"], 1e6)

    m["routing.candidates_cached.calls"] = t.calls(
        "routing.candidates_cached")
    m["routing.candidates_cached.s"] = t.self_time(
        "routing.candidates_cached")
    m["routing.state_key.calls"] = t.calls("routing.state_key")
    m["routing.memo_miss_share"] = _ratio(
        t.calls("routing.candidates_cached"), t.calls("routing.state_key"))
    for method in ("advance", "new_state", "message_class"):
        m[f"routing.{method}.s"] = t.self_time(f"routing.{method}")
    m["routing.table.row_for.calls"] = t.calls("routing.table.row_for")
    m["routing.table.row_for.s"] = t.self_time("routing.table.row_for")
    m["routing.table.successor.s"] = t.self_time("routing.table.successor")

    for span in ("sample_destination", "destinations_from_uniforms",
                 "buffer_take"):
        m[f"traffic.{span}.s"] = t.self_time(f"traffic.{span}")
    m["topology.distance.calls"] = t.calls("topology.distance")
    m["topology.distance.s"] = t.self_time("topology.distance")

    details = traced.details
    m["stats.converged.s"] = t.self_time("stats.converged")
    m["stats.summarize.s"] = t.self_time("stats.summarize")
    m["stats.converged_share"] = _ratio(details.get("converged", 0),
                                        details.get("points", 0))
    m["stats.samples_per_point"] = _ratio(details.get("samples", 0),
                                          details.get("points", 0))

    # Store sizes and warm-serve time come from the untraced pass: the
    # traced one pays the tracer's cost on every store lookup.
    m["campaigns.store.load_s"] = t.total("campaigns.store.load")
    m["campaigns.store.get_us"] = _ratio(
        t.total("campaigns.store.get"), t.calls("campaigns.store.get"), 1e6)
    m["campaigns.store.put_us"] = _ratio(
        t.total("campaigns.store.put"), t.calls("campaigns.store.put"), 1e6)
    m["campaigns.store_bytes"] = plain.details.get("store_bytes", 0)
    m["campaigns.warm_serve_s"] = plain.details.get("warm_serve_s", 0.0)
    m["campaigns.self_s"] = t.self_time_prefix("campaigns.")

    m["equivalence.compare_s"] = t.self_time("equivalence.compare_point")
    m["equivalence.points_passed"] = details.get("points_passed", 0)
    m["experiments.points"] = len(monitor.results)
    m["experiments.self_s"] = t.self_time_prefix("experiments.")

    m["trace.wall_s"] = traced.wall_s
    m["trace.untraced_wall_s"] = plain.wall_s
    m["trace.overhead_s"] = traced.wall_s - plain.wall_s
    m["trace.layers_self_s"] = (
        t.self_time_all() - t.self_time_prefix("harness.")
    )
    return m


# -- records ----------------------------------------------------------------


def write_record(record: Dict[str, Any], path: Optional[str]) -> None:
    """Append the run's full record (diagnostics included) to the log."""
    os.makedirs(OUT_DIR, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=_jsonable)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a",
              encoding="utf-8") as stream:
        stream.write(line + "\n")
    if path is not None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(line + "\n")


def _jsonable(value: Any) -> Any:
    if isinstance(value, PassOutcome):
        return vars(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")
