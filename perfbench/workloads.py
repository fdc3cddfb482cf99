"""The benchmark's three workloads, each one closed-loop serial pass.

A pass runs a workload's points one after another in this process
(``jobs=1``): each point starts when the previous one has finished.
The pass is timed end to end; the checks that follow it (shape checks,
oracle comparison, store round trip) run after the clock stops.

Why these three (see ``perfbench/README.md`` for the full layer map):

* ``fig3_quick`` — the artifact users run: paper Figure 3 on the object
  engine with ideal flow control, through the campaign store cold and
  then warm.  All of its time is in ``simulator.engine`` and the
  routing, traffic and topology calls; the batch layer is idle.
* ``seeds_relaxed`` — a 32-seed ensemble on relaxed batch at one low
  and one congested point, with ``min_samples < max_samples`` so lanes
  stop at different times: the SoA slabs at large B plus the
  small-effective-B tail that convergence-driven ``stop_lane`` leaves.
  The object engine is idle.
* ``equivalence_smoke`` — the CI preset of ``repro-equivalence
  --smoke``: strict and relaxed batch at B=8, where fixed per-cycle
  dispatch dominates; the only workload on the strict ``_BatchMessage``
  path.

Seeds: ``--seed n`` selects window ``n mod SEED_WINDOWS``; window ``w``
runs figure seed ``101 + w``, ensemble seeds ``1 + w .. 32 + w`` and
smoke seeds ``101 + w .. 108 + w``.  Window 0 (the default ``--seed 0``)
reproduces the figure's seed 101, seeds 1-32 and the smoke preset's
101-108.  The windows are finite because the strict-oracle reference
(``perfbench/reference``) is recorded for every seed they use.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from perfbench import oracle
from perfbench.monitor import Monitor

SEED_WINDOWS = 8

#: Figure 3 at the quick profile, five of the paper's ten loads.
FIG3_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG3_FIRST_SEED = 101

#: The ensemble's (algorithm, offered load) points: low load, congested.
RELAXED_POINTS = (("ecube", 0.2), ("nbc", 0.6))
RELAXED_SEEDS = 32
#: 8x8 torus, conservative flow control, a short convergence-driven
#: schedule: lanes converge after 2..5 samples, so the batch shrinks.
RELAXED_SCHEDULE: Dict[str, Any] = {
    "radix": 8,
    "warmup_cycles": 600,
    "sample_cycles": 500,
    "gap_cycles": 100,
    "min_samples": 2,
    "max_samples": 5,
}

#: ``repro-equivalence --smoke``: the suite grid at radix 6, 8 seeds,
#: 8-flit messages, two 600-cycle samples, rel-tol 0.15, z 3.
SMOKE_FIRST_SEED = 101
SMOKE_SEEDS = 8
SMOKE_CONFIG: Dict[str, Any] = {
    "radix": 6,
    "n_dims": 2,
    "flow_control": "conservative",
    "offered_load": 0.4,
    "message_length": 8,
    "warmup_cycles": 500,
    "sample_cycles": 600,
    "gap_cycles": 0,
    "min_samples": 2,
    "max_samples": 2,
    "backend": "batch",
}
SMOKE_REL_TOL = 0.15
SMOKE_Z = 3.0

#: A relaxed workload's oracle deviation above this is a failed check
#: (the smoke preset's practical tolerance, in percent).
RELAXED_DEV_LIMIT_PCT = 100.0 * SMOKE_REL_TOL


def window(seed: int) -> int:
    return seed % SEED_WINDOWS


def fig3_seed(seed: int) -> int:
    return FIG3_FIRST_SEED + window(seed)


def relaxed_seeds(seed: int) -> List[int]:
    first = 1 + window(seed)
    return list(range(first, first + RELAXED_SEEDS))


def smoke_seeds(seed: int) -> List[int]:
    first = SMOKE_FIRST_SEED + window(seed)
    return list(range(first, first + SMOKE_SEEDS))


def fig3_spec(seed: int) -> Any:
    from repro.experiments.paper_figures import figure_campaign_spec

    return figure_campaign_spec(
        "3", profile="quick", seed=fig3_seed(seed), offered_loads=FIG3_LOADS
    )


def relaxed_config(identity: str = "relaxed") -> Any:
    from repro.simulator.config import SimulationConfig

    return SimulationConfig(
        flow_control="conservative",
        backend="batch",
        identity=identity,
        **RELAXED_SCHEDULE,
    )


def smoke_configs() -> List[Any]:
    """The equivalence suite's grid, in ``run_suite`` order."""
    from repro.analysis.equivalence import SUITE_ALGORITHMS, SUITE_TOPOLOGIES
    from repro.simulator.config import SimulationConfig

    return [
        SimulationConfig(topology=topology, algorithm=algorithm,
                         **SMOKE_CONFIG)
        for topology in SUITE_TOPOLOGIES
        for algorithm in SUITE_ALGORITHMS
    ]


def point_label(algorithm: str, load: float) -> str:
    return f"{algorithm}@{load:g}"


@dataclass
class PassOutcome:
    """One timed pass: its wall clock, work done and check verdicts."""

    wall_s: float
    attempted: int
    failed: int
    #: Simulated lane-cycles (a point on the object engine is one lane).
    lane_cycles: int
    #: Flits carried during sampling windows (sum of vc_class_usage).
    sampled_flits: int
    oracle_dev_pct: float
    #: Extra readings (check listings, store sizes, warm-serve time).
    details: Dict[str, Any] = field(default_factory=dict)


def _call(tracer: Any) -> Callable[..., Any]:
    """``call(span, fn, *args)``: traced when a tracer is present."""
    if tracer is None:
        return lambda _span, fn, *args, **kwargs: fn(*args, **kwargs)
    return tracer.call


def _work(monitor: Monitor) -> Tuple[int, int]:
    cycles = sum(result.cycles_simulated for result in monitor.results)
    flits = sum(sum(result.vc_class_usage) for result in monitor.results)
    return cycles, flits


class Workload:
    name = ""

    def run_pass(self, seed: int, monitor: Monitor,
                 scratch: str) -> PassOutcome:
        """Run one pass under *monitor*; temporary files go in *scratch*."""
        raise NotImplementedError


class Fig3Quick(Workload):
    name = "fig3_quick"

    def run_pass(self, seed: int, monitor: Monitor,
                 scratch: str) -> PassOutcome:
        from repro.campaigns.orchestrator import run_campaign
        from repro.campaigns.store import ResultStore
        from repro.experiments.paper_figures import check_figure3
        from repro.util.errors import ReproError

        call = _call(monitor.tracer)
        points = len(FIG3_LOADS) * 6
        attempted = points + 6 + 1  # points, shape checks, warm serve
        tmp = tempfile.mkdtemp(prefix="store-", dir=scratch)
        path = os.path.join(tmp, "store.jsonl")
        try:
            started = perf_counter()
            spec = fig3_spec(seed)
            try:
                store = call("campaigns.store.load", ResultStore, path)
                _trace_store(store, monitor.tracer)
                cold = call("campaigns.run_campaign", run_campaign, spec,
                            store)
                warm_started = perf_counter()
                warm_store = call("campaigns.store.load", ResultStore, path)
                _trace_store(warm_store, monitor.tracer)
                warm = call("campaigns.run_campaign", run_campaign, spec,
                            warm_store)
            except ReproError as error:
                return _aborted(started, monitor, attempted, error)
            ended = perf_counter()
            store_bytes = os.path.getsize(path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        series: Dict[str, List[Any]] = {}
        for config, result in zip(cold.configs, cold.results):
            series.setdefault(config.algorithm, []).append(result)
        checks = check_figure3(series)
        warm_ok = (
            warm.simulated == 0
            and warm.cached == points
            and [r.to_json_dict() for r in warm.results]
            == [r.to_json_dict() for r in cold.results]
        )
        reference = oracle.load_reference(oracle.FIG3_REFERENCE)
        expected = reference["seeds"][str(fig3_seed(seed))]
        observed = {
            point_label(c.algorithm, c.offered_load): r
            for c, r in zip(cold.configs, cold.results)
        }
        mismatched, dev_pct = oracle.compare_fig3(observed, expected)
        # A shape check fails when its verdict departs from the one the
        # recorded oracle gives for this seed (a marginal claim fails on
        # the oracle itself for two seed windows; see perfbench/oracle.py).
        verdicts = reference["shape_checks"][str(fig3_seed(seed))]
        failed = (
            monitor.conservation_failures
            + (points - cold.simulated)
            + sum(1 for (_claim, passed), recorded in zip(checks, verdicts)
                  if passed != recorded)
            + (0 if warm_ok else 1)
            + mismatched
        )
        cycles, flits = _work(monitor)
        return PassOutcome(
            wall_s=ended - started - monitor.harness_s,
            attempted=attempted,
            failed=failed,
            lane_cycles=cycles,
            sampled_flits=flits,
            oracle_dev_pct=dev_pct,
            details={
                "shape_checks": [
                    f"[{'PASS' if ok else 'FAIL'}] {claim}"
                    for claim, ok in checks
                ],
                "recorded_shape_passes": sum(verdicts),
                "oracle_mismatched_points": mismatched,
                "store_bytes": store_bytes,
                "warm_serve_s": ended - warm_started,
                "warm_cache_hits": warm.cached,
                "converged": sum(r.converged for r in cold.results),
                "samples": sum(r.samples_used for r in cold.results),
                "points": len(cold.results),
            },
        )


class SeedsRelaxed(Workload):
    name = "seeds_relaxed"

    def run_pass(self, seed: int, monitor: Monitor,
                 scratch: str) -> PassOutcome:
        from repro.experiments.sweep import sweep_algorithms
        from repro.util.errors import ReproError

        call = _call(monitor.tracer)
        seeds = relaxed_seeds(seed)
        attempted = len(RELAXED_POINTS) * len(seeds)
        outputs: Dict[str, List[Any]] = {}
        started = perf_counter()
        try:
            base = relaxed_config()
            for algorithm, load in RELAXED_POINTS:
                series = call(
                    "experiments.sweep", sweep_algorithms, base,
                    [algorithm], [load], seeds=seeds, batch_size=len(seeds),
                )
                outputs[point_label(algorithm, load)] = series[algorithm]
        except ReproError as error:
            return _aborted(started, monitor, attempted, error)
        ended = perf_counter()

        # A lane is done when its point returned one result per seed and
        # its batch ran the ensemble seed at that lane's position.
        complete = len(monitor.batch_seeds) == len(outputs) and all(
            len(results) == len(seeds) for results in outputs.values()
        )
        done = sum(
            lane_seed == expected
            for lane_seeds in monitor.batch_seeds
            for lane_seed, expected in zip(lane_seeds, seeds)
        ) if complete else 0
        failed = monitor.conservation_failures + (attempted - done)
        dev_pct = float("nan")
        if complete:
            reference = oracle.load_reference(oracle.RELAXED_REFERENCE)
            dev_pct = oracle.relaxed_deviation_pct(outputs, reference, seeds)
            if dev_pct > RELAXED_DEV_LIMIT_PCT:
                failed += 1
        cycles, flits = _work(monitor)
        every = [r for results in outputs.values() for r in results]
        return PassOutcome(
            wall_s=ended - started - monitor.harness_s,
            attempted=attempted,
            failed=failed,
            lane_cycles=cycles,
            sampled_flits=flits,
            oracle_dev_pct=dev_pct,
            details={
                "converged": sum(r.converged for r in every),
                "samples": sum(r.samples_used for r in every),
                "points": len(every),
            },
        )


class EquivalenceSmoke(Workload):
    name = "equivalence_smoke"

    def run_pass(self, seed: int, monitor: Monitor,
                 scratch: str) -> PassOutcome:
        from repro.analysis.equivalence import compare_point
        from repro.util.errors import ReproError

        call = _call(monitor.tracer)
        seeds = smoke_seeds(seed)
        configs = smoke_configs()
        attempted = len(configs)
        reports = []
        started = perf_counter()
        try:
            for config in configs:
                reports.append(call(
                    "equivalence.compare_point", compare_point, config,
                    seeds, rel_tol=SMOKE_REL_TOL, z=SMOKE_Z,
                ))
        except ReproError as error:
            return _aborted(started, monitor, attempted, error)
        ended = perf_counter()

        passed = sum(1 for report in reports if report.passed)
        dev_pct = oracle.smoke_deviation_pct(reports)
        cycles, flits = _work(monitor)
        return PassOutcome(
            wall_s=ended - started - monitor.harness_s,
            attempted=attempted,
            failed=min(
                attempted, attempted - passed + monitor.conservation_failures
            ),
            lane_cycles=cycles,
            sampled_flits=flits,
            oracle_dev_pct=dev_pct,
            details={
                "points_passed": passed,
                "discrepant": [
                    f"{r.topology}/{r.algorithm}"
                    for r in reports if not r.passed
                ],
                "converged": sum(r.converged for r in monitor.results),
                "samples": sum(r.samples_used for r in monitor.results),
                "points": len(monitor.results),
            },
        )


def _trace_store(store: Any, tracer: Any) -> None:
    if tracer is None:
        return
    store.get = tracer.wrap("campaigns.store.get", store.get)
    store.put = tracer.wrap("campaigns.store.put", store.put)


def _aborted(started: float, monitor: Monitor, attempted: int,
             error: Exception) -> PassOutcome:
    """A pass cut short by a library error: everything left failed."""
    cycles, flits = _work(monitor)
    done = len(monitor.results)
    return PassOutcome(
        wall_s=perf_counter() - started - monitor.harness_s,
        attempted=attempted,
        failed=max(attempted - done, 1) + monitor.conservation_failures,
        lane_cycles=cycles,
        sampled_flits=flits,
        oracle_dev_pct=float("nan"),
        details={"error": f"{type(error).__name__}: {error}"},
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Fig3Quick(), SeedsRelaxed(), EquivalenceSmoke())
}
