"""Tests of the benchmark harness itself.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import math
import os
import re
import time
from types import SimpleNamespace

import pytest

from perfbench import harness, oracle, workloads
from perfbench.monitor import Monitor
from perfbench.tracing import Tracer
from perfbench.workloads import PassOutcome

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_only_covered_child_spans():
    clock = FakeClock()
    tracer = Tracer(logged=("outer",), clock=clock)

    def leaf(duration):
        clock.now += duration

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf, 2.0)
        clock.now += 0.5

    def outer():
        clock.now += 1.0
        tracer.call("middle", middle)
        tracer.call("leaf", leaf, 3.0)
        clock.now += 4.0

    tracer.call("outer", outer)
    assert tracer.total("outer") == pytest.approx(11.5)
    assert tracer.self_time("outer") == pytest.approx(5.0)
    assert tracer.self_time("middle") == pytest.approx(1.5)
    assert tracer.self_time("leaf") == pytest.approx(5.0)
    assert tracer.calls("leaf") == 2
    # Self times partition the root span: nothing counted twice.
    assert tracer.self_time_all() == pytest.approx(tracer.total("outer"))
    assert tracer.dump()["log"] == [
        {"name": "outer", "parent": None, "start": 0.0, "end": 11.5}
    ]


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    def outer():
        clock.now += 1.0
        with pytest.raises(KeyError):
            tracer.call("boom", boom)

    tracer.call("outer", outer)
    assert tracer.self_time("outer") == pytest.approx(1.0)
    assert tracer.self_time("boom") == pytest.approx(2.0)


# -- oracle_dev_pct pooling --------------------------------------------------


def test_pooling_averages_seeds_before_comparing():
    # Per-seed deviations of +-50% cancel once pooled.
    assert oracle.pooled_deviation_pct([([1.0, 3.0], [2.0, 2.0])]) == 0.0


def test_pooling_reports_the_worst_group():
    groups = [([2.2], [2.0]), ([1.0, 1.0], [1.0, 1.0]), ([0.7], [1.0])]
    assert oracle.pooled_deviation_pct(groups) == pytest.approx(30.0)


def test_pooling_exact_match_is_zero_and_rejects_unpaired_sides():
    assert oracle.pooled_deviation_pct([([5.0, 7.0], [5.0, 7.0])]) == 0.0
    assert oracle.pooled_deviation_pct([([0.0], [0.0])]) == 0.0
    with pytest.raises(ValueError):
        oracle.pooled_deviation_pct([([1.0], [1.0, 2.0])])


def test_smoke_deviation_uses_only_the_oracle_metrics():
    @dataclasses.dataclass
    class Metric:
        name: str
        mean_strict: float
        mean_relaxed: float

    @dataclasses.dataclass
    class Report:
        metrics: list

    reports = [Report([Metric("average_wait", 10.0, 10.2),
                       Metric("messages_delivered", 100.0, 200.0)])]
    assert oracle.smoke_deviation_pct(reports) == pytest.approx(2.0)


# -- fail_share counting -------------------------------------------------------


def _outcome(attempted, failed):
    return PassOutcome(wall_s=1.0, attempted=attempted, failed=failed,
                       lane_cycles=1, sampled_flits=1, oracle_dev_pct=0.0)


def test_fail_share_pools_operations_across_passes():
    assert harness.fail_share([_outcome(30, 0), _outcome(10, 2)]) == 0.05
    assert harness.fail_share([_outcome(37, 0)]) == 0.0


class FakeLane:
    cycle = 100
    flits_moved_total = 7

    def __init__(self, seed):
        self.seed = seed


class FakeBatch:
    """Four lanes; each run_cycles call steps once per cycle."""

    def __init__(self, bad_lanes=()):
        self.lanes = [FakeLane(seed) for seed in (5, 6, 7, 8)]
        self.bad = set(bad_lanes)
        self.running = [0, 1, 2, 3]
        self.algorithm = SimpleNamespace(**{
            name: lambda: None for name in
            ("candidates_cached", "state_key", "advance", "new_state",
             "message_class")})
        self.traffic = SimpleNamespace(sample_destination=lambda: None)
        self.topology = SimpleNamespace(distance=lambda: None)

    @property
    def running_lane_indices(self):
        return list(self.running)

    def run_cycles(self, cycles):
        for _ in range(cycles):
            self.step()

    def step(self):
        pass

    def conservation_check(self, index):
        return index not in self.bad


def test_monitor_counts_each_lane_failing_conservation():
    monitor = Monitor()
    monitor._pending.append(("batch.relaxed", FakeBatch({1, 3}), [0, 0]))
    monitor._finish(["r"] * 4)
    assert monitor.conservation_failures == 2
    assert monitor.work["batch.relaxed"]["cycles"] == 400
    assert monitor.work["batch.relaxed"]["flit_moves"] == 28
    assert monitor.batch_seeds == [[5, 6, 7, 8]]
    assert monitor.results == ["r"] * 4


def test_traced_batch_counts_running_lanes_per_run_cycles_call():
    monitor = Monitor(tracer=Tracer())
    engine = FakeBatch()
    monitor._adopt(engine, "batch.relaxed")
    engine.run_cycles(3)
    engine.running = [0, 2]  # two lanes stopped between calls
    engine.run_cycles(5)
    monitor._finish([])
    work = monitor.work["batch.relaxed"]
    assert (work["steps"], work["running"]) == (8, 3 * 4 + 5 * 2)
    assert monitor.tracer.calls("batch.relaxed.run_cycles") == 2


def test_pause_runs_before_each_cycle_run_and_is_left_out_of_the_pass():
    paused = []

    def pause():
        paused.append(1)
        time.sleep(0.01)

    monitor = Monitor(pause=pause)
    engine = FakeBatch()
    monitor._adopt(engine, "batch.relaxed")
    engine.run_cycles(2)
    engine.run_cycles(2)
    assert len(paused) == 2
    assert monitor.harness_s >= 0.02


def test_aborted_pass_fails_every_unfinished_operation():
    monitor = Monitor()
    outcome = workloads._aborted(0.0, monitor, 12, RuntimeError("x"))
    assert (outcome.attempted, outcome.failed) == (12, 12)
    assert math.isnan(outcome.oracle_dev_pct)


def test_monitor_restores_module_attributes():
    from repro.analysis import equivalence
    from repro.experiments import parallel, runner
    from repro.simulator import batch

    before = (runner.Engine, runner.BatchEngine, parallel.run_point,
              parallel.run_batch, equivalence.run_batch, batch.RouteTable,
              runner.ConvergenceChecker)
    with Monitor(tracer=Tracer()):
        assert runner.Engine is not before[0]
        assert batch.RouteTable is not before[5]
    after = (runner.Engine, runner.BatchEngine, parallel.run_point,
             parallel.run_batch, equivalence.run_batch, batch.RouteTable,
             runner.ConvergenceChecker)
    assert after == before


# -- metric names --------------------------------------------------------------


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_names_units_and_bounds_are_valid():
    with open(harness.BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in entries]
    assert len(names) == len(set(names))
    for m in entries:
        assert NAME_RE.match(m["name"]), m
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_metrics_report_exactly_the_per_layer_names():
    outcome = _outcome(1, 0)
    values = harness.layer_metrics(Tracer(), Monitor(), outcome, outcome)
    assert list(values) == list(harness.units("per_layer"))


# -- the recorded reference still matches a fresh strict run ------------------


def test_fresh_strict_batch_matches_the_recorded_reference():
    from repro.experiments.runner import run_batch

    reference = oracle.load_reference(oracle.RELAXED_REFERENCE)
    algorithm, load = workloads.RELAXED_POINTS[0]
    config = dataclasses.replace(
        workloads.relaxed_config(identity="strict"),
        algorithm=algorithm, offered_load=load,
    )
    seeds = [1, 2]
    results = run_batch(config, seeds)
    label = workloads.point_label(algorithm, load)
    for seed, result in zip(seeds, results):
        assert [getattr(result, name) for name in oracle.ORACLE_METRICS] \
            == reference[label][str(seed)]


def test_fresh_object_point_matches_the_recorded_figure():
    from repro.experiments.runner import run_point

    reference = oracle.load_reference(oracle.FIG3_REFERENCE)
    config = workloads.fig3_spec(0).expand()[0]
    label = workloads.point_label(config.algorithm, config.offered_load)
    expected = reference["seeds"][str(workloads.fig3_seed(0))][label]
    assert oracle.fig3_record(run_point(config)) == expected


def test_seed_windows_reproduce_the_default_seeds():
    assert workloads.fig3_seed(0) == 101
    assert workloads.relaxed_seeds(0) == list(range(1, 33))
    assert workloads.smoke_seeds(0) == list(range(101, 109))
    assert workloads.fig3_seed(workloads.SEED_WINDOWS + 3) == 104
