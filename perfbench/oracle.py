"""The strict oracle behind ``oracle_dev_pct``, and its recorded reference.

The object engine and strict batch are bit-identical per seed, so either
is the oracle.  ``oracle_dev_pct`` is the largest *pooled* relative
deviation, in percent, of mean latency, mean wait or achieved
utilization from the oracle on the same configs and seeds: for each
config the per-seed values are averaged (pooled) on both sides first,
then compared.

* ``fig3_quick`` runs the object engine itself, so it must match the
  recorded figure statistics exactly (0.0) — any difference is a
  simulator change, counted as a failed point.  The reference also
  records each seed's shape-check verdicts: at the quick profile the
  marginal claim "e-cube sustains at least 0.95x nlast's peak" fails
  for figure seeds 105 and 107 on the recorded oracle itself.
* ``seeds_relaxed`` compares against strict batch on its configs and
  seeds, recorded here because running strict alongside would double
  the workload.
* ``equivalence_smoke`` takes its oracle from the strict half that
  ``compare_point`` already runs.

Regenerate the recorded reference (every seed window; a few minutes on
one core) with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FIG3_REFERENCE = "fig3_quick.json"
RELAXED_REFERENCE = "seeds_relaxed_strict.json"

#: The pooled statistics ``oracle_dev_pct`` compares.
ORACLE_METRICS = ("average_latency", "average_wait", "achieved_utilization")
#: Statistics a figure point must reproduce exactly.
FIG3_FIELDS = ORACLE_METRICS + (
    "latency_error_bound", "delivered_throughput", "messages_generated",
    "messages_delivered", "messages_refused", "cycles_simulated",
    "samples_used", "converged", "vc_class_usage",
)

#: Guards the relative deviation against a zero oracle mean.
_FLOOR = 1e-12


def pooled_deviation_pct(
    groups: Iterable[Tuple[Sequence[float], Sequence[float]]],
) -> float:
    """Largest |mean(run) - mean(oracle)| / |mean(oracle)|, in percent.

    Each group is one (config, metric): the run's per-seed values and
    the oracle's per-seed values for the same seeds.
    """
    worst = 0.0
    for run, reference in groups:
        if len(run) != len(reference) or not run:
            raise ValueError("a pooled group needs equal, non-empty sides")
        mean_run = math.fsum(run) / len(run)
        mean_ref = math.fsum(reference) / len(reference)
        scale = max(abs(mean_ref), _FLOOR)
        worst = max(worst, 100.0 * abs(mean_run - mean_ref) / scale)
    return worst


def load_reference(name: str) -> Dict[str, Any]:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as f:
        return json.load(f)


def fig3_record(result: Any) -> Dict[str, Any]:
    """The recorded statistics of one figure point."""
    data = result.to_json_dict()
    return {name: data[name] for name in FIG3_FIELDS}


def compare_fig3(
    observed: Mapping[str, Any], expected: Mapping[str, Dict[str, Any]]
) -> Tuple[int, float]:
    """(points whose statistics differ, oracle_dev_pct) for one figure."""
    if set(observed) != set(expected):
        raise ValueError(
            f"figure points {sorted(observed)} do not match the "
            f"reference's {sorted(expected)}"
        )
    mismatched = 0
    groups: List[Tuple[Sequence[float], Sequence[float]]] = []
    for label, result in observed.items():
        record = fig3_record(result)
        if record != expected[label]:
            mismatched += 1
        for name in ORACLE_METRICS:
            groups.append(([record[name]], [expected[label][name]]))
    return mismatched, pooled_deviation_pct(groups)


def relaxed_deviation_pct(
    outputs: Mapping[str, Sequence[Any]],
    reference: Mapping[str, Dict[str, List[float]]],
    seeds: Sequence[int],
) -> float:
    """oracle_dev_pct of relaxed results against the strict reference."""
    groups: List[Tuple[Sequence[float], Sequence[float]]] = []
    for label, results in outputs.items():
        strict = [reference[label][str(seed)] for seed in seeds]
        for index, name in enumerate(ORACLE_METRICS):
            groups.append((
                [getattr(result, name) for result in results],
                [values[index] for values in strict],
            ))
    return pooled_deviation_pct(groups)


def smoke_deviation_pct(reports: Sequence[Any]) -> float:
    """oracle_dev_pct from ``compare_point`` reports' pooled means."""
    groups: List[Tuple[Sequence[float], Sequence[float]]] = []
    for report in reports:
        for metric in report.metrics:
            if metric.name in ORACLE_METRICS:
                groups.append(([metric.mean_relaxed], [metric.mean_strict]))
    return pooled_deviation_pct(groups)


# -- regeneration ----------------------------------------------------------


def record_fig3(windows: Iterable[int]) -> Dict[str, Any]:
    """Object-engine statistics of every figure point, per seed window."""
    from perfbench import workloads
    from repro.experiments.paper_figures import check_figure3
    from repro.experiments.runner import run_point

    seeds: Dict[str, Any] = {}
    verdicts: Dict[str, List[bool]] = {}
    for w in windows:
        points = {}
        series: Dict[str, List[Any]] = {}
        for config in workloads.fig3_spec(w).expand():
            label = workloads.point_label(config.algorithm,
                                          config.offered_load)
            result = run_point(config)
            points[label] = fig3_record(result)
            series.setdefault(config.algorithm, []).append(result)
        seeds[str(workloads.fig3_seed(w))] = points
        verdicts[str(workloads.fig3_seed(w))] = [
            passed for _claim, passed in check_figure3(series)
        ]
    return {"loads": list(workloads.FIG3_LOADS), "seeds": seeds,
            "shape_checks": verdicts}


def record_relaxed(windows: Iterable[int]) -> Dict[str, Any]:
    """Strict-batch per-seed statistics for every ensemble seed used."""
    import dataclasses

    from perfbench import workloads
    from repro.experiments.runner import run_batch

    seeds = sorted({s for w in windows for s in workloads.relaxed_seeds(w)})
    base = workloads.relaxed_config(identity="strict")
    points: Dict[str, Any] = {}
    for algorithm, load in workloads.RELAXED_POINTS:
        config = dataclasses.replace(base, algorithm=algorithm,
                                     offered_load=load)
        results = run_batch(config, seeds)
        points[workloads.point_label(algorithm, load)] = {
            str(seed): [getattr(result, name) for name in ORACLE_METRICS]
            for seed, result in zip(seeds, results)
        }
    return points


def _write(name: str, data: Any) -> None:
    path = os.path.join(REFERENCE_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main(argv: Sequence[str]) -> int:
    import argparse

    from perfbench import workloads

    argparse.ArgumentParser(
        description="Regenerate the benchmark's strict-oracle reference."
    ).parse_args(argv)
    windows = range(workloads.SEED_WINDOWS)
    _write(RELAXED_REFERENCE, record_relaxed(windows))
    _write(FIG3_REFERENCE, record_fig3(windows))
    return 0


if __name__ == "__main__":
    ROOT = os.path.dirname(HERE)
    sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]
    sys.exit(main(sys.argv[1:]))
