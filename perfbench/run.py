"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload fig3_quick --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Diagnostics (pass times, calibration loop, steal share, check
listings) go to standard error and to ``perfbench/_out/runs.jsonl``.

``--workload all`` runs every workload once, each in its own process,
and prints a table of the end-to-end metrics with their units and
sample counts, plus ``fail_share`` and ``oracle_dev_pct``.

The program under test is imported from ``src/`` of the checkout this
file sits in, never from anywhere else; without it the run exits
non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check ``repro``."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from "
                         f"{src}: {error}") from None
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, src]) != src:
        raise SystemExit(f"perfbench: repro was imported from {where}, "
                         f"not from {src}")


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="also write this run's full record to PATH")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _single(args) -> int:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.probe_setup:
        clock = harness.probe_first_cycle(WORKLOADS[args.workload], args.seed)
        print("first", repr(clock))
        return 0

    calibration = [harness.calibration_s()]
    ticks = harness.cpu_ticks()
    started = perf_counter()
    if args.trace:
        run = harness.traced_run(args.workload, args.seed)
    else:
        run = harness.timed_run(args.workload, args.seed, args.seconds)
    elapsed = perf_counter() - started
    calibration.append(harness.calibration_s())
    steal = harness.steal_share(ticks, harness.cpu_ticks())

    outcomes = run["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    values = run["metrics"]
    correct = failed == 0 and all(math.isfinite(v) for v in values.values())
    if args.trace:
        correct = correct and (
            values["trace.layers_self_s"] <= values["trace.wall_s"]
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in run["units"].items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "calibration_s": calibration,
        "steal_share": steal,
        "samples": run["samples"],
        "raw": run.get("raw", {}),
        "fail_share": harness.fail_share(outcomes),
        "oracle_dev_pct": [o.oracle_dev_pct for o in outcomes],
        "details": [o.details for o in outcomes],
        "result": result,
    }
    harness.write_record(record, args.record)
    if "trace" in run:
        path = os.path.join(
            harness.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(run["trace"], stream, indent=1)
    _log(f"{args.workload} seed={args.seed} trace={args.trace}: "
         f"{len(outcomes)} passes, attempted={attempted} failed={failed}, "
         f"oracle_dev_pct={record['oracle_dev_pct']}, "
         f"calibration_s={[round(c, 4) for c in calibration]}, "
         f"steal_share={steal}")
    for details in record["details"]:
        for line in details.get("shape_checks", []):
            _log("  " + line)
        if "recorded_shape_passes" in details:
            _log(f"  (recorded oracle for this seed: "
                 f"{details['recorded_shape_passes']}/"
                 f"{len(details['shape_checks'])} PASS)")
        if "error" in details:
            _log("  error: " + details["error"])
    print(json.dumps(result))
    return 0


def _all(args) -> int:
    """Every workload once (own process each), as one table."""
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    os.makedirs(harness.OUT_DIR, exist_ok=True)
    rows = []
    status = 0
    for name in WORKLOADS:
        with tempfile.NamedTemporaryFile(
            "r", suffix=".json", dir=harness.OUT_DIR, delete=False
        ) as handle:
            path = handle.name
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", "0", "--record", path],
                stdout=subprocess.DEVNULL, check=False,
            )
            if proc.returncode != 0:
                status = proc.returncode
                continue
            with open(path, encoding="utf-8") as stream:
                rows.append(json.load(stream))
        finally:
            os.unlink(path)
    print(f"{'workload':<18} {'metric':<20} {'value':>14} {'unit':<6} "
          "samples")
    for row in rows:
        samples = row["samples"]
        for name in harness.units("end_to_end"):
            entry = row["result"]["metrics"][name]
            count = (samples["setup_probes"] if name == "setup_s"
                     else 1 if name == "peak_rss_mb" else samples["passes"])
            print(f"{row['workload']:<18} {name:<20} {entry['value']:>14.6g}"
                  f" {entry['unit']:<6} {count}")
        passes = samples["passes"]
        print(f"{row['workload']:<18} {'fail_share':<20} "
              f"{row['fail_share']:>14.6g} {'ratio':<6} {passes}")
        print(f"{row['workload']:<18} {'oracle_dev_pct':<20} "
              f"{max(row['oracle_dev_pct']):>14.6g} {'%':<6} {passes}")
        result = row["result"]
        checks = [f"{result['attempted'] - result['failed']}/"
                  f"{result['attempted']} operations ok"]
        per_pass = result["attempted"] // samples["passes"]
        for details in row["details"]:
            shape = details.get("shape_checks", [])
            if shape:
                passed = sum(line.startswith("[PASS]") for line in shape)
                checks.append(
                    f"shape checks {passed}/{len(shape)} PASS, oracle "
                    f"{details['recorded_shape_passes']}/{len(shape)}")
            if "points_passed" in details:
                checks.append(
                    f"equivalence {details['points_passed']}/{per_pass}")
        print(f"{row['workload']:<18} {'correct':<20} "
              f"{str(result['correct']):>14}  ({', '.join(checks)})")
        if not row["result"]["correct"]:
            status = status or 1
    return status


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS  # imports nothing from src/

    args = _parse(argv, WORKLOADS)
    _import_program()
    if args.workload == "all":
        return _all(args)
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
