"""Cross-backend identity: the vectorized batch engine vs the object engine.

The contract of :mod:`repro.simulator.batch`: a lane of a
:class:`BatchEngine` is **bit-identical** to an object
:class:`~repro.simulator.engine.Engine` running the same config with that
lane's seed — same state fingerprint after any number of cycles, same
samples, same :class:`SimulationResult`.  The object engine stays the
oracle; everything here drives both and compares.

Covered, under both flow controls (ideal flow control's same-cycle
buffer-reuse fixpoint is the order-dependent case the C transmit kernel
computes sequentially):

* the full supported matrix — all six paper algorithms x mesh/torus x
  wormhole/VCT — compared by state fingerprint at an uneven cycle
  schedule (catches divergence inside a run, not just at the end);
* a randomized fuzz sweep over 50+ sampled configurations;
* batch edge cases: B=1, a deadlock firing in a subset of lanes while
  the rest continue lockstep, and early-drained (stopped) lanes;
* :func:`run_batch` == per-seed :func:`run_point` through the full
  convergence schedule;
* every paper figure's grid on both backends;
* unsupported configurations raising :class:`ConfigurationError`, and
  the kernel loader's error when no C compiler works;
* the parallel scheduler's seed-batch grouping and the checkpoint's
  backend portability.
"""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.experiments.paper_figures import (
    FIGURE_GRIDS,
    figure_campaign_spec,
)
from repro.experiments.parallel import run_points, run_sweep_points
from repro.experiments.runner import run_batch, run_point
from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator import ckernel
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError, DeadlockError
from tests.conftest import tiny_config

FLOW_CONTROLS = ("conservative", "ideal")


def batch_config(**overrides) -> SimulationConfig:
    """A 4x4 batch config for identity tests (conservative by default)."""
    defaults = {
        "flow_control": "conservative",
        "backend": "batch",
        "offered_load": 0.45,
        "message_length": 4,
    }
    defaults.update(overrides)
    return tiny_config(**defaults)


def over_flow_controls(names, cases):
    """Parametrize *cases* over both flow controls.

    Conservative cases keep their historical ids (``a-b-c``); ideal
    ones are prefixed (``ideal-a-b-c``).
    """
    params = []
    for flow_control in FLOW_CONTROLS:
        for case in cases:
            case_id = "-".join(str(value) for value in case)
            if flow_control != "conservative":
                case_id = f"{flow_control}-{case_id}"
            params.append(pytest.param(flow_control, *case, id=case_id))
    return pytest.mark.parametrize(("flow_control",) + names, params)


def strip_wall(results):
    return [dataclasses.replace(r, wall_seconds=0.0) for r in results]


def drive_both(config, seeds, schedule):
    """Step a BatchEngine and per-seed Engines through *schedule*.

    Yields (seed, object fingerprint, batch fingerprint) after every
    chunk of the schedule, so divergence is caught where it starts.
    """
    engine = BatchEngine(config, seeds)
    singles = [
        Engine(dataclasses.replace(config, seed=seed, backend="object"))
        for seed in seeds
    ]
    for cycles in schedule:
        engine.run_cycles(cycles)
        for index, single in enumerate(singles):
            single.run_cycles(cycles)
            yield (
                seeds[index],
                single.state_fingerprint(),
                engine.state_fingerprint(index),
            )
        assert all(
            engine.conservation_check(index) for index in range(len(seeds))
        )


class TestMatrixIdentity:
    """The acceptance matrix: 6 algorithms x mesh/torus x wormhole/vct."""

    @over_flow_controls(
        ("switching", "topology", "algorithm"),
        [
            (switching, topology, algorithm)
            for switching in ("vct", "wormhole")
            for topology in ("mesh", "torus")
            for algorithm in ALGORITHM_NAMES
        ],
    )
    def test_fingerprint_identity(
        self, flow_control, switching, topology, algorithm
    ):
        config = batch_config(
            algorithm=algorithm, topology=topology, switching=switching,
            flow_control=flow_control,
        )
        # Uneven chunks: identity must hold mid-warmup, mid-worm, and
        # deep into the congested steady state, not just at round marks.
        for seed, expected, actual in drive_both(
            config, [23, 7], (1, 7, 113, 179)
        ):
            assert actual == expected, (
                f"{algorithm}/{topology}/{switching}/{flow_control} "
                f"diverged for seed {seed}"
            )

    @over_flow_controls(
        ("selection_policy", "mux_policy"),
        [
            (selection, mux)
            for selection in ("first", "least_multiplexed", "random")
            for mux in ("highest_class", "round_robin")
        ],
    )
    def test_policy_identity(self, flow_control, selection_policy,
                             mux_policy):
        config = batch_config(
            algorithm="nbc",
            offered_load=0.6,
            mux_policy=mux_policy,
            selection_policy=selection_policy,
            flow_control=flow_control,
        )
        for seed, expected, actual in drive_both(
            config, [11], (3, 197)
        ):
            assert actual == expected, (
                f"{mux_policy}/{selection_policy}/{flow_control} diverged "
                f"for seed {seed}"
            )


def fuzz_identity(flow_control, rng_seed, multi_lane):
    """Randomized cross-backend sweep (fixed rng seed: reproducible).

    With *multi_lane*, a third of the trials run B=3 lanes.
    """
    rng = random.Random(rng_seed)
    for trial in range(50):
        config = batch_config(
            algorithm=rng.choice(ALGORITHM_NAMES),
            topology=rng.choice(["mesh", "torus"]),
            switching=rng.choice(["wormhole", "vct"]),
            selection_policy=rng.choice(
                ["least_multiplexed", "random", "first"]
            ),
            mux_policy=rng.choice(["round_robin", "highest_class"]),
            offered_load=rng.choice([0.1, 0.3, 0.6, 0.9]),
            message_length=rng.choice([2, 4, 7]),
            injection_limit=rng.choice([None, 1, 2]),
            flow_control=flow_control,
        )
        lanes = rng.choice([1, 1, 3]) if multi_lane else 1
        seeds = [rng.randrange(1, 10_000) for _ in range(lanes)]
        cycles = rng.randrange(60, 160)
        for seed, expected, actual in drive_both(config, seeds, (cycles,)):
            assert actual == expected, (
                f"fuzz trial {trial} diverged: {config.label()} "
                f"{flow_control} seed {seed}"
            )


class TestFuzzIdentity:
    def test_fifty_sampled_configs(self):
        fuzz_identity("conservative", 20260808, multi_lane=False)

    def test_fifty_sampled_configs_ideal(self):
        fuzz_identity("ideal", 20261018, multi_lane=True)


class _NeverRoutes(RoutingAlgorithm):
    """Deliberately broken: offers no candidates, so worms stall until
    the watchdog fires (all shipped algorithms are deadlock-free, so a
    genuine per-lane deadlock needs a broken router)."""

    name = "never-routes"

    @property
    def num_virtual_channels(self):
        return 1

    def candidates(self, state, current, dst):
        self._check_not_delivered(current, dst)
        return []

    def message_class(self, src, dst, state):
        return 0


class TestBatchEdgeCases:
    def test_single_lane_batch(self):
        """B=1: the degenerate batch is still bit-identical."""
        config = batch_config(algorithm="nbc", offered_load=0.6)
        for seed, expected, actual in drive_both(config, [42], (250,)):
            assert actual == expected

    def test_deadlock_in_subset_of_lanes(self):
        """A watchdog trip freezes its lane; the rest continue lockstep.

        With a broken router at a trickle load, lanes deadlock when
        their own traffic first stalls long enough — at different
        cycles per seed.  At this horizon seeds 1/2/3 have tripped and
        seed 6 has not; the surviving lane must match an object engine
        that sailed past its siblings' deaths unperturbed.
        """
        topology = Torus(4, 2)
        config = batch_config(
            offered_load=0.003, deadlock_threshold=50
        )
        seeds = [1, 2, 3, 6]
        engine = BatchEngine(
            config, seeds, topology=topology,
            algorithm=_NeverRoutes(topology),
        )
        engine.run_cycles(100)
        errors = engine.lane_errors()
        assert sorted(errors) == [0, 1, 2]
        assert engine.running_lane_indices == [3]
        for index, error in errors.items():
            assert isinstance(error, DeadlockError)
            assert f"seed {seeds[index]}" in str(error)
        # Oracle: each object engine dies (or survives) identically.
        for index, seed in enumerate(seeds):
            single = Engine(
                dataclasses.replace(
                    config, seed=seed, backend="object"
                ),
                topology=topology,
                algorithm=_NeverRoutes(topology),
            )
            if index in errors:
                with pytest.raises(DeadlockError, match="no progress"):
                    single.run_cycles(100)
            else:
                single.run_cycles(100)
                fingerprint = engine.state_fingerprint(index)
                assert fingerprint == single.state_fingerprint()

    def _stopped_lane_case(self, flow_control):
        config = batch_config(
            algorithm="nlast", offered_load=0.6, flow_control=flow_control
        )
        seeds = [5, 9, 13]
        engine = BatchEngine(config, seeds)
        engine.run_cycles(150)
        engine.stop_lane(1)
        assert engine.running_lane_indices == [0, 2]
        frozen = engine.state_fingerprint(1)
        engine.run_cycles(150)
        # The stopped lane's state (cycle included) is untouched ...
        assert engine.state_fingerprint(1) == frozen
        # ... and survivors match object engines that ran 300 cycles.
        for index in (0, 2):
            single = Engine(
                dataclasses.replace(
                    config, seed=seeds[index], backend="object"
                )
            )
            single.run_cycles(300)
            assert engine.state_fingerprint(index) == (
                single.state_fingerprint()
            )

    def test_stopped_lane_does_not_perturb_survivors(self):
        """Early-drained lanes freeze; the rest keep their schedules."""
        self._stopped_lane_case("conservative")

    def test_stopped_lane_does_not_perturb_survivors_ideal(self):
        """The kernel skips a stopped lane's channels under ideal flow
        control too (its fixpoint passes never touch the lane)."""
        self._stopped_lane_case("ideal")

    def test_idle_fast_forward_with_stopped_lane(self):
        """All-idle fast-forward consults only the running lanes."""
        config = batch_config(offered_load=0.01)
        engine = BatchEngine(config, [3, 4])
        engine.stop_lane(0)
        engine.run_cycles(500)
        single = Engine(
            dataclasses.replace(config, seed=4, backend="object")
        )
        single.run_cycles(500)
        assert engine.state_fingerprint(1) == single.state_fingerprint()


class TestRunBatch:
    @staticmethod
    def _matches_run_point(flow_control):
        config = batch_config(
            algorithm="nbc", offered_load=0.5, flow_control=flow_control
        )
        seeds = [4, 8, 15]
        batched = run_batch(config, seeds)
        for seed, result in zip(seeds, batched):
            single = run_point(
                dataclasses.replace(config, seed=seed, backend="object")
            )
            expected = single.to_json_dict()
            actual = result.to_json_dict()
            # Wall clock is the one legitimately backend-dependent
            # field (lockstep lanes share a single timer).
            expected.pop("wall_seconds")
            actual.pop("wall_seconds")
            assert actual == expected

    def test_matches_run_point_per_seed(self):
        """The full convergence schedule, summarized per lane."""
        self._matches_run_point("conservative")

    def test_matches_run_point_per_seed_ideal(self):
        """Same, under the paper's ideal flow control (the figures')."""
        self._matches_run_point("ideal")

    def test_deadlock_raises_like_run_point(self):
        topology = Torus(4, 2)
        config = batch_config(offered_load=0.01, deadlock_threshold=50)
        with pytest.raises(DeadlockError, match="no progress"):
            run_batch(
                config, [1, 2], topology=topology,
                algorithm=_NeverRoutes(topology),
            )


class TestFigureGrids:
    @pytest.mark.parametrize("figure", sorted(FIGURE_GRIDS))
    def test_figure_points_identical_on_both_backends(self, figure):
        """Every paper figure's grid: batch (the figures' backend)
        reproduces the object oracle point for point."""
        spec = figure_campaign_spec(
            figure, profile="tiny", offered_loads=(0.2, 0.6)
        )
        configs = spec.expand()
        if figure == "5":
            # Its radius-3 neighbourhood (width 7) needs radix >= 7;
            # keep the tiny schedule on the smallest such torus.
            configs = [dataclasses.replace(c, radix=8) for c in configs]
        assert configs and all(c.backend == "batch" for c in configs)
        assert all(c.flow_control == "ideal" for c in configs)
        batch = run_points(configs)
        oracle = run_points(
            [dataclasses.replace(c, backend="object") for c in configs]
        )
        assert strip_wall(batch) == strip_wall(oracle)


class TestUnsupportedConfigs:
    def test_config_accepts_strict_batch_with_ideal_flow_control(self):
        config = tiny_config(backend="batch")  # default flow_control
        assert config.flow_control == "ideal"

    def test_config_rejects_relaxed_with_ideal_flow_control(self):
        with pytest.raises(ConfigurationError, match="conservative"):
            tiny_config(backend="batch", identity="relaxed")

    def test_config_rejects_batch_with_saf(self):
        with pytest.raises(ConfigurationError, match="saf"):
            batch_config(switching="saf", message_length=4)

    def test_config_rejects_batch_with_obs(self):
        with pytest.raises(ConfigurationError, match="obs"):
            batch_config(obs=True)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            tiny_config(backend="gpu")

    def test_engine_rejects_empty_seed_list(self):
        with pytest.raises(ConfigurationError, match="seed"):
            BatchEngine(batch_config(), [])

    def test_engine_rejects_relaxed_ideal_flow_control(self):
        # Constructed directly (bypassing config validation's coupled
        # check) the engine still refuses relaxed ideal flow control.
        config = batch_config(identity="relaxed")
        config.flow_control = "ideal"
        with pytest.raises(ConfigurationError, match="conservative"):
            BatchEngine(config, [1])

    def test_engine_rejects_oversized_message_length(self):
        config = batch_config(message_length=2 ** 15)
        with pytest.raises(ConfigurationError, match="int16"):
            BatchEngine(config, [1])


class TestParallelSeedBatches:
    def test_grouped_equals_object_and_survives_pool(self):
        """One seed-batch task per point == per-seed object points,
        serial and with real worker processes."""
        base = batch_config(algorithm="phop")
        configs = run_sweep_points(
            base, ["phop"], (0.3, 0.6), seeds=(2, 5, 11)
        )
        assert len(configs) == 6
        object_configs = [
            dataclasses.replace(c, backend="object") for c in configs
        ]
        expected = run_points(object_configs, jobs=1)
        serial = run_points(configs, jobs=1, batch_size=2)
        pooled = run_points(configs, jobs=2, batch_size=2)
        strip = [
            dataclasses.replace(r, wall_seconds=0.0) for r in expected
        ]
        assert [
            dataclasses.replace(r, wall_seconds=0.0) for r in serial
        ] == strip
        assert [
            dataclasses.replace(r, wall_seconds=0.0) for r in pooled
        ] == strip

    def test_checkpoint_portable_across_backends(self, tmp_path):
        """A campaign checkpointed under one backend resumes under the
        other: per-seed results are bit-identical, so the signature
        excludes the backend field."""
        path = str(tmp_path / "sweep.ckpt.json")
        base = batch_config(algorithm="ecube")
        object_configs = run_sweep_points(
            dataclasses.replace(base, backend="object"),
            ["ecube"], (0.4,), seeds=(3, 7),
        )
        first = run_points(object_configs, checkpoint_path=path)
        # Resume the same campaign with the batch backend: everything
        # is already checkpointed, so no simulation runs at all.
        batch_configs = run_sweep_points(
            base, ["ecube"], (0.4,), seeds=(3, 7)
        )
        resumed = run_points(batch_configs, checkpoint_path=path)
        assert resumed == first


class TestKernelBuild:
    def test_failing_compiler_raises_configuration_error(
        self, tmp_path, monkeypatch
    ):
        """No working compiler: a ConfigurationError naming the command
        and pointing at the object backend, and no stray files."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(
            ckernel, "compiler", lambda: ["repro-no-such-cc", "-v"]
        )
        ckernel.load_library.cache_clear()
        try:
            with pytest.raises(ConfigurationError) as caught:
                BatchEngine(batch_config(), [1])
        finally:
            ckernel.load_library.cache_clear()
        message = str(caught.value)
        assert "repro-no-such-cc -v" in message
        assert "backend='object'" in message
        assert list((tmp_path / "repro").iterdir()) == []

    def test_cold_cache_builds_once_atomically(self, tmp_path, monkeypatch):
        """A cold cache gets exactly one library under its keyed name
        (built via a temporary file, then renamed); later loads reuse
        it without compiling."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        ckernel.load_library.cache_clear()
        try:
            ckernel.load_library()
            built = sorted(p.name for p in (tmp_path / "repro").iterdir())
            assert len(built) == 1 and built[0].startswith("transmit-")
            assert built[0].endswith(".so")
            ckernel.load_library.cache_clear()

            def no_build(*args):
                raise AssertionError("a cached kernel was rebuilt")

            monkeypatch.setattr(ckernel, "_build", no_build)
            ckernel.load_library()
        finally:
            ckernel.load_library.cache_clear()

    def test_concurrent_cold_builds_both_load(self, tmp_path):
        """Two processes compiling into one cold cache at once (parallel
        sweep workers) both load a complete library, and no temporary
        file is left behind."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        code = (
            "from repro.simulator.batch import BatchEngine\n"
            "from tests.conftest import tiny_config\n"
            "e = BatchEngine(tiny_config(flow_control='conservative'), [1])\n"
            "e.run_cycles(50)\n"
        )
        root = os.path.dirname(src)
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env, cwd=root)
            for _ in range(2)
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        names = [p.name for p in (tmp_path / "repro").iterdir()]
        assert len(names) == 1 and names[0].startswith("transmit-")
