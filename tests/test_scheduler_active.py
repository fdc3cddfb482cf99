"""Engine schedule identity against fingerprints recorded from the seed engine.

``Engine.state_fingerprint()`` digests the engine's complete dynamic
state: counters, rng stream positions, per-channel and per-message state
(activity-tracking bookkeeping like armed stamps and parked-waiter lists
is excluded).  Its digest after a fixed number of cycles therefore pins
the whole flit schedule.

The digests below were recorded from the seed engine's full per-cycle
rescan, which was kept as a second code path until commit ``5a418cf`` and
retired after it; the activity-tracked engine matched it on every config.
They are the truncated sha256 of ``repr(state_fingerprint())`` (see
:func:`_digest`), recorded at that commit with this one-off snippet,
once per config of the tests below::

    engine = Engine(SimulationConfig(scheduler="scan", **options))
    engine.run_cycles(cycles)
    sha256(repr(engine.state_fingerprint()).encode()).hexdigest()[:16]

They contain no object addresses or hash-ordered data, so they are
stable across processes and ``PYTHONHASHSEED`` values.

Covered here:

* the full matrix of 6 algorithms x {mesh, torus} x {wormhole, vct},
  observer enabled and disabled (both must hit the one recorded digest);
* a 50-configuration fuzz sweep over random short configs (switching,
  flow control, mux policy, selection policy, load, message length,
  buffer depth, seeds);
* the routing-decision memo: cached candidate sets must resolve to the
  same objects a fresh computation produces, and disabling the memo
  must not change the schedule;
* the engine's parking wiring (sanitizer and observer turn it off).
"""

import hashlib
import random

import pytest

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine

ALGORITHMS = ("ecube", "nlast", "2pn", "phop", "nhop", "nbc")

#: Seed-engine digests for TestSchedulerIdentity's matrix, keyed by
#: (algorithm, topology, switching); shared by observed and unobserved runs.
MATRIX_DIGESTS = {
    ("ecube", "mesh", "wormhole"): "f91732b2c969733f",
    ("ecube", "mesh", "vct"): "66ff3bd416533077",
    ("ecube", "torus", "wormhole"): "8efcba7ddaf0a981",
    ("ecube", "torus", "vct"): "5bcd2c12e0eba1c4",
    ("nlast", "mesh", "wormhole"): "11c19dbf69ef88e3",
    ("nlast", "mesh", "vct"): "c4401d46e8d9a009",
    ("nlast", "torus", "wormhole"): "ff1ad8d64cb2592e",
    ("nlast", "torus", "vct"): "5926c17abd47effb",
    ("2pn", "mesh", "wormhole"): "3b592090713733ac",
    ("2pn", "mesh", "vct"): "fc9cdc64e72c016c",
    ("2pn", "torus", "wormhole"): "856e791e27293495",
    ("2pn", "torus", "vct"): "bb1fe0fff328a8ee",
    ("phop", "mesh", "wormhole"): "2cba33ecc00a6df4",
    ("phop", "mesh", "vct"): "846a2c2cbe30a6ba",
    ("phop", "torus", "wormhole"): "13e2f62219572984",
    ("phop", "torus", "vct"): "9994c633f35b776f",
    ("nhop", "mesh", "wormhole"): "271a5b0d34f9da40",
    ("nhop", "mesh", "vct"): "7803bf91300698ef",
    ("nhop", "torus", "wormhole"): "8a95959d77137979",
    ("nhop", "torus", "vct"): "d94c8a5c3510dd40",
    ("nbc", "mesh", "wormhole"): "d2e3a56a585b4c2e",
    ("nbc", "mesh", "vct"): "b1be5bff015f648e",
    ("nbc", "torus", "wormhole"): "182eb42aea726e85",
    ("nbc", "torus", "vct"): "7eb262619e741071",
}

#: Seed-engine digests for TestSchedulerFuzz, indexed by trial.
FUZZ_DIGESTS = [
    "e05d138ae51e0104", "a5117cd6f2947bf1", "e3da915b1483aeff", "17d5117028a5975a",
    "c68940468a827847", "c5cb666d907ceec0", "e2eb6ab6891c1c1d", "cfd199a6fdb5a668",
    "4cc7fe6a35664815", "9eabd3411abf5968", "a5bb5736ffcc48a0", "8831f66dbfeddbad",
    "881ae86f9be928b1", "0e69068054f84d5a", "27909bd15388a957", "a586059e921428f4",
    "98d3af6e0752a8ab", "2afbdb8c4752918f", "c531cd0a4d2b3ddc", "47c42083da22c065",
    "49382a647e8999bf", "34a09f2de669eda9", "37f418daea7df0c8", "e0a99b4c187a8b10",
    "dbdf0b16a4b328f5", "3abcb5755e6576d7", "04793109679094c0", "7687d36ce58c0d6d",
    "771f3bc336e8bba9", "66332c2b53d81e9a", "e8384635d40c5974", "d26bcec30d89433b",
    "770f182afa21ea84", "7fe5c12bea7bc0bc", "653bfa35a03b236e", "ad2420abc086a609",
    "f61c0c9e1caf8f4b", "1069203fc1228f5e", "745ace6eeff2d1f0", "d49112307324ded0",
    "f32ba51bb2212a8d", "1a37ded6b891edb1", "f0839efcb15bdf59", "6f6acfedb520a0ad",
    "376b2a5e37e05576", "2ba4c343b720cc46", "12e2c55958f856f9", "9f8cd6a1855ad2ae",
    "4217dee0f83fe87a", "d34985184e120a75",
]


def _digest(cycles, **options):
    """Run the engine for *cycles* cycles and digest its state."""
    engine = Engine(SimulationConfig(**options))
    engine.run_cycles(cycles)
    fingerprint = repr(engine.state_fingerprint()).encode()
    return engine, hashlib.sha256(fingerprint).hexdigest()[:16]


class TestSchedulerIdentity:
    @pytest.mark.parametrize("obs", [False, True])
    @pytest.mark.parametrize("switching", ["wormhole", "vct"])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matrix_fingerprint_identity(
        self, algorithm, topology, switching, obs
    ):
        engine, digest = _digest(
            600,
            radix=4,
            n_dims=2,
            topology=topology,
            algorithm=algorithm,
            switching=switching,
            offered_load=0.45,
            seed=23,
            obs=obs,
            obs_options={"stride": 32} if obs else {},
        )
        assert digest == MATRIX_DIGESTS[(algorithm, topology, switching)]
        assert engine.flits_moved_total > 0  # the run exercised the fabric
        assert engine.conservation_check()

    def test_fingerprint_detects_divergence(self):
        """The oracle itself must not be vacuous."""
        a = Engine(SimulationConfig(radix=4, n_dims=2, seed=1,
                                    offered_load=0.3))
        b = Engine(SimulationConfig(radix=4, n_dims=2, seed=1,
                                    offered_load=0.3))
        a.run_cycles(400)
        b.run_cycles(401)
        assert a.state_fingerprint() != b.state_fingerprint()


class TestSchedulerFuzz:
    def test_fifty_random_configs_agree(self):
        """50 random short configs: every digest matches its record."""
        rng = random.Random(0xC0FFEE)
        for trial in range(50):
            switching = rng.choice(["wormhole", "wormhole", "vct", "saf"])
            options = {
                "radix": rng.choice([4, 4, 6]),
                "n_dims": 2,
                "topology": rng.choice(["mesh", "torus"]),
                "algorithm": rng.choice(ALGORITHMS),
                "switching": switching,
                "flow_control": rng.choice(["ideal", "conservative"]),
                "mux_policy": rng.choice(["round_robin", "highest_class"]),
                "selection_policy": rng.choice(
                    ["least_multiplexed", "random", "first"]
                ),
                "offered_load": rng.choice([0.15, 0.3, 0.5, 0.7]),
                "message_length": rng.choice([4, 8, 16]),
                "injection_limit": rng.choice([1, 2, None]),
                # VCT and SAF require buffers holding a whole packet; let
                # the config default handle those modes.
                "vc_buffer_depth": (
                    rng.choice([None, 1, 2, 4])
                    if switching == "wormhole" else None
                ),
                "seed": rng.randrange(10_000),
            }
            cycles = rng.randrange(200, 500)
            _, digest = _digest(cycles, **options)
            assert (
                digest == FUZZ_DIGESTS[trial]
            ), f"trial {trial} diverged: {options}, cycles={cycles}"


class TestRoutingMemo:
    def _congested(self, algorithm):
        return Engine(SimulationConfig(
            radix=4,
            n_dims=2,
            algorithm=algorithm,
            offered_load=0.6,
            seed=5,
        ))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_memo_entries_resolve_into_live_fabric(self, algorithm):
        """Memo entries alias the fabric's channel/VC objects exactly.

        The memo stores resolved (VirtualChannel, PhysicalChannel) pairs,
        not copies: every cached pair must be the very objects the fabric
        owns at the memo key's head node, so allocation through a cached
        entry mutates real network state.
        """
        engine = self._congested(algorithm)
        engine.run_cycles(800)
        assert engine._resolved_cache, "memo never engaged"
        channels = engine._channels
        for (node, dst, key), resolved in engine._resolved_cache.items():
            assert node != dst
            for vc, channel in resolved:
                assert channels[vc.link.index] is channel
                assert channel.vcs[vc.vc_class] is vc
                assert vc.link.src == node

    def test_memo_disabled_is_schedule_invisible(self):
        """state_key -> None (memo off) must not change the schedule."""
        plain = self._congested("phop")
        plain.run_cycles(600)
        unmemoized = self._congested("phop")
        unmemoized.algorithm.state_key = lambda state: None  # type: ignore
        unmemoized.run_cycles(600)
        assert not unmemoized._resolved_cache
        assert (
            plain.state_fingerprint() == unmemoized.state_fingerprint()
        )


class TestSchedulerConfig:
    def test_active_engine_uses_heap_and_parking(self):
        """Under congestion, blocked requests park off the routing heap."""
        engine = Engine(SimulationConfig(
            radix=4, n_dims=2, offered_load=0.6, seed=5
        ))
        assert engine._parking
        engine.run_cycles(400)
        assert engine._parked, "no request ever parked"
        queued = {message.msg_id for _, message in engine._route_heap}
        assert queued.isdisjoint(engine._parked)

    def test_sanitizer_disables_parking(self):
        engine = Engine(SimulationConfig(radix=4, sanitize=True))
        assert not engine._parking

    def test_observer_attach_detach_toggles_parking(self):
        from repro.obs.observer import ObsConfig, Observer

        engine = Engine(SimulationConfig(radix=4))
        engine.attach_observer(Observer(ObsConfig(stride=64)))
        assert not engine._parking
        engine.detach_observer()
        assert engine._parking
