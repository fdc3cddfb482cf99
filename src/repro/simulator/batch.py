"""Vectorized lockstep multi-seed backend (``SimulationConfig.backend="batch"``).

B simulations of one (topology, algorithm, traffic, load) configuration —
differing only by seed — advance in lockstep, one shared cycle at a time.
All per-virtual-channel state (ownership, buffer occupancy, worm flit
counters, arrival/departure stamps, lifetime counters) and all per-physical-
channel state (round-robin pointer, activity sequence) live in flat numpy
arrays with a leading batch axis.  Ejection is an array-at-once kernel;
transmission is one C function over the same arrays
(:mod:`repro.simulator.ckernel`); routing stays scalar per active head
(algorithm callbacks and rng tie-breaks are inherently per-message)
behind a gather/scatter seam, reusing the object engine's candidate
memoization.

**Bit-identity contract** (``identity="strict"``, the default).  For
every supported configuration the batch backend reproduces the object
engine's flit schedule and
:meth:`~repro.simulator.engine.Engine.state_fingerprint` exactly, per seed
(the object engine stays the oracle; the cross-backend tests pin this),
under both flow controls.  The transmit kernel does not rely on any
order-invariance: it runs the object engine's transmit *model* itself.
Per lane it polls the channels holding a reserved VC in ascending
active-set order against live state, commits each move at once, and
under ideal flow control repeats passes over the channels that have not
moved until one pass moves nothing — the same-cycle buffer-reuse
fixpoint, whose outcome depends on poll order and so cannot be computed
by a simultaneous whole-array evaluation.  Conservative flow control
tests space against the start-of-cycle snapshot
(``last_arrival_cycle``/``last_departure_cycle``), so one pass gives the
same moves in any order.  Move consequences (route requests, deliveries,
injection completions, releases) come back lane-major in move order,
which is the object engine's event order.

**Unsupported configurations** raise
:class:`~repro.util.errors.ConfigurationError`:

* ``identity="relaxed"`` with ``flow_control="ideal"`` — relaxed results
  are validated distributionally by :mod:`repro.analysis.equivalence`,
  which does not cover ideal flow control yet.
* ``switching="saf"`` — store-and-forward reads the *live* upstream
  ``flits_in`` during the pass (packet assembly can complete mid-cycle),
  which the kernel does not model.
* ``obs=True`` / ``sanitize=True`` — per-cycle per-message hooks defeat
  the point of batching; attach them to an object-backend run instead.

Wormhole and VCT, both mux policies, and all selection policies are
supported.  The kernel is compiled on first use with the host C
compiler; without one, engine construction raises
:class:`~repro.util.errors.ConfigurationError` (``backend="object"``
needs no compiler).

**Relaxed identity** (``identity="relaxed"``) trades per-seed
bit-identity for speed past the scalar seam: per-lane ``random.Random``
streams become per-lane numpy Generators with draws batched per phase
(geometric arrival gaps and destination uniforms prefetched through
stream-order-preserving buffers, routing tie-breaks drawn per round),
and the scalar routing/VC-allocation loop becomes a round-based
vectorized kernel gathering candidate sets from an interned
:class:`repro.routing.tables.RouteTable`.  Message state itself is
structure-of-arrays (:class:`repro.simulator.soa.MessageSlab`):
per-message columns in ``[B, M]`` slabs addressed by free-list-recycled
slots, so no ``_BatchMessage`` object is constructed or touched
anywhere on the relaxed per-cycle path (strict mode keeps the object
representation — it is the bit-identity oracle).  Results remain
deterministic per (config, seed) and independent of batch composition —
each lane's draw and buffer consumption sequence depends only on its
own state — but differ per seed from the strict schedule; their
distributions are validated against strict runs by
:mod:`repro.analysis.equivalence`.

**Performance structure.**  The strict per-cycle cost has three tiers:

1. the transmit/eject kernels — shared by all lanes, indexed through
   1-D views with absolute indices ``b*C*V + flat``;
2. the scalar seam (routing, generation, move consequences) — reads go
   through plain-Python mirror lists (``owner``/``owned-count`` per
   lane), and array writes from VC allocation/release are *deferred*
   into pending lists flushed as one batched scatter per cycle just
   before the transmit kernel (``_flush``), so the seam never pays
   per-element numpy indexing;
3. sparse move consequences (head arrivals, releases, injection
   completion) — recorded by the kernel in move order and applied
   scalar per lane, exactly as the object engine applies them.

The relaxed path replaces tiers 2–3 with masked array kernels over the
slabs: generation writes admitted messages as column scatters, routing
is a park/wake pass (blocked requests re-test only when a candidate
VC's release stamp advances — see ``_rel_stamp``) over a tombstoning
:class:`~repro.simulator.soa.RequestPool`, and move consequences
(release bookkeeping, ejection, injection completion, per-winner
commits) are masked scatters in the per-cycle epilogue.  What remains
per cycle is numpy kernel dispatch in route, generate, eject and flush
— the residual floor recorded in docs/performance.md.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.routing.tables import RouteTable
from repro.simulator.ckernel import TransmitKernel
from repro.simulator.config import SimulationConfig
from repro.simulator.injection import InjectionController
from repro.simulator.soa import DeliverQueue, MessageSlab, RequestPool
from repro.stats.counters import SampleRecord
from repro.topology.base import Link, Topology
from repro.traffic.arrivals import (
    GapBuffer,
    GeometricArrivals,
    UniformBuffer,
)
from repro.traffic.base import (
    TrafficPattern,
    destinations_from_uniforms,
)
from repro.traffic.load import offered_load_to_rate
from repro.util.errors import ConfigurationError, DeadlockError
from repro.util.fingerprint import state_fingerprint as route_state_fingerprint
from repro.util.rng import (
    STREAM_ARRIVALS,
    STREAM_DESTINATIONS,
    STREAM_ROUTING,
    RngStreams,
)

#: A routing candidate resolved to array coordinates:
#: (flat VC index = channel * V + vc_class, channel index, vc_class, link).
_Candidate = Tuple[int, int, int, Link]

#: Masked-out load in the relaxed least-multiplexed kernel (any value
#: above every possible per-channel reserved-VC count works).
_LOAD_INF = np.int64(1) << 62

#: "Never due" sentinel for the relaxed arrival array (matches the
#: scalar GeometricArrivals/geometric_gaps sentinel).
_ARR_NEVER = 1 << 60


class _BatchMessage:
    """One worm of one lane; mirrors :class:`repro.network.message.Message`
    with the flit counters externalized into the engine's arrays."""

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "distance",
        "route_state",
        "msg_class",
        "created_at",
        "delivered_at",
        "path",
        "head_node",
        "src_flat",
        "cached_candidates",
        "route_seq",
        "parked",
        "park_epoch",
    )

    def __init__(
        self,
        msg_id: int,
        src: int,
        dst: int,
        distance: int,
        route_state: Any,
        msg_class: Hashable,
        created_at: int,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.distance = distance
        self.route_state = route_state
        self.msg_class = msg_class
        self.created_at = created_at
        self.delivered_at: Optional[int] = None
        #: Flat VC indices currently held, oldest first (cf. Message.path).
        self.path: Deque[int] = deque()
        self.head_node = src
        #: Flat index of the first-hop VC (None until allocated); the
        #: lane's flits_to_inject counter lives in the inject array there.
        self.src_flat: Optional[int] = None
        self.cached_candidates: Optional[Sequence[_Candidate]] = None
        self.route_seq = -1
        self.parked = False
        self.park_epoch = 0


class _Lane:
    """Per-seed scalar state: everything that is not a flat array."""

    __slots__ = (
        "index",
        "off",
        "seed",
        "relaxed",
        "rng",
        "rng_arrivals",
        "rng_destinations",
        "rng_routing",
        "gen_arrivals",
        "gen_destinations",
        "gen_routing",
        "injection_rate",
        "arr_buf",
        "dst_buf",
        "arrivals",
        "controller",
        "msgs",
        "route_heap",
        "route_seq",
        "parked",
        "waiters",
        "delivering",
        "frozen_pending",
        "owner_py",
        "owned_py",
        "cycle",
        "in_flight",
        "msg_counter",
        "generated_total",
        "delivered_total",
        "flits_moved_total",
        "last_progress",
        "next_active_seq",
        "owned_total",
        "sample",
        "sample_chunks",
        "sample_flits_base",
        "sample_generated_base",
        "sample_refused_base",
        "sample_vc_base",
        "error",
    )

    def __init__(
        self,
        index: int,
        off: int,
        seed: int,
        num_nodes: int,
        num_flat: int,
        num_channels: int,
        injection_rate: float,
        injection_limit: Optional[int],
        relaxed: bool = False,
    ) -> None:
        self.index = index
        #: This lane's offset into the 1-D array views: index * C * V.
        self.off = off
        self.seed = seed
        self.relaxed = relaxed
        self.injection_rate = injection_rate
        self.rng = RngStreams(seed)
        if relaxed:
            # Relaxed identity: per-phase numpy Generators; the arrival
            # schedule lives in the engine's lane-fused due array, so
            # the lane carries no arrivals object.  Strict lanes never
            # touch the numpy streams, relaxed lanes never touch the
            # scalar ones.
            self.arrivals: Any = None
        else:
            self.arrivals = GeometricArrivals(num_nodes, injection_rate)
            self.arrivals.start(0, self.rng.stream(STREAM_ARRIVALS))
        self.controller = InjectionController(injection_limit)
        #: Live (undelivered) messages by id; owner arrays store the ids.
        self.msgs: Dict[int, _BatchMessage] = {}
        self.route_heap: List[Tuple[int, _BatchMessage]] = []
        self.route_seq = 0
        self.parked: Dict[int, _BatchMessage] = {}
        #: flat VC index -> [(park_epoch, message), ...] waiter lists.
        self.waiters: Dict[int, List[Tuple[int, _BatchMessage]]] = {}
        #: Flat VC indices delivering at their destination, in
        #: registration order (cf. Engine._delivering).
        self.delivering: List[int] = []
        #: Relaxed/SoA: slab slots of route requests frozen when the
        #: lane stopped (the shared pool drops them; fingerprints and
        #: deadlock reports still need the pending set).
        self.frozen_pending: List[int] = []
        #: Plain-Python mirrors of the owner / per-channel owned-count
        #: array state, so the scalar routing seam reads without numpy
        #: scalar indexing (the arrays are batch-updated in _flush).
        self.owner_py: List[int] = [-1] * num_flat
        self.owned_py: List[int] = [0] * num_channels
        self.cycle = 0
        self.in_flight = 0
        self.msg_counter = 0
        self.generated_total = 0
        self.delivered_total = 0
        self.flits_moved_total = 0
        self.last_progress = 0
        self.next_active_seq = 0
        #: Reserved VCs across the lane (drives the all-idle early-out).
        self.owned_total = 0
        self.sample: Optional[SampleRecord] = None
        #: Relaxed/SoA delivery buffering: per-cycle (latency, hops)
        #: array chunks, materialized into the sample at end_sample.
        self.sample_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self.sample_flits_base = 0
        self.sample_generated_base = 0
        self.sample_refused_base = 0
        self.sample_vc_base: List[int] = []
        #: DeadlockError recorded when this lane's watchdog fired.
        self.error: Optional[DeadlockError] = None
        self.refresh_streams()

    def refresh_streams(self) -> None:
        if self.relaxed:
            self.gen_arrivals = self.rng.numpy_stream(STREAM_ARRIVALS)
            self.gen_destinations = self.rng.numpy_stream(
                STREAM_DESTINATIONS
            )
            self.gen_routing = self.rng.numpy_stream(STREAM_ROUTING)
            # Prefetch buffers over the fresh streams: every arrival /
            # destination draw goes through these (stream order
            # preserved; see GapBuffer), so they renew with the
            # generators on epoch boundaries.
            self.arr_buf = GapBuffer(
                self.injection_rate, self.gen_arrivals
            )
            self.dst_buf = UniformBuffer(self.gen_destinations)
        else:
            self.rng_arrivals = self.rng.stream(STREAM_ARRIVALS)
            self.rng_destinations = self.rng.stream(STREAM_DESTINATIONS)
            self.rng_routing = self.rng.stream(STREAM_ROUTING)


class BatchEngine:
    """B lockstep simulation lanes over shared flat-array network state.

    Array layout (``B`` lanes, ``C`` physical channels, ``V`` virtual
    channels per channel, flat VC index ``f = c * V + v``, absolute index
    ``a = b * C * V + f``; every [B, C*V] array also has a 1-D view used
    with absolute indices):

    ========================  =============  ==================================
    array                     shape/dtype    meaning
    ========================  =============  ==================================
    ``owner``                 [B, C*V] i64   owning msg_id, -1 when free
    ``txable``                [B, C*V] bool  owned and worm not fully in
    ``occ/fin/fout``          [B, C*V] i16   buffer occupancy / flits in / out
    ``la/ld``                 [B, C*V] i32   last arrival/departure cycle (-1)
    ``carried``               [B, C*V] i64   lifetime flits carried
    ``up``                    [B, C*V] i32   upstream flat index, -1 at source
    ``inject``                [B, C*V] i16   source-side flits_to_inject
    ``front/isdst``           [B, C*V] bool  worm front / link ends at dst
    ``ejected``               [B, C*V] i16   flits ejected at this dst VC
    ``rr_next``               [B, C]   i32   round-robin cursor
    ``ch_moved/last_tx``      [B, C]         lifetime moves / last move cycle
    ``active_seq``            [B, C]   i64   active-set insertion order
    ========================  =============  ==================================
    """

    def __init__(
        self,
        config: SimulationConfig,
        seeds: Sequence[int],
        topology: Optional[Topology] = None,
        algorithm: Optional[RoutingAlgorithm] = None,
        traffic: Optional[TrafficPattern] = None,
        slab_slots: Optional[int] = None,
    ) -> None:
        if not seeds:
            raise ConfigurationError("batch backend needs at least one seed")
        if config.identity == "relaxed" and config.flow_control != (
            "conservative"
        ):
            raise ConfigurationError(
                "identity='relaxed' requires flow_control='conservative': "
                "relaxed ideal flow control has no statistical-equivalence "
                "validation yet (strict batch runs ideal flow control "
                "bit-identically; see repro.simulator.batch)"
            )
        if config.switching == "saf":
            raise ConfigurationError(
                "the batch backend does not support switching='saf': "
                "packet assembly completes mid-cycle, an order-dependent "
                "condition (see repro.simulator.batch)"
            )
        if config.obs or config.sanitize:
            raise ConfigurationError(
                "the batch backend does not support obs/sanitize hooks; "
                "use backend='object' for observed or sanitized runs"
            )
        if config.message_length >= 2 ** 15:
            raise ConfigurationError(
                "the batch backend stores flit counters as int16; "
                f"message_length {config.message_length} does not fit"
            )
        self.config = config
        self.topology = topology if topology is not None else (
            config.build_topology()
        )
        self.algorithm = algorithm if algorithm is not None else (
            config.build_algorithm(self.topology)
        )
        self.traffic = traffic if traffic is not None else (
            config.build_traffic(self.topology)
        )
        self.injection_rate = offered_load_to_rate(
            config.offered_load,
            self.topology,
            config.message_length,
            self.traffic.mean_distance(),
        )
        self.seeds = list(seeds)

        b = len(self.seeds)
        c = len(self.topology.links)
        v = self.algorithm.num_virtual_channels
        self._b = b
        self._c = c
        self._v = v
        cv = c * v
        self._cv = cv
        self._length = config.message_length
        self._cap = config.effective_buffer_depth()
        self._priority = config.mux_policy == "highest_class"
        self._links: List[Link] = list(self.topology.links)

        # Relaxed identity mode: table-driven routing kernels + batched
        # numpy rng + structure-of-arrays message state (see the
        # identity-modes section of the module/config docs).  The strict
        # path below never reads any of this state.
        self._relaxed = config.identity == "relaxed"
        if self._relaxed:
            self._table = RouteTable(self.algorithm)
            self._dest_table = self.traffic.destination_table()
            nn = self.topology.num_nodes
            self._num_nodes = nn
            #: Dense (src * N + dst) injection caches — route row,
            #: interned class id, distance — filled on each pair's first
            #: arrival (the callbacks are deterministic per pair), then
            #: gathered array-at-once per generation cycle.
            self._ic_row = np.full(nn * nn, -1, dtype=np.int64)
            self._ic_cls = np.zeros(nn * nn, dtype=np.int64)
            self._ic_dist = np.zeros(nn * nn, dtype=np.int64)
            self._class_ids: Dict[Hashable, int] = {}
            self._class_list: List[Hashable] = []
            #: Outstanding injections, class-major [B, K*N]: the
            #: vectorized InjectionController occupancy (class columns
            #: append as classes intern; admission keys are unique per
            #: lane-cycle because arrival gaps are >= 1).
            self._outst = np.zeros((b, nn), dtype=np.int64)
            self._outst_f = self._outst.reshape(-1)
            #: Per-channel reserved-VC counts: least-multiplexed loads
            #: and 0->1 activation detection both gather from these
            #: (relaxed keeps no owned_py mirrors).
            self._owned_ch = np.zeros((b, c), dtype=np.int64)
            self._owned_ch_f = self._owned_ch.reshape(-1)
            #: The SoA message state: no _BatchMessage objects anywhere
            #: on the relaxed per-cycle path.
            self._slab = (
                MessageSlab(b)
                if slab_slots is None
                else MessageSlab(b, slab_slots)
            )
            self._pool = RequestPool(self._table.cand_flat.shape[1])
            self._dv = DeliverQueue()
            #: Cycle each VC was last released (park/wake stamp): a
            #: pooled request re-tests only when some candidate's stamp
            #: reaches its blocked-at cycle.  One extra sentinel slot
            #: at the end holds -inf so the pool's -1 candidate padding
            #: (which wraps to index b*cv) can never trigger a wake.
            self._rel_stamp = np.full(b * cv + 1, -1, dtype=np.int64)
            self._rel_stamp[b * cv] = np.iinfo(np.int64).min
            #: Per-lane route-request / active-set sequence counters
            #: (the array counterparts of lane.route_seq and
            #: lane.next_active_seq).
            self._rseq = np.zeros(b, dtype=np.int64)
            self._nact = np.zeros(b, dtype=np.int64)
            self._progress = np.zeros(b, dtype=bool)
            #: Reserved VCs across all lanes (transmit-phase early-out).
            self._owned_any = 0

        def flat2(dtype: Any, fill: int = 0) -> Tuple[np.ndarray, np.ndarray]:
            arr = np.full((b, cv), fill, dtype=dtype)
            return arr, arr.reshape(-1)

        # Flit counters are int16 (validated above: message_length fits)
        # to halve the memory traffic of the per-cycle transmit kernel.
        self._owner, self._owner_f = flat2(np.int64, -1)
        self._occ, self._occ_f = flat2(np.int16)
        self._fin, self._fin_f = flat2(np.int16)
        self._fout, self._fout_f = flat2(np.int16)
        self._la, self._la_f = flat2(np.int32, -1)
        self._ld, self._ld_f = flat2(np.int32, -1)
        self._carried, self._carried_f = flat2(np.int64)
        self._up, self._up_f = flat2(np.int32, -1)
        self._inject, self._inject_f = flat2(np.int16)
        self._front, self._front_f = flat2(bool)
        self._isdst, self._isdst_f = flat2(bool)
        self._ejected, self._ejected_f = flat2(np.int16)

        self._rr_next = np.zeros((b, c), dtype=np.int32)
        self._rr_next_f = self._rr_next.reshape(-1)
        self._ch_moved = np.zeros((b, c), dtype=np.int64)
        self._ch_moved_f = self._ch_moved.reshape(-1)
        self._last_tx = np.full((b, c), -1, dtype=np.int32)
        self._last_tx_f = self._last_tx.reshape(-1)
        self._active_seq = np.full((b, c), -1, dtype=np.int64)
        self._active_seq_f = self._active_seq.reshape(-1)

        # "Still transmitting" mask (owned AND worm not fully received),
        # maintained incrementally — set on allocation (_flush), cleared
        # when the last flit lands (transmit kernel) or on release — so
        # the kernel's per-VC readiness test starts from one byte.
        self._txable_f = np.zeros(b * cv, dtype=bool)
        self._lane_on = np.ones(b, dtype=bool)
        #: The transmission phase: one C function over the arrays above
        #: (see repro.simulator.ckernel and _transmit.c).
        self._tx = TransmitKernel(
            lanes=b,
            channels=c,
            vcs=v,
            cap=self._cap,
            length=self._length,
            priority=self._priority,
            ideal=config.flow_control == "ideal",
            txable=self._txable_f,
            occ=self._occ_f,
            fin=self._fin_f,
            fout=self._fout_f,
            inject=self._inject_f,
            la=self._la_f,
            ld=self._ld_f,
            carried=self._carried_f,
            up=self._up_f,
            front=self._front_f,
            isdst=self._isdst_f,
            owner=self._owner_f,
            rr_next=self._rr_next_f,
            last_tx=self._last_tx_f,
            ch_moved=self._ch_moved_f,
            active_seq=self._active_seq_f,
            lane_on=self._lane_on,
        )

        # Deferred allocation/release writes, flushed as one batched
        # scatter per cycle (see _flush).  The scalar seam reads only the
        # per-lane Python mirrors, so these can lag until the next kernel.
        self._pend_rel: List[int] = []  # absolute indices to free
        #: Allocation rows (abs index, msg_id, upstream flat or -1,
        #: absolute upstream or 0, source-fed?, ends at destination?);
        #: one tuple per reservation, unzipped into scatters by _flush.
        self._pa_rows: List[Tuple[int, int, int, int, bool, bool]] = []
        #: Relaxed-mode allocation blocks: per-round ndarray tuples
        #: (abs, msg_id, up, up_abs, issrc, isdst) landed by _flush.
        self._pa_blocks: List[Tuple[np.ndarray, ...]] = []
        self._pa_act_ch: List[int] = []  # activation: absolute channel
        self._pa_act_seq: List[int] = []  # activation: assigned seq
        #: SoA-mode array counterparts (strict never appends to these):
        #: release blocks of absolute indices, and (channel, seq)
        #: activation block pairs.
        self._pend_rel_blocks: List[np.ndarray] = []
        self._pa_act_blocks: List[Tuple[np.ndarray, np.ndarray]] = []

        self.cycle = 0
        self.lanes: List[_Lane] = [
            _Lane(
                index,
                index * cv,
                seed,
                self.topology.num_nodes,
                cv,
                c,
                self.injection_rate,
                config.injection_limit,
                self._relaxed,
            )
            for index, seed in enumerate(self.seeds)
        ]
        if self._relaxed:
            # Lane-fused arrival schedule: every lane's per-node due
            # cycles in one [B, N] array, polled with one mask per cycle
            # instead of one numpy round-trip per lane.  Gap redraws
            # stay per lane (each lane's own stream), so a lane's
            # arrival sequence is independent of the batch composition.
            n_nodes = self.topology.num_nodes
            self._num_nodes = n_nodes
            self._gen_due = np.empty((b, n_nodes), dtype=np.int64)
            self._gen_due_f = self._gen_due.reshape(-1)
            for lane in self.lanes:
                # First arrivals at or after cycle 0 (cf.
                # BatchedGeometricArrivals.start(0, gen)).
                self._gen_due[lane.index] = -1 + lane.arr_buf.take(
                    n_nodes
                )
            self._gen_next = int(self._gen_due.min())
        self._running: List[Tuple[int, _Lane]] = list(enumerate(self.lanes))
        # Shared resolved-candidate cache, keyed like the object engine's
        # (head node, destination, algorithm state key); identical across
        # lanes because topology/algorithm are shared and deterministic.
        self._resolved_cache: Dict[
            Tuple[int, int, Hashable], Tuple[_Candidate, ...]
        ] = {}
        # _select scratch lists (cf. Engine._free_scratch/_best_scratch).
        self._free_scratch: List[_Candidate] = []
        self._best_scratch: List[_Candidate] = []

    # ------------------------------------------------------------------
    # public driving interface
    # ------------------------------------------------------------------

    @property
    def has_running_lanes(self) -> bool:
        return bool(self._running)

    @property
    def running_lane_indices(self) -> List[int]:
        return [b for b, _ in self._running]

    def lane_errors(self) -> Dict[int, DeadlockError]:
        """Deadlock errors recorded per failed lane index."""
        return {
            lane.index: lane.error
            for lane in self.lanes
            if lane.error is not None
        }

    def stop_lane(self, index: int) -> None:
        """Freeze a finished lane; the rest keep advancing in lockstep."""
        self._running = [
            (b, lane) for b, lane in self._running if b != index
        ]
        self._lane_on[index] = False
        if self._relaxed:
            # A frozen lane must stop generating: its due row would
            # otherwise keep matching the poll mask every cycle.
            self._gen_due[index] = _ARR_NEVER
            self._gen_next = int(self._gen_due.min())
            # Pull the lane's pending requests and delivering entries
            # out of the shared pools so the remaining lanes' kernels
            # never revisit them; both freeze on the lane
            # (state_fingerprint and deadlock reports still need them).
            lane = self.lanes[index]
            slots_p, _seqs = self._pool.lane_entries(index)
            if slots_p.shape[0]:
                lane.frozen_pending.extend(slots_p.tolist())
            self._pool.drop_lane(index)
            taken = self._dv.take_lane(index, self._cv)
            if taken.shape[0]:
                off = index * self._cv
                for a in taken.tolist():
                    lane.delivering.append(a - off)

    def run_cycles(self, cycles: int) -> None:
        """Advance every running lane by *cycles* lockstep cycles.

        Idle fast-forward mirrors the object engine's: when every running
        lane has nothing in flight, the clock jumps to the earliest
        pending arrival across lanes (the skipped cycles touch no state
        and no rng stream in any lane, so this is bit-identical to
        stepping each of them).
        """
        end = self.cycle + cycles
        while self.cycle < end:
            running = self._running
            if not running:
                self.cycle = end
                return
            if all(lane.in_flight == 0 for _, lane in running):
                if self._relaxed:
                    next_due = self._gen_next
                else:
                    next_due = min(
                        lane.arrivals.next_due for _, lane in running
                    )
                if next_due > self.cycle:
                    target = next_due if next_due < end else end
                    delta = target - self.cycle
                    self.cycle = target
                    for _, lane in running:
                        lane.cycle += delta
                    if self.cycle == end:
                        return
            self.step()

    def step(self) -> None:
        """One lockstep cycle: the object engine's four phases, batched."""
        if self._relaxed:
            self._step_soa()
        else:
            self._step_strict()

    def _step_strict(self) -> None:
        """One strict-identity cycle (scalar seam + shared kernels)."""
        cyc = self.cycle
        running = self._running
        for _, lane in running:
            if lane.arrivals.next_due <= cyc:
                self._generate_lane(lane, cyc)
        eject_flags: Optional[np.ndarray] = None
        for _, lane in running:
            if lane.delivering:
                eject_flags = self._eject_all(cyc)
                break
        policy = self.config.selection_policy
        route_flags = {}
        for b, lane in running:
            if lane.route_heap:
                route_flags[b] = self._route_lane(lane, b, policy)
        moves: Optional[np.ndarray] = None
        for _, lane in running:
            if lane.owned_total:
                self._flush()
                moves = self._transmit_kernel(cyc)
                break
        dead: List[Tuple[int, _Lane]] = []
        threshold = self.config.deadlock_threshold
        moves_list = moves.tolist() if moves is not None else None
        for b, lane in running:
            progressed = route_flags.get(b, False)
            if moves_list is not None:
                moved = moves_list[b]
                if moved:
                    lane.flits_moved_total += moved
                    progressed = True
            if eject_flags is not None and eject_flags[b]:
                progressed = True
            if progressed:
                lane.last_progress = cyc
            elif lane.in_flight and cyc - lane.last_progress > threshold:
                dead.append((b, lane))
        for b, lane in dead:
            self._fail_lane(b, lane)
        self.cycle = cyc + 1
        for _, lane in self._running:
            lane.cycle = self.cycle

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _step_soa(self) -> None:
        """One relaxed-identity cycle over the SoA message state.

        Same four phases; every per-message consequence (injection
        completion, release bookkeeping, ejection accounting, the
        epilogue, the winner commits) runs as masked array kernels over
        the slab — the per-lane loop below touches only O(B) progress
        counters, never messages.
        """
        cyc = self.cycle
        running = self._running
        if self._gen_next <= cyc:
            self._generate_soa(cyc)
        eject_flags: Optional[np.ndarray] = None
        if self._dv.n:
            eject_flags = self._eject_soa(cyc)
        progress = self._progress
        progress[:] = False
        if self._pool.n:
            self._route_soa(cyc)
        moves: Optional[np.ndarray] = None
        if self._owned_any:
            self._flush()
            moves = self._transmit_kernel(cyc)
        dead: List[Tuple[int, _Lane]] = []
        threshold = self.config.deadlock_threshold
        moves_list = moves.tolist() if moves is not None else None
        prog_list = progress.tolist()
        ej_list = (
            eject_flags.tolist() if eject_flags is not None else None
        )
        for b, lane in running:
            progressed = prog_list[b]
            if moves_list is not None:
                moved = moves_list[b]
                if moved:
                    lane.flits_moved_total += moved
                    progressed = True
            if ej_list is not None and ej_list[b]:
                progressed = True
            if progressed:
                lane.last_progress = cyc
            elif lane.in_flight and cyc - lane.last_progress > threshold:
                dead.append((b, lane))
        for b, lane in dead:
            self._fail_lane(b, lane)
        self.cycle = cyc + 1
        for _, lane in self._running:
            lane.cycle = self.cycle

    def advance_streams(self, index: int) -> None:
        """Fresh random streams for one lane (between sampling periods)."""
        lane = self.lanes[index]
        lane.rng.advance_epoch()
        lane.refresh_streams()
        if lane.relaxed:
            # Re-draw the lane's pending gaps from the fresh stream
            # (cf. BatchedGeometricArrivals.reseed).
            self._gen_due[index] = self.cycle + lane.arr_buf.take(
                self._num_nodes
            )
            self._gen_next = int(self._gen_due.min())
        else:
            lane.arrivals.reseed(self.cycle, lane.rng_arrivals)

    # -- sampling --------------------------------------------------------

    def start_sample(self, index: int) -> None:
        lane = self.lanes[index]
        assert lane.sample is None, "a sample is already active"
        lane.sample = SampleRecord(lane.cycle)
        lane.sample_chunks = []
        lane.sample_flits_base = lane.flits_moved_total
        lane.sample_generated_base = lane.controller.admitted
        lane.sample_refused_base = lane.controller.refused
        lane.sample_vc_base = self.vc_class_totals(index)

    def end_sample(self, index: int) -> SampleRecord:
        lane = self.lanes[index]
        sample = lane.sample
        assert sample is not None, "no sample is active"
        if self._relaxed:
            # Materialize the buffered per-cycle delivery chunks (the
            # SoA completion kernel never touches the record itself).
            for lat, hops in lane.sample_chunks:
                sample.extend_deliveries(lat.tolist(), hops.tolist())
            lane.sample_chunks = []
        sample.cycles = lane.cycle - sample.start_cycle
        sample.flits_moved = (
            lane.flits_moved_total - lane.sample_flits_base
        )
        sample.generated = (
            lane.controller.admitted - lane.sample_generated_base
        )
        sample.refused = lane.controller.refused - lane.sample_refused_base
        sample.vc_usage = [
            total - base
            for total, base in zip(
                self.vc_class_totals(index), lane.sample_vc_base
            )
        ]
        lane.sample = None
        return sample

    # ------------------------------------------------------------------
    # phase 1: generation (scalar per lane; identical to the object path)
    # ------------------------------------------------------------------

    def _generate_lane(self, lane: _Lane, cycle: int) -> None:
        due = lane.arrivals.pop_due(cycle, lane.rng_arrivals)
        rng_dest = lane.rng_destinations
        traffic = self.traffic
        for node in due:
            dst = traffic.sample_destination(node, rng_dest)
            if dst is not None:
                self._inject_lane(lane, node, dst, cycle)

    def _inject_lane(
        self, lane: _Lane, src: int, dst: int, cycle: int
    ) -> bool:
        algorithm = self.algorithm
        state = algorithm.new_state(src, dst)
        msg_class = algorithm.message_class(src, dst, state)
        if not lane.controller.try_admit(src, msg_class):
            return False
        message = _BatchMessage(
            msg_id=lane.msg_counter,
            src=src,
            dst=dst,
            distance=self.topology.distance(src, dst),
            route_state=state,
            msg_class=msg_class,
            created_at=cycle,
        )
        lane.msg_counter += 1
        lane.generated_total += 1
        lane.in_flight += 1
        lane.msgs[message.msg_id] = message
        self._enqueue_route(lane, message)
        return True

    # ------------------------------------------------------------------
    # phase 2: ejection (array kernel + scalar completions)
    # ------------------------------------------------------------------

    def _eject_all(self, cycle: int) -> np.ndarray:
        """Consume settled destination flits across all lanes at once."""
        blocks_a: List[np.ndarray] = []
        for _, lane in self._running:
            if lane.delivering:
                entries = np.asarray(lane.delivering, dtype=np.intp)
                entries += lane.off
                blocks_a.append(entries)
        ea = blocks_a[0] if len(blocks_a) == 1 else np.concatenate(blocks_a)
        flags, comp_a = self._eject_kernel(ea, cycle)
        if comp_a.size:
            cv = self._cv
            completed: Dict[int, Set[int]] = {}
            for a in comp_a.tolist():
                b, f = divmod(a, cv)
                lane = self.lanes[b]
                self._complete(lane, f)
                completed.setdefault(b, set()).add(f)
            for b, done in completed.items():
                lane = self.lanes[b]
                lane.delivering = [
                    f for f in lane.delivering if f not in done
                ]
        return flags

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _eject_kernel(
        self, ea: np.ndarray, cycle: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array-at-once ejection over the gathered delivering VCs.

        Only settled flits (present since the start of the cycle) are
        consumed; ejection never stamps last_departure_cycle, so the
        freed slots are visible to this same cycle's transmission — both
        exactly as in Engine._eject.
        """
        occ_f = self._occ_f
        settled = occ_f[ea] - (self._la_f[ea] == cycle)
        pos = settled > 0
        pa = ea[pos]
        ps = settled[pos]
        occ_f[pa] -= ps
        self._fout_f[pa] += ps
        ej_new = self._ejected_f[pa] + ps
        self._ejected_f[pa] = ej_new
        flags = np.zeros(self._b, dtype=bool)
        flags[pa // self._cv] = True
        comp = ej_new >= self._length
        return flags, pa[comp]

    def _complete(self, lane: _Lane, flat: int) -> None:
        message = lane.msgs[lane.owner_py[flat]]
        message.delivered_at = lane.cycle
        self._release(lane, flat, message)
        assert not message.path, "delivered message still holds channels"
        lane.in_flight -= 1
        lane.delivered_total += 1
        del lane.msgs[message.msg_id]
        sample = lane.sample
        if sample is not None:
            sample.deliveries.append(
                (message.delivered_at - message.created_at,
                 message.distance)
            )

    # ------------------------------------------------------------------
    # phase 3: routing / VC allocation (scalar per lane, parked waiters)
    # ------------------------------------------------------------------

    def _enqueue_route(self, lane: _Lane, message: _BatchMessage) -> None:
        seq = lane.route_seq
        lane.route_seq = seq + 1
        message.route_seq = seq
        heappush(lane.route_heap, (seq, message))

    def _route_lane(self, lane: _Lane, b: int, policy: str) -> bool:
        """Port of Engine._route with parking always on.

        Parking is invisible to the flit schedule (a blocked request
        consumes no rng), and the batch backend never attaches the
        observer/sanitizer hooks that would need per-cycle re-polls.
        """
        heap = lane.route_heap
        batch = sorted(heap)  # unique seqs: messages never compared
        heap.clear()
        rng = lane.rng_routing
        owner_py = lane.owner_py
        progressed = False
        for _seq, message in batch:
            candidates = message.cached_candidates
            if candidates is None:
                candidates = self._memo_candidates(message)
                message.cached_candidates = candidates
            # Inlined singleton fast path (deterministic algorithms and
            # single-free-candidate states dominate; no rng draw).
            if len(candidates) == 1:
                chosen: Optional[_Candidate] = candidates[0]
                if owner_py[candidates[0][0]] >= 0:
                    chosen = None
            else:
                chosen = self._select(lane, candidates, policy, rng)
            if chosen is None:
                self._park(lane, message, candidates)
                continue
            self._allocate(lane, b, message, chosen)
            progressed = True
        return progressed

    def _memo_candidates(
        self, message: _BatchMessage
    ) -> Sequence[_Candidate]:
        """Resolved candidates via the shared memo (cf. Engine version)."""
        algorithm = self.algorithm
        key = algorithm.state_key(message.route_state)
        v = self._v
        node = message.head_node
        if key is None:
            choices = algorithm.candidates(
                message.route_state, node, message.dst
            )
            return [
                (link.index * v + vc_class, link.index, vc_class, link)
                for link, vc_class in choices
            ]
        cache = self._resolved_cache
        entry = (node, message.dst, key)
        resolved = cache.get(entry)
        if resolved is None:
            choices = algorithm.candidates_cached(
                message.route_state, node, message.dst
            )
            resolved = tuple(
                (link.index * v + vc_class, link.index, vc_class, link)
                for link, vc_class in choices
            )
            cache[entry] = resolved
        return resolved

    def _select(
        self,
        lane: _Lane,
        candidates: Sequence[_Candidate],
        policy: str,
        rng: random.Random,
    ) -> Optional[_Candidate]:
        """Port of Engine._select over the lane's mirror state.

        rng consumption is identical: a randrange fires exactly when the
        object engine's would (>=2 free candidates under "random", or a
        least-multiplexed tie), so the routing stream stays in lockstep.
        """
        owner_py = lane.owner_py
        if len(candidates) == 1:
            entry = candidates[0]
            return entry if owner_py[entry[0]] < 0 else None
        free = self._free_scratch
        free.clear()
        for entry in candidates:
            if owner_py[entry[0]] < 0:
                free.append(entry)
        if not free:
            return None
        if len(free) == 1 or policy == "first":
            return free[0]
        if policy == "random":
            return free[rng.randrange(len(free))]
        owned_py = lane.owned_py
        best = self._best_scratch
        best.clear()
        best_load = owned_py[free[0][1]]
        for entry in free:
            load = owned_py[entry[1]]
            if load < best_load:
                best_load = load
                best.clear()
                best.append(entry)
            elif load == best_load:
                best.append(entry)
        if len(best) == 1:
            return best[0]
        return best[rng.randrange(len(best))]

    def _park(
        self,
        lane: _Lane,
        message: _BatchMessage,
        candidates: Sequence[_Candidate],
    ) -> None:
        epoch = message.park_epoch + 1
        message.park_epoch = epoch
        message.parked = True
        lane.parked[message.msg_id] = message
        waiters = lane.waiters
        for entry in candidates:
            bucket = waiters.get(entry[0])
            if bucket is None:
                waiters[entry[0]] = [(epoch, message)]
            else:
                bucket.append((epoch, message))

    def _wake_waiters(self, lane: _Lane, flat: int) -> None:
        waiters = lane.waiters.pop(flat, None)
        if waiters is None:
            return
        heap = lane.route_heap
        parked = lane.parked
        for epoch, message in waiters:
            if message.parked and message.park_epoch == epoch:
                message.parked = False
                del parked[message.msg_id]
                heappush(heap, (message.route_seq, message))

    def _allocate(
        self,
        lane: _Lane,
        b: int,
        message: _BatchMessage,
        chosen: _Candidate,
    ) -> None:
        """Reserve a VC for the message's next hop (cf. Engine._allocate +
        VirtualChannel.reserve).  Mirrors update immediately; the array
        writes are deferred into the pending lists for _flush."""
        flat, channel, vc_class, link = chosen
        current = message.head_node
        msg_id = message.msg_id
        off = lane.off
        lane.owner_py[flat] = msg_id
        path = message.path
        if path:
            up = path[-1]
            self._pa_rows.append(
                (off + flat, msg_id, up, off + up, False,
                 link.dst == message.dst)
            )
        else:
            message.src_flat = flat
            self._pa_rows.append(
                (off + flat, msg_id, -1, 0, True, link.dst == message.dst)
            )
        count = lane.owned_py[channel] + 1
        lane.owned_py[channel] = count
        if count == 1:
            self._pa_act_ch.append(b * self._c + channel)
            self._pa_act_seq.append(lane.next_active_seq)
            lane.next_active_seq += 1
        lane.owned_total += 1
        path.append(flat)
        message.head_node = link.dst
        message.route_state = self.algorithm.advance(
            message.route_state, current, link, vc_class
        )
        message.cached_candidates = None

    # ------------------------------------------------------------------
    # relaxed identity: SoA generation + table-driven routing kernels
    # ------------------------------------------------------------------

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _generate_soa(self, cycle: int) -> None:
        """Lane-fused generation straight into the message slab.

        One due-mask poll over every lane's per-node schedule; per due
        lane: batched gap redraws and destination draws (the lane's own
        streams, sizes determined only by its own schedule —
        composition-independent), vectorized injection-limit admission
        against the outstanding array (due nodes are unique within a
        poll because gaps are >= 1, so counts cannot interact within a
        cycle), then one block write of the admitted messages' slab
        columns and route requests.  No message objects are built.

        Frozen lanes hold _ARR_NEVER rows and never match the mask.
        Due node ids come out in ascending node order per lane (the
        scalar heap yields heap order — a relaxed-identity difference).
        """
        due_f = self._gen_due_f
        hits = np.nonzero(due_f <= cycle)[0]
        n = self._num_nodes
        lanes_h = hits // n
        nodes_h = hits - lanes_h * n
        cuts = np.nonzero(lanes_h[1:] != lanes_h[:-1])[0] + 1
        bounds = np.empty(cuts.shape[0] + 2, dtype=np.intp)
        bounds[0] = 0
        bounds[1:-1] = cuts
        bounds[-1] = hits.shape[0]
        lanes = self.lanes
        dest_table = self._dest_table
        # Only the prefetch-buffer slices are per lane (each lane's own
        # streams, sizes determined only by its own schedule); the
        # destination transform is elementwise per draw, so it — and
        # everything downstream: interning gathers, admission, the
        # slab/pool block writes — fuses across lanes into one batch
        # keyed by the lane-id column.
        u_parts: List[np.ndarray] = []
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            lane = lanes[int(lanes_h[s])]
            due_f[hits[s:e]] = cycle + lane.arr_buf.take(e - s)
            u_parts.append(lane.dst_buf.take(e - s))
        self._gen_next = int(self._gen_due.min())
        if not u_parts:
            return
        ub = (
            u_parts[0]
            if len(u_parts) == 1
            else np.concatenate(u_parts)
        )
        dsts = destinations_from_uniforms(dest_table, nodes_h, ub)
        act = dsts >= 0
        if not act.any():
            return
        lb = lanes_h[act]
        srcs = nodes_h[act]
        dd = dsts[act]
        key = srcs * n + dd
        rows = self._ic_row[key]
        miss = rows < 0
        if miss.any():
            self._intern_pairs(np.unique(key[miss]))
            rows = self._ic_row[key]
        cls = self._ic_cls[key]
        limit = self.config.injection_limit
        if limit is not None:
            # Admission keys are unique within the batch (gaps >= 1
            # mean one arrival per node per lane-cycle), so the masked
            # increment below cannot self-interact.
            okey = lb * self._outst.shape[1] + cls * n + srcs
            admit = self._outst_f[okey] < limit
            if not admit.all():
                ref_l = np.bincount(lb[~admit], minlength=self._b)
                for b in np.nonzero(ref_l)[0].tolist():
                    lanes[b].controller.refused += int(ref_l[b])
                lb = lb[admit]
                if not lb.shape[0]:
                    return
                srcs = srcs[admit]
                dd = dd[admit]
                key = key[admit]
                rows = rows[admit]
                cls = cls[admit]
                okey = okey[admit]
            self._outst_f[okey] += 1
        total = lb.shape[0]
        slab = self._slab
        slots = np.empty(total, dtype=np.int32)
        mids = np.empty(total, dtype=np.int64)
        seqs = np.empty(total, dtype=np.int64)
        arange_t = np.arange(total, dtype=np.int64)
        cuts2 = np.nonzero(lb[1:] != lb[:-1])[0] + 1
        bounds2 = np.empty(cuts2.shape[0] + 2, dtype=np.intp)
        bounds2[0] = 0
        bounds2[1:-1] = cuts2
        bounds2[-1] = total
        for s, e in zip(bounds2[:-1].tolist(), bounds2[1:].tolist()):
            b = int(lb[s])
            lane = lanes[b]
            count = e - s
            slab.ensure(b, count)
            slots[s:e] = slab.alloc(b, count)
            within = arange_t[s:e] - s
            mids[s:e] = lane.msg_counter + within
            seq0 = int(self._rseq[b])
            seqs[s:e] = seq0 + within
            self._rseq[b] = seq0 + count
            lane.msg_counter += count
            lane.generated_total += count
            lane.in_flight += count
            lane.controller.admitted += count
        # Column views are read after every ensure() — growth replaces
        # them but preserves slot numbers, so `g` stays valid.
        g = lb * slab.capacity + slots
        slab.src_f[g] = srcs
        slab.dst_f[g] = dd
        slab.dist_f[g] = self._ic_dist[key]
        slab.length_f[g] = self._length
        slab.inj_f[g] = 0
        slab.ej_f[g] = 0
        slab.head_f[g] = srcs
        slab.head_flat_f[g] = -1
        slab.tail_flat_f[g] = -1
        slab.src_flat_f[g] = -1
        slab.row_f[g] = rows
        slab.born_f[g] = cycle
        slab.wait_f[g] = cycle
        slab.mid_f[g] = mids
        slab.cls_f[g] = cls
        slab.live_f[g] = True
        cf = self._table.cand_flat[rows]
        cand_abs = np.where(
            cf >= 0, cf + (lb * self._cv)[:, None], -1
        )
        self._pool.extend(lb, slots, seqs, cand_abs)

    def _intern_pairs(self, keys: np.ndarray) -> None:
        """Intern (src, dst) pairs: route row, class id, distance.

        Amortized cold path — each pair runs the injection-time
        algorithm callbacks exactly once, like the object engine's
        memoization; new message classes append a column block to the
        outstanding array.
        """
        algorithm = self.algorithm
        table = self._table
        topology = self.topology
        n = self._num_nodes
        for key in keys.tolist():
            src, dst = divmod(key, n)
            state = algorithm.new_state(src, dst)
            self._ic_row[key] = table.row_for(src, dst, state)
            msg_class = algorithm.message_class(src, dst, state)
            cid = self._class_ids.get(msg_class)
            if cid is None:
                cid = len(self._class_list)
                self._class_ids[msg_class] = cid
                self._class_list.append(msg_class)
                if (cid + 1) * n > self._outst.shape[1]:
                    wide = np.zeros(
                        (self._b, (cid + 1) * n), dtype=np.int64
                    )
                    wide[:, :self._outst.shape[1]] = self._outst
                    self._outst = wide
                    self._outst_f = wide.reshape(-1)
            self._ic_cls[key] = cid
            self._ic_dist[key] = topology.distance(src, dst)

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _route_soa(self, cycle: int) -> None:
        """Round-based routing/VC allocation over the woken requests.

        Park/wake, vectorized: a pooled request re-tests only when it
        has never been tested or some cached candidate VC's release
        stamp reached the cycle it blocked (a VC only turns free
        through a release, so skipped requests provably have zero free
        candidates — and since blocked requests consume no rng, the
        stamp test's spurious wakes are draw-for-draw invisible,
        exactly like the object engine's wake lists).

        The woken subset is ordered by (lane, seq) — the strict
        sequential scan order — then each round evaluates candidate
        freeness against the flushed owner array, applies the selection
        policy with per-lane batched tie-break draws, resolves same-VC
        conflicts by first occurrence, and commits the winners with
        masked scatters only (owner/activation writes deferred to
        _flush, slab columns updated in place).  Requests with no free
        candidate park with this cycle's stamp.

        Rng draws group per lane and depend only on that lane's own
        request state (lanes never contend for each other's VCs), so a
        lane's results are independent of the batch composition.
        """
        pool = self._pool
        m = pool.n
        cand_cols = pool.cand[:, :m]
        blk = pool.blocked[:m]
        # -1 candidate padding wraps to _rel_stamp's -inf sentinel;
        # tombstones carry DEAD_STAMP and can never wake.  One 1-D
        # gather per candidate position (the transposed pool layout)
        # beats a single strided 2-D gather ~3x here.
        rel_stamp = self._rel_stamp
        wake = blk < 0
        for w in range(cand_cols.shape[0]):
            wake |= rel_stamp[cand_cols[w]] >= blk
        test = np.nonzero(wake)[0]
        if not test.shape[0]:
            return
        lanes_all = pool.lane[:m]
        order = test[np.lexsort((pool.seq[:m][test], lanes_all[test]))]
        lanes_p = lanes_all[order]
        slots_p = pool.slot[:m][order]
        absc_p = cand_cols[:, order].T
        valid_p = absc_p >= 0
        slab = self._slab
        g_p = lanes_p * slab.capacity + slots_p
        offs = lanes_p * self._cv
        rows = slab.row_f[g_p]
        ups = slab.head_flat_f[g_p].astype(np.int64)
        table = self._table
        v = self._v
        owner_f = self._owner_f
        owned_ch_f = self._owned_ch_f
        policy = self.config.selection_policy
        progress = self._progress
        mt = order.shape[0]
        blocked = np.zeros(mt, dtype=bool)
        alive = np.arange(mt, dtype=np.intp)
        while alive.shape[0]:
            # Round start: land the previous round's reservations (and
            # any pending ejection releases) in the owner array.
            self._flush()
            r = rows[alive]
            valid = valid_p[alive]
            # Padded (-1) candidates index a garbage cell; every read
            # through `absc` is masked by `valid`.
            absc = absc_p[alive]
            free = valid & (owner_f[absc] < 0)
            nfree = free.sum(axis=1)
            has = nfree > 0
            if not has.all():
                blocked[alive[~has]] = True
                alive = alive[has]
                if not alive.shape[0]:
                    break
                r = r[has]
                free = free[has]
                nfree = nfree[has]
                absc = absc[has]
            if policy == "first":
                k = free.argmax(axis=1)
            elif policy == "random":
                t = self._relaxed_tiebreaks(lanes_p[alive], nfree)
                rank = free.cumsum(axis=1) - 1
                k = (free & (rank == t[:, None])).argmax(axis=1)
            else:  # least_multiplexed
                # abs // V = lane * C + channel: loads gather without a
                # second table lookup.
                loads = np.where(
                    free, owned_ch_f[absc // v], _LOAD_INF
                )
                tie = loads == loads.min(axis=1)[:, None]
                t = self._relaxed_tiebreaks(
                    lanes_p[alive], tie.sum(axis=1)
                )
                rank = tie.cumsum(axis=1) - 1
                k = (tie & (rank == t[:, None])).argmax(axis=1)
            chosen = absc[np.arange(alive.shape[0]), k]
            # First occurrence per VC wins; requests are ordered by
            # (lane, route_seq), so this is the strict sequential order.
            win = np.zeros(alive.shape[0], dtype=bool)
            win[np.unique(chosen, return_index=True)[1]] = True
            jw = alive[win]
            kw = k[win]
            ca = chosen[win]
            ro = r[win]
            g_w = g_p[jw]
            # Reserved-VC counts and 0->1 activations, in commit order.
            ch_abs = ca // v
            first = np.zeros(ch_abs.shape[0], dtype=bool)
            first[np.unique(ch_abs, return_index=True)[1]] = True
            newly = first & (owned_ch_f[ch_abs] == 0)
            np.add.at(owned_ch_f, ch_abs, 1)
            if newly.any():
                idx = np.nonzero(newly)[0]
                self._pa_act_blocks.append(
                    (
                        ch_abs[idx],
                        self._draw_seqs(lanes_p[jw[idx]], self._nact),
                    )
                )
            self._owned_any += int(jw.shape[0])
            # Allocation scatters queue as one block (landed by the
            # next _flush); successors gather from the table with a
            # scalar fallback for first-traversal interning.
            isdst = table.term[ro, kw]
            up = ups[jw]
            src_mask = up < 0
            up_abs = np.where(src_mask, 0, offs[jw] + up)
            self._pa_blocks.append(
                (
                    ca,
                    slots_p[jw].astype(np.int64),
                    up,
                    up_abs,
                    src_mask,
                    isdst,
                )
            )
            flat_w = ca - offs[jw]
            srows = table.succ[ro, kw]
            nonterm = np.nonzero(~isdst)[0]
            miss = nonterm[srows[nonterm] < 0]
            for i in miss.tolist():
                srows[i] = table.successor(int(ro[i]), int(kw[i]))
            slab.row_f[g_w[nonterm]] = srows[nonterm]
            slab.head_f[g_w] = table.cand_dst[ro, kw]
            slab.head_flat_f[g_w] = flat_w
            sm = np.nonzero(src_mask)[0]
            slab.src_flat_f[g_w[sm]] = flat_w[sm]
            slab.tail_flat_f[g_w[sm]] = flat_w[sm]
            progress[lanes_p[jw]] = True
            alive = alive[~win]
        # Winners tombstone in place; the blocked park with this
        # cycle's stamp (a release at or after it wakes them);
        # untested parked entries stay put untouched.  Compaction is
        # amortized: only once tombstones reach a quarter of the pool.
        pool.blocked[:m][order[blocked]] = cycle
        pool.kill(order[~blocked])
        if pool.dead * 4 > pool.n:
            pool.prune()

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _draw_seqs(
        self, nb: np.ndarray, counter: np.ndarray
    ) -> np.ndarray:
        """Per-lane consecutive sequence numbers for the lane-sorted id
        array *nb* (non-empty), advancing *counter* in place.

        Used for route-request seqs (epilogue order) and active-set
        seqs (commit order): each lane's entries take consecutive
        numbers from its own counter, exactly the strict per-lane
        increment order.
        """
        cuts = np.nonzero(nb[1:] != nb[:-1])[0] + 1
        starts = np.empty(cuts.shape[0] + 1, dtype=np.intp)
        starts[0] = 0
        starts[1:] = cuts
        counts = np.empty(starts.shape[0], dtype=np.int64)
        counts[:-1] = np.diff(starts)
        counts[-1] = nb.shape[0] - starts[-1]
        seg_lanes = nb[starts]
        base = counter[seg_lanes]
        within = np.arange(nb.shape[0], dtype=np.int64) - np.repeat(
            starts, counts
        )
        counter[seg_lanes] += counts
        return np.repeat(base, counts) + within

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _relaxed_tiebreaks(
        self, lane_ids: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """Per-lane batched tie-break draws: t[j] uniform in [0, high[j]).

        Entries with high <= 1 draw nothing (the strict scalar _select
        consumes rng only on a real choice, and the relaxed streams keep
        that discipline so draw counts stay lane-local).  *lane_ids* is
        non-decreasing (requests are built lane by lane), so the needed
        draws split into contiguous per-lane segments, each served by one
        Generator.integers call on its own lane's routing stream.
        """
        t = np.zeros(high.shape[0], dtype=np.int64)
        need = np.nonzero(high > 1)[0]
        if not need.shape[0]:
            return t
        nl = lane_ids[need]
        cuts = np.nonzero(nl[1:] != nl[:-1])[0] + 1
        bounds = np.empty(cuts.shape[0] + 2, dtype=np.intp)
        bounds[0] = 0
        bounds[1:-1] = cuts
        bounds[-1] = nl.shape[0]
        lanes = self.lanes
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            idx = need[s:e]
            gen = lanes[int(nl[s])].gen_routing
            t[idx] = gen.integers(high[idx])
        return t

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _epilogue_soa(
        self,
        ev_b: np.ndarray,
        ev_flat: np.ndarray,
        ev_slot: np.ndarray,
        ev_up: np.ndarray,
        ev_code: np.ndarray,
        cycle: int,
    ) -> None:
        """Apply the move consequences as masked scatters over the slab.

        Events arrive lane-major in move order — the object engine's
        order — so the per-lane route-request seq draws
        below assign consecutive numbers in exactly the strict order;
        every other consequence (delivery registration, injection
        completion, release) is order-free bookkeeping.
        """
        slab = self._slab
        g = ev_b * slab.capacity + ev_slot
        r0 = np.nonzero(ev_code & 1)[0]
        if r0.shape[0]:
            rows0 = slab.row_f[g[r0]]
            cf = self._table.cand_flat[rows0]
            cand_abs = np.where(
                cf >= 0, cf + (ev_b[r0] * self._cv)[:, None], -1
            )
            self._pool.extend(
                ev_b[r0],
                ev_slot[r0].astype(np.int32),
                self._draw_seqs(ev_b[r0], self._rseq),
                cand_abs,
            )
            slab.wait_f[g[r0]] = cycle
        r1 = np.nonzero(ev_code & 2)[0]
        if r1.shape[0]:
            self._dv.extend(ev_b[r1] * self._cv + ev_flat[r1])
        if self.config.injection_limit is not None:
            r2 = np.nonzero(ev_code & 4)[0]
            if r2.shape[0]:
                g2 = g[r2]
                okey = (
                    ev_b[r2] * self._outst.shape[1]
                    + slab.cls_f[g2].astype(np.int64) * self._num_nodes
                    + slab.src_f[g2]
                )
                np.subtract.at(self._outst_f, okey, 1)
        r3 = np.nonzero(ev_code & 8)[0]
        if r3.shape[0]:
            rel = ev_b[r3] * self._cv + ev_up[r3]
            self._pend_rel_blocks.append(rel)
            self._rel_stamp[rel] = cycle
            np.subtract.at(self._owned_ch_f, rel // self._v, 1)
            self._owned_any -= int(r3.shape[0])
            # Releases are tail-order: the freed upstream VC was the
            # worm's tail, and the event's target VC is the next link.
            slab.tail_flat_f[g[r3]] = ev_flat[r3]

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _eject_soa(self, cycle: int) -> np.ndarray:
        """_eject_kernel over the deliver queue with slab accounting.

        Same settled-flit consumption as the strict kernel; the per
        message ejected count lives in the slab (gathered through the
        owner array, which stores slots in relaxed mode), and completed
        messages retire through one masked kernel instead of scalar
        _complete calls.
        """
        dv = self._dv
        ea = dv.abs[:dv.n]
        occ_f = self._occ_f
        settled = occ_f[ea] - (self._la_f[ea] == cycle)
        pos_idx = np.nonzero(settled > 0)[0]
        pa = ea[pos_idx]
        ps = settled[pos_idx]
        occ_f[pa] -= ps
        self._fout_f[pa] += ps
        slab = self._slab
        gp = (pa // self._cv) * slab.capacity + self._owner_f[pa]
        ej_new = slab.ej_f[gp] + ps
        slab.ej_f[gp] = ej_new
        flags = np.zeros(self._b, dtype=bool)
        flags[pa // self._cv] = True
        comp = np.nonzero(ej_new >= self._length)[0]
        if comp.shape[0]:
            self._complete_soa(cycle, pa[comp], gp[comp])
            keep = np.ones(dv.n, dtype=bool)
            keep[pos_idx[comp]] = False
            dv.keep(keep)
        return flags

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _complete_soa(
        self, cycle: int, comp_abs: np.ndarray, g: np.ndarray
    ) -> None:
        """Retire fully-ejected messages: release the last VC, free the
        slot, buffer the sample delivery stats as array chunks.

        The stable lane sort preserves each lane's deliver-queue
        registration order, which is the order strict mode appends
        sample deliveries in.
        """
        slab = self._slab
        self._pend_rel_blocks.append(comp_abs)
        self._rel_stamp[comp_abs] = cycle
        np.subtract.at(self._owned_ch_f, comp_abs // self._v, 1)
        self._owned_any -= int(comp_abs.shape[0])
        slab.live_f[g] = False
        cap = slab.capacity
        bo = comp_abs // self._cv
        order = np.argsort(bo, kind="stable")
        go = g[order]
        bo = bo[order]
        lat = cycle - slab.born_f[go]
        hops = slab.dist_f[go].astype(np.int64)
        slots = (go - bo * cap).astype(np.int32)
        cuts = np.nonzero(bo[1:] != bo[:-1])[0] + 1
        bounds = np.empty(cuts.shape[0] + 2, dtype=np.intp)
        bounds[0] = 0
        bounds[1:-1] = cuts
        bounds[-1] = bo.shape[0]
        lanes = self.lanes
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            lane = lanes[int(bo[s])]
            count = e - s
            lane.in_flight -= count
            lane.delivered_total += count
            slab.release(int(bo[s]), slots[s:e])
            if lane.sample is not None:
                lane.sample_chunks.append((lat[s:e], hops[s:e]))

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _flush(self) -> None:
        """Apply the deferred allocation/release writes as array scatters.

        Releases apply before allocations so a VC freed in one cycle and
        re-reserved the next lands owned.  Stale per-VC fields on *free*
        cells (front/up/issrc from a previous owner) are harmless: every
        kernel read of them is masked by ``owner >= 0``.
        """
        pend_rel = self._pend_rel
        if pend_rel:
            rel = np.asarray(pend_rel, dtype=np.intp)
            self._owner_f[rel] = -1
            self._txable_f[rel] = False
            pend_rel.clear()
        rel_blocks = self._pend_rel_blocks
        if rel_blocks:
            rel = (
                rel_blocks[0]
                if len(rel_blocks) == 1
                else np.concatenate(rel_blocks)
            )
            self._owner_f[rel] = -1
            self._txable_f[rel] = False
            rel_blocks.clear()
        rows = self._pa_rows
        if rows:
            c_abs, c_id, c_up, c_up_abs, c_src, c_dst = zip(*rows)
            self._flush_alloc(
                np.asarray(c_abs, dtype=np.intp),
                np.asarray(c_id, dtype=np.int64),
                np.asarray(c_up, dtype=np.int64),
                np.asarray(c_up_abs, dtype=np.intp),
                np.asarray(c_src, dtype=bool),
                np.asarray(c_dst, dtype=bool),
            )
            rows.clear()
        blocks = self._pa_blocks
        if blocks:
            if len(blocks) == 1:
                self._flush_alloc(*blocks[0])
            else:
                self._flush_alloc(
                    *(
                        np.concatenate(parts)
                        for parts in zip(*blocks)
                    )
                )
            blocks.clear()
        if self._pa_act_ch:
            self._active_seq_f[
                np.asarray(self._pa_act_ch, dtype=np.intp)
            ] = np.asarray(self._pa_act_seq, dtype=np.int64)
            self._pa_act_ch.clear()
            self._pa_act_seq.clear()
        act_blocks = self._pa_act_blocks
        if act_blocks:
            if len(act_blocks) == 1:
                chs, seqs = act_blocks[0]
            else:
                chs, seqs = (
                    np.concatenate(parts)
                    for parts in zip(*act_blocks)
                )
            self._active_seq_f[chs] = seqs
            act_blocks.clear()

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _flush_alloc(
        self,
        a: np.ndarray,
        ids: np.ndarray,
        up: np.ndarray,
        up_abs: np.ndarray,
        src: np.ndarray,
        isdst: np.ndarray,
    ) -> None:
        """Land one batch of allocation scatters in the flat arrays."""
        self._owner_f[a] = ids
        self._txable_f[a] = True
        self._fin_f[a] = 0
        self._fout_f[a] = 0
        self._la_f[a] = -1
        self._ld_f[a] = -1
        self._ejected_f[a] = 0
        self._up_f[a] = up.astype(np.int32)
        self._front_f[a] = True
        # The upstream VC stops being the worm front (its head moved
        # on); disjoint from `a` — a message allocates at most one
        # hop per cycle, so an upstream hop predates this batch.
        self._front_f[up_abs[~src]] = False
        self._isdst_f[a] = isdst
        self._inject_f[a[src]] = self._length

    # ------------------------------------------------------------------
    # phase 4: transmission (the C kernel, see repro.simulator.ckernel)
    # ------------------------------------------------------------------

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def _transmit_kernel(self, cycle: int) -> Optional[np.ndarray]:
        """One transmission phase over every running lane (C kernel).

        The kernel polls each lane's reserved channels in active-set
        order against live state and commits every move at once, so
        it computes ideal flow control's same-cycle fixpoint exactly as
        the object engine does (passes repeat until one moves nothing);
        under conservative flow control one pass suffices.  Its events
        come back lane-major in move order — the object engine's order
        — and are applied by the epilogue of the identity mode.

        Returns the per-lane flit counts, or None when nothing moved.
        """
        tx = self._tx
        if self._relaxed:
            slab = self._slab
            moved = tx.run(cycle, slab.inj_f, slab.capacity)
        else:
            moved = tx.run(cycle)
        if not moved:
            return None
        k = tx.n_events
        if k:
            if self._relaxed:
                self._epilogue_soa(
                    tx.ev_lane[:k],
                    tx.ev_flat[:k],
                    tx.ev_owner[:k],
                    tx.ev_up[:k],
                    tx.ev_code[:k],
                    cycle,
                )
            else:
                self._transmit_epilogue(
                    tx.ev_lane[:k],
                    tx.ev_flat[:k],
                    tx.ev_owner[:k],
                    tx.ev_up[:k],
                    tx.ev_code[:k],
                )
        return tx.lane_moves

    def _transmit_epilogue(
        self,
        ev_b: np.ndarray,
        ev_flat: np.ndarray,
        ev_owner: np.ndarray,
        ev_up: np.ndarray,
        ev_code: np.ndarray,
    ) -> None:
        """Apply the scalar move consequences in object-engine order.

        Per move the order matches the arrival epilogue of
        Engine._transmit: the head-arrival action (route request or
        delivery registration) first, then injection-complete, then the
        upstream release.
        """
        lanes = self.lanes
        e_b = ev_b.tolist()
        e_flat = ev_flat.tolist()
        e_owner = ev_owner.tolist()
        e_up = ev_up.tolist()
        e_code = ev_code.tolist()
        for j in range(len(e_b)):
            lane = lanes[e_b[j]]
            message = lane.msgs[e_owner[j]]
            code = e_code[j]
            if code & 1:
                self._enqueue_route(lane, message)
            elif code & 2:
                lane.delivering.append(e_flat[j])
            if code & 4:
                lane.controller.injection_complete(
                    message.src, message.msg_class
                )
            if code & 8:
                self._release(lane, e_up[j], message)

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def _release(
        self, lane: _Lane, flat: int, message: _BatchMessage
    ) -> None:
        popped = message.path.popleft()
        assert popped == flat, "releasing out of tail order"
        lane.owner_py[flat] = -1
        lane.owned_py[flat // self._v] -= 1
        lane.owned_total -= 1
        self._pend_rel.append(lane.off + flat)
        self._wake_waiters(lane, flat)

    def _fail_lane(self, b: int, lane: _Lane) -> None:
        """Record a deadlock on one lane and freeze it; others continue."""
        stuck = []
        if self._relaxed:
            # The lane's blocked requests sit in the shared pool (this
            # runs before stop_lane drops them); report from the slab.
            slots_p, _seqs = self._pool.lane_entries(b)
            for slot in slots_p[:8].tolist():
                mv = self._slab.view(b, slot)
                stuck.append(
                    f"msg#{mv.msg_id} {mv.src}->{mv.dst} "
                    f"head at {mv.head_node} "
                    f"(request queued at cycle {mv.wait_since})"
                )
        else:
            waiting: List[_BatchMessage] = [
                entry[1] for entry in sorted(lane.route_heap)
            ]
            waiting.extend(lane.parked.values())
            for message in waiting[:8]:
                stuck.append(
                    f"msg#{message.msg_id} {message.src}->{message.dst} "
                    f"head at {message.head_node}"
                )
        summary = (
            f"no progress for {self.config.deadlock_threshold} cycles at "
            f"cycle {self.cycle} with {lane.in_flight} messages in flight "
            f"(algorithm={self.algorithm.name}); sample of waiting "
            f"messages: {'; '.join(stuck) or 'none in route queue'}"
        )
        lane.error = DeadlockError(
            summary
            + f" [batch lane {b}, seed {lane.seed}]"
            + " (run with backend='object' and "
            "SimulationConfig.sanitize=True for a wait-for-graph "
            "diagnosis)"
        )
        self.stop_lane(b)

    # ------------------------------------------------------------------
    # introspection (mirrors the object engine's helpers, per lane)
    # ------------------------------------------------------------------

    def vc_class_totals(self, index: int) -> List[int]:
        """Lifetime flits carried per VC class in one lane."""
        carried = self._carried[index].reshape(self._c, self._v)
        return [int(x) for x in carried.sum(axis=0)]

    def network_flits(self, index: int) -> int:
        """Flits currently buffered in one lane's network."""
        return int(self._occ[index].sum())

    def _msg_flits_to_inject(self, b: int, message: _BatchMessage) -> int:
        src_flat = message.src_flat
        if src_flat is None:
            return self._length  # first hop never allocated yet
        lane = self.lanes[b]
        if lane.owner_py[src_flat] == message.msg_id:
            return int(self._inject[b, src_flat])
        return 0  # source VC drained and released: all flits left

    def _msg_flits_ejected(self, b: int, message: _BatchMessage) -> int:
        path = message.path
        if not path:
            return 0
        return int(self._ejected[b, path[-1]])

    def _iter_live_messages(self, lane: _Lane) -> Iterator[Any]:
        # Strict: lane.msgs holds exactly the undelivered messages
        # (inserted at admission, removed at completion), which is the
        # set Engine._iter_live_messages walks via queue/heap/parked/
        # owners.  Relaxed: the slab's live slots are the same set, and
        # the yielded MessageView exposes the same attribute names.
        if self._relaxed:
            return self._slab.iter_live(lane.index)
        return iter(lane.msgs.values())

    def conservation_check(self, index: int) -> bool:
        """Invariant: every admitted flit is accounted for, per lane."""
        self._flush()
        lane = self.lanes[index]
        length = self._length
        expected = lane.generated_total * length
        at_source = 0
        ejected = 0
        if self._relaxed:
            slab = self._slab
            live = slab.live[index]
            at_source = int(
                (slab.length[index][live] - slab.inj[index][live]).sum()
            )
            ejected = int(slab.ej[index][live].sum())
        else:
            for message in self._iter_live_messages(lane):
                at_source += self._msg_flits_to_inject(index, message)
                ejected += self._msg_flits_ejected(index, message)
        delivered_flits = lane.delivered_total * length
        return expected == (
            at_source + self.network_flits(index) + ejected
            + delivered_flits
        )

    def state_fingerprint(self, index: int) -> Tuple:
        """Per-lane digest, field-identical to Engine.state_fingerprint.

        The cross-backend tests compare this tuple against an object
        engine driven with the same config and this lane's seed.
        """
        self._flush()
        lane = self.lanes[index]
        b = index
        v = self._v
        if self._relaxed:
            # Relaxed owner cells hold slab slots; map them to the
            # per-lane message ids the object fingerprint reports.
            own_row = self._owner[b]
            own_l = np.where(
                own_row >= 0,
                self._slab.mid[b][own_row.clip(min=0)],
                -1,
            ).tolist()
        else:
            own_l = lane.owner_py
        occ_l = self._occ[b].tolist()
        fin_l = self._fin[b].tolist()
        fout_l = self._fout[b].tolist()
        la_l = self._la[b].tolist()
        ld_l = self._ld[b].tolist()
        car_l = self._carried[b].tolist()
        chm_l = self._ch_moved[b].tolist()
        rr_l = self._rr_next[b].tolist()
        ltx_l = self._last_tx[b].tolist()
        channels_fp = []
        for c in range(self._c):
            base = c * v
            vcs_fp = []
            for vc_class in range(v):
                f = base + vc_class
                owner_id = own_l[f]
                if owner_id >= 0 or car_l[f]:
                    vcs_fp.append(
                        (
                            vc_class,
                            owner_id if owner_id >= 0 else None,
                            occ_l[f],
                            fin_l[f],
                            fout_l[f],
                            la_l[f],
                            ld_l[f],
                            car_l[f],
                        )
                    )
            channels_fp.append(
                (chm_l[c], rr_l[c], ltx_l[c], tuple(vcs_fp))
            )
        if self._relaxed:
            slab = self._slab
            slots_p, _seqs = self._pool.lane_entries(b)
            mid_row = slab.mid[b]
            pending = sorted(
                int(mid_row[s])
                for s in slots_p.tolist() + lane.frozen_pending
            )
            rep_state = self._table.rep_state
            messages_fp = tuple(
                sorted(
                    (
                        int(mid_row[s]),
                        int(slab.src[b][s]),
                        int(slab.dst[b][s]),
                        int(slab.born[b][s]),
                        int(slab.length[b][s] - slab.inj[b][s]),
                        int(slab.ej[b][s]),
                        int(slab.head[b][s]),
                        route_state_fingerprint(
                            rep_state[int(slab.row[b][s])]
                        ),
                    )
                    for s in np.nonzero(slab.live[b])[0].tolist()
                )
            )
            # Running lanes' delivering flats live in the shared queue
            # (registration order); stopped lanes froze theirs locally.
            da = self._dv.abs[:self._dv.n]
            dflats = (
                (da[da // self._cv == b] - b * self._cv).tolist()
                + lane.delivering
            )
        else:
            pending = sorted(
                [entry[1].msg_id for entry in lane.route_heap]
                + list(lane.parked)
            )
            messages_fp = tuple(
                sorted(
                    (
                        message.msg_id,
                        message.src,
                        message.dst,
                        message.created_at,
                        self._msg_flits_to_inject(b, message),
                        self._msg_flits_ejected(b, message),
                        message.head_node,
                        route_state_fingerprint(message.route_state),
                    )
                    for message in self._iter_live_messages(lane)
                )
            )
            dflats = lane.delivering
        delivering = tuple(
            (f // v, f % v) for f in dflats
        )
        controller = lane.controller
        if self._relaxed:
            # Relaxed lanes draw from the numpy streams; digest those
            # (repr keeps the tuple hashable) instead of the untouched
            # scalar streams.
            next_due = int(self._gen_due[b].min())
            rng_fp: Tuple[Any, ...] = tuple(
                repr(lane.rng.numpy_stream(name).bit_generator.state)
                for name in (
                    STREAM_ARRIVALS, STREAM_DESTINATIONS, STREAM_ROUTING
                )
            )
            # The outstanding-injection dict lives in the _outst array
            # in relaxed mode; rebuild the nonzero items (the object
            # controller deletes keys that reach zero).
            nzo = np.nonzero(self._outst[b])[0]
            nn = self._num_nodes
            outst_items: Tuple[Any, ...] = tuple(
                sorted(
                    (
                        (int(k) % nn, self._class_list[int(k) // nn]),
                        int(self._outst[b][k]),
                    )
                    for k in nzo.tolist()
                )
            )
        else:
            next_due = lane.arrivals.next_due
            rng_fp = (
                lane.rng.stream(STREAM_ARRIVALS).getstate(),
                lane.rng.stream(STREAM_DESTINATIONS).getstate(),
                lane.rng.stream(STREAM_ROUTING).getstate(),
            )
            outst_items = tuple(sorted(controller._outstanding.items()))
        return (
            lane.cycle,
            lane.msg_counter,
            lane.flits_moved_total,
            lane.generated_total,
            lane.delivered_total,
            lane.in_flight,
            next_due,
            controller.admitted,
            controller.refused,
            outst_items,
            tuple(pending),
            messages_fp,
            delivering,
            tuple(channels_fp),
        ) + rng_fp


__all__ = ["BatchEngine"]
