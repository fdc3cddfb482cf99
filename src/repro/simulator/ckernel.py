"""Build, cache and bind the batch engine's C transmit kernel.

The transmission phase of :class:`~repro.simulator.batch.BatchEngine`
is one C function (``_transmit.c``, shipped next to this module) that
runs the object engine's transmit model sequentially over the engine's
flat numpy arrays.  It is compiled on first use with the C compiler
Python itself was built with (``sysconfig``'s ``CC``, else ``cc``) and
loaded with :mod:`ctypes`, so there is no build step and no dependency
beyond the standard library.

The shared library is cached per user in ``$XDG_CACHE_HOME/repro`` (or
``~/.cache/repro``) under a name keyed by the sha256 of the source, the
compile command and the platform, so an edited kernel or another
compiler never loads a stale build.  A build writes to a unique
temporary name and is moved into place with :func:`os.replace`: two
processes compiling at once (parallel sweep workers on a cold cache)
each load a complete library, never a half-written one.

Without a working compiler :func:`load_library` raises
:class:`~repro.util.errors.ConfigurationError`; ``backend="object"``
runs every configuration without it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
from functools import lru_cache
from types import MappingProxyType
from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from repro.util.errors import ConfigurationError

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_transmit.c")

#: Flags for the kernel build (integer-only code: no -march, no -lm).
CFLAGS = ("-O2", "-shared", "-fPIC")

_P = ctypes.c_void_p
_I = ctypes.c_int64


class TransmitState(ctypes.Structure):
    """The kernel's view of one engine: sizes and array addresses.

    Field order and types mirror ``tx_state`` in ``_transmit.c``.
    """

    _fields_ = [
        ("lanes", _I), ("channels", _I), ("vcs", _I), ("cap", _I),
        ("length", _I), ("priority", _I), ("ideal", _I),
        ("txable", _P), ("occ", _P), ("fin", _P), ("fout", _P),
        ("inject", _P), ("la", _P), ("ld", _P), ("carried", _P),
        ("up", _P), ("front", _P), ("isdst", _P), ("owner", _P),
        ("rr_next", _P), ("last_tx", _P), ("ch_moved", _P),
        ("active_seq", _P),
        ("lane_on", _P), ("lane_moves", _P),
        ("order", _P), ("order_len", _P), ("listed", _P), ("fresh", _P),
        ("woken", _P),
        ("ev_lane", _P), ("ev_flat", _P), ("ev_owner", _P), ("ev_up", _P),
        ("ev_code", _P),
        ("n_events", _I),
    ]


#: dtype and extent (one element per VC, channel or lane) of every
#: engine array the kernel reads, checked when a kernel binds an engine.
ARRAYS: Mapping[str, Tuple[type, str]] = MappingProxyType({
    "txable": (np.bool_, "vc"),
    "occ": (np.int16, "vc"),
    "fin": (np.int16, "vc"),
    "fout": (np.int16, "vc"),
    "inject": (np.int16, "vc"),
    "la": (np.int32, "vc"),
    "ld": (np.int32, "vc"),
    "carried": (np.int64, "vc"),
    "up": (np.int32, "vc"),
    "front": (np.bool_, "vc"),
    "isdst": (np.bool_, "vc"),
    "owner": (np.int64, "vc"),
    "rr_next": (np.int32, "channel"),
    "last_tx": (np.int32, "channel"),
    "ch_moved": (np.int64, "channel"),
    "active_seq": (np.int64, "channel"),
    "lane_on": (np.bool_, "lane"),
})


def _check(name: str, array: np.ndarray, dtype: type, size: int) -> None:
    if (
        array.dtype != dtype
        or not array.flags.c_contiguous
        or array.size != size
    ):
        raise TypeError(
            f"array {name!r} must be C-contiguous "
            f"{np.dtype(dtype).name} of {size} elements"
        )


def compiler() -> List[str]:
    """The C compiler command: sysconfig's ``CC``, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(command: List[str], target: str) -> None:
    """Compile the kernel source with *command* into *target*, atomically."""
    # Cold path (once per source hash): keep these off the import path.
    import subprocess
    import tempfile

    directory = os.path.dirname(target)
    shown = " ".join(command)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=".transmit-", suffix=".so", dir=directory
        )
        os.close(fd)
    except OSError as error:
        raise ConfigurationError(
            f"cannot write the transmit-kernel cache {directory}: {error}; "
            "use backend='object' to run without the C kernel"
        ) from error
    argv = command + list(CFLAGS) + ["-o", tmp, SOURCE]
    failure: Optional[str] = None
    try:
        done = subprocess.run(
            argv, capture_output=True, text=True, check=False
        )
        if done.returncode != 0:
            failure = (
                f"exited with status {done.returncode}: "
                f"{done.stderr.strip()[-400:]}"
            )
    except OSError as error:
        failure = f"could not be started: {error}"
    if failure is not None:
        os.unlink(tmp)
        raise ConfigurationError(
            f"the batch backend needs a C compiler to build its transmit "
            f"kernel, and `{shown}` {failure}; install one, or use "
            "backend='object' (the object engine needs no compiler)"
        )
    os.replace(tmp, target)


@lru_cache(maxsize=None)
def load_library() -> Any:
    """The compiled kernel, built into the cache on first use."""
    with open(SOURCE, "rb") as stream:
        source = stream.read()
    command = compiler()
    key = hashlib.sha256(
        b"\0".join(
            [
                source,
                " ".join(command + list(CFLAGS)).encode(),
                sysconfig.get_platform().encode(),
            ]
        )
    ).hexdigest()[:24]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    target = os.path.join(cache, "repro", f"transmit-{key}.so")
    if not os.path.exists(target):
        _build(command, target)
    lib = ctypes.CDLL(target)
    fn = lib.repro_transmit
    fn.argtypes = [_P, _I, _P, _I]
    fn.restype = _I
    return lib


class TransmitKernel:
    """The C transmit kernel bound to one engine's arrays.

    The engine's arrays must stay at fixed addresses for the engine's
    lifetime (they are only ever written in place).  The kernel owns
    its scratch: the per-lane poll order kept across calls and the
    event output arrays, which :meth:`run` overwrites on every call.
    """

    def __init__(
        self,
        lanes: int,
        channels: int,
        vcs: int,
        cap: int,
        length: int,
        priority: bool,
        ideal: bool,
        **arrays: np.ndarray,
    ) -> None:
        self._fn = load_library().repro_transmit
        moves = lanes * channels
        self.lane_moves = np.zeros(lanes, dtype=np.int64)
        self.ev_lane = np.zeros(moves, dtype=np.int64)
        self.ev_flat = np.zeros(moves, dtype=np.int64)
        self.ev_owner = np.zeros(moves, dtype=np.int64)
        self.ev_up = np.zeros(moves, dtype=np.int64)
        self.ev_code = np.zeros(moves, dtype=np.int8)
        self._order = np.zeros(moves, dtype=np.int32)
        self._order_len = np.zeros(lanes, dtype=np.int64)
        self._listed = np.full(moves, -1, dtype=np.int64)
        self._fresh = np.zeros(channels, dtype=np.int32)
        self._woken = np.zeros(channels, dtype=np.uint8)
        if set(arrays) != set(ARRAYS):
            raise TypeError(f"TransmitKernel needs arrays {sorted(ARRAYS)}")
        self._arrays = arrays  # keeps the bound buffers alive
        self._lanes = lanes
        state = TransmitState(
            lanes=lanes, channels=channels, vcs=vcs, cap=cap,
            length=length, priority=int(priority), ideal=int(ideal),
        )
        extent = {"vc": moves * vcs, "channel": moves, "lane": lanes}
        for name, array in arrays.items():
            dtype, kind = ARRAYS[name]
            _check(name, array, dtype, extent[kind])
            setattr(state, name, array.ctypes.data)
        for name in ("lane_moves", "ev_lane", "ev_flat", "ev_owner",
                     "ev_up", "ev_code"):
            setattr(state, name, getattr(self, name).ctypes.data)
        state.order = self._order.ctypes.data
        state.order_len = self._order_len.ctypes.data
        state.listed = self._listed.ctypes.data
        state.fresh = self._fresh.ctypes.data
        state.woken = self._woken.ctypes.data
        self._state = state
        self._addr = ctypes.addressof(state)
        self._slab_column: Optional[np.ndarray] = None
        self._slab_addr = 0

    @property
    def n_events(self) -> int:
        """Events recorded by the last :meth:`run`."""
        return int(self._state.n_events)

    # repro: hot — per-cycle path (HOT001: no allocation-heavy constructs)
    def run(
        self,
        cycle: int,
        slab_inj: Optional[np.ndarray] = None,
        slab_cap: int = 0,
    ) -> int:
        """One transmission phase; returns the number of flits moved.

        *slab_inj* is the relaxed slab's flat injected-flit column; it
        is passed per call because slab growth replaces it.
        """
        if slab_inj is not self._slab_column:
            self._bind_slab(slab_inj, slab_cap)
        return int(self._fn(self._addr, cycle, self._slab_addr, slab_cap))

    def _bind_slab(self, slab_inj: Optional[np.ndarray], slab_cap: int) -> None:
        if slab_inj is not None:
            _check("slab_inj", slab_inj, np.int32, self._lanes * slab_cap)
        self._slab_column = slab_inj
        self._slab_addr = 0 if slab_inj is None else slab_inj.ctypes.data


__all__ = [
    "ARRAYS", "TransmitKernel", "compiler", "load_library",
]
