"""Content identity of simulation points: the store's addressing scheme.

A simulation point is fully determined by its
:class:`~repro.simulator.config.SimulationConfig` (results are a pure
function of the config — the serial/parallel/batch identity tests pin
this), so a *content address* derived from the config is a sound cache
key: two campaigns that expand to the same config may share one stored
result.

The identity is split the same way sweep checkpoints always split it:

* :func:`campaign_signature` hashes every field **shared** by the points
  of one campaign (everything except algorithm / offered load / seed, and
  except the backend — per-seed results are bit-identical across
  backends, so a result simulated under one backend is equally valid
  under the other);
* :func:`point_key` names one point **within** a campaign;
* :func:`result_key` combines the two into the store's record key.

These definitions were born in :mod:`repro.experiments.parallel` (which
re-exports them unchanged); they live here so the campaign store can use
them without importing the executor machinery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from repro.simulator.config import SimulationConfig

#: Config fields that vary between the points of one campaign; everything
#: else must match for a stored result to be reused.
POINT_FIELDS = ("algorithm", "offered_load", "seed")

#: Fields excluded from the campaign signature: the point fields, plus
#: the backend — per-seed results are bit-identical across backends (the
#: cross-backend test matrix pins this), so a result recorded under one
#: backend is equally valid under the other and a resumed campaign may
#: switch backends without losing completed points.
#:
#: ``identity`` is deliberately NOT excluded.  Backend exclusion rests
#: on bit-identity, which only ``identity="strict"`` guarantees;
#: relaxed-mode results are statistically, not bitwise, equivalent and
#: must never be served from a strict record (or vice versa).  The
#: exclusion stays sound alongside relaxed mode because
#: ``identity="relaxed"`` is only constructible with
#: ``backend="batch"`` (config validation), so a backendless identity
#: never conflates the two contracts.  Since the signature hashes every
#: non-excluded field of the config dataclass, stores written before a
#: field was added (``identity``) or removed hash differently and show
#: up as cache misses — re-simulate (or keep serving them from an old
#: checkout); they are never served wrongly.
SIGNATURE_EXCLUDED = POINT_FIELDS + ("backend",)


def point_key(config: SimulationConfig) -> str:
    """Stable identity of one sweep point within a campaign."""
    return (
        f"{config.algorithm}|{config.traffic}|{config.topology}"
        f"{config.radix}^{config.n_dims}|{config.switching}"
        f"|load={config.offered_load:.6g}|seed={config.seed}"
    )


def campaign_signature(config: SimulationConfig) -> str:
    """Hash of every config field shared by all points of a campaign.

    Two configs that differ only in algorithm / offered load / seed map
    to the same signature, so one checkpoint file can back a whole
    figure's (algorithms x loads) grid — while a checkpoint recorded
    under different sampling schedules, switching modes, etc. is
    rejected instead of silently reused.
    """
    shared = dataclasses.asdict(config)
    for name in SIGNATURE_EXCLUDED:
        shared.pop(name, None)
    blob = json.dumps(shared, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_key(signature: str, point: str) -> str:
    """The store's content address for one (campaign, point) identity."""
    blob = f"{signature}\n{point}"
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def config_key(config: SimulationConfig) -> str:
    """Content address of one config's simulation result."""
    return result_key(campaign_signature(config), point_key(config))


def config_record_dict(config: SimulationConfig) -> Dict[str, Any]:
    """The config as stored beside its result, for collision hygiene.

    Everything the result depends on appears; the backend is excluded
    for the same reason it is excluded from the signature (per-seed
    results are backend-independent).  Values are JSON-safe.
    """
    record = dataclasses.asdict(config)
    record.pop("backend", None)
    return json.loads(json.dumps(record, sort_keys=True, default=repr))


__all__ = [
    "POINT_FIELDS",
    "SIGNATURE_EXCLUDED",
    "campaign_signature",
    "config_key",
    "config_record_dict",
    "point_key",
    "result_key",
]
