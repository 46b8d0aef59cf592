"""Reliability layer: fault injection, integrity guards, checkpoint/resume.

Out-of-core simulation is a distributed-systems problem: every amplitude
crosses the PCIe link many times, and multi-hour runs must survive
transient faults.  This package provides the substrate:

* :mod:`repro.reliability.cancellation` - cooperative cancellation
  tokens doubling as worker heartbeats;
* :mod:`repro.reliability.faults` - seeded, deterministic fault plans;
* :mod:`repro.reliability.integrity` - CRC32 transfer guards and the
  norm-conservation invariant;
* :mod:`repro.reliability.checkpoint` - atomic, CRC-guarded mid-circuit
  checkpoints with bit-exact resume;
* :mod:`repro.reliability.policy` - retry/backoff/degradation policies
  and the per-run reliability report.

See ``docs/reliability.md`` for the fault taxonomy and worked examples.
"""

from repro.reliability.cancellation import USER_KINDS, CancellationToken
from repro.reliability.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.reliability.faults import FaultEvent, FaultKind, FaultPlan
from repro.reliability.integrity import (
    ChunkTransferGuard,
    check_norm,
    chunk_crc32,
    norm_deviation,
    verify_chunk,
)
from repro.reliability.policy import (
    DEFAULT_POLICY,
    STRICT_POLICY,
    RecoveryPolicy,
    ReliabilityReport,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CancellationToken",
    "Checkpoint",
    "ChunkTransferGuard",
    "DEFAULT_POLICY",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "RecoveryPolicy",
    "ReliabilityReport",
    "STRICT_POLICY",
    "USER_KINDS",
    "check_norm",
    "chunk_crc32",
    "load_checkpoint",
    "norm_deviation",
    "save_checkpoint",
    "verify_chunk",
]
