"""Measured per-circuit compression profiles.

At 30+ qubits the state vector cannot be materialised, so the timed executor
cannot compress real data on the fly.  Instead, the compression *ratio* of
each benchmark family is measured for real at a tractable width by running
the functional simulator and GFC-compressing state snapshots along the
circuit (see DESIGN.md, "Substitutions").  The measured ratio is a property
of the family's amplitude statistics (residual concentration), which is
size-stable for these structured circuits, so the executor applies the
per-family figure to large-width runs.

Profiles are cached per ``(family, width, seed)`` within the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.circuits.library import get_circuit
from repro.compression.gfc import compression_ratio
from repro.errors import CircuitError
from repro.statevector.state import StateVector


def live_region(amplitudes: np.ndarray, involvement: int) -> np.ndarray:
    """Gather the amplitudes that can be non-zero under ``involvement``.

    These are the amplitudes whose index bits are a subset of the
    involvement mask - exactly the data Q-GPU streams (and therefore
    compresses); everything else is pruned, not compressed, so it must not
    bias compressibility measurements.
    """
    positions = [p for p in range(int(amplitudes.size).bit_length()) if involvement >> p & 1]
    compact = np.arange(1 << len(positions), dtype=np.int64)
    indices = np.zeros_like(compact)
    for rank, position in enumerate(positions):
        indices |= ((compact >> rank) & 1) << position
    return amplitudes[indices]

#: Width used for profile measurement: 2^14 amplitudes keeps a full profile
#: run under a second while exercising the real codec on real amplitudes.
PROFILE_QUBITS = 14
#: Snapshots taken along the circuit (evenly spaced, always incl. the end).
#: Dense sampling matters: compressibility varies sharply between a
#: circuit's diagonal stretches (phase states, compressible) and its mixing
#: layers (scrambled, incompressible).
PROFILE_SAMPLES = 48


@dataclass(frozen=True)
class CompressionProfile:
    """Measured compressibility of one circuit family.

    Attributes:
        family: Benchmark family name.
        num_qubits: Width the measurement ran at.
        mean_ratio: Average compressed/uncompressed byte ratio across
            snapshots - what the executor multiplies transfer bytes by.
        final_ratio: Ratio of the terminal state.
        snapshot_ratios: Per-snapshot ratios, in circuit order.
    """

    family: str
    num_qubits: int
    mean_ratio: float
    final_ratio: float
    snapshot_ratios: tuple[float, ...]


def measure_profile(
    family: str,
    num_qubits: int = PROFILE_QUBITS,
    samples: int = PROFILE_SAMPLES,
    seed: int = 0,
    num_segments: int = 8,
) -> CompressionProfile:
    """Measure a family's compression profile by simulating and compressing.

    Snapshots are taken after evenly spaced gates; the first snapshot is
    skipped past the trivial all-zero opening (where pruning, not
    compression, is the active optimization).
    """
    # Imported lazily: the tracker's module imports the statevector
    # package, whose ``io`` module imports this package.
    from repro.core.liveness import LiveTracker

    circuit = get_circuit(family, num_qubits, seed=seed)
    state = StateVector(num_qubits)
    tracker = LiveTracker(num_qubits)
    total = len(circuit)
    sample_points = sorted(
        {min(total, max(1, round(total * (k + 1) / samples))) for k in range(samples)}
    )
    ratios: list[float] = []
    next_sample = 0
    for index, gate in enumerate(circuit, start=1):
        state.apply(gate)
        tracker.observe(gate)
        if next_sample < len(sample_points) and index == sample_points[next_sample]:
            next_sample += 1
            live = live_region(state.amplitudes, tracker.involvement)
            if live.size < 128:
                continue  # pruning regime: nothing worth compressing yet
            ratios.append(compression_ratio(live, num_segments=num_segments))
    if not ratios:
        # Every snapshot sat in the pruning regime; compression never runs.
        ratios = [1.0]
    return CompressionProfile(
        family=family,
        num_qubits=num_qubits,
        mean_ratio=float(np.mean(ratios)),
        final_ratio=float(ratios[-1]),
        snapshot_ratios=tuple(ratios),
    )


@lru_cache(maxsize=64)
def get_profile(family: str, num_qubits: int = PROFILE_QUBITS, seed: int = 0) -> CompressionProfile:
    """Cached :func:`measure_profile`."""
    return measure_profile(family, num_qubits=num_qubits, seed=seed)


def family_ratio(family: str) -> float:
    """The mean compression ratio the executor uses for ``family``.

    Unknown families (e.g. ad-hoc user circuits) conservatively return 1.0
    (incompressible), so compression never fabricates a speedup.  A mean
    above 1.0 (coding overhead on incompressible data) is clamped: the real
    runtime would ship such chunks uncompressed.
    """
    try:
        return min(1.0, get_profile(family).mean_ratio)
    except CircuitError:
        return 1.0
