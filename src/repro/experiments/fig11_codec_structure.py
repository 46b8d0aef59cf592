"""Fig. 11 - structure of the GPU compression pipeline.

Fig. 11 is the paper's diagram of how a chunk is carved for the GFC
kernels: the chunk splits into *segments* (one per warp), each segment into
32-double *micro-chunks* (one lane per double), with residuals computed
between consecutive micro-chunks.  This experiment reproduces the diagram
as measured data: for a real amplitude chunk of each representative
circuit, the segment layout, per-segment ratios, and the whole-chunk ratio
under increasing warp parallelism.
"""

from __future__ import annotations

from repro.compression.gfc import MICRO_CHUNK, compression_ratio
from repro.compression.profile import live_region
from repro.core.liveness import LiveTracker
from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import cached_circuit
from repro.statevector.state import StateVector

CIRCUITS = ("qaoa", "iqp")
CHUNK_QUBITS = 14  # one 2^14-amplitude chunk = 2^15 doubles
SEGMENT_COUNTS = (1, 4, 16, 64)


@register("fig11")
def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig11",
        title="GFC pipeline structure on real amplitude chunks",
        headers=["circuit", "segments", "micro_chunks/segment", "ratio"],
    )
    ratios: dict[tuple[str, int], float] = {}
    for family in CIRCUITS:
        circuit = cached_circuit(family, CHUNK_QUBITS)
        # Snapshot inside the diagonal stretch (the compressible regime),
        # compressing only the live (streamed) region as the runtime does.
        state = StateVector(CHUNK_QUBITS)
        tracker = LiveTracker(CHUNK_QUBITS)
        for gate in list(circuit)[: int(0.7 * len(circuit))]:
            state.apply(gate)
            tracker.observe(gate)
        chunk = live_region(state.amplitudes, tracker.involvement)
        doubles = 2 * chunk.size
        for segments in SEGMENT_COUNTS:
            ratio = compression_ratio(chunk, num_segments=segments)
            ratios[(family, segments)] = ratio
            result.rows.append(
                [f"{family}_{CHUNK_QUBITS}", segments,
                 max(1, doubles // segments // MICRO_CHUNK), ratio]
            )
    result.data["ratios"] = ratios
    result.notes.append(
        "each segment is one warp's work unit; micro-chunks are 32 doubles "
        "(one per lane); more warps = more codec parallelism for a "
        "marginally worse ratio (each segment restarts its predictor)"
    )
    return result
