"""Dense and chunked Schroedinger-style state-vector simulation, plus
density matrices, Pauli observables, and compressed persistence."""

from repro.statevector.apply import (
    apply_controlled,
    apply_diagonal,
    apply_gate,
    apply_matrix,
)
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.density import (
    DensityMatrix,
    KrausChannel,
    amplitude_damping,
    depolarizing,
    phase_damping,
)
from repro.statevector.expectation import (
    Observable,
    PauliString,
    apply_pauli,
    expectation_pauli,
    ising_energy,
)
from repro.statevector.io import dump_state, load_state, roundtrip_bytes
from repro.statevector.kernels import (
    apply_diagonal_chunk,
    chunk_diagonal_factor,
    subcube_view,
    sweep,
)
from repro.statevector.measure import (
    expectation_z,
    marginal_probability,
    most_probable,
    probabilities,
    sample_counts,
)
from repro.statevector.parallel import (
    AUTO_PARALLEL_THRESHOLD,
    ChunkWorkerPool,
    ParallelChunkEngine,
    resolve_workers,
)
from repro.statevector.state import StateVector, simulate
from repro.statevector.subcube import LiveSubcube, outside_mask

__all__ = [
    "AUTO_PARALLEL_THRESHOLD",
    "ChunkWorkerPool",
    "ChunkedStateVector",
    "DensityMatrix",
    "KrausChannel",
    "LiveSubcube",
    "Observable",
    "ParallelChunkEngine",
    "PauliString",
    "StateVector",
    "amplitude_damping",
    "apply_controlled",
    "apply_diagonal",
    "apply_diagonal_chunk",
    "apply_gate",
    "apply_matrix",
    "apply_pauli",
    "chunk_diagonal_factor",
    "chunk_pair_groups",
    "depolarizing",
    "dump_state",
    "expectation_pauli",
    "expectation_z",
    "ising_energy",
    "load_state",
    "marginal_probability",
    "most_probable",
    "outside_mask",
    "phase_damping",
    "probabilities",
    "resolve_workers",
    "roundtrip_bytes",
    "sample_counts",
    "simulate",
    "subcube_view",
    "sweep",
]
