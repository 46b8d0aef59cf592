"""Dense and chunked Schroedinger-style state-vector simulation and
compressed persistence.

Pauli observables live in :mod:`repro.statevector.expectation`, a reference
oracle that no front door imports; import it by module path."""

from repro.statevector.apply import (
    apply_controlled,
    apply_diagonal,
    apply_gate,
    apply_matrix,
)
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
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
    "LiveSubcube",
    "ParallelChunkEngine",
    "StateVector",
    "apply_controlled",
    "apply_diagonal",
    "apply_diagonal_chunk",
    "apply_gate",
    "apply_matrix",
    "chunk_diagonal_factor",
    "chunk_pair_groups",
    "dump_state",
    "expectation_z",
    "load_state",
    "marginal_probability",
    "most_probable",
    "outside_mask",
    "probabilities",
    "resolve_workers",
    "roundtrip_bytes",
    "sample_counts",
    "simulate",
    "subcube_view",
    "sweep",
]
