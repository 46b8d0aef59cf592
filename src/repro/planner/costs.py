"""Per-backend cost estimation for the adaptive planner.

Extends the repo's pricing beyond the DES statevector model: each backend
gets a closed-form cost in *calibrated host seconds* built from the work
integrals :mod:`repro.planner.features` extracts.  The calibration
constants are fixed in code (measured once on the reference host, see
``docs/planner.md`` for the methodology) rather than probed at runtime -
a deliberate trade: absolute times drift with the host, but the planner's
*ordering* of backends is what selection accuracy measures, and fixed
constants keep every plan deterministic and byte-stable.

Units: ``per_gate_seconds`` charges the Python/dispatch overhead every
gate pays regardless of state size; the ``*_per_second`` throughputs
charge the bulk work (amplitude ops for dense numpy kernels, dictionary
entry ops for the hash-map engine, tableau cell ops for the vectorised
Clifford columns, tensor element ops through einsum + SVD for MPS).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.hardware.specs import MachineSpec, PAPER_MACHINE
from repro.mps.state import MPS_BYTE_LIMIT
from repro.planner.features import CircuitFeatures
from repro.statevector.chunks import DENSE_QUBIT_LIMIT

#: Backends the planner knows how to price, in deterministic tie-break
#: order (earlier wins a tie on estimated seconds).
BACKENDS: tuple[str, ...] = ("stabilizer", "sparse", "statevector", "mps")

#: Bytes per complex amplitude at double / single precision.
AMP_BYTES_DOUBLE = 16
AMP_BYTES_SINGLE = 8

#: Estimated resident bytes per sparse dictionary entry (key + boxed
#: complex + hash-table overhead).
SPARSE_ENTRY_BYTES = 128

#: Floor on the bulk-work discount gate fusion can earn.  A slab of k
#: gates sweeps the state once instead of k times, but each amplitude
#: still pays the slab's combined arithmetic, so the saving is memory
#: traffic, not flops - measured on the reference host a fully-fused
#: sweep never gets cheaper than ~30% of the unfused sweeps it replaced.
FUSION_BULK_FLOOR = 0.3

#: Calibrated host constants (reference-host measurements, fixed for
#: determinism; see docs/planner.md "Cost calibration").
CALIBRATION: dict[str, dict[str, float]] = {
    "statevector": {
        "per_gate_seconds": 5e-05,
        # A gate folded into a slab skips the full sweep dispatch but
        # still pays contraction + bookkeeping in the fusion pass.
        "fused_member_seconds": 1.5e-05,
        "amp_ops_per_second": 2.0e08,
        # Measured dense-kernel speedup of the complex64 fast path
        # (bandwidth-bound kernels move half the bytes).
        "single_speedup": 1.6,
    },
    "stabilizer": {
        "per_gate_seconds": 4e-06,
        "cell_ops_per_second": 2.0e08,
    },
    "sparse": {
        "per_gate_seconds": 5e-06,
        "entry_ops_per_second": 2.0e06,
    },
    "mps": {
        "per_gate_seconds": 6e-05,
        "element_ops_per_second": 5.0e07,
    },
}


@dataclass(frozen=True)
class BackendCost:
    """One backend's priced execution of one circuit.

    Attributes:
        backend: Backend name (one of :data:`BACKENDS`).
        feasible: The backend can execute this circuit on this machine.
        seconds: Calibrated modelled host seconds (``inf`` when
            infeasible).
        memory_bytes: Estimated peak resident bytes.
        reason: Why the backend is infeasible, or what its price rests
            on ("" when nothing needs saying).
    """

    backend: str
    feasible: bool
    seconds: float
    memory_bytes: float
    reason: str = ""


def _statevector_cost(
    features: CircuitFeatures, machine: MachineSpec, precision: str
) -> BackendCost:
    amp_bytes = AMP_BYTES_SINGLE if precision == "single" else AMP_BYTES_DOUBLE
    # State + the fused kernels' scratch buffer.
    memory = float(2 * amp_bytes * (1 << min(features.num_qubits, 62)))
    if features.num_qubits > DENSE_QUBIT_LIMIT:
        return BackendCost(
            "statevector", False, float("inf"), memory,
            reason=f"functional dense engine is limited to "
                   f"{DENSE_QUBIT_LIMIT} qubits",
        )
    if memory > machine.host_memory_bytes:
        return BackendCost(
            "statevector", False, float("inf"), memory,
            reason="dense state exceeds host memory",
        )
    c = CALIBRATION["statevector"]
    bulk = features.dense_amp_ops / c["amp_ops_per_second"]
    if precision == "single":
        bulk /= c["single_speedup"]
    # Gate fusion: full dispatch overhead is paid per fused sweep, gates
    # folded into slabs pay the cheaper member rate, and the bandwidth-
    # bound bulk shrinks with the sweep count (floored - see
    # FUSION_BULK_FLOOR - because fused sweeps do more flops per pass).
    # When nothing fuses (fused_sweeps == num_gates) this reduces to the
    # pre-fusion pricing exactly.
    if features.num_gates:
        sweep_fraction = features.fused_sweeps / features.num_gates
        bulk *= max(sweep_fraction, FUSION_BULK_FLOOR)
    folded = features.num_gates - features.fused_sweeps
    seconds = (
        features.fused_sweeps * c["per_gate_seconds"]
        + folded * c["fused_member_seconds"]
        + bulk
    )
    return BackendCost("statevector", True, seconds, memory)


def _stabilizer_cost(
    features: CircuitFeatures, machine: MachineSpec
) -> BackendCost:
    n = features.num_qubits
    memory = float(2 * (2 * n * n) + 2 * n)  # bool tableaus + sign column
    if not features.is_clifford:
        return BackendCost(
            "stabilizer", False, float("inf"), memory,
            reason=f"{1 - features.clifford_fraction:.0%} of gates are "
                   "outside the Clifford set",
        )
    c = CALIBRATION["stabilizer"]
    cells = features.num_gates * 4.0 * n  # x+z column updates of length 2n
    seconds = (
        features.num_gates * c["per_gate_seconds"]
        + cells / c["cell_ops_per_second"]
    )
    return BackendCost("stabilizer", True, seconds, memory)


def _sparse_cost(features: CircuitFeatures, machine: MachineSpec) -> BackendCost:
    support = (
        features.probe_support_peak
        if features.probe_completed
        else features.support_bound_final
    )
    memory = float(2 * support * SPARSE_ENTRY_BYTES)  # old + rebuilt dict
    if memory > machine.host_memory_bytes:
        return BackendCost(
            "sparse", False, float("inf"), memory,
            reason="support bound exceeds host memory",
        )
    c = CALIBRATION["sparse"]
    seconds = (
        features.num_gates * c["per_gate_seconds"]
        + features.sparse_ops / c["entry_ops_per_second"]
    )
    reason = "" if features.probe_completed else (
        "support probe aborted; priced at the structural involvement bound"
    )
    return BackendCost("sparse", True, seconds, memory, reason=reason)


def _mps_cost(features: CircuitFeatures) -> BackendCost:
    """Always feasible: the engine itself refuses past ``MPS_BYTE_LIMIT``.
    The uncapped proxy can read far above the exact bond (``qft_30``: 2^15
    against 1), so the seconds are a ceiling; the memory is the proxy's,
    capped at the engine's limit."""
    n = features.num_qubits
    chi = features.bond_estimate
    # Site tensors plus merged-theta and SVD work buffers.
    memory = float(min(3 * n * 2 * chi * chi * AMP_BYTES_DOUBLE, MPS_BYTE_LIMIT))
    c = CALIBRATION["mps"]
    seconds = (
        features.num_gates * c["per_gate_seconds"]
        + features.mps_ops / c["element_ops_per_second"]
    )
    return BackendCost("mps", True, seconds, memory)


def backend_cost(
    features: CircuitFeatures,
    backend: str,
    machine: MachineSpec = PAPER_MACHINE,
    precision: str = "double",
) -> BackendCost:
    """Price ``features`` on one backend.

    Raises:
        AnalysisError: On an unknown backend name.
    """
    if backend == "statevector":
        return _statevector_cost(features, machine, precision)
    if backend == "stabilizer":
        return _stabilizer_cost(features, machine)
    if backend == "sparse":
        return _sparse_cost(features, machine)
    if backend == "mps":
        return _mps_cost(features)
    raise AnalysisError(
        f"unknown backend {backend!r} (choose from {sorted(BACKENDS)})"
    )


def all_backend_costs(
    features: CircuitFeatures,
    machine: MachineSpec = PAPER_MACHINE,
    precision: str = "double",
    backends: tuple[str, ...] = BACKENDS,
) -> tuple[BackendCost, ...]:
    """Price every candidate backend, in :data:`BACKENDS` order."""
    return tuple(
        backend_cost(features, backend, machine, precision)
        for backend in backends
    )
