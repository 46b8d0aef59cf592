"""Cost helpers over a :class:`~repro.hardware.specs.MachineSpec`.

The executor asks one question repeatedly: "how long does this primitive
take on this machine?".  All such conversions (bytes -> seconds,
flops -> seconds) live here so the calibration story stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.hardware.specs import AMP_BYTES, GpuSpec, MachineSpec

#: Floating-point operations per amplitude for a dense k-qubit gate update:
#: a 2^k x 2^k complex mat-vec touches each amplitude with 2^k complex
#: multiply-adds (8 flops each).
FLOPS_PER_AMP_DENSE = {1: 16.0, 2: 32.0, 3: 64.0}
#: Diagonal gates need one complex multiply (6 flops) per amplitude.
FLOPS_PER_AMP_DIAGONAL = 6.0

#: Fraction of GPU memory usable for state chunks (the rest holds the
#: runtime, gate matrices and staging metadata).
GPU_USABLE_FRACTION = 0.97


@dataclass(frozen=True)
class Machine:
    """Timing calculator for one machine spec.

    Attributes:
        spec: The underlying hardware description.
    """

    spec: MachineSpec

    # -- capacities -------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return len(self.spec.gpus)

    def gpu_capacity_bytes(self, gpu_index: int = 0) -> int:
        """Usable state-chunk capacity of one GPU."""
        return int(self.spec.gpus[gpu_index].memory_bytes * GPU_USABLE_FRACTION)

    def total_gpu_capacity_bytes(self) -> int:
        return sum(self.gpu_capacity_bytes(i) for i in range(self.num_gpus))

    def fits_in_host(self, state_bytes: int) -> bool:
        """True when the host can hold the state vector (plus ~5% slack)."""
        return state_bytes * 1.05 <= self.spec.host_memory_bytes

    # -- transfers ---------------------------------------------------------

    def transfer_time(self, num_bytes: float, num_transfers: int = 1) -> float:
        """Seconds to move ``num_bytes`` one way over one link."""
        if num_bytes < 0 or num_transfers < 0:
            raise HardwareModelError("negative transfer request")
        if num_bytes == 0:
            return 0.0
        link = self.spec.link
        return num_bytes / link.bandwidth_per_direction + num_transfers * link.latency

    # -- compute -----------------------------------------------------------

    @staticmethod
    def _touched_bytes(num_amplitudes: float) -> float:
        # Every update reads and writes each touched amplitude once.
        return 2.0 * AMP_BYTES * num_amplitudes

    def gate_flops(self, num_amplitudes: float, gate_qubits: int, diagonal: bool) -> float:
        """Floating-point operations to update ``num_amplitudes``."""
        if diagonal:
            return FLOPS_PER_AMP_DIAGONAL * num_amplitudes
        per_amp = FLOPS_PER_AMP_DENSE.get(gate_qubits)
        if per_amp is None:
            per_amp = 8.0 * 2.0**gate_qubits
        return per_amp * num_amplitudes

    def gpu_compute_time(
        self,
        num_amplitudes: float,
        gate_qubits: int = 1,
        diagonal: bool = False,
        gpu_index: int = 0,
    ) -> float:
        """Seconds for one GPU to update ``num_amplitudes`` (memory-bound
        unless the flop cost exceeds the bandwidth cost)."""
        gpu = self.spec.gpus[gpu_index]
        bandwidth_time = self._touched_bytes(num_amplitudes) / gpu.effective_bandwidth
        flop_time = self.gate_flops(num_amplitudes, gate_qubits, diagonal) / gpu.fp64_flops
        return max(bandwidth_time, flop_time)

    def cpu_compute_time(
        self, num_amplitudes: float, chunked: bool = False
    ) -> float:
        """Seconds for the host to update ``num_amplitudes``.

        Args:
            num_amplitudes: Amplitudes touched by the gate.
            chunked: Use the hybrid chunk-dispatch path (QISKit-Aer hybrid
                baseline) instead of the pure OpenMP loop.
        """
        cpu = self.spec.cpu
        bandwidth = cpu.chunked_bandwidth if chunked else cpu.effective_bandwidth
        return self._touched_bytes(num_amplitudes) / bandwidth

    # -- compression ---------------------------------------------------------

    def codec_time(self, uncompressed_bytes: float, gpu_index: int = 0) -> float:
        """Seconds for the GPU GFC kernels to (de)compress a buffer."""
        gpu: GpuSpec = self.spec.gpus[gpu_index]
        return uncompressed_bytes / gpu.codec_bandwidth
