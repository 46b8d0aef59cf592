"""One digest over the timed executor's per-gate output.

The closed form prices every gate of every paper figure.  Its per-gate
records are pinned here byte for byte, so a faster executor has to add the
same floats in the same order: the digest covers every family, every
servable version, a streamed and a resident width, and one and four GPUs.
"""

from __future__ import annotations

import hashlib

from repro.circuits.library import FAMILIES, get_circuit
from repro.core.executor import TimedExecutor
from repro.hardware.machine import Machine
from repro.hardware.specs import PAPER_MACHINE
from repro.service.service import SERVICE_VERSIONS

#: sha256 of the concatenated ``TimedResult.to_csv()`` texts below.
PER_GATE_DIGEST = "1e2ae27f6dce84f589ada0a8e2bd331aceed9d726ed044af6ca83453831d3c6e"
#: A compression ratio that is not a power of two, so every streamed byte
#: count is an inexact float.
RATIO = 0.6171817779541016


def test_per_gate_records_are_pinned() -> None:
    hasher = hashlib.sha256()
    machines = (PAPER_MACHINE, PAPER_MACHINE.with_gpu_count(4))
    for spec in machines:
        executor = TimedExecutor(Machine(spec))
        for num_qubits in (30, 34):
            for family in FAMILIES:
                circuit = get_circuit(family, num_qubits)
                for version in SERVICE_VERSIONS.values():
                    run = executor.execute(circuit, version, compression_ratio=RATIO)
                    hasher.update(run.to_csv().encode())
    assert hasher.hexdigest() == PER_GATE_DIGEST
