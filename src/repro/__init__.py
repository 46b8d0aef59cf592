"""Q-GPU: a recipe of optimizations for quantum circuit simulation on GPUs.

A full reproduction of Zhao et al., HPCA 2022.  Public surface:

* :mod:`repro.circuits` - circuit IR, DAG, OpenQASM, benchmark library;
* :mod:`repro.statevector` - dense and chunked functional simulation;
* :mod:`repro.core` - liveness/pruning/reordering, the six execution
  versions, the timed executor, and the :class:`~repro.core.QGpuSimulator`
  facade;
* :mod:`repro.hardware` - the calibrated GPU-server model;
* :mod:`repro.compression` - the GFC lossless codec;
* :mod:`repro.comparisons` - CPU-OpenMP / Qsim-Cirq / QDK cost models;
* :mod:`repro.experiments` - one module per paper table/figure.
"""

from repro.circuits import Gate, GateDag, QuantumCircuit, from_qasm, to_qasm
from repro.circuits.library import FAMILIES, get_circuit
from repro.core import (
    ALL_VERSIONS,
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    QGpuSimulator,
    REORDER,
    TimedResult,
    VersionConfig,
    reorder,
)
from repro.errors import ReproError
from repro.hardware import MACHINES, Machine, MachineSpec, PAPER_MACHINE
from repro.statevector import StateVector, simulate

__version__ = "1.0.0"

__all__ = [
    "ALL_VERSIONS",
    "BASELINE",
    "FAMILIES",
    "Gate",
    "GateDag",
    "MACHINES",
    "Machine",
    "MachineSpec",
    "NAIVE",
    "OVERLAP",
    "PAPER_MACHINE",
    "PRUNING",
    "QGPU",
    "QGpuSimulator",
    "QuantumCircuit",
    "REORDER",
    "ReproError",
    "StateVector",
    "TimedResult",
    "VersionConfig",
    "from_qasm",
    "get_circuit",
    "reorder",
    "simulate",
    "to_qasm",
]
