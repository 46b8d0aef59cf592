"""Quantum gate definitions.

Each :class:`Gate` is an immutable record of a named operation applied to an
ordered tuple of qubits, optionally parameterised by real angles.  The unitary
matrix of a gate is built on demand from the registry in :data:`GATE_SPECS`.

Conventions
-----------
* Qubit ``0`` is the *least significant* bit of a basis-state index, matching
  the chunk-index arithmetic in the Q-GPU paper (low qubits live inside a
  chunk, high qubits select the chunk).
* For multi-qubit gates the first listed qubit is the least significant axis
  of the returned matrix.  For controlled gates the convention is
  ``(control, ..., target)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.errors import CircuitError

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Matrix constructors
# ---------------------------------------------------------------------------


def _mat_id() -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def _mat_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _mat_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def _mat_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _mat_h() -> np.ndarray:
    return np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128)


def _mat_s() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def _mat_sdg() -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=np.complex128)


def _mat_t() -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=np.complex128)


def _mat_tdg() -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=np.complex128)


def _mat_sx() -> np.ndarray:
    return 0.5 * np.array(
        [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128
    )


def _mat_sy() -> np.ndarray:
    return 0.5 * np.array(
        [[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=np.complex128
    )


def _mat_rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _mat_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _mat_rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def _mat_p(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=np.complex128)


def _mat_u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def _embed_controlled(target_matrix: np.ndarray) -> np.ndarray:
    """Return the 4x4 matrix of a singly controlled 2x2 gate.

    Qubit order is ``(control, target)`` with the control as the *least
    significant* axis, so basis ordering is ``|t c>``: indices 1 and 3 have
    the control set.
    """
    out = np.eye(4, dtype=np.complex128)
    # control = qubit 0 (LSB), target = qubit 1.  Basis index = t*2 + c.
    # Control set -> indices 1 (t=0) and 3 (t=1).
    out[1, 1] = target_matrix[0, 0]
    out[1, 3] = target_matrix[0, 1]
    out[3, 1] = target_matrix[1, 0]
    out[3, 3] = target_matrix[1, 1]
    return out


def _mat_cx() -> np.ndarray:
    return _embed_controlled(_mat_x())


def _mat_cy() -> np.ndarray:
    return _embed_controlled(_mat_y())


def _mat_cz() -> np.ndarray:
    return _embed_controlled(_mat_z())


def _mat_cp(theta: float) -> np.ndarray:
    return _embed_controlled(_mat_p(theta))


def _mat_crz(theta: float) -> np.ndarray:
    return _embed_controlled(_mat_rz(theta))


def _mat_swap() -> np.ndarray:
    out = np.eye(4, dtype=np.complex128)
    out[[1, 2]] = out[[2, 1]]
    return out


def _mat_rzz(theta: float) -> np.ndarray:
    phase = cmath.exp(1j * theta / 2)
    return np.diag(
        [1 / phase, phase, phase, 1 / phase]
    ).astype(np.complex128)


def _mat_ccx() -> np.ndarray:
    # Qubits (c0, c1, t); c0 is LSB.  Swap the two states with both controls
    # set: indices 3 (t=0,c1=1,c0=1) and 7 (t=1,c1=1,c0=1).
    out = np.eye(8, dtype=np.complex128)
    out[[3, 7]] = out[[7, 3]]
    return out


def _mat_ccz() -> np.ndarray:
    out = np.eye(8, dtype=np.complex128)
    out[7, 7] = -1
    return out


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: Canonical lowercase mnemonic (e.g. ``"cx"``).
        num_qubits: Number of qubits the gate acts on.
        num_params: Number of real parameters.
        matrix_fn: Builds the ``2^k x 2^k`` unitary from the parameters.
        diagonal: True when the unitary is diagonal in the computational
            basis (such gates commute with each other).
        self_inverse: True when the gate is its own inverse.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[..., np.ndarray]
    diagonal: bool = False
    self_inverse: bool = False


GATE_SPECS: dict[str, GateSpec] = {
    spec.name: spec
    for spec in [
        GateSpec("id", 1, 0, _mat_id, diagonal=True, self_inverse=True),
        GateSpec("x", 1, 0, _mat_x, self_inverse=True),
        GateSpec("y", 1, 0, _mat_y, self_inverse=True),
        GateSpec("z", 1, 0, _mat_z, diagonal=True, self_inverse=True),
        GateSpec("h", 1, 0, _mat_h, self_inverse=True),
        GateSpec("s", 1, 0, _mat_s, diagonal=True),
        GateSpec("sdg", 1, 0, _mat_sdg, diagonal=True),
        GateSpec("t", 1, 0, _mat_t, diagonal=True),
        GateSpec("tdg", 1, 0, _mat_tdg, diagonal=True),
        GateSpec("sx", 1, 0, _mat_sx),
        GateSpec("sy", 1, 0, _mat_sy),
        GateSpec("rx", 1, 1, _mat_rx),
        GateSpec("ry", 1, 1, _mat_ry),
        GateSpec("rz", 1, 1, _mat_rz, diagonal=True),
        GateSpec("p", 1, 1, _mat_p, diagonal=True),
        GateSpec("u", 1, 3, _mat_u),
        GateSpec("cx", 2, 0, _mat_cx, self_inverse=True),
        GateSpec("cy", 2, 0, _mat_cy, self_inverse=True),
        GateSpec("cz", 2, 0, _mat_cz, diagonal=True, self_inverse=True),
        GateSpec("cp", 2, 1, _mat_cp, diagonal=True),
        GateSpec("crz", 2, 1, _mat_crz, diagonal=True),
        GateSpec("swap", 2, 0, _mat_swap, self_inverse=True),
        GateSpec("rzz", 2, 1, _mat_rzz, diagonal=True),
        GateSpec("ccx", 3, 0, _mat_ccx, self_inverse=True),
        GateSpec("ccz", 3, 0, _mat_ccz, diagonal=True, self_inverse=True),
    ]
}


#: Bound on the memoized-matrix working set: parameterised circuits with
#: unboundedly many distinct angles must not grow the cache forever.
_MATRIX_CACHE_SIZE = 4096


@lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _cached_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    """Build (once) and freeze the unitary for a (name, params) pair.

    Gate instances are value objects, so every ``h`` or every ``rz(0.3)``
    shares one matrix; the chunked engine applies the same gate to
    thousands of chunks and must not rebuild it per chunk.  The array is
    marked read-only because it is shared - callers that need a private
    mutable copy must take one explicitly.
    """
    matrix = GATE_SPECS[name].matrix_fn(*params)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _cached_diagonal(name: str, params: tuple[float, ...]) -> np.ndarray:
    diagonal = np.ascontiguousarray(np.diag(_cached_matrix(name, params)))
    diagonal.setflags(write=False)
    return diagonal


@dataclass(frozen=True)
class Gate:
    """A gate instance: a gate type applied to concrete qubits.

    Attributes:
        name: Gate mnemonic; must be a key of :data:`GATE_SPECS`.
        qubits: Qubit indices the gate acts on, in gate-defined order
            (controls first, target last).
        params: Real parameters (rotation angles), possibly empty.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise CircuitError(f"unknown gate {self.name!r}")
        if len(self.qubits) != spec.num_qubits:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(self.params) != spec.num_params:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_params} params, "
                f"got {len(self.params)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"gate {self.name!r} has repeated qubits {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"gate {self.name!r} has negative qubit in {self.qubits}")

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        """True when the gate's unitary is diagonal in the computational basis."""
        return self.spec.diagonal

    def matrix(self) -> np.ndarray:
        """Return the gate's unitary as a ``2^k x 2^k`` complex matrix.

        The matrix is memoized per ``(name, params)`` and returned as a
        shared *read-only* array: it is built once per distinct gate, not
        once per chunk it is applied to.  Copy before mutating.
        """
        return _cached_matrix(self.name, self.params)

    def diagonal(self) -> np.ndarray:
        """The ``2^k`` diagonal entries of a diagonal gate (memoized, read-only).

        Raises:
            CircuitError: If the gate is not diagonal in the computational
                basis (its action is not described by a diagonal).
        """
        if not self.is_diagonal:
            raise CircuitError(f"gate {self.name!r} is not diagonal")
        return _cached_diagonal(self.name, self.params)

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit ``q``."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def qubit_mask(qubits: tuple[int, ...]) -> int:
    """Bitmask with a 1 at each listed qubit position."""
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask
