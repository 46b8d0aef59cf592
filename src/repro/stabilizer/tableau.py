"""Stabilizer (Clifford) simulation - the paper's Section II-B second
paradigm.

Implements the Aaronson-Gottesman tableau algorithm ("Improved simulation
of stabilizer circuits", Phys. Rev. A 70, 052328): an ``n``-qubit stabilizer
state is represented by ``2n`` Pauli rows - ``n`` destabilizers and ``n``
stabilizers - each a pair of X/Z bit vectors plus a sign bit.  Clifford
gates update the tableau in O(n); measurements take O(n^2).

Supported gates: ``h, s, sdg, x, y, z, cx, cz, swap`` (the Clifford subset
of the library gate set).  Three of the paper's nine benchmarks (gs, hlf,
bv) are pure Clifford circuits, so this engine simulates them in polynomial
space where the Schrödinger engines need ``2^n`` amplitudes - and the test
suite cross-validates the two representations by checking that the dense
state is a +1 eigenvector of every tableau stabilizer.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.errors import SimulationError

#: Gates this engine accepts.
CLIFFORD_GATES = frozenset(
    {"id", "h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"}
)


def is_clifford_circuit(circuit: QuantumCircuit) -> bool:
    """True when every gate is in the supported Clifford subset."""
    return all(gate.name in CLIFFORD_GATES for gate in circuit)


class StabilizerState:
    """Tableau representation of a stabilizer state, initially ``|0...0>``.

    Attributes:
        num_qubits: Register width ``n``.
        x: ``(2n, n)`` bool array of X components (rows 0..n-1 are
            destabilizers, rows n..2n-1 stabilizers).
        z: ``(2n, n)`` bool array of Z components.
        r: ``(2n,)`` bool array of sign bits (True = -1).
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise SimulationError("num_qubits must be positive")
        self.num_qubits = num_qubits
        n = num_qubits
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        self.x[np.arange(n), np.arange(n)] = True          # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = True      # stabilizers Z_i

    # -- gate application ----------------------------------------------------

    def apply(self, gate: Gate) -> "StabilizerState":
        """Apply one Clifford gate; raises for non-Clifford gates."""
        name = gate.name
        if name not in CLIFFORD_GATES:
            raise SimulationError(
                f"gate {name!r} is not Clifford; use the state-vector engine"
            )
        if any(q >= self.num_qubits for q in gate.qubits):
            raise SimulationError(f"gate {gate} exceeds register width")
        if name == "id":
            return self
        if name == "h":
            self._hadamard(gate.qubits[0])
        elif name == "s":
            self._phase(gate.qubits[0])
        elif name == "sdg":
            # sdg = s . z = s s s.
            self._phase(gate.qubits[0])
            self._phase(gate.qubits[0])
            self._phase(gate.qubits[0])
        elif name == "x":
            # x = h z h = h s s h.
            q = gate.qubits[0]
            self._hadamard(q)
            self._phase(q)
            self._phase(q)
            self._hadamard(q)
        elif name == "z":
            self._phase(gate.qubits[0])
            self._phase(gate.qubits[0])
        elif name == "y":
            # y = i x z -> as a Clifford action: z then x (global phase
            # is unobservable in the stabilizer formalism).
            q = gate.qubits[0]
            self._phase(q)
            self._phase(q)
            self._hadamard(q)
            self._phase(q)
            self._phase(q)
            self._hadamard(q)
        elif name == "cx":
            self._cnot(gate.qubits[0], gate.qubits[1])
        elif name == "cz":
            control, target = gate.qubits
            self._hadamard(target)
            self._cnot(control, target)
            self._hadamard(target)
        elif name == "swap":
            a, b = gate.qubits
            self._cnot(a, b)
            self._cnot(b, a)
            self._cnot(a, b)
        return self

    def run(self, circuit: QuantumCircuit) -> "StabilizerState":
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width mismatch")
        for gate in circuit:
            self.apply(gate)
        return self

    def _hadamard(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def _phase(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def _cnot(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ True)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    # -- measurement -----------------------------------------------------------

    def measure(self, q: int, rng: np.random.Generator | None = None) -> int:
        """Measure qubit ``q`` in the computational basis (collapsing).

        Returns 0 or 1.  Deterministic outcomes are computed exactly; random
        outcomes use ``rng`` (fresh default generator when omitted).
        """
        if not 0 <= q < self.num_qubits:
            raise SimulationError(f"qubit {q} out of range")
        p, sign = _measure_z(self.x, self.z, self.r[:, None], q)
        if p is None:
            return int(sign[0])
        if rng is None:
            rng = np.random.default_rng()
        outcome = int(rng.integers(0, 2))
        self.r[p] = bool(outcome)
        return outcome

    def measure_all(self, rng: np.random.Generator | None = None) -> int:
        """Measure every qubit; returns the outcome as an integer."""
        if rng is None:
            rng = np.random.default_rng()
        value = 0
        for q in range(self.num_qubits):
            value |= self.measure(q, rng) << q
        return value

    def sample_counts(
        self, shots: int, rng: np.random.Generator
    ) -> dict[int, int]:
        """Counts of ``shots`` full-register measurements (not collapsing).

        One symbolic :meth:`measure_all` on a copy of the tableau: every
        sign bit is an affine form ``[constant | r_1 .. r_k]`` over GF(2)
        in the ``k`` random outcomes, so the register reads
        ``constant ^ coeff . r`` and all shots are one ``(shots, k)`` bit
        draw and one matrix product - O(n^3) once, O(shots k n) after.
        The draw consumes ``rng`` exactly as ``shots`` collapsing
        ``copy().measure_all(rng)`` calls do and outcomes are inserted in
        first-occurrence order, so the dict (and its iteration order) is
        the one that loop builds.
        """
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        n = self.num_qubits
        x, z = self.x.copy(), self.z.copy()
        sign = np.zeros((2 * n, n + 1), dtype=bool)
        sign[:, 0] = self.r
        forms = np.empty((n, n + 1), dtype=bool)
        k = 0
        for q in range(n):
            p, form = _measure_z(x, z, sign, q)
            if p is not None:
                k += 1  # a random outcome: the next variable
                sign[p] = False
                sign[p, k] = True
                form = sign[p]
            forms[q] = form
        draws = rng.integers(0, 2, size=(shots, k))
        bits = (draws @ forms[:, 1 : k + 1].T.astype(np.int64) + forms[:, 0]) & 1
        packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
        rows, first, tallies = np.unique(
            packed, axis=0, return_index=True, return_counts=True
        )
        return {
            int.from_bytes(rows[i].tobytes(), "little"): int(tallies[i])
            for i in np.argsort(first)
        }

    # -- queries ----------------------------------------------------------------

    def stabilizer_strings(self) -> list[tuple[int, str]]:
        """The stabilizer generators as ``(sign, pauli-label string)``.

        Sign is +1 or -1; labels read qubit 0 first, e.g. ``"XZI"``.
        """
        n = self.num_qubits
        out = []
        for row in range(n, 2 * n):
            labels = []
            for q in range(n):
                x, z = self.x[row, q], self.z[row, q]
                labels.append("I" if not x and not z else
                              "X" if x and not z else
                              "Z" if z and not x else "Y")
            out.append((-1 if self.r[row] else 1, "".join(labels)))
        return out

    def expectation_z(self, q: int) -> float:
        """``<Z_q>`` without collapsing: +/-1 when deterministic, else 0."""
        n = self.num_qubits
        if np.any(self.x[n:, q]):
            return 0.0
        _, sign = _measure_z(self.x, self.z, self.r[:, None], q)
        return 1.0 - 2.0 * int(sign[0])

    def copy(self) -> "StabilizerState":
        clone = StabilizerState(self.num_qubits)
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        return clone


def _g_sum(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Exponent of i picked up when Pauli ``(x1, z1)`` multiplies ``(x2, z2)``.

    Aaronson-Gottesman's ``g`` summed over qubits (the last axis); the
    second operand may be a stack of rows.
    """
    x2, z2 = x2.astype(np.int8), z2.astype(np.int8)
    g = np.where(
        x1 & z1,
        z2 - x2,                                           # Y
        np.where(x1, z2 * (2 * x2 - 1),                    # X
                 np.where(z1, x2 * (1 - 2 * z2), 0)),      # Z, I
    )
    return g.sum(axis=-1, dtype=np.int64)


def _measure_z(
    x: np.ndarray, z: np.ndarray, sign: np.ndarray, q: int
) -> tuple[int | None, np.ndarray | None]:
    """One ``Z_q`` measurement on the tableau ``(x, z, sign)``, in place.

    ``sign`` is ``(2n, m)``: row ``h`` is an affine form over GF(2),
    ``[constant | coefficients of earlier random outcomes]`` (``m == 1``
    is a plain sign bit).  Multiplying row ``i`` into row ``h``
    ("rowsum") updates ``sign[h] ^= sign[i]`` and flips the constant
    when ``g mod 4 >= 2``; which rows combine depends on ``x``/``z``
    only.  Returns ``(p, None)`` after a random measurement - the caller
    writes the outcome into ``sign[p]`` - or ``(None, form)`` for a
    deterministic one, which changes nothing.

    The +/-1 phase invariant only holds for stabilizer and scratch rows.
    Destabilizer rows can legitimately pick up an odd phase exponent -
    the paired destabilizer *anticommutes* with the measured stabilizer -
    and their sign bits carry no meaning in the formalism, so any
    consistent value works there.
    """
    n = x.shape[1]
    anticommuting = np.flatnonzero(x[n:, q])
    if anticommuting.size:
        p = n + int(anticommuting[0])
        rows = np.flatnonzero(x[:, q])
        rows = rows[rows != p]
        g = _g_sum(x[p], z[p], x[rows], z[rows])
        if np.any(g[rows >= n] & 1):
            raise SimulationError("stabilizer phase left the +/-1 group")
        sign[rows] ^= sign[p]
        sign[rows, 0] ^= (g & 3) >= 2
        x[rows] ^= x[p]
        z[rows] ^= z[p]
        x[p - n], z[p - n], sign[p - n] = x[p], z[p], sign[p]
        x[p] = z[p] = False
        z[p, q] = True
        return p, None
    # Deterministic: multiply the stabilizers paired with the
    # destabilizers that anticommute with Z_q into a scratch row.
    scratch_x, scratch_z = np.zeros((2, n), dtype=bool)
    form = np.zeros(sign.shape[1], dtype=bool)
    for i in n + np.flatnonzero(x[:n, q]):
        g = _g_sum(x[i], z[i], scratch_x, scratch_z)
        if g & 1:
            raise SimulationError("stabilizer phase left the +/-1 group")
        form ^= sign[i]
        form[0] ^= (g & 3) >= 2
        scratch_x ^= x[i]
        scratch_z ^= z[i]
    return None, form


def simulate_clifford(circuit: QuantumCircuit) -> StabilizerState:
    """Run a Clifford circuit from ``|0...0>`` on the tableau engine."""
    if not is_clifford_circuit(circuit):
        offenders = sorted(
            {g.name for g in circuit if g.name not in CLIFFORD_GATES}
        )
        raise SimulationError(
            f"{circuit.name} contains non-Clifford gates {offenders}"
        )
    return StabilizerState(circuit.num_qubits).run(circuit)
