"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate` objects on
``num_qubits`` qubits.  The class offers a builder-style API (``circ.h(0)``,
``circ.cx(0, 1)``) mirroring QISKit, plus the structural queries the Q-GPU
optimizations need (involvement profile, depth, gate counts).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator, Sequence

from repro.circuits.gates import GATE_SPECS, Gate
from repro.errors import CircuitError


class QuantumCircuit:
    """An ordered sequence of gates on a fixed-width qubit register.

    Args:
        num_qubits: Register width; all gate qubit indices must be
            ``0 <= q < num_qubits``.
        name: Optional display name (benchmark circuits use ``family_n``).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        self._gates: list[Gate] = []
        self._fingerprint: str | None = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == other._gates
        )

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    # -- construction --------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a prebuilt gate, validating qubit bounds."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise CircuitError(
                    f"gate {gate} uses qubit {q} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        self._gates.append(gate)
        self._fingerprint = None
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "QuantumCircuit":
        """Append gate ``name`` on ``qubits`` with optional ``params``."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for gate in gates:
            self.append(gate)
        return self

    # Builder shorthands.  Generated statically (not via __getattr__) so the
    # API is introspectable and typo-safe.

    def i(self, q: int) -> "QuantumCircuit":
        return self.add("id", q)

    def x(self, q: int) -> "QuantumCircuit":
        return self.add("x", q)

    def y(self, q: int) -> "QuantumCircuit":
        return self.add("y", q)

    def z(self, q: int) -> "QuantumCircuit":
        return self.add("z", q)

    def h(self, q: int) -> "QuantumCircuit":
        return self.add("h", q)

    def s(self, q: int) -> "QuantumCircuit":
        return self.add("s", q)

    def sdg(self, q: int) -> "QuantumCircuit":
        return self.add("sdg", q)

    def t(self, q: int) -> "QuantumCircuit":
        return self.add("t", q)

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add("tdg", q)

    def sx(self, q: int) -> "QuantumCircuit":
        return self.add("sx", q)

    def sy(self, q: int) -> "QuantumCircuit":
        return self.add("sy", q)

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rz", q, params=(theta,))

    def p(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("p", q, params=(theta,))

    def u(self, theta: float, phi: float, lam: float, q: int) -> "QuantumCircuit":
        return self.add("u", q, params=(theta, phi, lam))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", control, target)

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cy", control, target)

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cz", control, target)

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("cp", control, target, params=(theta,))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("crz", control, target, params=(theta,))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", a, b)

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rzz", a, b, params=(theta,))

    def ccx(self, c0: int, c1: int, target: int) -> "QuantumCircuit":
        return self.add("ccx", c0, c1, target)

    def ccz(self, c0: int, c1: int, target: int) -> "QuantumCircuit":
        return self.add("ccz", c0, c1, target)

    # -- structural queries ---------------------------------------------------

    def fingerprint(self) -> str:
        """Stable SHA-256 content hash of the circuit's semantics.

        The digest covers the register width and the ordered gate sequence
        (mnemonic, qubit tuple, parameter tuple); the display ``name`` is
        deliberately excluded so renamed copies of the same circuit hash
        equal.  Parameters are hashed via their IEEE-754 shortest ``repr``,
        so any representable perturbation changes the digest.  Used as the
        content-address for the service result cache and the reorder memo.
        The digest is cached on the instance until the next ``append``.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        hasher = hashlib.sha256()
        hasher.update(f"qgpu-circuit-v1:{self.num_qubits}\n".encode())
        for gate in self._gates:
            qubits = ",".join(str(q) for q in gate.qubits)
            params = ",".join(repr(float(p)) for p in gate.params)
            hasher.update(f"{gate.name}|{qubits}|{params}\n".encode())
        self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate mnemonics."""
        counts: dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        level = [0] * self.num_qubits
        for gate in self._gates:
            next_level = 1 + max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = next_level
        return max(level, default=0)

    def used_qubits(self) -> set[int]:
        """Qubits touched by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def involvement_profile(self) -> list[int]:
        """Number of distinct qubits involved after each gate, in order.

        This is the quantity plotted in Fig. 9 of the paper: element ``k`` is
        ``|union of qubits of gates[0..k]|``.
        """
        involved: set[int] = set()
        profile: list[int] = []
        for gate in self._gates:
            involved.update(gate.qubits)
            profile.append(len(involved))
        return profile

    def gates_until_full_involvement(self) -> int:
        """Index (1-based count) of the gate at which all *used* qubits are involved.

        Reproduces the "number of operations before all qubits are involved"
        column of Table II.  Returns ``len(self)`` if the circuit never
        involves every qubit it uses (cannot happen by construction).
        """
        target = len(self.used_qubits())
        involved: set[int] = set()
        for index, gate in enumerate(self._gates):
            involved.update(gate.qubits)
            if len(involved) == target:
                return index + 1
        return len(self._gates)

    def with_gates(self, gates: Iterable[Gate], suffix: str = "") -> "QuantumCircuit":
        """Return a new circuit with the same width holding ``gates``."""
        out = QuantumCircuit(self.num_qubits, name=self.name + suffix)
        out.extend(gates)
        return out

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (reversed order, inverted gates).

        Only gates that are self-inverse or have a parameter negation rule
        are supported; this covers the full library gate set.
        """
        inverse_names = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        out = QuantumCircuit(self.num_qubits, name=self.name + "_dg")
        for gate in reversed(self._gates):
            spec = GATE_SPECS[gate.name]
            if spec.self_inverse:
                out.append(gate)
            elif gate.name in inverse_names:
                out.add(inverse_names[gate.name], *gate.qubits)
            elif gate.name == "u":
                # u(theta, phi, lam)^-1 = u(-theta, -lam, -phi): the two
                # phase angles swap as well as negate.
                theta, phi, lam = gate.params
                out.add("u", *gate.qubits, params=(-theta, -lam, -phi))
            elif spec.num_params >= 1:
                out.add(
                    gate.name,
                    *gate.qubits,
                    params=tuple(-p for p in gate.params),
                )
            elif gate.name == "sx":
                # sx = exp(i*pi/4) rx(pi/2); the inverse matches rx(-pi/2)
                # up to an unobservable global phase.
                out.add("rx", *gate.qubits, params=(-math.pi / 2,))
            elif gate.name == "sy":
                out.add("ry", *gate.qubits, params=(-math.pi / 2,))
            else:  # pragma: no cover - defensive; all specs handled above
                raise CircuitError(f"cannot invert gate {gate.name!r}")
        return out
