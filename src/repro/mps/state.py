"""Matrix-product-state (tensor network) simulation - Section II-B's third
paradigm (Equation 9).

An ``n``-qubit state is a chain of rank-3 tensors ``A_k`` with shape
``(chi_left, 2, chi_right)``; the amplitude of bit string ``b`` is the
matrix product ``A_0[b_0] A_1[b_1] ... A_{n-1}[b_{n-1}]`` (Equation 9).
Bond dimensions grow with entanglement; each two-site gate is applied by
merging neighbours, contracting the 4x4 unitary, and splitting back with an
SVD that drops only numerically-zero singular values.

Non-adjacent two-qubit gates route through an explicit swap network, and
three-qubit library gates decompose first (``repro.circuits.passes``), so
the full benchmark gate set is supported.  The engine is exact (the tests
check it against the dense simulator): a circuit whose tensors outgrow
:data:`MPS_BYTE_LIMIT` raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.passes import decompose
from repro.errors import SimulationError
from repro.statevector.chunks import DENSE_QUBIT_LIMIT

#: Largest total tensor size the engine holds: the dense engine's largest
#: complex128 state (1 GiB).  Past it an MPS stores more than the state
#: it stands in for, so the run refuses instead.
MPS_BYTE_LIMIT = 16 << DENSE_QUBIT_LIMIT

#: Singular values at or below this fraction of the largest one are
#: numerically zero and leave the split; every other one is kept.
RELATIVE_CUTOFF = 1e-12


class MpsState:
    """A matrix product state over ``num_qubits`` qubits, initially
    ``|0...0>``.

    Args:
        num_qubits: Chain length.

    Attributes:
        tensors: ``tensors[k]`` has shape ``(chi_k, 2, chi_{k+1})``.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise SimulationError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self._gates_applied = 0
        self.tensors: list[np.ndarray] = []
        for _ in range(num_qubits):
            tensor = np.zeros((1, 2, 1), dtype=np.complex128)
            tensor[0, 0, 0] = 1.0
            self.tensors.append(tensor)

    # -- queries ------------------------------------------------------------

    def bond_dimensions(self) -> list[int]:
        """Bond sizes between neighbouring sites (length ``n - 1``)."""
        return [self.tensors[k].shape[2] for k in range(self.num_qubits - 1)]

    def max_bond_dimension(self) -> int:
        return max(self.bond_dimensions(), default=1)

    def to_dense(self) -> np.ndarray:
        """Contract into the full ``2^n`` vector (small widths only).

        Index convention matches the dense engine: qubit 0 is the least
        significant bit of the amplitude index.
        """
        if self.num_qubits > 24:
            raise SimulationError("to_dense beyond 24 qubits is not sensible")
        contracted = self.tensors[0]  # (1, 2, chi)
        for k in range(1, self.num_qubits):
            contracted = np.tensordot(contracted, self.tensors[k], axes=([2], [0]))
            shape = contracted.shape
            contracted = contracted.reshape(1, shape[1] * shape[2], shape[3])
        vector = contracted.reshape(-1)
        # The merged physical index ordering is site-major (site 0 most
        # significant within the merge above); reorder to LSB-first.
        tensor = vector.reshape((2,) * self.num_qubits)
        return np.ascontiguousarray(tensor.transpose(*reversed(range(self.num_qubits)))).reshape(-1)

    def amplitude(self, basis_index: int) -> complex:
        """Amplitude of one basis state via the Equation-9 matrix product."""
        if not 0 <= basis_index < (1 << self.num_qubits):
            raise SimulationError(f"basis index {basis_index} out of range")
        product = self.tensors[0][:, basis_index & 1, :]
        for k in range(1, self.num_qubits):
            bit = basis_index >> k & 1
            product = product @ self.tensors[k][:, bit, :]
        return complex(product[0, 0])

    def norm(self) -> float:
        """Euclidean norm by transfer-matrix contraction (O(n chi^3))."""
        env = np.ones((1, 1), dtype=np.complex128)
        for tensor in self.tensors:
            # env(l, l') . A(l, p, r) . conj(A)(l', p, r') -> (r, r')
            temp = np.tensordot(env, tensor, axes=([0], [0]))  # (l', p, r)
            env = np.tensordot(tensor.conj(), temp, axes=([0, 1], [0, 1]))
        return float(np.sqrt(abs(env[0, 0])))

    # -- gate application ------------------------------------------------------

    def apply(self, gate: Gate) -> "MpsState":
        """Apply one library gate (decomposing 3-qubit gates first)."""
        if any(q >= self.num_qubits for q in gate.qubits):
            raise SimulationError(f"gate {gate} exceeds register width")
        lowered = [gate]
        if gate.num_qubits > 2:
            shim = QuantumCircuit(self.num_qubits)
            shim.append(gate)
            lowered = list(decompose(shim))
        for part in lowered:
            if part.num_qubits == 1:
                self._apply_single(part.matrix(), part.qubits[0])
            else:
                self._apply_two(part)
        self._gates_applied += 1
        return self

    def run(self, circuit: QuantumCircuit) -> "MpsState":
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width mismatch")
        for gate in circuit:
            self.apply(gate)
        return self

    def _apply_single(self, matrix: np.ndarray, site: int) -> None:
        self.tensors[site] = np.einsum(
            "ab,lbr->lar", matrix, self.tensors[site], optimize=True
        )

    def _apply_two(self, gate: Gate) -> None:
        a, b = gate.qubits
        if abs(a - b) == 1:
            self._apply_adjacent(gate.matrix(), min(a, b), first_is_low=(a < b))
            return
        # Route the higher qubit next to the lower with swaps, apply, undo.
        low, high = (a, b) if a < b else (b, a)
        swap = Gate("swap", (0, 1)).matrix()
        # Swaps at sites (high-1, high), (high-2, high-1), ..., (low+1,
        # low+2) walk the high qubit down to site low+1.
        route = list(range(high - 1, low, -1))
        for site in route:
            self._apply_adjacent(swap, site, first_is_low=True)
        self._apply_adjacent(gate.matrix(), low, first_is_low=(a < b))
        for site in reversed(route):
            self._apply_adjacent(swap, site, first_is_low=True)

    def _apply_adjacent(
        self, matrix: np.ndarray, site: int, first_is_low: bool
    ) -> None:
        """Apply a 4x4 unitary on sites ``(site, site+1)``.

        ``first_is_low``: gate qubit 0 (the matrix's least significant
        axis) sits on ``site``; otherwise on ``site + 1``.
        """
        left, right = self.tensors[site], self.tensors[site + 1]
        chi_l, _, _ = left.shape
        _, _, chi_r = right.shape
        theta = np.tensordot(left, right, axes=([2], [0]))  # (l, p0, p1, r)

        # Reshape the gate so its axes line up with (p0', p1', p0, p1):
        # matrix index bit 0 = gate qubit 0.  numpy reshape makes the first
        # axis the most significant bit = gate qubit 1.
        gate4 = matrix.reshape(2, 2, 2, 2)  # (out_q1, out_q0, in_q1, in_q0)
        if first_is_low:
            # p0 carries gate qubit 0.
            gate_nd = gate4.transpose(1, 0, 3, 2)  # (out_q0, out_q1, in_q0, in_q1)
        else:
            gate_nd = gate4  # p0 carries gate qubit 1 already

        theta = np.einsum("abcd,lcdr->labr", gate_nd, theta, optimize=True)
        merged = theta.reshape(chi_l * 2, 2 * chi_r)
        u, s, vh = self._svd(merged, site)

        kept = max(1, int(np.count_nonzero(s > RELATIVE_CUTOFF * s[0])))
        self.tensors[site] = u[:, :kept].reshape(chi_l, 2, kept)
        self.tensors[site + 1] = (s[:kept, None] * vh[:kept]).reshape(kept, 2, chi_r)
        total = sum(tensor.nbytes for tensor in self.tensors)
        if total > MPS_BYTE_LIMIT:
            raise SimulationError(
                f"MPS refuses at gate {self._gates_applied}: bond {kept} between "
                f"sites {site} and {site + 1} brings the tensors to {total} bytes, "
                f"past the {MPS_BYTE_LIMIT}-byte limit (the dense engine's largest state)"
            )

    def _svd(self, merged: np.ndarray, site: int) -> tuple[np.ndarray, ...]:
        """Thin SVD of ``merged``, retried once on ``merged^H = V S U^H``:
        LAPACK can fail to converge on a finite matrix with degenerate
        singular values whose conjugate transpose converges."""
        try:
            return np.linalg.svd(merged, full_matrices=False)
        except np.linalg.LinAlgError:
            pass
        try:
            v, s, uh = np.linalg.svd(merged.conj().T, full_matrices=False)
        except np.linalg.LinAlgError as error:
            raise SimulationError(
                f"MPS SVD did not converge at gate {self._gates_applied} "
                f"(sites {site} and {site + 1}, {merged.shape[0]}x"
                f"{merged.shape[1]} matrix)"
            ) from error
        return uh.conj().T, s, v.conj().T

    # -- observables -------------------------------------------------------

    def expectation_pauli(self, paulis: dict[int, str]) -> float:
        """``<psi| P |psi>`` for a tensor product of single-qubit Paulis.

        Contracts one transfer matrix per site in ``O(n chi^3)`` - no
        ``2^n`` densification.  ``paulis`` maps qubit -> ``"X"|"Y"|"Z"``
        (identity sites omitted).
        """
        import numpy as np  # local alias for clarity in the contraction

        operators = {
            "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
            "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
        }
        for qubit, label in paulis.items():
            if label not in operators:
                raise SimulationError(f"bad Pauli label {label!r}")
            if not 0 <= qubit < self.num_qubits:
                raise SimulationError(f"qubit {qubit} out of range")
        env = np.ones((1, 1), dtype=np.complex128)
        for site, tensor in enumerate(self.tensors):
            op = operators.get(paulis.get(site, "I"))
            acted = (
                tensor
                if op is None
                else np.einsum("ab,lbr->lar", op, tensor, optimize=True)
            )
            temp = np.tensordot(env, acted, axes=([1], [0]))  # (l', p, r)
            env = np.tensordot(tensor.conj(), temp, axes=([0, 1], [0, 1]))
        return float(np.real(env[0, 0]))

    # -- sampling ---------------------------------------------------------

    def _right_environments(self) -> list[np.ndarray]:
        """``R[k]``: the density environment right of site ``k``.

        ``R[n]`` is the scalar 1; ``R[k] = sum_p A_k[:,p,:] R[k+1]
        A_k[:,p,:]^dagger`` - the matrix whose quadratic form gives the
        squared norm of any left-boundary vector continued to the right.
        """
        n = self.num_qubits
        environments: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
        environments[n] = np.ones((1, 1), dtype=np.complex128)
        for k in range(n - 1, -1, -1):
            tensor = self.tensors[k]
            right = environments[k + 1]
            env = np.zeros((tensor.shape[0], tensor.shape[0]), dtype=np.complex128)
            for p in range(2):
                slab = tensor[:, p, :]
                env += slab @ right @ slab.conj().T
            environments[k] = env
        return environments

    def sample(self, shots: int, rng: np.random.Generator | None = None) -> dict[int, int]:
        """Draw basis-state samples without materialising ``2^n`` amplitudes.

        Classic sequential MPS sampling: sweep the chain once per shot,
        conditioning each qubit's outcome probability on the prefix via the
        left boundary vector and the precomputed right environments.
        Cost: ``O(n chi^3)`` once plus ``O(shots n chi^2)``.
        """
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        if rng is None:
            rng = np.random.default_rng()
        environments = self._right_environments()
        total = float(np.real(environments[0][0, 0]))
        if total <= 0:
            raise SimulationError("state has zero norm")
        counts: dict[int, int] = {}
        for _ in range(shots):
            boundary = np.ones((1,), dtype=np.complex128)
            weight = total
            outcome = 0
            for k in range(self.num_qubits):
                tensor = self.tensors[k]
                right = environments[k + 1]
                branch0 = boundary @ tensor[:, 0, :]
                # Quadratic form of the row vector: sum_suffix |b M|^2
                # = b R b^dagger (R is Hermitian but not symmetric).
                p0 = float(np.real(branch0 @ right @ branch0.conj()))
                probability_zero = min(1.0, max(0.0, p0 / weight))
                if rng.random() < probability_zero:
                    boundary = branch0
                    weight = p0
                else:
                    boundary = boundary @ tensor[:, 1, :]
                    weight = max(weight - p0, 1e-300)
                    outcome |= 1 << k
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts


def simulate_mps(circuit: QuantumCircuit) -> MpsState:
    """Run ``circuit`` from ``|0...0>`` on the MPS engine, exactly.

    Raises:
        SimulationError: When the tensors outgrow :data:`MPS_BYTE_LIMIT`
            or an SVD fails to converge.
    """
    return MpsState(circuit.num_qubits).run(circuit)
