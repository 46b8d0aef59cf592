"""Which amplitudes can still be non-zero: the one liveness rule.

Starting from ``|0...0>``, a qubit sits in a known basis state until a gate
puts it into superposition; while qubit ``k`` is fixed, every amplitude
whose bit ``k`` disagrees with its value is exactly zero.  The tracker
keeps that knowledge as two ints - a *free* mask and the *value* of the
fixed bits - so the live amplitudes are ``{i : i & ~free == value}``,
``2^popcount(free)`` of them, and for a chunk size the live chunks form a
:class:`~repro.statevector.subcube.LiveSubcube`.

How a gate changes the knowledge is the version's pruning rule:

* ``"involvement"`` - Algorithm 1 (paper Section IV-B): every qubit a gate
  touches becomes free, and fixed bits stay ``0``;
* ``"diagonal"`` - as Algorithm 1, but a diagonal gate frees nothing: it
  multiplies amplitudes by phases and cannot turn a zero non-zero;
* ``"basis"`` - fixed bits carry a value.  ``X``/``Y`` flip a fixed qubit,
  ``CX``/``CY``/``CCX`` are the identity under a control fixed at ``|0>``
  and a flip under controls fixed at ``|1>``, ``SWAP`` exchanges two
  qubits' knowledge, diagonal gates change nothing, and anything else
  frees the qubits it touches (always sound);
* ``None`` - no pruning: every qubit is free from the start.

Every rule also records the Algorithm 1 involvement mask (diagonal-aware
under ``"diagonal"``), which checkpoints store and a resume cross-checks.

:func:`live_schedule` walks an op stream through a tracker; the closed-form
executor, the chunk-granular DES and the functional engine all consume it.
Soundness is checked in the test suite against real states: every chunk
outside the subcube is exactly zero after every op, for every rule.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, qubit_mask
from repro.errors import SimulationError
from repro.statevector.fusion import FusedGate, GateSlab
from repro.statevector.subcube import LiveSubcube

#: The pruning rules a :class:`~repro.core.versions.VersionConfig` can name.
RULES = (None, "involvement", "diagonal", "basis")

#: Gates that flip their last qubit's basis bit when every other qubit (a
#: control) is fixed at ``|1>`` (``y = iXZ``: the phase is global on a
#: basis state).
_FLIPS = frozenset({"x", "y", "cx", "cy", "ccx"})


class LiveTracker:
    """Live-amplitude knowledge over an ``n``-qubit register.

    Attributes:
        num_qubits: Register width.
        rule: One of :data:`RULES`.
        free: Qubits that may be in superposition.
        value: Values of the fixed qubits (bits outside ``free`` only).
        involvement: Algorithm 1's involvement mask (diagonal-aware under
            the ``"diagonal"`` rule) - what checkpoints store.
    """

    __slots__ = ("num_qubits", "rule", "free", "value", "involvement")

    def __init__(self, num_qubits: int, rule: str | None = "involvement") -> None:
        if num_qubits <= 0:
            raise SimulationError("num_qubits must be positive")
        if rule not in RULES:
            raise SimulationError(f"unknown pruning rule {rule!r} (choose from {RULES})")
        self.num_qubits = num_qubits
        self.rule = rule
        self.free = (1 << num_qubits) - 1 if rule is None else 0
        self.value = 0
        self.involvement = 0

    @property
    def live_amplitudes(self) -> int:
        """Amplitudes that can be non-zero: ``2^popcount(free)``."""
        return 1 << self.free.bit_count()

    def subcube(self, chunk_bits: int) -> LiveSubcube:
        """The live chunks of ``2^chunk_bits`` amplitudes."""
        fixed = ~self.free & ((1 << self.num_qubits) - 1)
        return LiveSubcube(
            self.num_qubits - chunk_bits, fixed >> chunk_bits, self.value >> chunk_bits
        )

    def observe(self, gate: Gate) -> int:
        """Advance the knowledge past ``gate``.

        Returns the amplitudes the gate's update touches: the union of the
        live sets before and after it, bounded by the larger of the two -
        except when the gate moves the live set without resizing it (a
        flip lands on a disjoint coset), which is charged both sets.
        """
        mask = qubit_mask(gate.qubits)
        if mask >> self.num_qubits:
            raise SimulationError(f"gate {gate} exceeds register width")
        rule = self.rule
        if rule == "basis":
            self.involvement |= mask
            return self._observe_basis(gate, mask)
        if rule != "diagonal" or not gate.is_diagonal:
            self.involvement |= mask
            if rule is not None:
                self.free = self.involvement
        return 1 << self.free.bit_count()

    def _observe_basis(self, gate: Gate, mask: int) -> int:
        free = self.free
        value = self.value
        before = 1 << free.bit_count()
        if gate.is_diagonal:
            return before  # phases only (a global phase on a fixed qubit)
        name = gate.name
        if name in _FLIPS:
            target = 1 << gate.qubits[-1]
            controls = mask & ~target
            if controls & ~free & ~value:
                return before  # a control fixed at |0>: the identity
            if controls & free:
                free |= target  # a free control entangles the target
                value &= ~target
            elif not target & free:
                value ^= target  # every control fixed at |1>: a flip
        elif name == "swap":
            a, b = gate.qubits
            if (free >> a ^ free >> b) & 1:
                free ^= mask
            if (value >> a ^ value >> b) & 1:
                value ^= mask
        else:
            free |= mask
            value &= ~mask
        after = 1 << free.bit_count()
        moved = free != self.free or value != self.value
        self.free = free
        self.value = value
        if after == before and moved:
            return 2 * before
        return max(before, after)


def live_schedule(
    ops: Iterable[FusedGate], tracker: LiveTracker
) -> Iterator[tuple[FusedGate, int, int]]:
    """Walk ``ops`` through ``tracker``, one step per op.

    Yields ``(op, first, touched)``: the op, the source index of its first
    member gate, and the amplitudes its member gates touch (summed over
    a slab's members).  When a step is yielded the tracker has observed
    every member, so it holds the knowledge after the op - a slab only
    moves amplitude within a chunk group, so pruning with the post-slab
    state stays exact.
    """
    observe = tracker.observe
    first = 0
    for op in ops:
        # Bare gates skip ``slab_members``: the closed form walks every
        # gate of every priced circuit this way.
        if isinstance(op, GateSlab):
            touched = 0
            for member in op.gates:
                touched += observe(member)
            yield op, first, touched
            first += len(op.gates)
        else:
            yield op, first, observe(op)
            first += 1


def involvement_trace(circuit: QuantumCircuit) -> list[int]:
    """Involvement mask after each gate, in execution order (Fig. 9 data)."""
    tracker = LiveTracker(circuit.num_qubits)
    trace: list[int] = []
    for gate in circuit:
        tracker.observe(gate)
        trace.append(tracker.involvement)
    return trace


def live_fraction_trace(circuit: QuantumCircuit) -> list[float]:
    """Per-gate live-amplitude fraction ``2^involved / 2^n`` along a circuit."""
    n = circuit.num_qubits
    return [
        2.0 ** (mask.bit_count() - n) for mask in involvement_trace(circuit)
    ]
