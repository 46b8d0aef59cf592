"""Gate-fusion slabs for the chunked statevector engine.

The kernel benchmarks show where the chunked engine still loses to the
paper's recipe: every gate pays one full sweep over the state, so a run of
``k`` cheap gates costs ``k`` passes of memory traffic even though the
arithmetic per amplitude is trivial.  Gate fusion — the standard fix in
Qsim/Aer and the gate-fusion study (arXiv 2604.03816) — contracts adjacent
gates into one *slab* that the dispatcher applies in a single tiled pass.

Two slab kinds are produced by :func:`fuse_slabs`:

* **dense** slabs contract consecutive gates on *overlapping* qubits into
  one small unitary (via :class:`~repro.circuits.fusion.FusedBlock`), up
  to ``max_width`` qubits.  Disjoint gates deliberately do not fuse — a
  wider matrix over unrelated qubits adds traffic instead of saving it.
* **diagonal** slabs batch maximal runs of consecutive diagonal gates
  (diagonals always commute, and their product is again diagonal) into a
  single precombined multiplier, regardless of qubit overlap: one
  in-place multiply sweep replaces ``k`` sweeps.

A :class:`GateSlab` duck-types :class:`~repro.circuits.gates.Gate` — it
exposes ``name``/``qubits``/``num_qubits``/``is_diagonal``/``matrix()``/
``diagonal()``/``remapped()`` — so the serial chunk path, the parallel
engine, and the pruning tracker consume slabs through the existing gate
dispatch without modification.  Single-gate groups are emitted as the
bare :class:`Gate`, so a circuit with nothing fusible runs exactly as its
gate list.  The dense engine runs this op stream in every run mode
(guarded, checkpointed, resumed, partial); its cursors count source
gates and act at op boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from repro.circuits.fusion import FusedBlock, fuse
from repro.circuits.gates import Gate
from repro.errors import SimulationError

#: Widest dense slab (union of member qubits).  Matches the Qsim default;
#: beyond ~4 qubits the fused matrix itself stops fitting in registers and
#: the matmul cost beats the saved traffic.
MAX_FUSION_WIDTH = 4

#: Widest diagonal slab.  The combined multiplier is a ``2^width`` vector
#: built once per slab; 8 qubits (256 entries) is still negligible.
MAX_DIAGONAL_WIDTH = 8

#: When ``chunk_bits`` is known, cap the *outside* (chunk-selecting)
#: qubits a diagonal slab may union.  The chunk kernels memoize one factor
#: vector per outside-bit pattern, so ``2^outside`` patterns can each
#: materialise a chunk-sized vector — four keeps that cache bounded.
MAX_DIAGONAL_OUTSIDE = 4


@dataclass(frozen=True)
class GateSlab:
    """A fused group of consecutive gates applied as one pass.

    Attributes:
        gates: Member gates in circuit order.
        qubits: Sorted union of the members' qubits.
        kind: ``"dense"`` (contracted unitary) or ``"diagonal"``
            (precombined multiplier; every member is diagonal).
    """

    gates: tuple[Gate, ...]
    qubits: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("dense", "diagonal"):
            raise SimulationError(f"unknown slab kind {self.kind!r}")
        if not self.gates:
            raise SimulationError("a slab needs at least one gate")
        union = tuple(sorted({q for gate in self.gates for q in gate.qubits}))
        if self.qubits != union:
            raise SimulationError(
                f"slab qubits {self.qubits} != sorted member union {union}"
            )
        if self.kind == "diagonal" and not all(g.is_diagonal for g in self.gates):
            raise SimulationError("diagonal slab contains a non-diagonal gate")

    @property
    def name(self) -> str:
        prefix = "dslab" if self.kind == "diagonal" else "slab"
        return f"{prefix}[{len(self.gates)}]"

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def width(self) -> int:
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        return self.kind == "diagonal"

    def matrix(self) -> np.ndarray:
        """The contracted ``2^width x 2^width`` unitary (memoized, read-only).

        Basis convention matches :class:`Gate`: ``qubits[0]`` is the least
        significant axis.
        """
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = FusedBlock(gates=self.gates, qubits=self.qubits).matrix()
            cached.setflags(write=False)
            object.__setattr__(self, "_matrix", cached)
        return cached

    def diagonal(self) -> np.ndarray:
        """The combined ``2^width`` multiplier of a diagonal slab.

        Each member's diagonal is gathered onto the slab's qubit union and
        the entries multiplied — the single vector a one-sweep multiply
        needs.  Memoized and read-only, like :meth:`Gate.diagonal`.
        """
        if self.kind != "diagonal":
            raise SimulationError(f"slab {self.name!r} is not diagonal")
        cached = self.__dict__.get("_diagonal")
        if cached is None:
            position = {q: k for k, q in enumerate(self.qubits)}
            indices = np.arange(1 << self.width)
            combined = np.ones(1 << self.width, dtype=np.complex128)
            for gate in self.gates:
                local = np.zeros_like(indices)
                for bit, q in enumerate(gate.qubits):
                    local |= ((indices >> position[q]) & 1) << bit
                combined *= gate.diagonal()[local]
            combined.setflags(write=False)
            cached = combined
            object.__setattr__(self, "_diagonal", cached)
        return cached

    def remapped(self, mapping: dict[int, int]) -> "GateSlab":
        """Slab acting on ``mapping[q]`` for each qubit ``q``.

        The contracted matrix/diagonal are rebuilt from the remapped
        members, so any injective mapping is correct (the gather path uses
        an order-preserving one, which also preserves the basis layout).
        """
        return GateSlab(
            gates=tuple(gate.remapped(mapping) for gate in self.gates),
            qubits=tuple(sorted(mapping[q] for q in self.qubits)),
            kind=self.kind,
        )

    def __str__(self) -> str:
        members = ", ".join(g.name for g in self.gates)
        return f"{self.name} {list(self.qubits)} <- [{members}]"


#: What the fusion pass emits: bare gates for singletons, slabs otherwise.
FusedGate = Union[Gate, GateSlab]


def slab_members(op: FusedGate) -> tuple[Gate, ...]:
    """The original gates an op stands for (itself, for a bare gate)."""
    if isinstance(op, GateSlab):
        return op.gates
    return (op,)


def fuse_slabs(
    gates: Iterable[Gate],
    *,
    max_width: int = MAX_FUSION_WIDTH,
    max_diagonal_width: int = MAX_DIAGONAL_WIDTH,
    chunk_bits: int | None = None,
) -> list[FusedGate]:
    """Group a gate stream into fusion slabs, preserving circuit order.

    Two greedy steps: the stream splits into runs of *consecutive*
    diagonal gates within the width caps, and each run of >= 2 becomes a
    diagonal slab; the stretches between diagonal slabs (a lone diagonal
    included) go through :func:`repro.circuits.fusion.fuse`, which
    contracts overlapping-qubit neighbours up to ``max_width``.
    Concatenating :func:`slab_members` over the result reproduces the
    input stream exactly.

    Args:
        gates: Gate stream (a :class:`QuantumCircuit` iterates as one).
        max_width: Dense slab qubit-union cap.
        max_diagonal_width: Diagonal slab qubit-union cap.
        chunk_bits: When given, diagonal slabs additionally cap the number
            of qubits at or above ``chunk_bits`` (see
            :data:`MAX_DIAGONAL_OUTSIDE`) so the per-pattern factor cache
            in the chunk kernels stays bounded.

    Returns:
        Ops in execution order: :class:`GateSlab` for fused groups,
        the bare :class:`Gate` for singletons.
    """
    if max_width < 1:
        raise SimulationError("max_width must be >= 1")
    if max_diagonal_width < 1:
        raise SimulationError("max_diagonal_width must be >= 1")

    def fits(qubits: set[int]) -> bool:
        if len(qubits) > max_diagonal_width:
            return False
        if chunk_bits is None:
            return True
        return sum(1 for q in qubits if q >= chunk_bits) <= MAX_DIAGONAL_OUTSIDE

    out: list[FusedGate] = []
    segment: list[Gate] = []
    for run in _diagonal_runs(gates, fits):
        if len(run) < 2:
            segment.extend(run)
            continue
        out.extend(_dense_ops(segment, max_width))
        segment = []
        union = tuple(sorted({q for gate in run for q in gate.qubits}))
        out.append(GateSlab(gates=tuple(run), qubits=union, kind="diagonal"))
    out.extend(_dense_ops(segment, max_width))
    return out


def _diagonal_runs(
    gates: Iterable[Gate], fits: Callable[[set[int]], bool]
) -> Iterator[list[Gate]]:
    """Maximal runs of consecutive diagonal gates whose qubit union
    ``fits``; every non-diagonal gate is a run of its own."""
    run: list[Gate] = []
    qubits: set[int] = set()
    for gate in gates:
        if not gate.is_diagonal:
            if run:
                yield run
            yield [gate]
            run, qubits = [], set()
            continue
        union = qubits | set(gate.qubits)
        if run and not fits(union):
            yield run
            run, union = [], set(gate.qubits)
        run.append(gate)
        qubits = union
    if run:
        yield run


def _dense_ops(segment: list[Gate], max_width: int) -> list[FusedGate]:
    """Greedy dense fusion of ``segment``; singleton blocks stay bare."""
    return [
        block.gates[0]
        if len(block.gates) == 1
        else GateSlab(gates=block.gates, qubits=block.qubits, kind="dense")
        for block in fuse(segment, max_width)
    ]
