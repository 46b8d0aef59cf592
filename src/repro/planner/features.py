"""Static circuit analysis: the cheap features the backend planner prices.

Everything here is computed from the circuit *description* alone - no
amplitudes are ever materialised beyond the bounded sparse probe - so
analysis cost is polynomial in gate count and the resulting
:class:`CircuitFeatures` are deterministic: the same circuit always yields
the same features, which is what makes planning reproducible.

Feature groups (see ``docs/planner.md`` for the full definitions):

* **Size/shape**: qubit count, gate count, depth, fused sweep count.
* **Clifford structure**: exact membership via
  :func:`repro.stabilizer.is_clifford_circuit` plus the Clifford gate
  fraction (how far from the tableau engine a mixed circuit is).
* **Support**: the *structural* bound from the paper's involvement
  analysis (Algorithm 1's ``2^involved`` window) and a *bounded sparse
  probe* - the circuit prefix is run on the hash-map engine until either
  it completes or the support exceeds a ceiling, giving the exact
  support trace for support-sparse workloads (W states, GHZ ladders)
  that the structural bound cannot see through amplitude cancellation.
* **Entanglement**: a per-cut bond-growth proxy for the MPS engine (every
  multi-qubit gate can at most double the Schmidt rank across each cut it
  spans), with the swap routing non-adjacent gates need on the chain.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.core.liveness import LiveTracker
from repro.errors import AnalysisError
from repro.sparse.state import SparseState
from repro.stabilizer import CLIFFORD_GATES, is_clifford_circuit

#: Support ceiling for the bounded sparse probe: the probe aborts the
#: moment the exact support exceeds this many basis states, so its cost
#: is O(gates * ceiling) dictionary operations whatever the circuit.
PROBE_SUPPORT_CEILING = 4096

#: Gate ceiling for the bounded sparse probe (very deep circuits fall
#: back to the structural bound beyond this prefix).
PROBE_GATE_CEILING = 2048

#: Work ceiling for the bounded sparse probe: total entry-updates
#: (``sum(support * 2^k)`` over probed gates) before it gives up.  The
#: support and gate ceilings alone admit a ~``4096 * 2048``-update worst
#: case (support pinned just under the ceiling for the whole prefix) that
#: would cost seconds; this bounds the probe to tens of milliseconds.
#: Support-sparse circuits - the ones the probe exists to recognise - do
#: orders of magnitude less work than this before completing.
PROBE_WORK_CEILING = 1 << 18

#: Gates that permute basis states: they move support without growing it.
PERMUTATION_GATES = frozenset({"x", "cx", "ccx", "swap"})


@dataclass(frozen=True)
class CircuitFeatures:
    """Static features of one circuit, the planner's pricing input.

    Attributes:
        name: Circuit name.
        num_qubits: Register width ``n``.
        num_gates: Total gate count.
        depth: Circuit depth (parallel gate layers).
        is_clifford: Every gate is in the tableau engine's gate set.
        clifford_fraction: Fraction of gates in the Clifford subset.
        support_bound_final: Structural (involvement) bound on the
            non-zero amplitude count, ``2^involved`` capped at ``2^n``.
            Involvement only grows, so this is also the bound's peak.
        probe_completed: The bounded sparse probe ran the whole circuit
            without exceeding its ceilings.
        probe_support_peak: Peak exact support seen by the probe (only
            meaningful when ``probe_completed``; otherwise the support at
            abort time, a lower bound).
        sparse_ops: Work integral priced for the sparse backend,
            ``sum(support * 2^k)`` over gates: the probe's exact support
            when it completed, else the structural bound's window (which is what makes dense-support circuits
            price the sparse engine out).
        dense_amp_ops: ``sum(live_amplitudes * touched_factor)`` over
            gates under the involvement window - the dense engine's
            pruning-aware amplitude-operation count.
        fused_sweeps: Number of state sweeps the functional engine's
            gate-fusion pass leaves after slabbing adjacent gates
            (the length of :func:`repro.statevector.fusion.fuse_slabs`'s
            output).  Equals
            ``num_gates`` when nothing fuses; fusion-friendly circuits
            (diagonal runs, overlapping 1q/2q chains) come in well below.
        bond_estimate: Peak per-cut bond-growth proxy, capped at the
            exact-representability ceiling ``2^min(cut+1, n-1-cut)``.
        mps_ops: Work integral for the MPS backend:
            ``sum((2*chi)^3)`` over (routed) two-qubit applications plus a
            per-gate term, with ``chi`` the proxy bond at that point.
    """

    name: str
    num_qubits: int
    num_gates: int
    depth: int
    is_clifford: bool
    clifford_fraction: float
    support_bound_final: int
    probe_completed: bool
    probe_support_peak: int
    sparse_ops: float
    dense_amp_ops: float
    fused_sweeps: int
    bond_estimate: int
    mps_ops: float


def _sparse_probe(circuit: QuantumCircuit) -> tuple[bool, int, float]:
    """Run the circuit on the hash-map engine until a ceiling trips.

    Returns ``(completed, peak_support, support_ops)``.  The probe is the
    one feature that executes gates, but its work is hard-bounded by the
    ceilings, so it stays cheap on dense-support circuits (it aborts the
    moment the support blows up - for an all-qubits Hadamard layer that is
    after ``log2(ceiling)`` gates).
    """
    state = SparseState(circuit.num_qubits)
    peak = 1
    ops = 0.0
    for index, gate in enumerate(circuit):
        cost = state.support_size * (1 << gate.num_qubits)
        if index >= PROBE_GATE_CEILING or ops + cost > PROBE_WORK_CEILING:
            return False, peak, ops
        ops += cost
        state.apply(gate)
        peak = max(peak, state.support_size)
        if state.support_size > PROBE_SUPPORT_CEILING:
            return False, peak, ops
    return True, peak, ops


def _bond_growth(circuit: QuantumCircuit) -> tuple[int, float]:
    """Entanglement-growth proxy: per-cut Schmidt-rank doubling.

    Models the chain's ``n - 1`` cuts; a ``k``-qubit gate spanning sites
    ``[a, b]`` can multiply the rank across every cut in ``[a, b)`` by at
    most ``2^(k-1)``, and no cut can exceed its exact ceiling
    ``2^min(cut+1, n-1-cut)``.  Returns ``(peak_bond, mps_ops)`` where
    ``mps_ops`` integrates ``(2 * chi)^3`` SVD work (with routing swaps
    for non-adjacent gates) at the proxy bond, summed in integers and
    saturated at the largest float (wide registers' ceilings exceed it).
    """
    n = circuit.num_qubits
    if n < 2:
        return 1, float(len(circuit))
    cuts = [1] * (n - 1)
    ceilings = [1 << min(c + 1, n - 1 - c) for c in range(n - 1)]
    ops = 0
    for gate in circuit:
        if gate.num_qubits == 1:
            ops += 1
            continue
        low, high = min(gate.qubits), max(gate.qubits)
        factor = 1 << (gate.num_qubits - 1)
        span = high - low
        # Swap-routing walks the far qubit adjacent: 2*(span-1) swaps plus
        # the gate itself, each an SVD at the local bond.
        applications = 2 * (span - 1) + 1
        chi = max(cuts[low : high] or [1])
        ops += applications * (2 * chi) ** 3
        for cut in range(low, high):
            cuts[cut] = min(cuts[cut] * factor, ceilings[cut])
    return max(cuts), float(min(ops, sys.float_info.max))


def analyze_circuit(circuit: QuantumCircuit) -> CircuitFeatures:
    """Extract the planner's static feature vector from ``circuit``.

    Deterministic: no randomness, no timing, no host probing - two calls
    with the same circuit return equal features.

    Raises:
        AnalysisError: On an empty register.
    """
    if circuit.num_qubits <= 0:
        raise AnalysisError("cannot analyze a circuit with no qubits")
    n = circuit.num_qubits
    num_gates = len(circuit)
    clifford_gates = sum(1 for gate in circuit if gate.name in CLIFFORD_GATES)

    # Structural support bound and the dense pruning-window work integral.
    tracker = LiveTracker(n)
    dense_ops = 0.0
    bound_ops = 0.0
    for gate in circuit:
        live = tracker.observe(gate)
        dense_ops += float(live)
        bound_ops += float(live) * (1 << gate.num_qubits)
    support_bound = min(tracker.live_amplitudes, 1 << n)

    completed, probe_peak, probe_ops = _sparse_probe(circuit)
    bond_peak, mps_ops = _bond_growth(circuit)

    # Imported lazily: the fusion pass lives in the statevector package,
    # which the planner otherwise never touches at analysis time.
    from repro.statevector.fusion import fuse_slabs

    fused_sweeps = len(fuse_slabs(list(circuit)))

    return CircuitFeatures(
        name=circuit.name,
        num_qubits=n,
        num_gates=num_gates,
        depth=circuit.depth(),
        is_clifford=is_clifford_circuit(circuit),
        clifford_fraction=clifford_gates / num_gates if num_gates else 0.0,
        support_bound_final=support_bound,
        probe_completed=completed,
        probe_support_peak=probe_peak,
        sparse_ops=probe_ops if completed else bound_ops,
        dense_amp_ops=dense_ops,
        fused_sweeps=fused_sweeps,
        bond_estimate=bond_peak,
        mps_ops=mps_ops,
    )
