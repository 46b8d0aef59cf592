"""Tests for Algorithm 1 (zero state-amplitude pruning).

The line-for-line transcription in :mod:`repro.core.pruning` is the oracle:
the liveness tracker's subcube must name exactly its live chunks, and its
pruned chunks must actually be all-zero in a real simulation at every step
of every benchmark circuit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.gates import Gate
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.liveness import LiveTracker
from repro.core.pruning import chunk_is_pruned, iter_live_chunks
from repro.errors import SimulationError
from repro.statevector.chunks import ChunkedStateVector


def _tracker(num_qubits: int, involvement: int) -> LiveTracker:
    """An Algorithm 1 tracker that has involved exactly ``involvement``."""
    tracker = LiveTracker(num_qubits)
    for q in range(num_qubits):
        if involvement >> q & 1:
            tracker.observe(Gate("h", (q,)))
    return tracker


class TestSubcubeAgainstTranscription:
    @given(
        num_qubits=st.integers(2, 12),
        chunk_bits=st.integers(1, 6),
        involvement=st.integers(0, (1 << 12) - 1),
    )
    def test_subcube_members_match_enumeration(
        self, num_qubits: int, chunk_bits: int, involvement: int
    ) -> None:
        chunk_bits = min(chunk_bits, num_qubits)
        involvement &= (1 << num_qubits) - 1
        enumerated = list(iter_live_chunks(num_qubits, chunk_bits, involvement))
        live = _tracker(num_qubits, involvement).subcube(chunk_bits)
        assert list(live) == enumerated
        assert live.live_chunks == len(enumerated)

    @given(
        num_qubits=st.integers(2, 12),
        chunk_bits=st.integers(1, 6),
        involvement=st.integers(0, (1 << 12) - 1),
    )
    def test_enumeration_matches_membership_test(
        self, num_qubits: int, chunk_bits: int, involvement: int
    ) -> None:
        chunk_bits = min(chunk_bits, num_qubits)
        involvement &= (1 << num_qubits) - 1
        live = set(iter_live_chunks(num_qubits, chunk_bits, involvement))
        for chunk in range(1 << (num_qubits - chunk_bits)):
            assert (chunk in live) == (
                not chunk_is_pruned(chunk, chunk_bits, involvement)
            )

    def test_no_involvement_keeps_only_chunk_zero(self) -> None:
        assert list(iter_live_chunks(6, 2, 0)) == [0]
        assert list(_tracker(6, 0).subcube(2)) == [0]

    def test_full_involvement_keeps_everything(self) -> None:
        assert list(iter_live_chunks(6, 2, 0b111111)) == list(range(16))
        assert list(_tracker(6, 0b111111).subcube(2)) == list(range(16))

    def test_half_involvement_halves_chunks(self) -> None:
        # One uninvolved qubit above the chunk boundary halves live chunks.
        assert len(list(iter_live_chunks(6, 2, 0b101111))) == 8
        assert _tracker(6, 0b101111).subcube(2).live_chunks == 8

    def test_live_amplitudes(self) -> None:
        assert _tracker(6, 0).live_amplitudes == 1
        assert _tracker(6, 0b101).live_amplitudes == 4

    def test_validation(self) -> None:
        with pytest.raises(SimulationError):
            list(iter_live_chunks(4, 5, 0))
        with pytest.raises(SimulationError):
            list(iter_live_chunks(2, 1, 0b100))


class TestAgainstRealStates:
    """Pruned chunks must hold exactly zero amplitudes in real simulations."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pruned_chunks_are_zero_throughout(self, family: str) -> None:
        num_qubits, chunk_bits = 8, 3
        circuit = get_circuit(family, num_qubits)
        state = ChunkedStateVector(num_qubits, chunk_bits)
        tracker = LiveTracker(num_qubits)
        for gate in circuit:
            state.apply(gate)
            tracker.observe(gate)
            live = list(iter_live_chunks(num_qubits, chunk_bits, tracker.involvement))
            assert list(tracker.subcube(chunk_bits)) == live
            for chunk in range(state.num_chunks):
                if chunk not in live:
                    assert state.chunk_is_zero(chunk), (
                        f"{family}: chunk {chunk} pruned but non-zero "
                        f"(involvement {tracker.involvement:b})"
                    )

    def test_live_amplitude_bound_is_tight_for_ghz(self) -> None:
        # GHZ involves all qubits; every amplitude can be non-zero even
        # though only 2 are - the bound is an upper bound, never a lie.
        from repro.statevector.state import simulate
        from repro.circuits.circuit import QuantumCircuit

        circuit = QuantumCircuit(4).h(0)
        for q in range(3):
            circuit.cx(q, q + 1)
        state = simulate(circuit)
        nonzero = int(np.count_nonzero(state.amplitudes))
        assert nonzero <= _tracker(4, 0b1111).live_amplitudes
