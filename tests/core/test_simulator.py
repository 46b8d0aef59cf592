"""Tests for the QGpuSimulator facade.

The headline correctness claim: the full Q-GPU pipeline (reordering +
chunking + pruning) produces bit-identical final states to a plain dense
simulation, for every benchmark family and every version.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import accumulate

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator, circuit_family
from repro.core.versions import ALL_VERSIONS, BASELINE, PRUNING, QGPU, REORDER
from repro.errors import SimulationError
from repro.hardware.specs import PAPER_MACHINE, V100_MACHINE
from repro.planner import analyze_circuit, backend_cost
from repro.reliability import FaultPlan
from repro.stabilizer import is_clifford_circuit
from repro.statevector.fusion import fuse_slabs, slab_members
from repro.statevector.measure import sample_counts
from repro.statevector.state import simulate


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
    def test_every_family_every_version_matches_dense(
        self, family: str, version
    ) -> None:
        circuit = get_circuit(family, 9)
        reference = simulate(circuit).amplitudes
        result = QGpuSimulator(version=version, chunk_bits=4).run(circuit)
        np.testing.assert_allclose(result.amplitudes, reference, atol=1e-10)

    def test_default_chunk_bits_choice(self) -> None:
        circuit = get_circuit("gs", 8)
        result = QGpuSimulator(version=QGPU).run(circuit)
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-10
        )

    def test_chunk_bits_wider_than_register_rejected(self) -> None:
        with pytest.raises(SimulationError):
            QGpuSimulator(version=QGPU, chunk_bits=10).run(
                QuantumCircuit(4).h(0)
            )


class TestPruningStatistics:
    def test_iqp_prunes_most(self) -> None:
        fractions = {}
        for family in ("iqp", "qft", "qaoa"):
            circuit = get_circuit(family, 10)
            result = QGpuSimulator(version=PRUNING, chunk_bits=4).run(circuit)
            fractions[family] = result.pruned_fraction
        assert fractions["iqp"] > fractions["qaoa"]
        assert fractions["iqp"] > 0.5

    def test_reorder_increases_pruning_for_gs(self) -> None:
        circuit = get_circuit("gs", 10)
        without = QGpuSimulator(version=PRUNING, chunk_bits=4).run(circuit)
        with_reorder = QGpuSimulator(version=REORDER, chunk_bits=4).run(circuit)
        assert with_reorder.pruned_fraction >= without.pruned_fraction

    def test_baseline_prunes_nothing(self) -> None:
        circuit = get_circuit("gs", 8)
        result = QGpuSimulator(version=BASELINE, chunk_bits=4).run(circuit)
        assert result.chunk_updates_skipped == 0
        assert result.pruned_fraction == 0.0

    def test_counters_consistent(self) -> None:
        circuit = get_circuit("bv", 9)
        result = QGpuSimulator(version=QGPU, chunk_bits=4).run(circuit)
        assert 0 <= result.chunk_updates_skipped <= result.chunk_updates_total
        assert result.circuit_name == "bv_9"
        assert result.version == "Q-GPU"


class TestReadout:
    def test_amplitudes_is_a_read_only_view_of_the_backing(self) -> None:
        result = QGpuSimulator(version=QGPU).run(get_circuit("qft", 8))
        first, second = result.amplitudes, result.amplitudes
        assert np.shares_memory(first, result.state.backing)
        assert np.shares_memory(second, result.state.backing)
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0
        # Handing out views leaves the state itself writable.
        assert result.state.backing.flags.writeable

    def test_to_dense_is_a_writable_copy(self) -> None:
        result = QGpuSimulator(version=QGPU).run(get_circuit("qft", 8))
        copy = result.state.to_dense()
        assert not np.shares_memory(copy, result.state.backing)
        copy[0] = 7.0
        assert result.amplitudes[0] != 7.0

    def test_non_dense_amplitudes_densify(self) -> None:
        circuit = get_circuit("bv", 8)
        result = QGpuSimulator(backend="sparse").run(circuit)
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-10
        )

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_sample_counts_is_the_front_doors_readout(self, precision: str) -> None:
        result = QGpuSimulator(precision=precision).run(get_circuit("qft", 8))
        amplitudes = result.amplitudes.astype(np.complex128)
        amplitudes /= np.linalg.norm(amplitudes)
        assert result.sample_counts(64, seed=5) == sample_counts(amplitudes, 64, seed=5)

    def test_sample_counts_of_a_non_dense_result(self) -> None:
        result = QGpuSimulator(backend="stabilizer").run(get_circuit("bv", 8))
        assert result.sample_counts(32, seed=2) == result.state.sample_counts(32, seed=2)


#: sha256 over the per-run sha256 of ``run(circuit).amplitudes`` for widths
#: 9-12, every version and both precisions, in that loop order - pinned
#: from the engine before fusion covered every run mode, whose default
#: runs already fused.
DEFAULT_RUN_DIGESTS = {
    "hchain": "f9320150333ccc70cef44f1765ddaebf612144939ac443426cd1e4d7280c2074",
    "rqc": "5cf7a6ce92c77a9512fcce24a37a397bc6f814e2fd53c92afaf0d4605449080e",
    "qaoa": "e42abfbd0bf20c4f72f22284a489ee7f6ea4f367508577c35144c49b89c7b7cd",
    "gs": "99b7f4f918c067c38ee4369dafa34896573dda70c0946c002619817c60ae467c",
    "hlf": "fab8418b180ad6b78f6c303c793915cc4a502c5a8eb50358d868cb6c2241d450",
    "qft": "4b566005b6e24ad1c6ed65e0101cdbec65082e7a3dc197acd3fc1928d909d3d0",
    "iqp": "7ccf424213ced2b3688ce9943443a19dcd53bd03d7d8ca6e1b37c8e1ecc6b337",
    "qf": "e3a4a357d9438d0fc6cc1bb15de90212689678215b38578137cb67f798e16524",
    "bv": "fd49231441828b86c5866f804a4c94db0ba66c898a6523801795dbb069309474",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_default_runs_are_unchanged_bit_for_bit(family: str) -> None:
    digest = hashlib.sha256()
    for width in range(9, 13):
        circuit = get_circuit(family, width)
        for version in ALL_VERSIONS:
            for precision in ("double", "single"):
                result = QGpuSimulator(version=version, precision=precision).run(circuit)
                digest.update(hashlib.sha256(result.amplitudes.tobytes()).digest())
    assert digest.hexdigest() == DEFAULT_RUN_DIGESTS[family]


def op_ends(circuit: QuantumCircuit, version=QGPU) -> list[int]:
    """The source cursors at the default run's op boundaries."""
    chunk_bits = max(1, min(10, circuit.num_qubits - 2))
    ops = fuse_slabs(
        list(reorder(circuit, version.reorder_strategy)), chunk_bits=chunk_bits
    )
    return list(accumulate(len(slab_members(op)) for op in ops))


@pytest.mark.parametrize("precision", ["double", "single"])
class TestStopAfterEdges:
    def test_zero_applies_nothing(self, precision: str) -> None:
        sim = QGpuSimulator(precision=precision)
        result = sim.run(get_circuit("qft", 7), stop_after=0)
        assert result.interrupted_at == 0
        assert result.chunk_updates_total == 0
        assert result.amplitudes[0] == 1.0
        assert np.count_nonzero(result.amplitudes) == 1

    @pytest.mark.parametrize("beyond", [0, 3])
    def test_at_or_past_the_end_is_a_complete_run(
        self, precision: str, beyond: int
    ) -> None:
        circuit = get_circuit("qft", 7)
        sim = QGpuSimulator(precision=precision)
        complete = sim.run(circuit)
        result = sim.run(circuit, stop_after=len(circuit) + beyond)
        assert result.interrupted_at is None
        np.testing.assert_array_equal(result.amplitudes, complete.amplitudes)
        assert result.chunk_updates_total == complete.chunk_updates_total
        # The single-precision norm guard covers every complete run.
        assert result.norm_deviation == complete.norm_deviation
        assert (result.norm_deviation is not None) == (precision == "single")

    def test_in_between_halts_at_the_first_op_boundary(self, precision: str) -> None:
        circuit = get_circuit("qft", 7)
        sim = QGpuSimulator(precision=precision, version=BASELINE)
        ends = op_ends(circuit, BASELINE)
        # A cursor inside the first slab halts at that slab's end.
        start, boundary = next(
            (start, end) for start, end in zip([0] + ends, ends) if end - start > 1
        )
        result = sim.run(circuit, stop_after=start + 1)
        assert result.interrupted_at == boundary
        prefix = QuantumCircuit(7, name=circuit.name).extend(circuit.gates[:boundary])
        np.testing.assert_array_equal(result.amplitudes, sim.run(prefix).amplitudes)


def test_stop_after_behind_a_resumed_cursor_applies_nothing(tmp_path) -> None:
    circuit = get_circuit("qft", 7)
    path = tmp_path / "run.qgck"
    sim = QGpuSimulator()
    killed = sim.run(circuit, checkpoint_every=3, checkpoint_path=path, stop_after=6)
    # The kill lands on the first op boundary at or past 6, and so does the
    # checkpoint the op ending there wrote.
    boundary = next(end for end in op_ends(circuit) if end >= 6)
    assert killed.interrupted_at == boundary
    resumed = sim.run(circuit, resume_from=path, stop_after=2)
    assert resumed.reliability.resumed_from_gate == boundary
    assert resumed.interrupted_at == boundary
    np.testing.assert_array_equal(resumed.amplitudes, killed.amplitudes)


class TestTimedFacade:
    def test_estimate_uses_family_profile(self) -> None:
        circuit = get_circuit("qaoa", 30)
        sim = QGpuSimulator(version=QGPU)
        automatic = sim.estimate(circuit)
        incompressible = sim.estimate(circuit, compression_ratio=1.0)
        assert automatic.total_seconds <= incompressible.total_seconds

    def test_estimate_respects_machine(self) -> None:
        circuit = get_circuit("qft", 30)
        p100 = QGpuSimulator(machine=PAPER_MACHINE, version=QGPU).estimate(circuit)
        v100 = QGpuSimulator(machine=V100_MACHINE, version=QGPU).estimate(circuit)
        assert p100.machine != v100.machine

    def test_circuit_family_parser(self) -> None:
        assert circuit_family(get_circuit("qft", 30)) == "qft"
        assert circuit_family(QuantumCircuit(2, name="custom")) == "custom"


class TestEstimateCostPlansOnce:
    """`estimate_cost` used to plan (one analysis) and then analyse again."""

    @pytest.mark.parametrize("backend", ["auto", "stabilizer", "sparse", "mps"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_analysis_and_the_two_step_price(
        self, family: str, backend: str, monkeypatch
    ) -> None:
        circuit = get_circuit(family, 10)
        if backend == "stabilizer" and not is_clifford_circuit(circuit):
            pytest.skip("the tableau runs Clifford circuits only")
        sim = QGpuSimulator(backend=backend, precision="auto")
        # The old two-step value: resolve the backend, then price it from
        # a fresh analysis (dense circuits go to the DES model).
        routed, _precision = sim.resolve_backend(circuit)
        if routed == "statevector":
            expected = sim.estimate(circuit, compression_ratio=1.0).total_seconds
        else:
            features = analyze_circuit(circuit)
            expected = backend_cost(
                features, routed, sim.machine_spec, "double"
            ).seconds

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return analyze_circuit(*args, **kwargs)

        # `repro.planner.plan` as an attribute is the function; the module
        # that calls analyze_circuit is only reachable through sys.modules.
        monkeypatch.setattr(
            sys.modules["repro.planner.plan"], "analyze_circuit", counting
        )
        monkeypatch.setattr("repro.planner.analyze_circuit", counting)
        assert sim.estimate_cost(circuit) == expected  # bit-equal, not approx
        assert len(calls) == 1

    def test_fully_forced_knobs_price_without_planning(self, monkeypatch) -> None:
        # (sparse, single) is not a plan the planner accepts, but it runs
        # (non-dense backends ignore precision) and so it must price.
        circuit = get_circuit("gs", 10)
        sim = QGpuSimulator(backend="sparse", precision="single")
        features = analyze_circuit(circuit)
        monkeypatch.setattr(sim, "plan", None)
        assert sim.estimate_cost(circuit) == backend_cost(
            features, "sparse", sim.machine_spec, "double"
        ).seconds


class TestRefusals:
    """Every typed refusal of the simulator facade, run once."""

    def test_unknown_backend(self) -> None:
        with pytest.raises(SimulationError, match="unknown backend 'gpu'"):
            QGpuSimulator(backend="gpu")

    def test_unknown_precision(self) -> None:
        with pytest.raises(SimulationError, match="unknown precision 'quad'"):
            QGpuSimulator(precision="quad")

    @pytest.mark.parametrize(
        "kwargs",
        [{"checkpoint_every": 2}, {"resume_from": "run.qgck"}],
        ids=["checkpoint", "resume"],
    )
    def test_nondense_refuses_checkpoint_and_resume(self, kwargs) -> None:
        with pytest.raises(
            SimulationError,
            match="backend 'sparse' does not support checkpoint/resume",
        ):
            QGpuSimulator(backend="sparse").run(get_circuit("w", 6), **kwargs)

    def test_nondense_refuses_stop_after(self) -> None:
        with pytest.raises(
            SimulationError,
            match=r"backend 'mps' does not support partial runs \(stop_after\)",
        ):
            QGpuSimulator(backend="mps").run(get_circuit("qft", 6), stop_after=3)

    def test_nondense_refuses_an_active_fault_plan(self) -> None:
        simulator = QGpuSimulator(
            backend="stabilizer", fault_plan=FaultPlan(seed=1, transfer_rate=0.1)
        )
        with pytest.raises(
            SimulationError,
            match="backend 'stabilizer' does not support fault injection",
        ):
            simulator.run(get_circuit("bv", 6))

    def test_forced_mps_refuses_past_its_byte_limit(self, monkeypatch) -> None:
        monkeypatch.setattr("repro.mps.state.MPS_BYTE_LIMIT", 1 << 20)
        with pytest.raises(
            SimulationError, match=r"bond \d+ .* \d+ bytes, past the 1048576-byte"
        ):
            QGpuSimulator(backend="mps").run(get_circuit("hchain", 16))
