"""Tests for the execution planner."""

from __future__ import annotations

import pytest

from repro.circuits.library import get_circuit
from repro.core.planner import ExecutionPlan, plan_execution
from repro.errors import SimulationError
from repro.hardware.specs import PAPER_MACHINE, V100_MACHINE


class TestPlanning:
    def test_entries_ranked_fastest_first(self) -> None:
        plan = plan_execution(get_circuit("qft", 32))
        times = [entry.seconds for entry in plan.entries]
        assert times == sorted(times)
        assert plan.best.seconds == times[0]

    def test_qgpu_wins_at_scale_on_pruneable_circuits(self) -> None:
        plan = plan_execution(get_circuit("iqp", 33))
        assert plan.best.label.startswith("Q-GPU")

    def test_cpu_candidate_present(self) -> None:
        plan = plan_execution(get_circuit("gs", 31))
        labels = {entry.label for entry in plan.entries}
        assert "CPU-OpenMP" in labels
        assert "Baseline" in labels

    def test_pruning_extensions_top_qft(self) -> None:
        plan = plan_execution(get_circuit("qft", 32))
        assert plan.best.label in ("Q-GPU+diag", "Q-GPU+basis")
        assert plan.speedup_over("Baseline") > 10

    def test_clifford_flagged(self) -> None:
        assert plan_execution(get_circuit("gs", 30)).clifford
        assert not plan_execution(get_circuit("qft", 30)).clifford

    def test_render_mentions_best(self) -> None:
        plan = plan_execution(get_circuit("gs", 30))
        text = plan.render()
        assert "->" in text and plan.best.label in text
        assert "stabilizer engine" in text

    def test_speedup_over_unknown_label(self) -> None:
        plan = plan_execution(get_circuit("gs", 30))
        with pytest.raises(SimulationError):
            plan.speedup_over("nonexistent")

    def test_oversized_circuit_rejected(self) -> None:
        with pytest.raises(SimulationError, match="fits no engine"):
            plan_execution(get_circuit("gs", 34), machine=V100_MACHINE)
