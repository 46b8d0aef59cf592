"""Integration tests: every registered experiment runs and upholds the
paper's qualitative claims.

These use reduced problem sizes where the experiment accepts them, so the
unit suite stays fast; the benchmark harness runs the full-size versions.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.errors import ReproError
from repro.experiments import all_experiment_ids, run_experiment
from repro.experiments.base import ExperimentResult


EXPECTED_IDS = {
    "fig2", "fig3", "fig4", "fig6", "fig7", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig19",
    "tab2", "tab3", "fleet",
}

#: First 48 bits of the sha256 over every rendered table, in registry order,
#: joined by newlines.  Every table is a modelled figure, so a change that
#: only makes the model faster leaves this value alone.
TABLES_DIGEST48 = 143526313047213


@functools.cache
def result(experiment_id: str) -> ExperimentResult:
    """Each experiment runs once per session; the tests only read it."""
    return run_experiment(experiment_id)


class TestRegistry:
    def test_all_paper_artifacts_registered(self) -> None:
        assert set(all_experiment_ids()) == EXPECTED_IDS

    def test_unknown_experiment_rejected(self) -> None:
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("fig99")

    @pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
    def test_every_experiment_runs_and_renders(self, experiment_id: str) -> None:
        run = result(experiment_id)
        assert isinstance(run, ExperimentResult)
        assert run.rows
        rendered = run.render()
        assert experiment_id in rendered
        for row in run.rows:
            assert len(row) == len(run.headers)

    def test_rendered_tables_are_pinned(self) -> None:
        tables = "\n".join(result(i).render() for i in all_experiment_ids())
        digest = int(hashlib.sha256(tables.encode()).hexdigest()[:12], 16)
        assert digest == TABLES_DIGEST48


class TestPaperClaims:
    def test_fig2_baseline_is_cpu_dominated(self) -> None:
        mean = result("fig2").data["average"]
        assert mean["cpu"] > 0.85  # paper: 88.89%
        assert mean["gpu"] < 0.05  # paper: 0.82%
        assert mean["transfer"] < 0.15  # paper: 10.29%

    def test_fig3_naive_never_improves(self) -> None:
        table = result("fig3").data["normalized"]
        for family, by_size in table.items():
            for size, ratio in by_size.items():
                assert ratio > 1.0, (family, size)

    def test_fig4_naive_is_transfer_dominated(self) -> None:
        mean = result("fig4").data["average"]
        assert mean["transfer"] > 0.8
        assert mean["cpu"] == pytest.approx(0.0)

    def test_tab2_involvement_ordering(self) -> None:
        measured = result("tab2").data["measured_pct"]
        assert max(measured, key=measured.get) == "iqp"
        assert measured["iqp"] > 80
        for family in ("qaoa", "qft", "qf", "hchain"):
            assert measured[family] < 15, family

    def test_fig7_state_fills_in(self) -> None:
        snapshots = result("fig7").data["snapshots"]
        fractions = [s.nonzero_fraction for s in snapshots]
        assert fractions[0] < 0.01
        assert fractions[-1] > 10 * fractions[0]

    def test_fig9_reordering_claims(self) -> None:
        summaries = result("fig9").data["summaries"]
        # Forward-looking delays involvement for gs and qft ...
        for family in ("gs", "qft"):
            original = summaries[(family, "original")][1]
            forward = summaries[(family, "forward_looking")][1]
            assert forward < 0.5 * original, family
        # ... but qaoa resists.
        original = summaries[("qaoa", "original")][1]
        forward = summaries[("qaoa", "forward_looking")][1]
        assert forward > 0.6 * original

    def test_fig10_qaoa_compressible_iqp_not(self) -> None:
        stats = result("fig10").data["stats"]
        qaoa_stats, _, qaoa_ratio = stats["qaoa"]
        iqp_stats, _, iqp_ratio = stats["iqp"]
        assert qaoa_stats.near_zero_fraction > iqp_stats.near_zero_fraction
        assert qaoa_ratio < iqp_ratio

    def test_fig12_version_stacking(self) -> None:
        averages = result("fig12").data["averages_at_largest"]
        assert averages["Naive"] > 1.0
        assert averages["Overlap"] < 1.0
        assert averages["Pruning"] < averages["Overlap"]
        assert averages["Reorder"] < averages["Pruning"]
        assert averages["Q-GPU"] < averages["Reorder"]
        # Paper-calibrated anchors: Overlap ~0.76, CPU-OpenMP ~0.42.
        assert averages["Overlap"] == pytest.approx(0.76, abs=0.06)
        assert averages["CPU-OpenMP"] == pytest.approx(0.42, abs=0.06)

    def test_fig13_overlap_halves_transfer_uniformly(self) -> None:
        table = result("fig13").data["normalized"]
        overlaps = [row["Overlap"] for row in table.values()]
        assert all(abs(value - 0.5) < 0.06 for value in overlaps)  # paper: 44.6%
        # Pruning savings are circuit-dependent: iqp far below qaoa.
        assert table["iqp"]["Pruning"] < 0.2 < table["qaoa"]["Pruning"]

    def test_fig14_codec_overhead_small_vs_savings(self) -> None:
        average = result("fig14").data["average_pct"]
        assert 0 < average < 35  # small against the 3-10x savings

    def test_fig15_memory_bound_and_baseline_collapse(self) -> None:
        points = result("fig15").data["points"]
        assert all(p.memory_bound for p in points.values())
        collapse = points[("qft", 33, "Baseline")].achieved_flops
        resident = points[("qft", 29, "Baseline")].achieved_flops
        assert collapse < 0.05 * resident
        assert points[("qft", 33, "Q-GPU")].achieved_flops > collapse

    def test_fig16_qgpu_wins(self) -> None:
        averages = result("fig16").data["averages"]
        assert averages["Qsim-Cirq"] > 2.0  # paper: 2.02x
        assert averages["QDK"] > 10.0  # paper: 10.82x
        assert averages["QDK"] > averages["Qsim-Cirq"]

    def test_fig17_v100_gains_exceed_a100(self) -> None:
        reductions = result("fig17").data["average_reduction"]
        assert reductions["V100"] > reductions["A100"] > 0

    def test_fig19_multigpu_speedup(self) -> None:
        averages = result("fig19").data["averages"]
        for value in averages.values():
            assert value < 0.5  # paper: ~0.335 (2.97-2.98x)

    def test_tab3_deep_circuit_reductions(self) -> None:
        reductions = result("tab3").data["reductions"]
        assert reductions["grqc_32"] == pytest.approx(41.47, abs=8)
        assert reductions["rqc_31"] == pytest.approx(17.99, abs=8)
        assert reductions["rqc_32"] == pytest.approx(17.39, abs=8)
