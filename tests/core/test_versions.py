"""Tests for the version configurations."""

from __future__ import annotations

import pytest

from repro.core.versions import (
    ALL_VERSIONS,
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
    REORDER,
    VERSIONS_BY_NAME,
    VersionConfig,
)
from repro.errors import SimulationError


class TestPresets:
    def test_six_versions_in_paper_order(self) -> None:
        assert [v.name for v in ALL_VERSIONS] == [
            "Baseline", "Naive", "Overlap", "Pruning", "Reorder", "Q-GPU",
        ]

    def test_features_stack_monotonically(self) -> None:
        # Each version enables a superset of the previous version's features.
        def feature_set(v: VersionConfig) -> set[str]:
            features = set()
            if v.dynamic_allocation:
                features.add("dynamic")
            if v.overlap:
                features.add("overlap")
            if v.pruning:
                features.add("pruning")
            if v.reorder_strategy != "original":
                features.add("reorder")
            if v.compression:
                features.add("compression")
            return features

        for earlier, later in zip(ALL_VERSIONS, ALL_VERSIONS[1:]):
            assert feature_set(earlier) <= feature_set(later)

    def test_baseline_is_static(self) -> None:
        assert not BASELINE.dynamic_allocation
        assert not BASELINE.pruning

    def test_qgpu_has_everything(self) -> None:
        assert QGPU.dynamic_allocation and QGPU.overlap and QGPU.pruning
        assert QGPU.reorder_strategy == "forward_looking"
        assert QGPU.compression

    def test_lookup_by_name(self) -> None:
        assert VERSIONS_BY_NAME["Overlap"] is OVERLAP
        assert VERSIONS_BY_NAME["Pruning"] is PRUNING
        assert VERSIONS_BY_NAME["Naive"] is NAIVE
        assert VERSIONS_BY_NAME["Reorder"] is REORDER


class TestValidation:
    def test_overlap_requires_dynamic(self) -> None:
        with pytest.raises(SimulationError):
            VersionConfig("bad", dynamic_allocation=False, overlap=True)

    def test_unknown_reorder_strategy(self) -> None:
        with pytest.raises(SimulationError):
            VersionConfig(
                "bad", dynamic_allocation=True, overlap=True, pruning="involvement",
                reorder_strategy="mystery",
            )

    def test_custom_ablation_config(self) -> None:
        config = VersionConfig(
            "ablate", dynamic_allocation=True, overlap=True, pruning="diagonal",
        )
        assert config.pruning == "diagonal"

    @pytest.mark.parametrize("pruning", [True, False, "", "Involvement", "diag"])
    def test_unknown_pruning_rule(self, pruning) -> None:
        with pytest.raises(SimulationError, match="pruning rule"):
            VersionConfig(
                "bad", dynamic_allocation=True, overlap=True, pruning=pruning,
            )

    def test_four_pruning_settings(self) -> None:
        # One field, four meaningful values: off and the three rules.
        assert {v.pruning for v in (*ALL_VERSIONS, QGPU_DIAGONAL_AWARE,
                                    QGPU_BASIS_TRACKING)} == {
            None, "involvement", "diagonal", "basis",
        }
