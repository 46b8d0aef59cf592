"""Property-based invariants of the timed executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import FAMILIES, get_circuit
from repro.core.executor import TimedExecutor
from repro.core.versions import (
    ALL_VERSIONS,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    VersionConfig,
)
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE, PAPER_MACHINE

EXECUTOR = TimedExecutor(Machine(PAPER_MACHINE))

family_strategy = st.sampled_from(sorted(FAMILIES))
width_strategy = st.sampled_from([30, 31, 32])


@settings(max_examples=25, deadline=None)
@given(family=family_strategy, width=width_strategy)
def test_streaming_bytes_are_symmetric(family: str, width: int) -> None:
    circuit = get_circuit(family, width)
    for version in (NAIVE, OVERLAP, PRUNING):
        result = EXECUTOR.execute(circuit, version)
        assert result.bytes_h2d == pytest.approx(result.bytes_d2h)


@settings(max_examples=25, deadline=None)
@given(family=family_strategy, width=width_strategy)
def test_every_version_yields_positive_time(family: str, width: int) -> None:
    circuit = get_circuit(family, width)
    for version in ALL_VERSIONS:
        result = EXECUTOR.execute(circuit, version)
        assert result.total_seconds > 0
        assert result.total_seconds + 1e-12 >= result.gpu_seconds


@settings(max_examples=15, deadline=None)
@given(family=family_strategy, width=width_strategy)
def test_pruning_never_hurts(family: str, width: int) -> None:
    circuit = get_circuit(family, width)
    with_pruning = EXECUTOR.execute(circuit, PRUNING).total_seconds
    without = EXECUTOR.execute(circuit, OVERLAP).total_seconds
    assert with_pruning <= without * 1.001


@settings(max_examples=15, deadline=None)
@given(
    family=family_strategy,
    ratios=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
)
def test_better_ratio_never_slower(family: str, ratios: tuple[float, float]) -> None:
    low, high = sorted(ratios)
    circuit = get_circuit(family, 31)
    fast = EXECUTOR.execute(circuit, QGPU, compression_ratio=low).total_seconds
    slow = EXECUTOR.execute(circuit, QGPU, compression_ratio=high).total_seconds
    assert fast <= slow * 1.001


@settings(max_examples=10, deadline=None)
@given(family=family_strategy, counts=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_more_gpus_never_slower(family: str, counts: tuple[int, int]) -> None:
    few, many = sorted(counts)
    circuit = get_circuit(family, 31)
    results = []
    for count in (few, many):
        machine = Machine(MULTI_V100_MACHINE.with_gpu_count(count))
        results.append(
            TimedExecutor(machine).execute(circuit, QGPU, 0.6).total_seconds
        )
    assert results[1] <= results[0] * 1.001


@settings(max_examples=10, deadline=None)
@given(
    family=family_strategy,
    rule=st.sampled_from(["involvement", "diagonal"]),
)
def test_extension_flags_never_hurt(family: str, rule: str) -> None:
    circuit = get_circuit(family, 31)
    base = EXECUTOR.execute(circuit, PRUNING).total_seconds
    extended = VersionConfig(
        "ext", dynamic_allocation=True, overlap=True, pruning=rule,
    )
    assert EXECUTOR.execute(circuit, extended).total_seconds <= base * 1.001
