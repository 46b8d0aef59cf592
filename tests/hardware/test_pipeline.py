"""Closed-form pipeline formulas validated against the event engine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.hardware.events import EventTimeline
from repro.hardware.pipeline import (
    StageTimes,
    double_buffered_roundtrip,
    serial_roundtrip,
)


def des_double_buffered(num_batches: int, stages: StageTimes, buffers: int = 2) -> float:
    """Reference implementation on the discrete-event engine."""
    timeline = EventTimeline()
    for k in range(num_batches):
        in_deps = []
        if k >= 1:
            in_deps.append(f"in{k - 1}")
        if k >= buffers:
            in_deps.append(f"out{k - buffers}")
        timeline.add(f"in{k}", "h2d", stages.h2d, in_deps)
        comp_deps = [f"in{k}"] + ([f"comp{k - 1}"] if k else [])
        timeline.add(f"comp{k}", "gpu", stages.compute, comp_deps)
        out_deps = [f"comp{k}"] + ([f"out{k - 1}"] if k else [])
        timeline.add(f"out{k}", "d2h", stages.d2h, out_deps)
    return timeline.run().makespan if num_batches else 0.0


positive_floats = st.floats(0.0, 50.0, allow_nan=False)


class TestAgainstEventEngine:
    @given(
        num_batches=st.integers(0, 20),
        h2d=positive_floats,
        compute=positive_floats,
        d2h=positive_floats,
        buffers=st.integers(1, 4),
    )
    def test_double_buffered_matches_des(
        self, num_batches: int, h2d: float, compute: float, d2h: float, buffers: int
    ) -> None:
        stages = StageTimes(h2d, compute, d2h)
        closed_form = double_buffered_roundtrip(num_batches, stages, buffers)
        reference = des_double_buffered(num_batches, stages, buffers)
        assert closed_form == pytest.approx(reference, rel=1e-12, abs=1e-12)


class TestProperties:
    @given(
        num_batches=st.integers(1, 30),
        h2d=positive_floats,
        compute=positive_floats,
        d2h=positive_floats,
    )
    def test_overlap_never_slower_than_serial(
        self, num_batches: int, h2d: float, compute: float, d2h: float
    ) -> None:
        stages = StageTimes(h2d, compute, d2h)
        assert (
            double_buffered_roundtrip(num_batches, stages)
            <= serial_roundtrip(num_batches, stages) + 1e-12
        )

    @given(
        num_batches=st.integers(1, 30),
        h2d=positive_floats,
        compute=positive_floats,
        d2h=positive_floats,
    )
    def test_overlap_at_least_bottleneck_stage(
        self, num_batches: int, h2d: float, compute: float, d2h: float
    ) -> None:
        stages = StageTimes(h2d, compute, d2h)
        bottleneck = num_batches * max(h2d, compute, d2h)
        assert double_buffered_roundtrip(num_batches, stages) >= bottleneck - 1e-12

    @given(num_batches=st.integers(1, 20), t=st.floats(0.1, 10))
    def test_more_buffers_never_hurt(self, num_batches: int, t: float) -> None:
        stages = StageTimes(t, t / 2, t)
        times = [
            double_buffered_roundtrip(num_batches, stages, buffers)
            for buffers in (1, 2, 3, 4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_single_batch_is_sum_of_stages(self) -> None:
        stages = StageTimes(2.0, 3.0, 4.0)
        assert double_buffered_roundtrip(1, stages) == 9.0
        assert serial_roundtrip(1, stages) == 9.0

    def test_transfer_dominated_pipeline(self) -> None:
        # With negligible compute, the makespan approaches one direction's
        # total plus the fill of the other - the Overlap version's ~50%
        # transfer-time saving (paper Fig. 13).
        stages = StageTimes(10.0, 0.0, 10.0)
        makespan = double_buffered_roundtrip(8, stages)
        assert makespan == pytest.approx(8 * 10.0 + 10.0)

    def test_zero_batches(self) -> None:
        stages = StageTimes(1.0, 1.0, 1.0)
        assert double_buffered_roundtrip(0, stages) == 0.0
        assert serial_roundtrip(0, stages) == 0.0


class TestValidation:
    def test_negative_stage_rejected(self) -> None:
        with pytest.raises(SchedulingError):
            StageTimes(-1.0, 0.0, 0.0)

    def test_negative_batches_rejected(self) -> None:
        with pytest.raises(SchedulingError):
            serial_roundtrip(-1, StageTimes(1, 1, 1))
        with pytest.raises(SchedulingError):
            double_buffered_roundtrip(-1, StageTimes(1, 1, 1))

    def test_zero_buffers_rejected(self) -> None:
        with pytest.raises(SchedulingError):
            double_buffered_roundtrip(2, StageTimes(1, 1, 1), buffers=0)


class TestOverlapWindowArithmetic:
    """Hand-computed window arithmetic of the double-buffered discipline."""

    def test_single_buffer_degenerates_to_serial(self) -> None:
        # With one buffer half, batch k's H2D waits for batch k-1's D2H:
        # the overlap window closes completely and the pipeline serialises.
        stages = StageTimes(2.0, 3.0, 4.0)
        for batches in (1, 2, 5, 9):
            assert double_buffered_roundtrip(batches, stages, buffers=1) == (
                pytest.approx(serial_roundtrip(batches, stages))
            )

    def test_two_buffer_window_hand_computed(self) -> None:
        # stages (2, 3, 4), 3 batches, 2 buffers:
        #   k0: in 2,  comp 5,  out 9
        #   k1: in 4,  comp 8,  out 13
        #   k2: in waits out0=9 -> 11, comp 14, out 18
        assert double_buffered_roundtrip(3, StageTimes(2, 3, 4), 2) == pytest.approx(18.0)

    def test_third_buffer_widens_the_window(self) -> None:
        # Same schedule with 3 buffers: k2's H2D no longer waits for out0
        # (in 6, comp 11, out 17) - one extra buffer saves exactly the
        # exposed wait of the 2-buffer window.
        assert double_buffered_roundtrip(3, StageTimes(2, 3, 4), 3) == pytest.approx(17.0)

    def test_steady_state_is_periodic_in_buffer_count(self) -> None:
        # After pipeline fill the schedule repeats with period = buffer
        # count: every pair of extra batches costs the same 9.0 (the
        # per-batch increments alternate 4, 5 with buffer parity).
        stages = StageTimes(2.0, 3.0, 4.0)
        spans = [double_buffered_roundtrip(n, stages) for n in range(8, 14)]
        pair_costs = [b - a for a, b in zip(spans, spans[2:])]
        assert all(cost == pytest.approx(9.0) for cost in pair_costs)

    def test_window_never_exceeds_buffer_count(self) -> None:
        # A window of b buffers can hide at most (b-1) batches of D2H
        # behind H2D: growing buffers beyond the batch count changes
        # nothing.
        stages = StageTimes(5.0, 1.0, 5.0)
        unconstrained = double_buffered_roundtrip(4, stages, buffers=4)
        assert double_buffered_roundtrip(4, stages, buffers=9) == (
            pytest.approx(unconstrained)
        )

    def test_exposure_zero_when_compute_dominates(self) -> None:
        # A compute-bound pipeline hides all transfers except fill/drain.
        stages = StageTimes(1.0, 10.0, 1.0)
        exposure = double_buffered_roundtrip(6, stages) - 6 * stages.compute
        assert exposure == pytest.approx(1.0 + 1.0)  # one fill + one drain
