"""Closed-form timing of the chunk-streaming pipelines.

Each Q-GPU execution version moves batches of chunks through up to three
engines: the H2D copy stream, the GPU compute engine, and the D2H copy
stream.  For uniform batches the makespan of each discipline has an exact
O(batches) recurrence; these functions are validated against the
discrete-event engine (:mod:`repro.hardware.events`) in the test suite and
used by the executor because they are orders of magnitude cheaper than
per-chunk event simulation at 34 qubits (8192 chunks/gate x ~1800 gates).

Disciplines
-----------

* :func:`serial_roundtrip` - the *Naive* version (Section III-D): one CUDA
  stream, so H2D, kernel and D2H of consecutive batches strictly serialise.
* :func:`double_buffered_roundtrip` - the *Overlap* version (Section IV-A):
  two streams over two memory halves; batch ``k+2``'s H2D must wait until
  batch ``k`` has been copied out (its buffer half is reused).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError


@dataclass(frozen=True)
class StageTimes:
    """Per-batch stage durations of a uniform streaming pipeline."""

    h2d: float
    compute: float
    d2h: float

    def __post_init__(self) -> None:
        if min(self.h2d, self.compute, self.d2h) < 0:
            raise SchedulingError("stage times must be non-negative")


def serial_roundtrip(num_batches: int, stages: StageTimes) -> float:
    """Makespan when every stage of every batch strictly serialises.

    This is the single-stream Naive discipline: the GPU cannot receive batch
    ``k+1`` until batch ``k`` has been copied back.
    """
    if num_batches < 0:
        raise SchedulingError("num_batches must be non-negative")
    return num_batches * (stages.h2d + stages.compute + stages.d2h)


def double_buffered_roundtrip(
    num_batches: int, stages: StageTimes, buffers: int = 2
) -> float:
    """Makespan of the proactive-transfer discipline (Fig. 6 (iii)).

    Engines H2D, COMPUTE and D2H each process batches FIFO; batch ``k``
    computes after its H2D, copies out after its compute, and batch ``k``'s
    H2D additionally waits for batch ``k - buffers``'s D2H (buffer reuse in
    the circular double-buffer).

    Args:
        num_batches: Uniform batches streamed through the pipeline.
        stages: Per-batch stage durations.
        buffers: Number of buffer halves (2 for Q-GPU's two streams).
    """
    if num_batches < 0:
        raise SchedulingError("num_batches must be non-negative")
    if buffers < 1:
        raise SchedulingError("need at least one buffer")
    finish_in = [0.0] * num_batches
    finish_comp = [0.0] * num_batches
    finish_out = [0.0] * num_batches
    for k in range(num_batches):
        in_ready = finish_in[k - 1] if k >= 1 else 0.0
        if k >= buffers:
            in_ready = max(in_ready, finish_out[k - buffers])
        finish_in[k] = in_ready + stages.h2d
        finish_comp[k] = max(finish_in[k], finish_comp[k - 1] if k else 0.0) + stages.compute
        finish_out[k] = max(finish_comp[k], finish_out[k - 1] if k else 0.0) + stages.d2h
    return finish_out[-1] if num_batches else 0.0

