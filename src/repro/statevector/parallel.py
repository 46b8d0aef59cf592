"""Worker threads for the live-subcube sweep.

A sweep (:func:`repro.statevector.kernels.sweep`) deals its tiles into
``parts`` disjoint contiguous shares, so the parallel engine is small:
above one live-amplitude floor it runs the same kernel once per worker,
each on its own share, on a persistent thread pool; below the floor it
runs the kernel inline.  numpy releases the GIL inside the matmuls and
ufunc loops, so the shares do run concurrently - but the sweeps are
memory-bandwidth-bound, and on the 2-vCPU reference host two threads
measured 0.8-1.15x of one, with every handoff costing 0.15-0.3 ms of
thread wake-up (``docs/performance.md``).  ``workers`` is kept because it
is small and correct, not because it is a speed-up there; the floor is
set where it stops being a slow-down.

Numerics: every share applies the identical per-amplitude arithmetic of
the serial sweep, so ``workers > 1`` is specified to agree with
``workers == 1`` to machine precision (``atol <= 1e-12``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.circuits.gates import qubit_mask
from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.statevector.kernels import sweep

#: Below this many amplitudes threads cannot pay for their handoff:
#: ``workers="auto"`` keeps a state this small serial, and a pool runs any
#: sweep with fewer live amplitudes inline on the calling thread.
AUTO_PARALLEL_THRESHOLD = 1 << 23

#: Ceiling on auto-selected workers; explicit ``workers=`` may exceed it.
MAX_AUTO_WORKERS = 4


def resolve_workers(workers: int | str | None, num_amplitudes: int | None = None) -> int:
    """Turn a ``workers`` knob into a concrete worker count.

    ``None`` or ``"auto"`` selects ``min(cpu_count, 4)`` for states of at
    least :data:`AUTO_PARALLEL_THRESHOLD` amplitudes and ``1`` otherwise
    (small states stay on the bit-exact serial path).  Integers pass
    through validated.

    Raises:
        SimulationError: On a non-positive or non-integer worker count.
    """
    if workers is None or workers == "auto":
        if num_amplitudes is not None and num_amplitudes < AUTO_PARALLEL_THRESHOLD:
            return 1
        return max(1, min(MAX_AUTO_WORKERS, os.cpu_count() or 1))
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise SimulationError(f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise SimulationError(f"workers must be a positive int or 'auto', got {workers}")
    return workers


class ChunkWorkerPool:
    """A persistent pool of chunk-worker threads.

    One pool lives for the whole engine (and thus across every gate of
    every circuit the engine runs): thread startup is paid once, not per
    gate.  Tasks are plain callables over disjoint chunk sets, so no
    locking is needed; :meth:`run_tasks` blocks until all complete and
    re-raises the first failure.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise SimulationError("a worker pool needs at least 2 workers")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="chunk-worker"
        )

    def run_tasks(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute ``tasks`` concurrently; the calling thread joins the barrier."""
        if self._pool is None:
            raise SimulationError("worker pool is closed")
        if not tasks:
            return
        if len(tasks) == 1:
            tasks[0]()
            return
        futures = [self._pool.submit(task) for task in tasks[1:]]
        tasks[0]()  # the coordinator works too instead of idling at the barrier
        for future in futures:
            future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ParallelChunkEngine:
    """Splits each sweep into one contiguous share per worker thread.

    Args:
        workers: Worker threads (``>= 2``; ``workers=1`` callers sweep
            directly and need no engine).
        tracer: Optional :class:`~repro.obs.Tracer`.  When tracing is
            enabled each worker's share becomes a ``sweep_share`` span on
            that worker thread's lane, parented to the coordinator's open
            gate span; ``pool.tasks`` is counted whenever a real tracer is
            supplied, even with spans disabled.

    The engine owns one persistent resource: the thread pool.  Close
    the engine (or use it as a context manager) when done; a closed
    engine raises on use.
    """

    def __init__(self, workers: int, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workers = resolve_workers(workers)
        if self.workers < 2:
            raise SimulationError(
                f"ParallelChunkEngine needs workers >= 2, got {self.workers}"
            )
        self._pool = ChunkWorkerPool(self.workers)

    def close(self) -> None:
        """Shut the worker pool down."""
        self._pool.close()

    def __enter__(self) -> "ParallelChunkEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def sweep(
        self,
        buffer: np.ndarray,
        op,
        fixed_mask: int = 0,
        fixed_value: int = 0,
        inner_bits: int | None = None,
    ) -> None:
        """:func:`~repro.statevector.kernels.sweep`, one share per worker.

        Sweeps with fewer than :data:`AUTO_PARALLEL_THRESHOLD` live
        amplitudes run inline on the calling thread.
        """
        live_amps = buffer.size >> (fixed_mask & ~qubit_mask(op.qubits)).bit_count()
        if live_amps < AUTO_PARALLEL_THRESHOLD:
            sweep(buffer, op, fixed_mask, fixed_value, inner_bits)
            return
        tracer = self.tracer
        parts = self.workers
        # Worker spans run on pool threads, so the coordinator's open gate
        # span is captured here and passed explicitly as their parent.
        parent = tracer.current_parent() if tracer.enabled else None

        def share(part: int) -> Callable[[], None]:
            def run() -> None:
                with tracer.span(
                    "sweep_share", stage="compute", parent=parent, worker=part, parts=parts
                ):
                    sweep(buffer, op, fixed_mask, fixed_value, inner_bits, part, parts)

            return run

        if tracer is not NULL_TRACER:
            tracer.counters.count("pool.tasks", parts)
        self._pool.run_tasks([share(part) for part in range(parts)])
