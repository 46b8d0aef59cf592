"""One workload in one fresh process: set-up, passes, oracle.

``run.py`` starts this file as a subprocess and reads one JSON object from
the last line of its standard output.  Three modes:

* ``setup``  - set up, report ``setup_s`` and exit (``run.py`` sets up
  several times per run and reports the median);
* ``timed``  - set up, repeat whole passes for ``--seconds`` (at least
  one) with span recording off, then check every output;
* ``traced`` - set up, one pass with a span around every public call, the
  door's standalone layer calls, then check every output; the spans go to
  ``bench/out/trace_<workload>.json``.

The load is a closed loop with one client: the next request is sent when
the previous one has returned.

Between set-up and the first timed pass the worker *settles* the machine
(``wake_cores``, and one discarded pass where the workload asks for it).
Neither is part of ``setup_s`` or of any timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

import numpy as np

from doors import DOORS, OUT
from spans import OFF, SpanRecorder
from workloads import WORKLOADS


#: How long ``wake_cores`` keeps every core busy.
WAKE_SECONDS = 1.0


def wake_cores(seconds: float = WAKE_SECONDS) -> None:
    """Keep every core busy for a moment, so that the timed passes always
    start with all of them awake.

    Measured on the 2-vCPU box the bounds were fixed on: after a few idle
    seconds two threads get the throughput of one for about a second, and a
    process that starts in that state keeps its worker threads stacked on
    one core.  ``QGpuSimulator(workers="auto")`` then runs twice as *fast*
    (its two workers stop contending), so without this step ``request_s``
    on ``dense_pruned`` reads 0.37 s or 0.9 s depending on what the machine
    did before the run.  With it, it always reads the two-core figure.
    """
    block = np.random.default_rng(0).random((64, 64))

    def spin() -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            block @ block

    threads = [threading.Thread(target=spin) for _ in range(os.cpu_count() or 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run(workload: str, seed: int, seconds: float, mode: str, spawned_at: float) -> dict:
    door = DOORS[WORKLOADS[workload].door](workload, seed)
    try:
        door.setup()
        out: dict = {"workload": workload, "seed": seed, "mode": mode,
                     "setup_s": time.time() - spawned_at}
        if mode == "setup":
            return out

        wake_cores()
        if door.workload.discard_first_pass:
            door.one_pass(OFF)
        rec = SpanRecorder() if mode == "traced" else OFF
        passes = []
        started = time.perf_counter()
        while True:
            wall, latencies = door.one_pass(rec)
            passes.append({"wall_s": wall, "latencies_s": latencies})
            spent = time.perf_counter() - started
            if mode == "traced" or door.single_pass or spent + wall > seconds:
                break
        out["passes"] = passes
        # ru_maxrss is KiB on Linux.  Read before the oracle allocates.
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if mode == "traced":
            out["layers"] = door.layers(rec)
        started = time.perf_counter()
        out["attempted"], out["failures"] = door.verify()
        out["oracle_s"] = time.perf_counter() - started
        if mode == "traced":
            rec.write(OUT / f"trace_{workload}.json")
        return out
    finally:
        door.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode, args.spawned_at)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
