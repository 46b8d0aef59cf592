"""The six workloads and the requests each one sends.

A request is always QASM text in, JSON-encoded counts out; the circuit
generators run here, during set-up, and the program under test sees only
the text.  The request list is a pure function of ``--seed``.

``--seed`` shuffles the request order and is the sampling seed of every
request.  It does **not** reseed the circuit generators: their seeds are
pinned below because gate counts of ``hlf``/``qf`` move by 5-10 % from one
generator seed to the next (69-72 and 108-119 gates at 22 qubits), and a
benchmark run on another seed would then differ by more than the bounds it
is judged by for a reason that is not noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Measurement shots of every request.  256, not the customary 1024: the
#: tableau engine samples one shot at a time (~0.5 ms each), so at 1024
#: shots that single loop is two thirds of ``small_mixed`` and one pass no
#: longer fits the run-time cap.
SHOTS = 256

#: Families x widths x generator seeds of the three ``small_*`` workloads.
SMALL_FAMILIES = ("hchain", "rqc", "qaoa", "gs", "hlf", "qft", "iqp", "qf", "bv")
SMALL_WIDTHS = (8, 9, 10, 11, 12, 13)
SMALL_GENERATOR_SEEDS = (0, 1)
#: The CLI door sends the narrowest and the widest circuit of every family
#: (generator seed 0): 18 requests whose mix does not depend on ``--seed``.
CLI_WIDTHS = (SMALL_WIDTHS[0], SMALL_WIDTHS[-1])
#: The batch door resubmits every third request: 108 + 36 = 144 jobs.
BATCH_REPEAT_EVERY = 3

DENSE_CIRCUITS = {
    "dense_wide": (("qft", 21), ("hchain", 19), ("rqc", 20)),
    "dense_pruned": (("gs", 22), ("hlf", 22), ("qf", 22)),
}
#: The one warm-up request every in-process worker sends before timing.
WARMUP_CIRCUIT = ("qft", 12)

#: Simulator keyword arguments per workload: the dense workloads take the
#: constructor defaults, the small ones let the planner route.
AUTO = {"backend": "auto", "precision": "auto"}


@dataclass(frozen=True)
class Workload:
    name: str
    door: str  # "inprocess", "cli", "batch" or "figures"
    why: str
    simulator: dict
    #: Send one untimed pass before the timed ones.  The dense workloads
    #: need it: the first pass over 32-64 MiB states faults in memory the
    #: process has never touched and takes up to twice as long as the rest.
    discard_first_pass: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense_wide", "inprocess",
            "qft_21, hchain_19, rqc_20 at simulator defaults: 19-75 % pruned, "
            "150-580 gates, so kernel sweeps, fusion and the worker pool carry "
            "the request.",
            {}, discard_first_pass=True,
        ),
        Workload(
            "dense_pruned", "inprocess",
            "gs_22, hlf_22, qf_22 (64 MiB states, 79-96 % pruned): pruning "
            "bookkeeping, allocation of a mostly-zero state and readout carry "
            "the request, not the kernels.",
            {}, discard_first_pass=True,
        ),
        Workload(
            "small_mixed", "inprocess",
            "108 requests of 8-13 qubits on backend=auto: planner, parse, tableau "
            "sampling and set-up code carry the request; kernels are under a "
            "tenth.",
            AUTO,
        ),
        Workload(
            "small_cli", "cli",
            "18 of the same small circuits through `python -m repro simulate`: "
            "interpreter start and imports are most of each request.",
            AUTO,
        ),
        Workload(
            "small_batch", "batch",
            "the same 108 requests plus every third again as 144 BatchService "
            "jobs: submit-time pricing, scheduling, journal and result cache.",
            AUTO,
        ),
        Workload(
            "paper_figures", "figures",
            "run_experiment(id) for all 18 ids, cold: the modelled side (timed "
            "executor, reorder at 30-34 qubits, DES, fleet analysis, GFC); no "
            "kernel sweep above 16 qubits.",
            {},
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One request: ``name`` is ``family_width`` (the CLI and the planner
    read the family from it), ``qasm`` is all the program receives."""

    name: str
    qasm: str
    sample_seed: int


def _qasm(family: str, width: int, generator_seed: int) -> str:
    from repro.circuits import to_qasm
    from repro.circuits.library import get_circuit

    return to_qasm(get_circuit(family, width, seed=generator_seed))


def warmup_request() -> Request:
    family, width = WARMUP_CIRCUIT
    return Request(f"{family}_{width}", _qasm(family, width, 0), 0)


def requests_for(workload: str, seed: int) -> list[Request]:
    """The requests of one pass of ``workload``, in the order they are sent."""
    if workload in DENSE_CIRCUITS:
        grid = [(family, width, 0) for family, width in DENSE_CIRCUITS[workload]]
    elif WORKLOADS[workload].door == "figures":
        return []
    elif WORKLOADS[workload].door == "cli":
        grid = [(family, width, 0) for family in SMALL_FAMILIES for width in CLI_WIDTHS]
    else:
        grid = [
            (family, width, generator_seed)
            for family in SMALL_FAMILIES
            for width in SMALL_WIDTHS
            for generator_seed in SMALL_GENERATOR_SEEDS
        ]
    random.Random(seed).shuffle(grid)
    requests = [
        Request(f"{family}_{width}", _qasm(family, width, generator_seed), seed)
        for family, width, generator_seed in grid
    ]
    if WORKLOADS[workload].door == "batch":
        return requests + requests[::BATCH_REPEAT_EVERY]
    return requests
