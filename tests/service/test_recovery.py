"""Kill the service at any journal append, recover, get the same answers.

A property test over crash points.  Each example runs a three-job
manifest through one to three simulated process deaths
(:class:`ChaosJournal` kills, torn or clean, at a drawn append offset),
then a clean incarnation.  Every incarnation after the first is
``recover()`` followed by ``run_until_complete()``, as a restarted
``serve-batch --journal`` is.  The journal a fresh process reads back
must then show:

* every job SUCCEEDED, with exactly one terminal transition and at most
  one result record;
* each result's ``state_sha256`` equal to the fault-free run's;
* no cache key with two different results;
* the same states after ``compact()`` as before it.

The Hypothesis test samples kill sequences; the single-kill sweep
visits every append offset, torn and clean; and the worker-fault tests
compose kills with the service-level faults (worker crashes, stalls the
watchdog must reap, corrupted cache entries) that the same journal has
to absorb.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.faults import FaultPlan
from repro.reliability.policy import RecoveryPolicy
from repro.service import (
    BatchService,
    JobSpec,
    JobState,
    JobStore,
    SupervisionConfig,
)
from tests.service.chaos_journal import ChaosJournal, SimulatedCrash

#: Two duplicates (so one is served from the cache) and one distinct job.
SPECS = (
    JobSpec(family="bv", qubits=6, shots=20),
    JobSpec(family="bv", qubits=6, shots=20),
    JobSpec(family="qft", qubits=5, shots=10),
)

#: Journal appends of one uninterrupted drain after submission: four per
#: job (ADMITTED, RUNNING, SUCCEEDED, result), cache hits included.
APPENDS = 12

#: Generous, so kills delay convergence instead of exhausting the budget
#: (each kill charges at most one attempt to each RUNNING job).
RECOVERY = RecoveryPolicy(max_transfer_attempts=8)

#: Service-level faults composed with the kills.  The seeds make the
#: crash and stall plans hit attempts 1-3 of one executed job (qft_5 and
#: the first bv_6), and two kills can charge at most two of those
#: attempts, so at least one injected fault always reaches a worker.
WORKER_FAULTS = {
    "crash": FaultPlan(seed=1, worker_crash_rate=0.4),
    "stall": FaultPlan(seed=0, worker_stall_rate=0.4),
    "cache_corrupt": FaultPlan(seed=5, cache_corrupt_rate=1.0),
}

#: The journaled error that shows a worker fault fired.
WORKER_FAULT_ERRORS = {
    "crash": "worker crash injected",
    "stall": "worker stalled",
}

#: A short stall timeout, so injected hangs are reaped in a fraction of
#: a second instead of the production default.
FAST_WATCHDOG = SupervisionConfig(
    poll_interval_seconds=0.02, stall_timeout_seconds=0.1
)


@lru_cache(maxsize=1)
def fault_free_digests() -> dict[str, str]:
    service = BatchService(workers=1)
    jobs = [service.submit(spec) for spec in SPECS]
    service.run_until_complete()
    return {job.job_id: job.result.state_sha256 for job in jobs}


def test_uninterrupted_run_appends_the_drawn_range(tmp_path) -> None:
    journal = ChaosJournal(tmp_path / "jobs.jsonl")
    service = BatchService(workers=1, journal=journal)
    for spec in SPECS:
        service.submit(spec)
    submitted = journal.append_ordinal
    service.run_until_complete()
    assert journal.append_ordinal - submitted == APPENDS
    assert {job.job_id: job.result.state_sha256 for job in service.jobs} == (
        fault_free_digests()
    )


def _incarnation(
    path, ordinal: int, workers: int, kill, chaos_plan: FaultPlan | None = None
) -> BatchService:
    """One process lifetime; returns its service (and, in it, its journal)."""
    offset, torn = kill if kill is not None else (None, False)
    journal = ChaosJournal(path, start_ordinal=ordinal)
    service = BatchService(
        workers=workers,
        journal=journal,
        recovery=RECOVERY,
        supervision=FAST_WATCHDOG if chaos_plan is not None else None,
        chaos_plan=chaos_plan,
    )
    if ordinal == 0:
        for spec in SPECS:
            service.submit(spec)
    if offset is not None:
        journal.arm_kill(offset, torn=torn)
    try:
        if ordinal > 0:
            service.recover()
        service.run_until_complete()
    except SimulatedCrash:
        pass
    return service


def _run(
    path, kills, workers: int, chaos_plan: FaultPlan | None = None
) -> list[BatchService]:
    """Every kill's incarnation, then a clean one; returns their services."""
    services = []
    ordinal = 0
    for kill in [*kills, None]:
        services.append(_incarnation(path, ordinal, workers, kill, chaos_plan))
        ordinal = services[-1].journal.append_ordinal
    return services


def _assert_converged(path) -> None:
    """The audit: what a fresh process reads back from the journal."""
    store = JobStore(path)
    terminals: dict[str, int] = {}
    results: dict[str, int] = {}
    for event in store.iter_events():
        if event["event"] == "transition" and event["to"] in ("SUCCEEDED", "CANCELLED"):
            terminals[event["id"]] = terminals.get(event["id"], 0) + 1
        elif event["event"] == "result":
            results[event["id"]] = results.get(event["id"], 0) + 1
    jobs = store.load()
    baseline = fault_free_digests()
    assert set(jobs) == set(baseline)
    digests_by_key: dict[str, set[str]] = {}
    for job in jobs.values():
        assert job.state is JobState.SUCCEEDED, (job.job_id, job.error)
        assert terminals[job.job_id] == 1
        assert results.get(job.job_id, 0) <= 1
        if job.result is None:
            # The crash landed between the SUCCEEDED transition and the
            # result record: the terminal state is durable, the payload
            # is not.
            continue
        assert job.result.state_sha256 == baseline[job.job_id]
        digests_by_key.setdefault(job.cache_key, set()).add(job.result.state_sha256)
    assert all(len(digests) == 1 for digests in digests_by_key.values())

    states = {job_id: job.state for job_id, job in jobs.items()}
    store.compact()
    assert {job_id: job.state for job_id, job in JobStore(path).load().items()} == states


@settings(max_examples=25, deadline=None)
@given(
    kills=st.lists(
        st.tuples(st.integers(1, APPENDS), st.booleans()), min_size=1, max_size=3
    ),
    workers=st.sampled_from([1, 2]),
)
def test_any_kill_sequence_recovers_to_the_fault_free_answers(
    tmp_path_factory, kills, workers
) -> None:
    path = tmp_path_factory.mktemp("recovery") / "jobs.jsonl"
    _run(path, kills, workers)
    _assert_converged(path)


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("offset", range(1, APPENDS + 1))
def test_every_single_kill_point_recovers(tmp_path, offset: int, torn: bool) -> None:
    path = tmp_path / "jobs.jsonl"
    _run(path, [(offset, torn)], workers=1)
    _assert_converged(path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", sorted(WORKER_FAULTS))
def test_kills_compose_with_worker_faults(tmp_path, fault: str, workers: int) -> None:
    path = tmp_path / "jobs.jsonl"
    services = _run(path, [(5, True), (3, False)], workers, WORKER_FAULTS[fault])
    if fault == "cache_corrupt":
        fired = sum(service.cache.corruptions for service in services)
    else:
        fired = sum(
            WORKER_FAULT_ERRORS[fault] in event["message"]
            for event in JobStore(path).iter_events()
            if event["event"] == "error"
        )
    assert fired > 0
    _assert_converged(path)


def test_single_worker_kill_sequence_replays_identically(tmp_path) -> None:
    kills = [(7, True), (2, False), (4, True)]
    first = _run(tmp_path / "a.jsonl", kills, workers=1)
    second = _run(tmp_path / "b.jsonl", kills, workers=1)
    assert [service.journal.append_ordinal for service in first] == [
        service.journal.append_ordinal for service in second
    ]
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
