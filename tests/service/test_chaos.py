"""The crashing-journal test fake: simulated crashes and torn writes."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.store import JobStore
from tests.service.chaos_journal import ChaosJournal, SimulatedCrash


class TestChaosJournal:
    def test_armed_kill_raises_at_the_scheduled_append(self, tmp_path):
        journal = ChaosJournal(tmp_path / "j.jsonl")
        journal.append({"event": "error", "id": "x", "message": "one"})
        journal.arm_kill(2)
        journal.append({"event": "error", "id": "x", "message": "two"})
        with pytest.raises(SimulatedCrash):
            journal.append({"event": "error", "id": "x", "message": "three"})
        # The killed append never reached the file (torn off or dropped).
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        # A crash disarms: the journal's next incarnation appends cleanly.
        journal.append({"event": "error", "id": "x", "message": "four"})

    def test_torn_kill_leaves_a_recoverable_fragment(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ChaosJournal(path)
        journal.append({"event": "error", "id": "x", "message": "intact"})
        journal.arm_kill(1, torn=True)
        with pytest.raises(SimulatedCrash):
            journal.append({"event": "error", "id": "x", "message": "torn"})
        assert journal.torn_writes == 1
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")  # the fragment is mid-line
        # Replay tolerates the torn tail; repair truncates it.
        fresh = JobStore(path)
        events = list(fresh.iter_events())
        assert [e["message"] for e in events] == ["intact"]
        removed = fresh.repair_tail()
        assert removed > 0
        assert path.read_bytes().endswith(b"\n")

    def test_ordinals_continue_across_incarnations(self, tmp_path):
        first = ChaosJournal(tmp_path / "j.jsonl")
        first.append({"event": "error", "id": "x", "message": "a"})
        second = ChaosJournal(tmp_path / "j.jsonl", start_ordinal=first.append_ordinal)
        assert second.append_ordinal == 1

    def test_kill_must_be_in_the_future(self, tmp_path):
        journal = ChaosJournal(tmp_path / "j.jsonl")
        with pytest.raises(ServiceError):
            journal.arm_kill(0)
