"""Watchdog supervisor and cancellation tokens."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import JobCancelled, ServiceError
from repro.reliability.cancellation import USER_KINDS, CancellationToken
from repro.service.supervision import SupervisionConfig, Supervisor


class TestCancellationToken:
    def test_poll_beats_then_raises_once_cancelled(self):
        beats = []
        token = CancellationToken(on_beat=lambda: beats.append(1))
        token.poll()
        token.poll()
        assert len(beats) == 2
        assert token.cancel("stop it", kind="user")
        with pytest.raises(JobCancelled, match="stop it") as excinfo:
            token.poll()
        assert excinfo.value.kind == "user"

    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert token.cancel("first", kind="deadline")
        assert not token.cancel("second", kind="user")
        with pytest.raises(JobCancelled, match="first") as excinfo:
            token.raise_if_cancelled()
        assert excinfo.value.kind == "deadline"

    def test_touch_advances_heartbeat(self):
        token = CancellationToken()
        before = token.last_beat
        time.sleep(0.002)
        token.touch()
        assert token.last_beat > before

    def test_user_kinds(self):
        assert "user" in USER_KINDS
        assert "shutdown" in USER_KINDS
        assert "deadline" not in USER_KINDS
        assert "stall" not in USER_KINDS


class TestSupervisorScan:
    def test_deadline_exceeded_is_reaped(self):
        reaped = []
        sup = Supervisor(
            SupervisionConfig(stall_timeout_seconds=1000.0),
            on_reap=lambda job_id, kind: reaped.append((job_id, kind)),
        )
        token = CancellationToken()
        sup.watch("j0001", token, deadline_seconds=5.0)
        start = time.monotonic()
        assert sup.scan(now=start + 1.0) == 0
        assert sup.scan(now=start + 60.0) == 1
        assert reaped == [("j0001", "deadline")]
        assert token.cancelled
        with pytest.raises(JobCancelled) as excinfo:
            token.raise_if_cancelled()
        assert excinfo.value.kind == "deadline"
        assert sup.watched() == 0  # reaped entries are released

    def test_stale_heartbeat_is_reaped_as_stall(self):
        reaped = []
        sup = Supervisor(
            SupervisionConfig(stall_timeout_seconds=0.5),
            on_reap=lambda job_id, kind: reaped.append((job_id, kind)),
        )
        token = CancellationToken()
        sup.watch("j0001", token, deadline_seconds=None)
        assert sup.scan(now=token.last_beat + 0.1) == 0
        assert sup.scan(now=token.last_beat + 10.0) == 1
        assert reaped == [("j0001", "stall")]

    def test_heartbeat_defers_the_stall_reap(self):
        sup = Supervisor(
            SupervisionConfig(stall_timeout_seconds=0.5), on_reap=lambda *a: None
        )
        token = CancellationToken()
        sup.watch("j0001", token, deadline_seconds=None)
        token.touch()
        assert sup.scan(now=token.last_beat + 0.1) == 0
        assert sup.watched() == 1

    def test_released_job_is_not_reaped(self):
        sup = Supervisor(SupervisionConfig(), on_reap=lambda *a: None)
        token = CancellationToken()
        sup.watch("j0001", token, deadline_seconds=0.001)
        sup.release("j0001")
        assert sup.scan(now=time.monotonic() + 100.0) == 0
        assert not token.cancelled

    def test_supervisor_thread_reaps_live(self):
        reaped = []
        sup = Supervisor(
            SupervisionConfig(
                poll_interval_seconds=0.01, stall_timeout_seconds=0.05
            ),
            on_reap=lambda job_id, kind: reaped.append(kind),
        )
        token = CancellationToken()
        with sup:
            sup.watch("j0001", token, deadline_seconds=None)
            deadline = time.monotonic() + 5.0
            while not token.cancelled and time.monotonic() < deadline:
                time.sleep(0.01)
        assert token.cancelled
        assert reaped == ["stall"]
        assert "job-supervisor" not in {t.name for t in threading.enumerate()}

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            SupervisionConfig(poll_interval_seconds=0.0)
        with pytest.raises(ServiceError):
            SupervisionConfig(stall_timeout_seconds=-1.0)
