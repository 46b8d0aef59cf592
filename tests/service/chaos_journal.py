"""A crashing journal: the test fake behind the restart-recovery tests.

Crashes are simulated at the one place a real crash is observable
afterwards: the journal.  :class:`ChaosJournal` counts appends and, when
armed, raises :class:`SimulatedCrash` at a chosen ordinal - optionally
tearing the in-flight record first, exactly as a process death between
``write`` and ``flush`` would.  The coordinator unwinds, worker tokens
are cancelled, and the next incarnation recovers from the journal like a
fresh process would.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ServiceError
from repro.service.store import JobStore


class SimulatedCrash(Exception):
    """The test fake's stand-in for a process death.

    Deliberately **not** a :class:`~repro.errors.ReproError`: nothing in
    the service may catch and absorb it, exactly as nothing survives a
    real ``kill -9``.  It unwinds the coordinator, which cancels worker
    tokens with ``kind="shutdown"`` on the way out.
    """


class ChaosJournal(JobStore):
    """A :class:`JobStore` that can tear a write and kill the process.

    Overrides the store's documented ``_write_line`` override point.
    Appends are numbered with a global ordinal, continued across restarts
    via ``start_ordinal``, so a kill lands at the same record in every
    replay of a scenario.

    Args:
        path: Journal file (shared across simulated restarts).
        fsync: Passed through to :class:`JobStore`.
        start_ordinal: First append's ordinal (the previous incarnation's
            final count).
    """

    #: Fraction of the line that survives a torn write.  Cutting a third
    #: always destroys the CRC suffix, so the fragment can never be
    #: mistaken for an intact record.
    TORN_KEEP_NUMERATOR = 2
    TORN_KEEP_DENOMINATOR = 3

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "never",
        start_ordinal: int = 0,
    ) -> None:
        super().__init__(path, fsync=fsync)
        self.append_ordinal = start_ordinal
        self.torn_writes = 0
        self._kill_at: int | None = None
        self._tear = False

    def arm_kill(self, after_appends: int, torn: bool = False) -> None:
        """Schedule a :class:`SimulatedCrash` on the ``after_appends``-th
        append from now (``1`` = the very next one), tearing that record
        first when ``torn``.

        Armed *after* manifest submission, so submitted jobs are durable
        as they would be in a real deployment.
        """
        if after_appends < 1:
            raise ServiceError(
                f"kill must be at least 1 append away, got {after_appends}"
            )
        self._kill_at = self.append_ordinal + after_appends - 1
        self._tear = torn

    def _write_line(self, line: str) -> None:
        ordinal = self.append_ordinal
        self.append_ordinal += 1
        if self._kill_at is not None and ordinal >= self._kill_at:
            self._kill_at = None  # one crash per arming
            if self._tear:
                # The crash lands mid-write: a prefix of the record (no
                # newline, no intact CRC) reaches the disk.
                keep = max(
                    1, len(line) * self.TORN_KEEP_NUMERATOR // self.TORN_KEEP_DENOMINATOR
                )
                super()._write_line(line[:keep])
                self.torn_writes += 1
            raise SimulatedCrash(
                f"chaos: simulated process crash at journal append {ordinal}"
            )
        super()._write_line(line)
