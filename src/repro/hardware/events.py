"""Discrete-event engine for transfer/compute schedules.

A schedule is a set of :class:`Task` objects, each bound to one *resource*
(a CUDA stream direction, a GPU's compute engine, the CPU) with a fixed
duration and a set of dependencies.  The engine computes start/finish times
under two rules:

* a task starts only after all its dependencies have finished, and
* each resource executes one task at a time, in ready order (FIFO among
  tasks whose dependencies are satisfied, ties broken by submission order).

This is exactly the execution model of CUDA streams: operations in a stream
are FIFO, cross-stream ordering comes from events (dependencies).  The
closed-form pipeline formulas in :mod:`repro.hardware.pipeline` are validated
against this engine in the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import SchedulingError


@dataclass
class Task:
    """One unit of work on one resource.

    Attributes:
        name: Unique identifier within the schedule.
        resource: Resource (engine) that executes the task.
        duration: Seconds of exclusive resource occupancy (>= 0).
        deps: Names of tasks that must finish before this one starts.
        meta: Optional JSON-safe annotations carried into trace exports
            (device, transfer bytes, link id); never affects scheduling.
    """

    name: str
    resource: str
    duration: float
    deps: tuple[str, ...] = ()
    meta: dict | None = None


@dataclass
class TaskRecord:
    """Computed timing of one task."""

    task: Task
    start: float
    finish: float


@dataclass
class TimelineResult:
    """The outcome of simulating a schedule.

    Attributes:
        records: Per-task timing, keyed by task name.
        makespan: Finish time of the last task.
        busy: Per-resource total busy seconds.
    """

    records: dict[str, TaskRecord]
    makespan: float
    busy: dict[str, float]

    def utilization(self, resource: str) -> float:
        """Busy fraction of ``resource`` over the makespan."""
        if self.makespan == 0:
            return 0.0
        return self.busy.get(resource, 0.0) / self.makespan


class EventTimeline:
    """Accumulates tasks, then simulates them with :meth:`run`."""

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._by_name: dict[str, Task] = {}

    def add(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: tuple[str, ...] | list[str] = (),
        meta: dict | None = None,
    ) -> Task:
        """Register a task; returns it for convenient chaining."""
        if name in self._by_name:
            raise SchedulingError(f"duplicate task name {name!r}")
        if duration < 0:
            raise SchedulingError(f"task {name!r} has negative duration")
        task = Task(name, resource, float(duration), tuple(deps), meta)
        self._tasks.append(task)
        self._by_name[name] = task
        return task

    def __len__(self) -> int:
        return len(self._tasks)

    def run(self) -> TimelineResult:
        """Simulate the schedule and return task timings.

        Raises:
            SchedulingError: On unknown dependencies or dependency cycles.
        """
        for task in self._tasks:
            for dep in task.deps:
                if dep not in self._by_name:
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )

        submission = {task.name: order for order, task in enumerate(self._tasks)}
        pending_deps = {task.name: len(task.deps) for task in self._tasks}
        dependents: dict[str, list[str]] = {task.name: [] for task in self._tasks}
        for task in self._tasks:
            for dep in task.deps:
                dependents[dep].append(task.name)

        # Time-advancing simulation.  Tasks become ready exactly when their
        # last dependency finishes; an idle resource starts the
        # earliest-submitted ready task at the current time.  Time advances
        # to the next task completion when nothing can start.
        ready_at = {task.name: 0.0 for task in self._tasks}
        # Per-resource queue of ready tasks: (submission order, name).
        queues: dict[str, list[tuple[int, str]]] = {}
        resources: set[str] = {task.resource for task in self._tasks}
        running: list[tuple[float, int, str]] = []  # (finish, order, name)
        resource_busy_until: dict[str, float] = {r: 0.0 for r in resources}
        resource_running: dict[str, bool] = {r: False for r in resources}

        def enqueue(name: str) -> None:
            task = self._by_name[name]
            heapq.heappush(
                queues.setdefault(task.resource, []), (submission[name], name)
            )

        for task in self._tasks:
            if pending_deps[task.name] == 0:
                enqueue(task.name)

        records: dict[str, TaskRecord] = {}
        busy: dict[str, float] = {}
        completed = 0
        makespan = 0.0
        now = 0.0

        while completed < len(self._tasks):
            started_any = True
            while started_any:
                started_any = False
                for resource in resources:
                    queue = queues.get(resource)
                    if resource_running[resource] or not queue:
                        continue
                    order, name = heapq.heappop(queue)
                    task = self._by_name[name]
                    start = now
                    finish = start + task.duration
                    records[name] = TaskRecord(task, start, finish)
                    busy[resource] = busy.get(resource, 0.0) + task.duration
                    resource_running[resource] = True
                    resource_busy_until[resource] = finish
                    heapq.heappush(running, (finish, order, name))
                    started_any = True
            if completed == len(self._tasks):
                break
            if not running:
                raise SchedulingError("dependency cycle: no task is ready")
            # Advance to the next completion; release everything finishing
            # at that instant so zero-duration chains resolve in one step.
            now = running[0][0]
            while running and running[0][0] <= now:
                _, _, name = heapq.heappop(running)
                task = self._by_name[name]
                resource_running[task.resource] = False
                makespan = max(makespan, records[name].finish)
                completed += 1
                for dependent in dependents[name]:
                    pending_deps[dependent] -= 1
                    ready_at[dependent] = max(ready_at[dependent], records[name].finish)
                    if pending_deps[dependent] == 0:
                        enqueue(dependent)

        return TimelineResult(records=records, makespan=makespan, busy=busy)
