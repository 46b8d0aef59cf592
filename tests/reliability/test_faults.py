"""Tests for seeded deterministic fault plans."""

from __future__ import annotations

import pytest

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.errors import FaultInjectionError
from repro.reliability import FaultEvent, FaultKind, FaultPlan


class TestDeterminism:
    def test_same_seed_same_faults(self) -> None:
        plans = [FaultPlan(seed=11, transfer_rate=0.1, codec_rate=0.05) for _ in range(2)]
        events = []
        for plan in plans:
            events.append([
                (plan.transfer_fault(g, t, a), plan.codec_fault(g, t, a))
                for g in range(50) for t in range(4) for a in range(3)
            ])
        assert events[0] == events[1]

    def test_query_order_does_not_matter(self) -> None:
        plan = FaultPlan(seed=5, transfer_rate=0.2)
        forward = [plan.transfer_fault(g, 0, 0) for g in range(100)]
        backward = [plan.transfer_fault(g, 0, 0) for g in reversed(range(100))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self) -> None:
        a = FaultPlan(seed=1, transfer_rate=0.3)
        b = FaultPlan(seed=2, transfer_rate=0.3)
        faults_a = [a.transfer_fault(g, 0, 0) is not None for g in range(200)]
        faults_b = [b.transfer_fault(g, 0, 0) is not None for g in range(200)]
        assert faults_a != faults_b


class TestRates:
    def test_zero_rates_inject_nothing(self) -> None:
        plan = FaultPlan(seed=3)
        assert not plan.active
        assert all(
            plan.transfer_fault(g, t, 0) is None
            for g in range(100) for t in range(4)
        )
        assert not plan.oom_fault(0)

    def test_rate_roughly_respected(self) -> None:
        plan = FaultPlan(seed=17, transfer_rate=0.25)
        hits = sum(
            plan.transfer_fault(g, t, 0) is not None
            for g in range(100) for t in range(10)
        )
        assert 150 < hits < 350  # 250 expected over 1000 draws

    def test_transfer_kinds_cover_taxonomy(self) -> None:
        plan = FaultPlan(seed=23, transfer_rate=1.0)
        kinds = {
            plan.transfer_fault(g, 0, 0).kind for g in range(200)
        }
        assert kinds == {FaultKind.BIT_FLIP, FaultKind.TRUNCATION, FaultKind.DROP}

    def test_invalid_rate_rejected(self) -> None:
        with pytest.raises(FaultInjectionError, match="transfer_rate"):
            FaultPlan(seed=0, transfer_rate=1.5)
        with pytest.raises(FaultInjectionError, match="oom"):
            FaultPlan(seed=0, oom_failures=-1)


class TestOom:
    def test_leading_allocations_fail(self) -> None:
        plan = FaultPlan(seed=0, oom_failures=2)
        assert plan.oom_fault(0) and plan.oom_fault(1)
        assert not plan.oom_fault(2)


class TestForced:
    def test_forced_event_fires_at_position(self) -> None:
        event = FaultEvent(FaultKind.BIT_FLIP, gate_index=3, transfer_index=1, attempt=0)
        plan = FaultPlan(seed=0, forced=(event,))
        assert plan.active
        assert plan.transfer_fault(3, 1, 0) is event
        assert plan.transfer_fault(3, 1, 1) is None
        assert plan.transfer_fault(3, 0, 0) is None
        assert plan.transfer_fault(2, 1, 0) is None


class TestSpec:
    def test_spec_round_trip(self) -> None:
        plan = FaultPlan.from_spec("seed=7,transfer=0.05,codec=0.02,oom=1")
        assert plan == FaultPlan.from_spec(plan.to_spec())
        assert plan == FaultPlan(seed=7, transfer_rate=0.05, codec_rate=0.02,
                                 oom_failures=1)

    def test_bad_spec_rejected(self) -> None:
        with pytest.raises(FaultInjectionError, match="clause"):
            FaultPlan.from_spec("bogus=1")
        with pytest.raises(FaultInjectionError, match="value"):
            FaultPlan.from_spec("transfer=lots")

    def test_describe_mentions_rates(self) -> None:
        assert "transfer faults" in FaultPlan(seed=1, transfer_rate=0.1).describe()
        assert "no faults" in FaultPlan(seed=1).describe()


class TestServiceLayerKinds:
    def test_service_queries_are_deterministic(self) -> None:
        a = FaultPlan(seed=4, worker_crash_rate=0.3, worker_stall_rate=0.3,
                      cache_corrupt_rate=0.3)
        b = FaultPlan(seed=4, worker_crash_rate=0.3, worker_stall_rate=0.3,
                      cache_corrupt_rate=0.3)
        for i in range(50):
            assert a.worker_crash(i, 1) == b.worker_crash(i, 1)
            assert a.worker_stall(i, 1) == b.worker_stall(i, 1)
            assert a.cache_corrupt(i) == b.cache_corrupt(i)

    def test_kinds_draw_independent_streams(self) -> None:
        # Same rate, same indices: crash and stall must not mirror each
        # other (they hash with distinct salts).
        plan = FaultPlan(seed=2, worker_crash_rate=0.5, worker_stall_rate=0.5)
        crash = [plan.worker_crash(i, 0) for i in range(64)]
        stall = [plan.worker_stall(i, 0) for i in range(64)]
        assert crash != stall

    def test_zero_rates_inject_no_service_faults(self) -> None:
        plan = FaultPlan(seed=3)
        assert not any(plan.worker_crash(i, a)
                       for i in range(20) for a in range(3))
        assert not any(plan.cache_corrupt(i) for i in range(20))

    def test_forced_service_events_fire(self) -> None:
        plan = FaultPlan(forced=(
            FaultEvent(FaultKind.WORKER_CRASH, gate_index=3, attempt=1),
            FaultEvent(FaultKind.CACHE_CORRUPT, gate_index=0),
        ))
        assert plan.worker_crash(3, 1)
        assert not plan.worker_crash(3, 2)
        assert plan.cache_corrupt(0)
        assert not plan.cache_corrupt(1)

    @pytest.mark.parametrize(
        "clause", ["crash=0.1", "stall=0.2", "cachecorrupt=0.4", "degrade=0.1", "torn=0.3"]
    )
    def test_spec_rejects_keys_no_run_reads(self, clause) -> None:
        # Service-layer rates are set through the constructor only, and
        # link degradation and torn writes are retired.
        with pytest.raises(FaultInjectionError, match="keys: .'codec', 'oom', 'seed', 'transfer'."):
            FaultPlan.from_spec(f"seed=9,{clause}")

    def test_spec_spells_only_in_run_kinds(self) -> None:
        plan = FaultPlan(seed=9, transfer_rate=0.1, worker_crash_rate=0.1,
                         worker_stall_rate=0.2, cache_corrupt_rate=0.4)
        assert plan.to_spec() == "seed=9,transfer=0.1,codec=0.0,oom=0"
        assert plan.describe() == "seed 9, transfer faults 10.0%"


class TestActiveCountsInRunKindsOnly:
    """A plan is active only if a run can inject something from it."""

    SERVICE_ONLY = (
        FaultPlan(seed=1, worker_crash_rate=0.5),
        FaultPlan(seed=1, worker_stall_rate=0.5, cache_corrupt_rate=0.5),
        FaultPlan(seed=1, forced=(FaultEvent(FaultKind.WORKER_CRASH, gate_index=0),)),
    )

    @pytest.mark.parametrize("plan", SERVICE_ONLY)
    def test_service_only_plans_are_inactive(self, plan: FaultPlan) -> None:
        assert not plan.active

    @pytest.mark.parametrize(
        "kind", [FaultKind.BIT_FLIP, FaultKind.TRUNCATION, FaultKind.DROP,
                 FaultKind.DECODE, FaultKind.OOM],
    )
    def test_forced_in_run_event_is_active(self, kind: FaultKind) -> None:
        assert FaultPlan(forced=(FaultEvent(kind, gate_index=0),)).active

    def test_dense_run_reports_as_a_plan_free_run(self) -> None:
        circuit = get_circuit("bv", 8)
        plain = QGpuSimulator().run(circuit)
        planned = QGpuSimulator(
            fault_plan=FaultPlan(seed=1, worker_crash_rate=0.5)
        ).run(circuit)
        assert planned.reliability == plain.reliability
        assert planned.reliability.transfers == 0

    def test_stabilizer_run_completes(self) -> None:
        result = QGpuSimulator(
            backend="stabilizer", fault_plan=FaultPlan(seed=1, worker_crash_rate=0.5)
        ).run(get_circuit("bv", 8))
        assert result.backend == "stabilizer"
