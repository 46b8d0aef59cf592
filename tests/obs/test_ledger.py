"""Perf ledger: flattening, fingerprints, baselines, regression diffs."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.ledger import (
    append_record,
    baseline_for,
    build_record,
    diff_records,
    environment_fingerprint,
    fingerprint_id,
    flatten_numeric,
    load_ledger,
    metric_direction,
    render_diff,
    render_record,
)

KERNELS = {
    "mode": "smoke",
    "results": {
        "inside_h": {"parallel_speedup": 2.0, "parallel_mamps": 120.0},
        "diagonal_rz": {"serial_speedup": 1.4},
    },
}
PLANNER = {
    "mode": "smoke",
    "accuracy": 1.0,
    "geomean_speedup_vs_dense": 1.8,
    "cases": [
        {"circuit": "qft_10", "correct": True, "speedup_vs_dense": 2.1},
        {"circuit": "bv_12", "correct": False, "speedup_vs_dense": 1.2},
    ],
}


def _write_benches(root, kernels=KERNELS, planner=PLANNER) -> None:
    (root / "BENCH_kernels.json").write_text(json.dumps(kernels))
    (root / "BENCH_planner.json").write_text(json.dumps(planner))


class TestFlatten:
    def test_dicts_recurse_with_dotted_keys(self):
        flat = flatten_numeric(KERNELS)
        assert flat["results.inside_h.parallel_speedup"] == 2.0

    def test_list_items_key_by_circuit_field(self):
        flat = flatten_numeric(PLANNER)
        assert flat["cases.qft_10.speedup_vs_dense"] == 2.1
        assert flat["cases.bv_12.correct"] == 0.0  # bools gate as 0/1

    def test_unkeyed_list_items_fall_back_to_index(self):
        flat = flatten_numeric({"xs": [{"v": 1.5}, {"v": 2.5}]})
        assert flat == {"xs.0.v": 1.5, "xs.1.v": 2.5}

    def test_strings_and_nulls_are_dropped(self):
        assert flatten_numeric({"mode": "smoke", "rev": None, "n": 3}) == {"n": 3.0}


class TestFingerprint:
    def test_fingerprint_is_stable_within_a_process(self):
        first = environment_fingerprint()
        assert first == environment_fingerprint()
        assert fingerprint_id(first) == fingerprint_id(dict(first))
        assert len(fingerprint_id(first)) == 12

    def test_different_fingerprints_get_different_ids(self):
        base = environment_fingerprint()
        other = dict(base, cores=(base["cores"] or 0) + 1)
        assert fingerprint_id(base) != fingerprint_id(other)


class TestRecords:
    def test_build_record_ingests_present_benches(self, tmp_path):
        _write_benches(tmp_path)
        record = build_record(tmp_path, timestamp=100.0)
        assert set(record["benches"]) == {"kernels", "planner"}
        assert sorted(record["missing"]) == ["fleet", "obs"]
        assert record["mode"] == "smoke"
        assert record["timestamp"] == 100.0
        metrics = record["benches"]["planner"]["metrics"]
        assert metrics["accuracy"] == 1.0

    def test_build_record_without_any_bench_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no BENCH"):
            build_record(tmp_path)

    def test_append_and_load_roundtrip(self, tmp_path):
        _write_benches(tmp_path)
        ledger = tmp_path / "BENCH_LEDGER.jsonl"
        record = build_record(tmp_path, timestamp=1.0)
        append_record(ledger, record)
        append_record(ledger, build_record(tmp_path, timestamp=2.0))
        records = load_ledger(ledger)
        assert [r["timestamp"] for r in records] == [1.0, 2.0]
        assert records[0]["benches"] == record["benches"]

    def test_corrupt_ledger_line_raises_with_lineno(self, tmp_path):
        ledger = tmp_path / "BENCH_LEDGER.jsonl"
        ledger.write_text('{"schema": 1}\nnot json\n')
        with pytest.raises(ObservabilityError, match=":2"):
            load_ledger(ledger)

    def test_render_record_mentions_benches_and_missing(self, tmp_path):
        _write_benches(tmp_path)
        text = render_record(build_record(tmp_path, timestamp=1.0))
        assert "kernels" in text and "planner" in text
        assert "missing : obs, fleet" in text


class TestBaseline:
    def test_picks_most_recent_same_fingerprint_and_mode(self, tmp_path):
        _write_benches(tmp_path)
        older = build_record(tmp_path, timestamp=1.0)
        newer = build_record(tmp_path, timestamp=2.0)
        latest = build_record(tmp_path, timestamp=3.0)
        assert baseline_for([older, newer], latest) is newer

    def test_other_fingerprint_or_mode_is_never_a_baseline(self, tmp_path):
        _write_benches(tmp_path)
        latest = build_record(tmp_path, timestamp=3.0)
        foreign = dict(build_record(tmp_path, timestamp=1.0),
                       fingerprint_id="deadbeef0000")
        full = dict(build_record(tmp_path, timestamp=2.0), mode="full")
        assert baseline_for([foreign, full], latest) is None


class TestDiff:
    def test_direction_heuristic(self):
        assert metric_direction("baseline_seconds") == "lower"
        assert metric_direction("disabled_overhead") == "lower"
        assert metric_direction("results.inside_h.parallel_speedup") == "higher"
        assert metric_direction("accuracy") == "higher"
        assert metric_direction("num_qubits") is None

    def test_injected_20pct_kernel_slowdown_is_flagged(self, tmp_path):
        """The acceptance check: ledger diff catches a 20% regression."""
        _write_benches(tmp_path)
        baseline = build_record(tmp_path, timestamp=1.0)
        slowed = json.loads(json.dumps(KERNELS))
        slowed["results"]["inside_h"]["parallel_speedup"] *= 0.8  # -20%
        _write_benches(tmp_path, kernels=slowed)
        latest = build_record(tmp_path, timestamp=2.0)
        entries = diff_records(baseline, latest, tolerance=0.05)
        regressions = {
            (e.bench, e.metric) for e in entries if e.regressed
        }
        assert ("kernels", "results.inside_h.parallel_speedup") in regressions
        # Regressions sort first and render loudly.
        assert entries[0].regressed
        assert "REGRESSED kernels.results.inside_h.parallel_speedup" in (
            render_diff(entries)
        )

    def test_moves_within_tolerance_do_not_regress(self, tmp_path):
        _write_benches(tmp_path)
        baseline = build_record(tmp_path, timestamp=1.0)
        wobble = json.loads(json.dumps(KERNELS))
        wobble["results"]["inside_h"]["parallel_speedup"] *= 0.97  # -3%
        _write_benches(tmp_path, kernels=wobble)
        latest = build_record(tmp_path, timestamp=2.0)
        entries = diff_records(baseline, latest, tolerance=0.05)
        assert not any(e.regressed for e in entries)

    def test_improvements_never_regress(self, tmp_path):
        _write_benches(tmp_path)
        baseline = build_record(tmp_path, timestamp=1.0)
        faster = json.loads(json.dumps(KERNELS))
        faster["results"]["inside_h"]["parallel_speedup"] *= 2.0
        _write_benches(tmp_path, kernels=faster)
        latest = build_record(tmp_path, timestamp=2.0)
        assert not any(
            e.regressed for e in diff_records(baseline, latest, tolerance=0.05)
        )

    def test_informational_metrics_are_reported_but_never_regressed(self, tmp_path):
        _write_benches(tmp_path)
        baseline = build_record(tmp_path, timestamp=1.0)
        grew = json.loads(json.dumps(PLANNER))
        grew["cases"][0]["speedup_vs_dense"] = 0.1  # huge drop, higher-better
        _write_benches(tmp_path, planner=grew)
        latest = build_record(tmp_path, timestamp=2.0)
        entries = diff_records(baseline, latest, tolerance=0.05)
        by_key = {(e.bench, e.metric): e for e in entries}
        drop = by_key[("planner", "cases.qft_10.speedup_vs_dense")]
        assert drop.regressed  # speedup IS directional
        qubits = by_key.get(("kernels", "mode"))
        assert qubits is None  # strings never flatten into metrics


def _gate_module():
    """Load ``benchmarks/check_bench_regression.py`` as a module."""
    import importlib.util
    from pathlib import Path

    script = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location("check_bench_regression_ut", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGateScript:
    """``check_bench_regression.py``'s ledger gate over a tmp ledger."""

    def test_ledger_regression_fails_the_gate(self, tmp_path):
        _write_benches(tmp_path)
        ledger = tmp_path / "BENCH_LEDGER.jsonl"
        append_record(ledger, build_record(tmp_path, timestamp=1.0))
        slowed = json.loads(json.dumps(KERNELS))
        for case in slowed["results"].values():
            for metric in case:
                case[metric] *= 0.8
        _write_benches(tmp_path, kernels=slowed)
        append_record(ledger, build_record(tmp_path, timestamp=2.0))
        verdict = _gate_module().ledger_gate(ledger)
        assert verdict["passed"] is False
        assert any("parallel_speedup" in failure for failure in verdict["failures"])

    def test_first_record_on_a_fingerprint_passes_with_note(self, tmp_path):
        _write_benches(tmp_path)
        ledger = tmp_path / "BENCH_LEDGER.jsonl"
        append_record(ledger, build_record(tmp_path, timestamp=1.0))
        verdict = _gate_module().ledger_gate(ledger)
        assert verdict["passed"] is True
        assert "first run" in verdict["note"]

    def test_missing_ledger_passes_with_note(self, tmp_path):
        verdict = _gate_module().ledger_gate(tmp_path / "nope.jsonl")
        assert verdict["passed"] is True
        assert "no ledger" in verdict["note"]
