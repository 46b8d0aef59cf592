"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.circuits.library import get_circuit
from repro.circuits.qasm import to_qasm

#: The repository root, where README.md, DESIGN.md and docs/ live.
ROOT = Path(__file__).resolve().parents[1]


class TestSimulate:
    def test_family_simulation(self, capsys) -> None:
        assert main(["simulate", "--family", "bv", "--qubits", "8",
                     "--shots", "20"]) == 0
        out = capsys.readouterr().out
        assert "bv_8" in out
        assert "pruned chunk updates" in out

    def test_qasm_input(self, tmp_path, capsys) -> None:
        path = tmp_path / "circ.qasm"
        path.write_text(to_qasm(get_circuit("gs", 5)))
        assert main(["simulate", "--qasm", str(path), "--shots", "10"]) == 0
        assert "circ" in capsys.readouterr().out

    def test_version_selection(self, capsys) -> None:
        assert main(["simulate", "--family", "gs", "--qubits", "6",
                     "--version", "Baseline"]) == 0
        assert "Baseline" in capsys.readouterr().out

    def test_tableau_readout_is_byte_identical_to_the_per_shot_sampler(
        self, capsys
    ) -> None:
        # Stdout of the parent commit, which collapsed a tableau copy per
        # shot; hlf_10 has five outcomes tied at 5, so their order is the
        # counts dict's first-occurrence order.
        assert main(["simulate", "--family", "bv", "--qubits", "12",
                     "--backend", "auto", "--precision", "auto",
                     "--shots", "256", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "bv_12: 35 gates, version Q-GPU\n"
            "backend: stabilizer, precision: double\n"
            "  |111111111111>  132\n"
            "  |011111111111>  124\n"
        )
        assert main(["simulate", "--family", "hlf", "--qubits", "10",
                     "--backend", "stabilizer", "--shots", "300",
                     "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "hlf_10: 32 gates, version Q-GPU\n"
            "backend: stabilizer, precision: double\n"
            "  |0010100110>  7\n"
            "  |0110000100>  6\n"
            "  |1000011010>  5\n"
            "  |0010010100>  5\n"
            "  |0001110010>  5\n"
            "  |0101100010>  5\n"
            "  |0101110010>  5\n"
            "  |0101100000>  5\n"
        )


def _estimate_rows(capsys, *argv: str) -> dict[str, float]:
    """``repro estimate`` rows as ``{label: modelled seconds}``."""
    assert main(["estimate", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    return {line.split()[0]: float(line.split()[1]) for line in rows}


class TestEstimate:
    def test_estimate_all_versions(self, capsys) -> None:
        rows = _estimate_rows(capsys, "--family", "qft", "--qubits", "31",
                              "--machine", "p100")
        assert list(rows) == [
            "Baseline", "Naive", "Overlap", "Pruning", "Reorder", "Q-GPU",
            "Q-GPU+diag", "Q-GPU+basis", "CPU-OpenMP",
        ]
        assert all(seconds > 0 for seconds in rows.values())

    def test_qgpu_wins_at_scale_on_pruneable_circuits(self, capsys) -> None:
        rows = _estimate_rows(capsys, "--family", "iqp", "--qubits", "33")
        assert min(rows, key=rows.get).startswith("Q-GPU")

    def test_pruning_extensions_top_qft(self, capsys) -> None:
        rows = _estimate_rows(capsys, "--family", "qft", "--qubits", "32")
        best = min(rows, key=rows.get)
        assert best in ("Q-GPU+diag", "Q-GPU+basis")
        assert rows["Baseline"] / rows[best] > 10

    def test_cpu_openmp_row_beside_the_versions(self, capsys) -> None:
        rows = _estimate_rows(capsys, "--family", "gs", "--qubits", "31")
        assert rows["CPU-OpenMP"] > 0
        assert rows["Baseline"] > 0

    def test_host_memory_error_reported(self, capsys) -> None:
        assert main(["estimate", "--family", "gs", "--qubits", "34",
                     "--machine", "v100"]) == 1
        assert "error:" in capsys.readouterr().err


class TestForcedMps:
    def test_refusal_exits_one_with_the_engines_message(
        self, monkeypatch, capsys
    ) -> None:
        monkeypatch.setattr("repro.mps.state.MPS_BYTE_LIMIT", 1 << 20)
        assert main(["simulate", "--family", "hchain", "--qubits", "16",
                     "--backend", "mps", "--shots", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MPS refuses at gate ")
        assert "bond" in err and "bytes, past the 1048576-byte limit" in err

    def test_exact_run_prints_no_truncation(self, capsys) -> None:
        assert main(["simulate", "--family", "qaoa", "--qubits", "10",
                     "--backend", "mps", "--shots", "10"]) == 0
        out = capsys.readouterr().out
        assert "backend: mps, precision: double" in out
        assert "truncation" not in out


class TestOtherCommands:
    def test_profile(self, capsys) -> None:
        assert main(["profile", "--family", "gs", "--qubits", "10"]) == 0
        assert "mean GFC ratio" in capsys.readouterr().out

    def test_transpile(self, capsys) -> None:
        assert main(["transpile", "--family", "gs", "--qubits", "4"]) == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out

    def test_experiment_subset(self, capsys) -> None:
        assert main(["experiment", "tab2"]) == 0
        assert "[tab2]" in capsys.readouterr().out

    def test_missing_circuit_source_errors(self) -> None:
        with pytest.raises(SystemExit):
            main(["simulate"])

    def test_plan(self, capsys) -> None:
        assert main(["plan", "--family", "iqp", "--qubits", "16"]) == 0
        out = capsys.readouterr().out
        assert "plan for iqp_16" in out
        assert "-> chosen: statevector" in out
        assert out.endswith("repro estimate\n")

    @pytest.mark.parametrize("family", ["rqc", "iqp", "hchain", "qaoa", "qf", "qft"])
    def test_plan_rejects_beyond_the_dense_limit(self, family, capsys) -> None:
        assert main(["plan", "--family", family, "--qubits", "28"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: no backend can execute {family}_28")
        assert "outside the Clifford set" in captured.err
        assert "support probe aborted" in captured.err
        assert "limited to 26 qubits" in captured.err

    @pytest.mark.parametrize("family,qubits,backend", [
        ("rqc", 28, "sparse"), ("iqp", 31, "mps"),
    ])
    def test_plan_forced_backend_beyond_the_dense_limit(
        self, family, qubits, backend, capsys
    ) -> None:
        assert main(["plan", "--family", family, "--qubits", str(qubits),
                     "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert f"-> chosen: {backend}, precision double" in out
        assert f"backend {backend} forced by config" in out

    def test_trace_writes_json(self, tmp_path, capsys) -> None:
        output = tmp_path / "trace.json"
        assert main(["trace", "--family", "gs", "--qubits", "33",
                     "--output", str(output)]) == 0
        assert output.exists()
        import json

        payload = json.loads(output.read_text())
        assert payload["traceEvents"]

    def test_trace_with_nothing_streaming(self, tmp_path, capsys) -> None:
        output = tmp_path / "trace.json"
        assert main(["trace", "--family", "gs", "--qubits", "20",
                     "--output", str(output)]) == 0
        assert "no trace written" in capsys.readouterr().out
        assert not output.exists()


class TestReliability:
    def test_simulate_with_fault_plan_reports_recovery(self, capsys) -> None:
        assert main(["simulate", "--family", "qft", "--qubits", "7",
                     "--fault-plan", "seed=42,transfer=0.1"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "retries spent" in out

    def test_simulate_checkpoint_then_resume(self, tmp_path, capsys) -> None:
        ckpt = tmp_path / "run.qgck"
        assert main(["simulate", "--family", "qft", "--qubits", "7",
                     "--checkpoint-every", "5", "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        assert main(["simulate", "--family", "qft", "--qubits", "7",
                     "--resume", str(ckpt)]) == 0
        assert "resumed from gate" in capsys.readouterr().out

    def test_reliability_command_passes_bit_identity(self, capsys) -> None:
        assert main(["reliability", "--family", "qft", "--qubits", "7",
                     "--fault-plan", "seed=7,transfer=0.08"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to fault-free run: True" in out
        assert "final state bit-identical: True" in out
        assert "modelled" not in out  # the timed model prices no faults

    def test_reliability_default_plan_exercises_every_in_run_kind(
        self, capsys
    ) -> None:
        assert main(["reliability", "--family", "qft", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert ("fault plan: seed 7, transfer faults 5.0%, codec faults 5.0%, "
                "1 OOM alloc failure(s)") in out
        assert "chunk size degraded" in out
        assert "compression disabled" in out
        assert out.count("bit-identical") == 2 and "False" not in out

    def test_reliability_rejects_bad_plan_spec(self, capsys) -> None:
        assert main(["reliability", "--family", "bv", "--qubits", "6",
                     "--fault-plan", "transfer=lots"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_the_retired_degrade_key(self, capsys) -> None:
        assert main(["simulate", "--family", "bv", "--qubits", "6",
                     "--fault-plan", "degrade=0.1"]) == 1
        err = capsys.readouterr().err
        assert "error: bad fault-plan clause 'degrade=0.1'" in err
        assert "keys: ['codec', 'oom', 'seed', 'transfer']" in err

    def test_checkpoint_every_without_path_errors(self, capsys) -> None:
        assert main(["simulate", "--family", "bv", "--qubits", "6",
                     "--checkpoint-every", "3"]) == 1
        assert "checkpoint_path" in capsys.readouterr().err


class TestFingerprintFlag:
    def test_transpile_fingerprint(self, capsys) -> None:
        assert main(["transpile", "--family", "gs", "--qubits", "4",
                     "--fingerprint"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 2  # original + transpiled
        for line in lines:
            digest = line.split()[0]
            assert len(digest) == 64
            int(digest, 16)  # hex sha256

    def test_fingerprint_suppresses_qasm(self, capsys) -> None:
        assert main(["transpile", "--family", "gs", "--qubits", "4",
                     "--fingerprint"]) == 0
        assert "OPENQASM" not in capsys.readouterr().out


class TestServeBatch:
    def test_manifest_run_writes_metrics(self, tmp_path, capsys) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"family": "bv", "qubits": 6, "shots": 10, "copies": 2},
            {"family": "gs", "qubits": 6},
        ]}))
        metrics = tmp_path / "metrics.json"
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "2", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "3 submitted" in out
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["jobs_succeeded"] == 3
        assert snap["cache"]["hits"] == 1

    def test_deterministic_metrics_reproducible(self, tmp_path) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6, "shots": 5, "copies": 2},
        ]))
        exports = []
        for run in range(2):
            metrics = tmp_path / f"metrics{run}.json"
            assert main(["serve-batch", "--manifest", str(manifest),
                         "--workers", "1", "--seed", "3",
                         "--metrics", str(metrics)]) == 0
            exports.append(metrics.read_bytes())
        assert exports[0] == exports[1]

    def test_failed_job_sets_exit_code(self, tmp_path, capsys) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6, "fault_plan": "seed=3,transfer=1.0"},
        ]))
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--sim-recovery", "strict", "--max-attempts", "2"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_requires_manifest_or_journal(self) -> None:
        with pytest.raises(SystemExit):
            main(["serve-batch"])

    def test_cache_budget_defaults_to_the_library_default(self, tmp_path) -> None:
        import json

        from repro.service import DEFAULT_CACHE_BUDGET

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"family": "bv", "qubits": 6}]))
        metrics = tmp_path / "metrics.json"
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "1", "--metrics", str(metrics)]) == 0
        config = json.loads(metrics.read_text())["config"]
        assert config["cache_budget_bytes"] == DEFAULT_CACHE_BUDGET

    def test_journal_survives_compact_and_status(self, tmp_path, capsys) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6, "shots": 5, "copies": 2},
        ]))
        journal = tmp_path / "jobs.jsonl"
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "2", "--journal", str(journal)]) == 0
        assert main(["compact", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["status", "--journal", str(journal)]) == 0
        assert capsys.readouterr().out.count("SUCCEEDED") == 2

    def test_explicit_cache_mb_is_decimal_megabytes(self, tmp_path) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"family": "bv", "qubits": 6}]))
        metrics = tmp_path / "metrics.json"
        assert main(["serve-batch", "--manifest", str(manifest), "--workers", "1",
                     "--cache-mb", "2", "--metrics", str(metrics)]) == 0
        config = json.loads(metrics.read_text())["config"]
        assert config["cache_budget_bytes"] == 2_000_000

    def test_manifest_with_journal_runs_the_journals_pending_jobs(
        self, tmp_path, capsys
    ) -> None:
        import json

        journal = str(tmp_path / "jobs.jsonl")
        assert main(["submit", "--family", "gs", "--qubits", "6",
                     "--journal", journal]) == 0
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"family": "bv", "qubits": 6}]))
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "1", "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert out.count("SUCCEEDED") == 2
        assert "PENDING" not in out

    def test_manifest_with_journal_recovers_a_crashed_serve(
        self, tmp_path, capsys
    ) -> None:
        import json

        from repro.service import BatchService, JobSpec, JobState, JobStore
        from tests.service.chaos_journal import ChaosJournal, SimulatedCrash

        path = tmp_path / "jobs.jsonl"
        crashed = ChaosJournal(path)
        service = BatchService(workers=1, journal=crashed)
        service.submit(JobSpec(family="gs", qubits=6))
        crashed.arm_kill(3)  # ADMITTED, RUNNING, then die before SUCCEEDED
        with pytest.raises(SimulatedCrash):
            service.run_until_complete()
        assert JobStore(path).get("j0001").state is JobState.RUNNING

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"family": "bv", "qubits": 6}]))
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "1", "--journal", str(path)]) == 0
        jobs = JobStore(path).load()
        assert sorted(jobs) == ["j0001", "j0002"]
        assert all(job.state is JobState.SUCCEEDED for job in jobs.values())

    def test_serving_a_manifest_twice_hits_its_recovered_results(
        self, tmp_path
    ) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6}, {"family": "gs", "qubits": 6},
        ]))
        journal = str(tmp_path / "jobs.jsonl")
        metrics = tmp_path / "metrics.json"
        for _ in range(2):
            assert main(["serve-batch", "--manifest", str(manifest),
                         "--workers", "1", "--journal", journal,
                         "--metrics", str(metrics)]) == 0
        # The second serve seeds its cache from the journal's results, so
        # resubmitting the same manifest recomputes nothing.
        cache = json.loads(metrics.read_text())["cache"]
        assert (cache["hits"], cache["misses"]) == (2, 0)


class TestRetiredSurface:
    """Options and commands that the service, CLI and observability censuses retired.

    DESIGN.md's censuses record each with a re-open condition; these pin
    that the parser no longer accepts them.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--manifest", "jobs.json"],
            ["serve-batch", "--manifest", "jobs.json", "--http-port", "0"],
            ["serve-batch", "--manifest", "jobs.json", "--http-host", "127.0.0.1"],
            ["serve-batch", "--manifest", "jobs.json", "--http-linger", "1"],
            ["serve-batch", "--manifest", "jobs.json", "--memory-budget-gb", "1"],
            ["trace", "analyze", "trace.json", "--prom", "fleet.prom"],
            ["simulate", "--family", "bv", "--qubits", "4", "--profile"],
            ["simulate", "--family", "bv", "--qubits", "4", "--memory"],
            ["transpile", "--family", "bv", "--qubits", "4", "--profile"],
            ["transpile", "--family", "bv", "--qubits", "4", "--memory"],
            ["reliability", "--family", "bv", "--qubits", "4", "--machine", "p100"],
            ["plan", "--family", "bv", "--qubits", "4", "--max-bond", "8"],
        ],
        ids=["chaos", "http-port", "http-host", "http-linger",
             "memory-budget-gb", "prom", "simulate-profile", "simulate-memory",
             "transpile-profile", "transpile-memory", "reliability-machine",
             "plan-max-bond"],
    )
    def test_parser_rejects(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_census_lists_every_command_and_keeps_only_parsed_ones(self) -> None:
        import argparse
        import re

        from repro.cli import build_parser

        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        commands = set(sub.choices)
        design = ROOT / "DESIGN.md"
        section = design.read_text().split("### Service and CLI census", 1)[1]
        section = section.split("\n## ", 1)[0]
        decisions: dict[str, str] = {}
        for row in section.splitlines():
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            if len(cells) != 5:
                continue
            # A row names a command as a code span of plain words
            # (`serve-batch`, `bench ledger`); spans with options name one
            # of the command's features instead.
            for span in re.findall(r"`([^`]+)`", cells[0]):
                words = span.split()
                if not any(word.startswith("-") for word in words):
                    decisions.setdefault(words[0], cells[3])
        assert commands <= set(decisions), sorted(commands - set(decisions))
        for name in commands:
            assert decisions[name].startswith("keep"), (name, decisions[name])
        assert decisions["chaos"].startswith("retired")
        assert "chaos" not in commands

    def test_observability_census_has_a_row_per_obs_module(self) -> None:
        import re

        import repro.obs

        package = Path(repro.obs.__file__).parent
        modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
        design = ROOT / "DESIGN.md"
        section = design.read_text().split("### Observability census", 1)[1]
        section = section.split("\n#", 1)[0]
        decisions: dict[str, str] = {}
        for row in section.splitlines():
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            if len(cells) != 5:
                continue
            for module in re.findall(r"`obs/(\w+)\.py`", cells[0]):
                decisions.setdefault(module, cells[3])
        assert modules <= set(decisions), sorted(modules - set(decisions))
        for module, decision in decisions.items():
            expected = "keep" if module in modules else "retired"
            assert decision.startswith(expected), (module, decision)
        assert {"profile", "hist"} <= set(decisions) - modules

    def test_reliability_census_has_a_row_per_fault_kind(self) -> None:
        import re

        from repro.reliability import FaultKind

        kinds = {kind.value for kind in FaultKind}
        design = ROOT / "DESIGN.md"
        section = design.read_text().split("### Reliability census", 1)[1]
        section = section.split("\n#", 1)[0]
        decisions: dict[str, str] = {}
        for row in section.splitlines():
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            if len(cells) != 5:
                continue
            for name in re.findall(r"`([a-z_]+)`", cells[0]):
                decisions.setdefault(name, cells[3])
        assert kinds <= set(decisions), sorted(kinds - set(decisions))
        for kind in kinds:
            assert decisions[kind].startswith("keep"), (kind, decisions[kind])
        retired = {"link_degrade", "journal_torn_write"}
        assert not retired & kinds
        for name in retired:
            assert decisions.get(name, "").startswith("retired"), name

    def test_planner_census_keeps_exact_mps_and_retires_the_approximate_tier(
        self,
    ) -> None:
        section = (ROOT / "DESIGN.md").read_text().split("### Planner census", 1)[1]
        section = section.split("\n#", 1)[0]
        decisions: dict[str, str] = {}
        for row in section.splitlines():
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            if len(cells) == 5:
                decisions[cells[0]] = cells[3]
        exact = next(d for f, d in decisions.items() if f.startswith("exact forced MPS"))
        assert exact.startswith("keep")
        retired = next(
            d for f, d in decisions.items()
            if all(name in f for name in ("bond cap", "`truncation_error`", "`approximate`"))
        )
        assert retired.startswith("retired")

    @pytest.mark.parametrize(
        "doc",
        ["README.md", *sorted(path.name for path in (ROOT / "docs").glob("*.md"))],
    )
    def test_user_docs_name_no_retired_observability_feature(self, doc) -> None:
        import re

        path = ROOT / doc if doc == "README.md" else ROOT / "docs" / doc
        retired = re.compile(
            r"--(?:profile|memory)\b(?!-)|Tracer\((?:histograms|memory|profiler)="
            r"|SamplingProfiler|flamegraph|histogram_snapshot|span_peak_bytes"
            r"|span_alloc_bytes|process_(?:peak_)?rss_bytes|span_seconds|chunk_bytes"
            r"|fused_slab_width|job_(?:wait|latency)_seconds"
        )
        hits = [
            f"{doc}:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if retired.search(line)
        ]
        assert not hits, hits


class TestBenchLedger:
    #: The committed ledger record predates the retirement of the
    #: ``BENCH_service.json`` source and still holds a ``service`` entry.
    LEDGER = Path(__file__).resolve().parents[1] / "BENCH_LEDGER.jsonl"

    def test_show_renders_the_committed_record(self, capsys) -> None:
        assert main(["bench", "ledger", "show", "--ledger", str(self.LEDGER)]) == 0
        out = capsys.readouterr().out
        assert "service" in out
        assert "1 record(s)" in out

    def test_diff_runs_on_the_committed_record(self, tmp_path, capsys) -> None:
        assert main(["bench", "ledger", "diff", "--ledger", str(self.LEDGER)]) == 0
        assert "nothing to compare" in capsys.readouterr().out
        # Against itself, every bench of the record - service included -
        # is compared and nothing regresses.
        twice = tmp_path / "ledger.jsonl"
        twice.write_text(self.LEDGER.read_text() * 2)
        assert main(["bench", "ledger", "diff", "--ledger", str(twice)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out


class TestObservability:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys) -> None:
        import json

        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.json"
        assert main(["simulate", "--family", "bv", "--qubits", "8",
                     "--workers", "1", "--trace", str(trace),
                     "--trace-clock", "logical", "--metrics", str(metrics)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["runs.completed"] == 1
        assert snap["counters"]["chunk_updates.total"] > 0

    def test_simulate_trace_deterministic_across_runs(self, tmp_path) -> None:
        blobs = []
        for run in range(2):
            trace = tmp_path / f"t{run}.json"
            assert main(["simulate", "--family", "qft", "--qubits", "7",
                         "--workers", "1", "--trace", str(trace),
                         "--trace-clock", "logical"]) == 0
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]

    def test_trace_summary_renders_breakdown(self, tmp_path, capsys) -> None:
        trace = tmp_path / "run.trace.json"
        assert main(["simulate", "--family", "bv", "--qubits", "8",
                     "--workers", "1", "--trace", str(trace),
                     "--trace-clock", "logical"]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        for stage in ("h2d", "compute", "codec", "d2h"):
            assert stage in out
        assert "wall total" in out
        assert "ticks" in out  # logical clock detected from metadata

    def test_trace_summary_of_des_export(self, tmp_path, capsys) -> None:
        trace = tmp_path / "des.json"
        assert main(["trace", "--family", "gs", "--qubits", "33",
                     "--output", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "compute" in out
        assert "us total" in out

    def test_trace_validate_accepts_good_trace(self, tmp_path, capsys) -> None:
        trace = tmp_path / "run.trace.json"
        assert main(["simulate", "--family", "bv", "--qubits", "8",
                     "--workers", "2", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_trace_summary_missing_file_errors(self, tmp_path, capsys) -> None:
        assert main(["trace", "summary", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_analysis_requires_file(self) -> None:
        with pytest.raises(SystemExit):
            main(["trace", "summary"])

    def test_serve_batch_trace_deterministic(self, tmp_path) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6, "shots": 5, "copies": 2},
        ]))
        blobs = []
        for run in range(2):
            trace = tmp_path / f"svc{run}.json"
            assert main(["serve-batch", "--manifest", str(manifest),
                         "--workers", "1", "--trace", str(trace)]) == 0
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]

    def test_serve_batch_metrics_include_sim_stats(self, tmp_path) -> None:
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([
            {"family": "bv", "qubits": 6, "shots": 5},
        ]))
        metrics = tmp_path / "metrics.json"
        assert main(["serve-batch", "--manifest", str(manifest),
                     "--workers", "1", "--metrics", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["jobs_succeeded"] == 1
        assert counters["sim.chunk_updates_total"] > 0

    def test_transpile_trace_counts_passes(self, tmp_path, capsys) -> None:
        import json

        metrics = tmp_path / "transpile.metrics.json"
        assert main(["transpile", "--family", "gs", "--qubits", "4",
                     "--metrics", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["transpile.passes"] >= 1
        assert counters["transpile.gates_out"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--family", "bv", "--qubits", "6", "--workers", "1"],
            ["simulate", "--family", "qft", "--qubits", "6", "--workers", "1",
             "--trace", "{dir}/run.trace.json", "--trace-clock", "logical"],
            ["transpile", "--family", "gs", "--qubits", "4"],
        ],
        ids=["simulate", "simulate-traced", "transpile"],
    )
    def test_metrics_export_holds_only_counters(self, argv, tmp_path, capsys) -> None:
        import json

        metrics = tmp_path / "run.metrics.json"
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main([*argv, "--metrics", str(metrics)]) == 0
        snap = json.loads(metrics.read_text())
        assert list(snap) == ["counters"]
        assert snap["counters"]

    def test_log_flags_accepted(self, capsys) -> None:
        assert main(["--log-level", "info", "--log-format", "json",
                     "simulate", "--family", "bv", "--qubits", "6"]) == 0
        assert "pruned chunk updates" in capsys.readouterr().out


class TestJournalCommands:
    def test_submit_status_serve_cancel_flow(self, tmp_path, capsys) -> None:
        journal = str(tmp_path / "jobs.jsonl")
        assert main(["submit", "--family", "bv", "--qubits", "6",
                     "--shots", "10", "--journal", journal]) == 0
        assert "j0001" in capsys.readouterr().out
        assert main(["submit", "--family", "gs", "--qubits", "6",
                     "--journal", journal]) == 0
        capsys.readouterr()

        assert main(["cancel", "j0002", "--journal", journal]) == 0
        capsys.readouterr()

        assert main(["serve-batch", "--journal", journal]) == 0
        capsys.readouterr()

        assert main(["status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "SUCCEEDED" in out
        assert "CANCELLED" in out

    def test_status_single_job(self, tmp_path, capsys) -> None:
        journal = str(tmp_path / "jobs.jsonl")
        main(["submit", "--family", "bv", "--qubits", "6",
              "--journal", journal])
        capsys.readouterr()
        assert main(["status", "--journal", journal, "--job", "j0001"]) == 0
        assert "PENDING" in capsys.readouterr().out

    def test_status_unknown_job_errors(self, tmp_path, capsys) -> None:
        journal = str(tmp_path / "jobs.jsonl")
        main(["submit", "--family", "bv", "--qubits", "6",
              "--journal", journal])
        capsys.readouterr()
        assert main(["status", "--journal", journal, "--job", "j0042"]) == 1

    def test_cancel_terminal_job_errors(self, tmp_path, capsys) -> None:
        journal = str(tmp_path / "jobs.jsonl")
        main(["submit", "--family", "bv", "--qubits", "6",
              "--journal", journal])
        main(["serve-batch", "--journal", journal])
        capsys.readouterr()
        assert main(["cancel", "j0001", "--journal", journal]) == 1


class TestTraceAnalytics:
    def _traced_run(self, tmp_path) -> str:
        trace = tmp_path / "run.trace.json"
        assert main(["simulate", "--family", "bv", "--qubits", "10",
                     "--workers", "1", "--trace", str(trace),
                     "--trace-clock", "logical"]) == 0
        return str(trace)

    def test_trace_analyze_renders_and_writes_json(self, tmp_path, capsys) -> None:
        import json

        trace = self._traced_run(tmp_path)
        out_json = tmp_path / "analysis.json"
        capsys.readouterr()
        assert main(["trace", "analyze", trace, "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "bottlenecks" in out
        payload = json.loads(out_json.read_text())
        assert payload["span_count"] > 0
        assert payload["critical_path"]["duration"] > 0

    def test_trace_critical_path_overlap_run(self, tmp_path, capsys) -> None:
        import json

        trace = tmp_path / "overlap.json"
        assert main(["trace", "--family", "bv", "--qubits", "32",
                     "--version", "Overlap", "--gates", "8",
                     "--output", str(trace)]) == 0
        out_json = tmp_path / "critical.json"
        capsys.readouterr()
        assert main(["trace", "critical-path", str(trace),
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "overlap efficiency" in out
        payload = json.loads(out_json.read_text())
        # The acceptance criteria: efficiency in (0, 1] and the critical
        # path's stage totals tile the root duration within 1%.
        efficiency = payload["overlap"]["efficiency"]
        assert efficiency is not None and 0.0 < efficiency <= 1.0
        path = payload["critical_path"]
        coverage = sum(path["stage_totals"].values()) / path["duration"]
        assert abs(coverage - 1.0) < 0.01

    def test_trace_drift_gate_passes_on_stream_trace(self, tmp_path, capsys) -> None:
        import json

        trace = tmp_path / "overlap.json"
        assert main(["trace", "--family", "bv", "--qubits", "32",
                     "--version", "Overlap", "--gates", "8",
                     "--output", str(trace)]) == 0
        report = tmp_path / "drift.json"
        capsys.readouterr()
        assert main(["trace", "drift", str(trace), "--family", "bv",
                     "--qubits", "32", "--version", "Overlap",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["max_drift"] <= payload["tolerance"]

    def test_trace_drift_fails_on_mismatched_trace(self, tmp_path, capsys) -> None:
        # A functional bv_10 trace is ~all compute; the bv_32 model is
        # transfer-dominated, so the gate must fail.
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["trace", "drift", trace, "--family", "bv",
                     "--qubits", "32", "--version", "Overlap"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_trace_drift_requires_circuit(self, tmp_path) -> None:
        trace = self._traced_run(tmp_path)
        with pytest.raises(SystemExit):
            main(["trace", "drift", trace])

    def test_trace_critical_path_empty_trace(self, tmp_path, capsys) -> None:
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}\n')
        assert main(["trace", "critical-path", str(path)]) == 0
        captured = capsys.readouterr()
        assert "empty trace" in captured.out
        assert "no spans" in captured.err


class TestFleetCli:
    def _fleet_trace(self, tmp_path) -> str:
        trace = tmp_path / "fleet.trace.json"
        assert main(["trace", "--devices", "4", "--family", "qft",
                     "--qubits", "20", "--version", "Overlap",
                     "--machine", "multi_v100", "--output", str(trace)]) == 0
        return str(trace)

    def test_export_devices_writes_device_lanes(self, tmp_path, capsys) -> None:
        import json

        trace = self._fleet_trace(tmp_path)
        out = capsys.readouterr().out
        assert "4 device(s)" in out
        assert "bytes transferred" in out
        events = json.loads(Path(trace).read_text())["traceEvents"]
        lanes = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name"
        }
        assert {"gpu0:h2d", "gpu3:d2h"} <= lanes
        devices = {
            e["args"]["device"]
            for e in events
            if e.get("name") == "thread_name" and "device" in e.get("args", {})
        }
        assert devices == {"gpu0", "gpu1", "gpu2", "gpu3"}

    def test_export_is_byte_identical_across_runs(self, tmp_path) -> None:
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = self._fleet_trace(tmp_path / "a")
        b = self._fleet_trace(tmp_path / "b")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_analyze_fleet_reports_comm_identity(self, tmp_path, capsys) -> None:
        import json

        trace = self._fleet_trace(tmp_path)
        capsys.readouterr()
        out_json = tmp_path / "fleet.json"
        assert main(["trace", "analyze", trace, "--fleet",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "imbalance" in out
        assert "gpu0" in out and "gpu3" in out

        # The CLI-reported transfer total at export time must equal the
        # comm-matrix total the analyzer reconstructs from the trace.
        payload = json.loads(out_json.read_text())
        fleet = payload["fleet"]
        matrix_total = sum(
            moved
            for row in fleet["comm_matrix"].values()
            for moved in row.values()
        )
        assert matrix_total == fleet["total_bytes"]
        assert len(fleet["devices"]) == 4

    def test_analyze_without_fleet_flag_omits_report(self, tmp_path, capsys) -> None:
        import json

        trace = self._fleet_trace(tmp_path)
        out_json = tmp_path / "plain.json"
        capsys.readouterr()
        assert main(["trace", "analyze", trace,
                     "--json", str(out_json)]) == 0
        assert "imbalance" not in capsys.readouterr().out
        assert "fleet" not in json.loads(out_json.read_text())
