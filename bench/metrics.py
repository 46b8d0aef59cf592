"""Every metric the benchmark reports, by name.

``BENCHMARK.json`` lists the same names with unit and direction (a harness
test keeps the two in step); what it has no room for lives here: the
regression bound's reason, which counts are *exact* (they must repeat
bit-for-bit between two runs on one seed), and - written down before any
measurement - which end-to-end metric, on which workload, a layer metric
should move.  On every other workload the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import DENSE_CIRCUITS, SMALL_FAMILIES, WORKLOADS

RUN_SECONDS = 12


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float | None = None
    #: A count that must be identical on two runs of one seed.
    exact: bool = False
    #: "<end-to-end metric> on <workload>" this layer metric should move.
    moves: str = ""


END_TO_END = (
    # process start -> first timed request ready: imports, QASM generation,
    # one warm-up request.  Median of three set-ups per run.
    Metric("setup_s", "s", "lower", bound=0.25),
    # wall time of one pass / requests in it; median over the run's passes.
    # On small_cli this is ISSUE 11's cli_request_s, on small_batch the
    # inverse of its batch_jobs_per_s, on paper_figures its figures_s / 18.
    # The bound is what the box allows: over ten back-to-back runs the dense
    # workloads drift by 5-7 % (quartile spread) with the machine's speed.
    Metric("request_s", "s", "lower", bound=0.20),
    # median and 90th percentile over the requests of the list, each request
    # taken as the median of its latencies over the run's passes.
    Metric("request_p50_s", "s", "lower", bound=0.20),
    Metric("request_p90_s", "s", "lower", bound=0.20),
    # ru_maxrss of the worker process when the last timed pass ends.  The
    # heap's high-water mark depends on the request order (dense_wide reads
    # 220-240 MB over ten seeds), hence the wide bound.
    Metric("peak_rss_mb", "MB", "lower", bound=0.25),
)

_DENSE_NAMES = [f"{f}_{w}" for circuits in DENSE_CIRCUITS.values() for f, w in circuits]
_EXPERIMENTS = (
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig19",
    "fig2", "fig3", "fig4", "fig6", "fig7", "fig9", "fleet", "tab2", "tab3",
)
_VERSIONS = ("baseline", "naive", "overlap", "pruning", "reorder", "qgpu")

_SMALL = "request_s on small_mixed, small_cli, small_batch"
_SMALL_TAIL = "request_s and request_p90_s on small_mixed; request_s on small_batch"
_WIDE = "request_s on dense_wide"
_PRUNED = "request_s on dense_pruned"
_CLI = "request_s on small_cli"
_BATCH = "request_s on small_batch"
_FIGURES = "request_s on paper_figures"
_NONE = "none: simulated statistic, must stay identical"
_LOOKING = "none: cost of looking"

PER_LAYER = (
    Metric("circuits.from_qasm_s", "s", "lower", moves=_SMALL),
    Metric("circuits.gates", "count", "lower", exact=True, moves=_SMALL),
    Metric("planner.plan_s", "s", "lower", moves=_SMALL_TAIL),
    Metric("planner.analyze_s", "s", "lower", moves=_SMALL_TAIL),
    Metric("planner.plan_share", "ratio", "lower", moves=_SMALL_TAIL),
    Metric("planner.selected.statevector", "count", "higher", exact=True, moves=_SMALL),
    Metric("planner.selected.stabilizer", "count", "higher", exact=True, moves=_SMALL),
    Metric("planner.selected.sparse", "count", "higher", exact=True, moves=_SMALL),
    Metric("planner.selected.mps", "count", "higher", exact=True, moves=_SMALL),
    Metric("planner.precision.single", "count", "higher", exact=True, moves=_SMALL),
    Metric("planner.run_backend_s.stabilizer", "s", "lower", moves=_SMALL_TAIL),
    Metric("planner.sample_s.stabilizer", "s", "lower", moves=_SMALL_TAIL),
    Metric("core.reorder_s", "s", "lower", moves=_WIDE),
    Metric("core.reorder_34q_s", "s", "lower", moves=_FIGURES),
    Metric("statevector.fuse_s", "s", "lower", moves=_WIDE),
    Metric("statevector.fusion.slabs", "count", "higher", exact=True, moves=_WIDE),
    Metric("statevector.fusion.sweeps", "count", "lower", exact=True, moves=_WIDE),
    *(
        Metric(f"statevector.run_{kind}_s.{name}", "s", "lower",
               moves=f"{_WIDE}; {_PRUNED} second")
        for kind in ("default", "serial")
        for name in _DENSE_NAMES
    ),
    Metric("statevector.parallel_ratio", "ratio", "higher", moves=_WIDE),
    Metric("statevector.sweep_s", "s", "lower", moves=_WIDE),
    Metric("statevector.gate_amps_per_s", "1/s", "higher", moves=_WIDE),
    Metric("statevector.computed_bytes", "bytes", "lower", exact=True, moves=_WIDE),
    Metric("core.pruning.updates_total", "count", "lower", exact=True, moves=_PRUNED),
    Metric("core.pruning.updates_skipped", "count", "higher", exact=True, moves=_PRUNED),
    Metric("core.pruning.pruned_fraction", "ratio", "higher", exact=True, moves=_PRUNED),
    Metric("statevector.readout_s", "s", "lower", moves=_PRUNED),
    Metric("statevector.sample_s", "s", "lower", moves=_PRUNED),
    Metric("cli.import_s", "s", "lower", moves=_CLI),
    Metric("cli.startup_s", "s", "lower", moves=_CLI),
    Metric("service.submit_s", "s", "lower", moves=_BATCH),
    Metric("service.estimate_cost_s", "s", "lower", moves=_BATCH),
    Metric("service.drain_s", "s", "lower", moves=_BATCH),
    Metric("service.cache.hits", "count", "higher", exact=True, moves=_BATCH),
    Metric("service.cache.misses", "count", "lower", exact=True, moves=_BATCH),
    Metric("service.cache.get_s", "s", "lower", moves=_BATCH),
    Metric("service.cache.put_s", "s", "lower", moves=_BATCH),
    Metric("service.store.append_s", "s", "lower", moves=_BATCH),
    Metric("service.store.bytes", "bytes", "lower", moves=_BATCH),
    Metric("service.store.replay_s", "s", "lower", moves=_BATCH),
    Metric("service.retries", "count", "lower", exact=True, moves=_BATCH),
    Metric("service.failed", "count", "lower", exact=True, moves=_BATCH),
    Metric("core.executor.execute_s", "s", "lower", moves=_FIGURES),
    Metric("core.executor.calls", "count", "lower", exact=True, moves=_FIGURES),
    Metric("core.detailed.execute_s", "s", "lower", moves=_FIGURES),
    Metric("hardware.events.count", "count", "lower", exact=True, moves=_FIGURES),
    Metric("hardware.events_per_s", "1/s", "higher", moves=_FIGURES),
    Metric("obs.fleet_spans_per_s", "1/s", "higher", moves=_FIGURES),
    Metric("obs.analyze_spans_per_s", "1/s", "higher", moves=_FIGURES),
    Metric("compression.gfc.compress_mb_per_s", "MB/s", "higher", moves=_FIGURES),
    Metric("compression.gfc.decompress_mb_per_s", "MB/s", "higher", moves=_FIGURES),
    *(
        Metric(f"compression.gfc.ratio.{family}", "ratio", "lower", exact=True, moves=_NONE)
        for family in SMALL_FAMILIES
    ),
    Metric("compression.profile.measure_s", "s", "lower", moves=_FIGURES),
    *(Metric(f"experiments.{i}_s", "s", "lower", moves=_FIGURES) for i in _EXPERIMENTS),
    *(
        Metric(f"sim.fig12.{v}_norm_34q", "ratio", "lower", exact=True, moves=_NONE)
        for v in _VERSIONS
    ),
    Metric("sim.fig12.qgpu_vs_paper", "ratio", "lower", exact=True, moves=_NONE),
    Metric("sim.fig13.transfer_bytes", "bytes", "lower", exact=True, moves=_NONE),
    Metric("sim.fig19.comm_bytes", "bytes", "lower", exact=True, moves=_NONE),
    Metric("sim.tables_digest48", "count", "lower", exact=True, moves=_NONE),
    Metric("obs.tracer_enabled_ratio", "ratio", "lower", moves=_LOOKING),
    Metric("bench.trace_overhead_ratio", "ratio", "lower", moves=_LOOKING),
    Metric("bench.oracle_s", "s", "lower", moves=_LOOKING),
)

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)
BOUNDS = {m.name: m.bound for m in END_TO_END}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
