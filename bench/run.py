"""The repository's benchmark: six request-level workloads, timed end to end.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Each workload runs in fresh subprocesses (``worker.py``).  Without
``--trace`` a run sets up three times, repeats whole passes for
``--seconds`` with span recording off, checks every output against the
oracle and prints the end-to-end metrics.  With ``--trace`` it runs one
untraced and one traced pass, calls single layers standalone, prints every
per-layer metric and writes the spans to ``bench/out/trace_<workload>.json``.

The last line printed for a workload is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
appends the full record, one JSON object per line, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from stats import TAIL_SAMPLES, median, percentile, samples_beyond, summary
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170
#: glibc malloc settings of every worker: serve every size from the heap and
#: never give the heap back.  By default an array above 32 MiB is mmap'd and
#: unmapped on free; on the VM the bounds were fixed on, freed blocks of 8 MiB
#: and more are handed back to the hypervisor (free page reporting) and
#: touching such memory again costs 0.3-0.5 s per 64 MiB, at random: passes
#: of ``dense_pruned`` read 1.1 s or 1.6 s.  With the heap kept, they read
#: 2.1 s +- 2 % (two cores awake, see ``worker.wake_cores``).
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 35)}


def spawn_worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    env = dict(os.environ, **MALLOC_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def machine_fingerprint() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    setups = [
        spawn_worker(workload, seed, seconds, "setup")["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    worker = spawn_worker(workload, seed, seconds, "timed")
    setups.append(worker["setup_s"])
    passes = worker["passes"]
    per_pass = [p["wall_s"] / len(p["latencies_s"]) for p in passes]
    # One latency per request of the list: the median, over the passes, of
    # the time that request took.  The percentiles then describe how requests
    # differ, not how one request's time jitters from pass to pass.
    latencies = [median(slot) for slot in zip(*(p["latencies_s"] for p in passes))]
    values = {
        "setup_s": median(setups),
        "request_s": median(per_pass),
        "request_p50_s": median(latencies),
        "request_p90_s": percentile(latencies, 90),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "attempted": worker["attempted"],
        "failures": worker["failures"],
        "metrics": {m.name: _value(values[m.name], m.unit) for m in END_TO_END},
        "details": {
            "setup_s": summary(setups),
            "request_s": summary(per_pass),
            "latency_s": summary(latencies),
            "beyond_p90": samples_beyond(len(latencies), 90),
            "oracle_s": worker["oracle_s"],
        },
    }


def run_traced(workload: str, seed: int) -> dict:
    # One untraced pass in its own process, then the traced one: both start
    # equally cold, so their ratio is the cost of recording spans.
    plain = spawn_worker(workload, seed, 0.0, "timed")
    traced = spawn_worker(workload, seed, 0.0, "traced")
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_ratio"] = (
        traced["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"]
    )
    layers["bench.oracle_s"] = traced["oracle_s"]
    known = {m.name for m in PER_LAYER}
    unknown = sorted(set(layers) - known)
    if unknown:
        raise RuntimeError(f"worker reported unregistered layer metrics: {unknown}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "attempted": plain["attempted"] + traced["attempted"],
        "failures": plain["failures"] + traced["failures"],
        # A layer the workload never calls was busy for 0 s, 0 times.
        "metrics": {m.name: _value(layers.get(m.name, 0.0), m.unit) for m in PER_LAYER},
        "details": {"trace_file": f"bench/out/trace_{workload}.json"},
    }


def report(record: dict) -> None:
    workload = record["workload"]
    attempted, failed = record["attempted"], len(record["failures"])
    print(f"== {workload} (seed {record['seed']}, trace {record['trace']}) ==")
    for name, metric in record["metrics"].items():
        if record["trace"] and metric["value"] == 0:
            continue  # layer not called by this workload
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    if not record["trace"]:
        d = record["details"]
        per_pass, lat = d["request_s"], d["latency_s"]
        print(f"  request_s: median of {per_pass['n']} passes of {lat['n']} requests, "
              f"min {per_pass['min']:.6g} max {per_pass['max']:.6g}")
        print(f"  latency: {lat['n']} requests (each the median of its passes), "
              f"min {lat['min']:.6g} max {lat['max']:.6g}, {d['beyond_p90']} beyond p90"
              f"{'' if d['beyond_p90'] >= TAIL_SAMPLES else ' (fewer than ten: not a resolved tail)'}")
        print(f"  setup_s: median of {d['setup_s']['n']}, min {d['setup_s']['min']:.6g} "
              f"max {d['setup_s']['max']:.6g}; oracle took {d['oracle_s']:.3f} s")
        request_s = record["metrics"]["request_s"]["value"]
        alias = {
            "small_cli": f"cli_request_s = {request_s:.6g} s",
            "small_batch": f"batch_jobs_per_s = {1 / request_s:.6g} 1/s",
            "paper_figures": f"figures_s = {request_s * lat['n']:.6g} s",
        }.get(workload)
        if alias:
            print(f"  {alias}")
    else:
        print(f"  spans written to {record['details']['trace_file']}")
    print(f"  failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": not record["failures"],
            "attempted": record["attempted"],
            "failed": len(record["failures"]),
            "metrics": record["metrics"],
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="append one JSON record per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; nothing to benchmark",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    fingerprint = machine_fingerprint()
    for name in names:
        if args.trace:
            record = run_traced(name, args.seed)
        else:
            record = run_timed(name, args.seed, args.seconds)
        record["machine"] = fingerprint
        report(record)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with args.out.open("a") as handle:
                handle.write(json.dumps(record) + "\n")
        print(contract_line(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
