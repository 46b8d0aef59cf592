"""CI gate: fail when the chunk-engine speedups regress past tolerance.

Compares the *dimensionless speedup ratios* in a fresh ``BENCH_kernels.json``
(produced by ``benchmarks/test_chunk_engine.py``) against the committed
baseline for the same mode in ``benchmarks/baselines/``.  Ratios - the sweep
over legacy on identical work in the same process - are what stays
comparable across hosts; absolute Mamp/s depends on the machine and would
gate on hardware, not code.

A case regresses when its current speedup falls below ``(1 - tolerance)``
of the baseline speedup (default tolerance 20%).  Improvements never fail.

Usage::

    python benchmarks/check_kernel_regression.py [RESULTS] [--tolerance 0.2]

exits 0 when every case is within tolerance, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "baselines"

#: Ratio metrics gated per case (higher is better).  ``serial`` is the
#: sweep on the calling thread - what every run below the engine's floor
#: executes - and ``parallel`` the same sweep through the worker engine;
#: both are gated against the per-chunk legacy path.  The ``fused_*``
#: cases gate the fusion pass itself (one slab sweep vs gate-by-gate
#: legacy sweeps) and ``pruned_sweep`` a strided 1/16-live view.
_BOTH = ("parallel_speedup", "serial_speedup")
GATED_METRICS: dict[str, tuple[str, ...]] = {
    "cross_chunk_h": _BOTH,
    "diagonal_rz": _BOTH,
    "inside_h": _BOTH,
    "fused_diag": _BOTH,
    "fused_dense": _BOTH,
    "pruned_sweep": _BOTH,
}


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as error:
        sys.exit(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        sys.exit(f"{path}: not valid JSON ({error})")


def run_gate(
    results_path: Path,
    baseline_path: Path | None = None,
    tolerance: float = 0.2,
) -> dict:
    """Evaluate the gate; returns a structured verdict (no printing).

    The verdict dict is what ``--json`` writes and what
    ``check_bench_regression.py`` aggregates: ``gate``/``mode``/
    ``passed`` plus one entry per gated metric under ``checks`` (case,
    metric, baseline, current, floor, ratio, passed).
    """
    current = load(Path(results_path))
    mode = current.get("mode", "full")
    baseline_path = (
        Path(baseline_path)
        if baseline_path
        else BASELINE_DIR / f"BENCH_kernels_baseline_{mode}.json"
    )
    baseline = load(baseline_path)
    if baseline.get("mode", "full") != mode:
        sys.exit(
            f"mode mismatch: results are {mode!r} but baseline "
            f"{baseline_path} is {baseline.get('mode')!r}"
        )
    checks: list[dict] = []
    failures: list[str] = []
    for case, metrics in sorted(GATED_METRICS.items()):
        base_row = baseline["results"].get(case)
        row = current["results"].get(case)
        if base_row is None:
            failures.append(f"case {case!r} missing from baseline")
            continue
        if row is None:
            failures.append(f"case {case!r} missing from current results")
            continue
        for metric in metrics:
            base_value = base_row[metric]
            value = row[metric]
            floor = base_value * (1.0 - tolerance)
            passed = value >= floor
            checks.append(
                {
                    "case": case,
                    "metric": metric,
                    "baseline": base_value,
                    "current": value,
                    "floor": floor,
                    "ratio": value / base_value if base_value else None,
                    "passed": passed,
                }
            )
            if not passed:
                failures.append(
                    f"{case}.{metric}: {value:.2f} < floor {floor:.2f} "
                    f"(baseline {base_value:.2f})"
                )
    return {
        "gate": "kernels",
        "mode": mode,
        "tolerance": tolerance,
        "results": str(results_path),
        "baseline": str(baseline_path),
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        nargs="?",
        default="BENCH_kernels.json",
        help="fresh benchmark output (default: ./BENCH_kernels.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: benchmarks/baselines/ for the run's mode)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop below the baseline speedup (default 0.2)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the structured verdict (gate, checks, pass/fail) here",
    )
    args = parser.parse_args(argv)

    verdict = run_gate(args.results, args.baseline, args.tolerance)
    print(f"kernel regression gate ({verdict['mode']} mode, "
          f"tolerance {args.tolerance:.0%})")
    print(f"{'case':<18} {'metric':<18} {'baseline':>9} {'current':>9} {'floor':>7}")
    for check in verdict["checks"]:
        flag = "" if check["passed"] else "  REGRESSION"
        print(
            f"{check['case']:<18} {check['metric']:<18} "
            f"{check['baseline']:>9.2f} {check['current']:>9.2f} "
            f"{check['floor']:>7.2f}{flag}"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(verdict, sort_keys=True, indent=1) + "\n"
        )
    if verdict["failures"]:
        print(f"\n{len(verdict['failures'])} regression(s):", file=sys.stderr)
        for failure in verdict["failures"]:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
