"""The unified perf ledger: one history over every ``BENCH_*.json``.

The repo's benchmark artifacts - ``BENCH_kernels.json`` (chunk-engine
throughput), ``BENCH_planner.json`` (backend-selection accuracy/speedup),
``BENCH_obs.json`` (tracing overhead) and ``BENCH_fleet.json`` (fleet
scaling) - are one-shot snapshots: each CI
run overwrites the last, so there is no perf *trajectory* to raise the
committed baselines against.  The ledger fixes that with an append-only
``BENCH_LEDGER.jsonl``: every :func:`append_record` call flattens all
present BENCH files into one schema (dotted numeric leaves), stamps the
record with an **environment fingerprint** (CPU model, core count,
python, blas, platform) plus the git revision, and appends one JSON line.

Comparisons are *per fingerprint*: :func:`baseline_for` picks the most
recent earlier record with the same fingerprint id and bench mode, so a
laptop never gates against a CI runner's numbers.  :func:`diff_records`
then classifies each metric by a name-based direction heuristic
(``*seconds``/``*overhead*`` are lower-better, ``*speedup*``/
``*accuracy*``/``*mamps*`` higher-better, anything else informational)
and flags regressions beyond a tolerance - the ``repro bench ledger
diff`` command and ``benchmarks/check_bench_regression.py`` both run on
this.

Records are JSON-safe and canonical (sorted keys) so the ledger diffs
clean in review; the schema is versioned via the ``schema`` field.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ObservabilityError

#: Ledger record schema version.
SCHEMA = 1

#: The benches the ledger ingests, in canonical order: (name, filename).
BENCH_FILES: tuple[tuple[str, str], ...] = (
    ("kernels", "BENCH_kernels.json"),
    ("planner", "BENCH_planner.json"),
    ("obs", "BENCH_obs.json"),
    ("fleet", "BENCH_fleet.json"),
)

#: Default ledger filename at the repo root.
LEDGER_NAME = "BENCH_LEDGER.jsonl"

#: Substrings marking a metric where *lower* is better.
LOWER_BETTER = ("seconds", "overhead", "latency", "_wait", "p50", "p99")

#: Substrings marking a metric where *higher* is better.
HIGHER_BETTER = (
    "speedup", "accuracy", "mamps", "per_second", "hit_rate", "throughput",
)

#: List items are keyed by the first of these fields they carry (falling
#: back to the list index), so planner cases flatten to stable names.
_LIST_KEYS = ("circuit", "name", "case", "family", "policy", "id")


# -- environment fingerprint ---------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _blas_library() -> str:
    """Best-effort BLAS identification from numpy's build config."""
    try:
        import numpy as np

        config = getattr(np.__config__, "CONFIG", None)
        if isinstance(config, dict):  # numpy >= 1.26 structured config
            blas = config.get("Build Dependencies", {}).get("blas", {})
            name = blas.get("name")
            if name:
                return str(name)
        info = getattr(np.__config__, "blas_opt_info", None)
        if isinstance(info, dict) and info.get("libraries"):
            return ",".join(str(lib) for lib in info["libraries"])
    except Exception:
        pass
    return "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """The normalization key of a ledger record: where it was measured.

    Numbers from different fingerprints are never compared - a CI runner
    and a workstation have different roofs - which is the caveat
    ``docs/performance.md`` documents.
    """
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "blas": _blas_library(),
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def fingerprint_id(fingerprint: Mapping[str, Any]) -> str:
    """Short stable id of a fingerprint (12 hex chars of its sha256)."""
    canonical = json.dumps(dict(fingerprint), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:12]


def git_revision(root: str | Path = ".") -> str | None:
    """The repo's short HEAD revision, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


# -- flattening ----------------------------------------------------------------


def flatten_numeric(value: Any, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a JSON payload, under dotted keys.

    Dicts recurse by key; lists key their items by the first
    :data:`_LIST_KEYS` field present (index otherwise); booleans count as
    0/1 (so ``correct: true`` is a gateable 1.0); strings and nulls are
    dropped.  The result is the one flat metric namespace every bench
    shares in a ledger record.
    """
    out: dict[str, float] = {}
    if isinstance(value, bool):
        out[prefix] = float(value)
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, Mapping):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value[key], child))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            label = str(index)
            if isinstance(item, Mapping):
                for key in _LIST_KEYS:
                    if key in item and isinstance(item[key], str):
                        label = item[key]
                        break
            child = f"{prefix}.{label}" if prefix else label
            out.update(flatten_numeric(item, child))
    return out


# -- records -------------------------------------------------------------------


def build_record(
    root: str | Path = ".",
    benches: Iterable[tuple[str, str]] = BENCH_FILES,
    timestamp: float | None = None,
) -> dict[str, Any]:
    """One ledger record from the BENCH files present under ``root``.

    Raises:
        ObservabilityError: When none of the bench files exist (an empty
            record would poison every later diff).
    """
    root = Path(root)
    fingerprint = environment_fingerprint()
    record: dict[str, Any] = {
        "schema": SCHEMA,
        "timestamp": round(time.time() if timestamp is None else timestamp, 3),
        "fingerprint": fingerprint,
        "fingerprint_id": fingerprint_id(fingerprint),
        "git_rev": git_revision(root),
        "benches": {},
        "missing": [],
    }
    modes: set[str] = set()
    for name, filename in benches:
        path = root / filename
        if not path.exists():
            record["missing"].append(name)
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ObservabilityError(f"cannot ingest {path}: {error}") from None
        mode = payload.get("mode") if isinstance(payload, Mapping) else None
        if isinstance(mode, str):
            modes.add(mode)
        record["benches"][name] = {
            "file": filename,
            "mode": mode,
            "metrics": flatten_numeric(payload),
        }
    if not record["benches"]:
        raise ObservabilityError(
            f"no BENCH_*.json files found under {root} - run the benchmarks "
            "(e.g. QGPU_BENCH_SMOKE=1 pytest benchmarks/ -q) first"
        )
    record["mode"] = sorted(modes)[0] if len(modes) == 1 else (
        "mixed" if modes else "unknown"
    )
    return record


def record_line(record: Mapping[str, Any]) -> str:
    """Canonical single-line serialization of one record."""
    return json.dumps(dict(record), sort_keys=True, separators=(",", ":"))


def append_record(
    ledger_path: str | Path, record: Mapping[str, Any]
) -> dict[str, Any]:
    """Append ``record`` to the ledger file (created if absent)."""
    path = Path(ledger_path)
    with open(path, "a") as handle:
        handle.write(record_line(record) + "\n")
    return dict(record)


def load_ledger(ledger_path: str | Path) -> list[dict[str, Any]]:
    """Every record of a ledger file, oldest first.

    Raises:
        ObservabilityError: Unreadable file or a corrupt (non-JSON) line.
    """
    path = Path(ledger_path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ObservabilityError(f"cannot read ledger {path}: {error}") from None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ObservabilityError(
                f"{path}:{lineno}: corrupt ledger line ({error})"
            ) from None
    return records


def baseline_for(
    records: list[dict[str, Any]], record: Mapping[str, Any]
) -> dict[str, Any] | None:
    """The most recent earlier record comparable to ``record``.

    Comparable = same ``fingerprint_id`` and same ``mode``; records from
    other machines (or full-mode vs smoke-mode runs) are never baselines.
    """
    for candidate in reversed(records):
        if candidate is record:
            continue
        if candidate.get("timestamp", 0) > record.get("timestamp", 0):
            continue
        if candidate.get("fingerprint_id") != record.get("fingerprint_id"):
            continue
        if candidate.get("mode") != record.get("mode"):
            continue
        return candidate
    return None


# -- diffs ---------------------------------------------------------------------


def metric_direction(name: str) -> str | None:
    """``"lower"``/``"higher"`` (better) or None for informational metrics."""
    lowered = name.lower()
    if any(token in lowered for token in HIGHER_BETTER):
        return "higher"
    if any(token in lowered for token in LOWER_BETTER):
        return "lower"
    return None


@dataclass(frozen=True)
class MetricDiff:
    """One metric compared across two ledger records.

    ``ratio`` is latest/baseline (None when the baseline is 0); a
    directional metric regresses when it moves the wrong way by more
    than the tolerance.
    """

    bench: str
    metric: str
    baseline: float
    latest: float
    direction: str | None
    regressed: bool

    @property
    def ratio(self) -> float | None:
        return self.latest / self.baseline if self.baseline else None


def diff_records(
    baseline: Mapping[str, Any],
    latest: Mapping[str, Any],
    tolerance: float = 0.05,
) -> list[MetricDiff]:
    """Compare every shared directional metric of two records.

    Args:
        baseline: The older record.
        latest: The newer record.
        tolerance: Allowed fractional move in the *worse* direction
            before a metric counts as regressed (default 5%).

    Returns:
        One entry per metric present in both records, regressions first,
        then by (bench, metric).  Informational metrics (no direction)
        are included but never regressed.
    """
    entries: list[MetricDiff] = []
    base_benches = baseline.get("benches", {})
    for bench, payload in sorted(latest.get("benches", {}).items()):
        base_metrics = base_benches.get(bench, {}).get("metrics", {})
        for metric, value in sorted(payload.get("metrics", {}).items()):
            if metric not in base_metrics:
                continue
            base_value = float(base_metrics[metric])
            direction = metric_direction(metric)
            regressed = False
            if direction is not None and base_value != 0:
                ratio = float(value) / base_value
                if direction == "lower":
                    regressed = ratio > 1.0 + tolerance
                else:
                    regressed = ratio < 1.0 - tolerance
            entries.append(
                MetricDiff(
                    bench=bench,
                    metric=metric,
                    baseline=base_value,
                    latest=float(value),
                    direction=direction,
                    regressed=regressed,
                )
            )
    return sorted(entries, key=lambda e: (not e.regressed, e.bench, e.metric))


# -- rendering -----------------------------------------------------------------


def render_record(record: Mapping[str, Any]) -> str:
    """Human summary of one ledger record (``bench ledger show``)."""
    fingerprint = record.get("fingerprint", {})
    lines = [
        f"record @ {record.get('timestamp')} "
        f"(mode {record.get('mode')}, git {record.get('git_rev') or '?'})",
        f"fingerprint {record.get('fingerprint_id')}: "
        f"{fingerprint.get('cpu', '?')} x{fingerprint.get('cores', '?')}, "
        f"python {fingerprint.get('python', '?')}, "
        f"blas {fingerprint.get('blas', '?')}",
    ]
    for bench, payload in sorted(record.get("benches", {}).items()):
        lines.append(
            f"  {bench:<8} {len(payload.get('metrics', {})):>4} metric(s) "
            f"from {payload.get('file')}"
        )
    missing = record.get("missing") or []
    if missing:
        lines.append(f"  missing : {', '.join(missing)}")
    return "\n".join(lines)


def render_diff(
    entries: list[MetricDiff], limit: int = 10, tolerance: float = 0.05
) -> str:
    """Human summary of a record diff, regressions first."""
    if not entries:
        return "no shared metrics between the two records"
    regressions = [e for e in entries if e.regressed]
    lines = [
        f"{len(entries)} shared metric(s), {len(regressions)} regression(s) "
        f"beyond {tolerance:.0%}"
    ]
    shown = regressions if regressions else entries[:limit]
    for entry in shown[:limit]:
        ratio = entry.ratio
        arrow = {"lower": "(lower is better)", "higher": "(higher is better)"}.get(
            entry.direction or "", "(informational)"
        )
        flag = "REGRESSED " if entry.regressed else ""
        lines.append(
            f"  {flag}{entry.bench}.{entry.metric}: "
            f"{entry.baseline:.6g} -> {entry.latest:.6g} "
            f"(x{ratio:.3f}) {arrow}" if ratio is not None else
            f"  {flag}{entry.bench}.{entry.metric}: "
            f"{entry.baseline:.6g} -> {entry.latest:.6g} {arrow}"
        )
    if len(shown) > limit:
        lines.append(f"  ... {len(shown) - limit} more")
    return "\n".join(lines)
