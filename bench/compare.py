"""Compare two sets of benchmark runs, or show how steady one set is.

    python3 bench/compare.py A.jsonl B.jsonl
    python3 bench/compare.py A.jsonl

``A.jsonl`` and ``B.jsonl`` are files ``run.py --out`` appended to: one
record per workload and run.  A set should hold several runs per workload
(ten, each on another ``--seed``, is what the bounds were fixed against).

With two files: one row per (end-to-end metric, workload) with both
medians, both ranges, the bound and a verdict -

* ``unresolved`` - either set's quartile spread is wider than the bound and
  the two ranges overlap: the runs cannot tell the sides apart;
* ``regressed`` / ``improved`` - B's median is worse / better than A's by
  more than the bound;
* ``unchanged`` - anything else.

Exact layer metrics of traced records are compared run by run on the same
seed and must be identical; a difference prints a ``changed`` row.  The exit
code is 1 if any row says ``regressed`` or ``changed``.

With one file: the median, quartile spread and bound of each row - the
steadiness check the bounds must pass (spread below a third of the bound).
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

from metrics import BOUNDS, END_TO_END, EXACT
from stats import median, quartile_spread

BETTER = {m.name: m.better for m in END_TO_END}


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def samples(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """End-to-end values per (metric, workload), from the untraced records."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            out[(name, record["workload"])].append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    return quartile_spread(values) if len(values) >= 2 else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """The rule of the module docstring for one (metric, workload) row."""
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    change = (median(b) - median(a)) / median(a)
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def exact_changes(a: list[dict], b: list[dict]) -> list[str]:
    """Exact layer metrics that differ between traced runs of one seed."""

    def by_run(records: list[dict]) -> dict[tuple[str, int], dict[str, float]]:
        return {
            (r["workload"], r["seed"]): {
                name: m["value"] for name, m in r["metrics"].items() if name in EXACT
            }
            for r in records
            if r["trace"]
        }

    first, second = by_run(a), by_run(b)
    rows = []
    for key in sorted(first.keys() & second.keys()):
        for name, value in first[key].items():
            if second[key][name] != value:
                rows.append(
                    f"{name} on {key[0]} (seed {key[1]}): {value!r} -> "
                    f"{second[key][name]!r}  changed"
                )
    return rows


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], bool]:
    rows = []
    bad = False
    first, second = samples(a), samples(b)
    for key in sorted(first.keys() & second.keys(), key=lambda k: (k[1], k[0])):
        name, workload = key
        va, vb = first[key], second[key]
        result = verdict(va, vb, BOUNDS[name], BETTER[name])
        bad |= result == "regressed"
        rows.append(
            f"{workload:<14} {name:<14} "
            f"A {median(va):>10.5g} [{min(va):.5g}, {max(va):.5g}] n={len(va)}  "
            f"B {median(vb):>10.5g} [{min(vb):.5g}, {max(vb):.5g}] n={len(vb)}  "
            f"bound {BOUNDS[name]:.0%}  {result}"
        )
    changed = exact_changes(a, b)
    return rows + changed, bad or bool(changed)


def steadiness(records: list[dict]) -> list[str]:
    rows = []
    for (name, workload), values in sorted(
        samples(records).items(), key=lambda item: (item[0][1], item[0][0])
    ):
        share = spread(values)
        third = BOUNDS[name] / 3
        rows.append(
            f"{workload:<14} {name:<14} median {median(values):>10.5g}  "
            f"spread {share:>6.2%}  bound {BOUNDS[name]:.0%}  n={len(values)}  "
            f"{'steady' if share <= third else 'above a third of the bound'}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.b is None:
        print("\n".join(steadiness(load(args.a))))
        return 0
    rows, bad = compare(load(args.a), load(args.b))
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
