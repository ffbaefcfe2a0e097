"""Compare two sets of benchmark results, workload by workload.

Usage (from the repository root):

  python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py (.bench_out/results/*.json)
or directories holding them.  For every workload and metric present on both
sides it prints the two medians and the relative change.  It refuses (exit
status 2) when the runs used different mpmath backends, because the
pure-Python and gmpy backends differ by large factors in every mpmath-bound
layer.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(spec: str) -> list[dict]:
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def backends(records) -> set:
    return {r["info"]["env"]["mpmath_backend"] for r in records}


def medians(records) -> dict:
    values = defaultdict(list)
    for r in records:
        key = (r["info"]["env"]["workload"], r["trace"])
        for name, metric in r["result"]["metrics"].items():
            values[key + (name,)].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base: list[dict], new: list[dict]) -> list[str]:
    """Lines of the comparison; raises ValueError when the backends differ."""
    seen = backends(base) | backends(new)
    if len(seen) != 1:
        raise ValueError(f"refusing to compare runs with different mpmath backends: {sorted(seen)}")
    a, b = medians(base), medians(new)
    lines = []
    for key in sorted(a.keys() & b.keys()):
        workload, trace, name = key
        change = (b[key] - a[key]) / a[key] if a[key] else float("nan")
        lines.append(f"{workload:16s} {name:34s} {a[key]:14.6g} {b[key]:14.6g} {change:+9.2%}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
