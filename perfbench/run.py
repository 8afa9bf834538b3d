"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload hot_report --seed 1 --seconds 20 \
        --trace 0

Workloads: ``hot_report`` (process-pool serving, all plan-cache hits),
``analyze_mixed`` (in-process serving with ANALYZE between reads) and
``plan_adhoc`` (EXPLAIN-only optimizer requests, all cache misses).
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer budget.  Every output is checked; a wrong result or a broken
accounting identity exits with status 1 and prints no result.  The last
line of standard output is the result as one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot_report", "analyze_mixed", "plan_adhoc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from perfkit import BenchmarkFailure, planning, serving
        from perfkit.metrics import END_TO_END, PER_LAYER
    except ImportError as exc:
        print(f"error: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = planning if args.workload == "plan_adhoc" else serving
    try:
        result = workload.run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchmarkFailure as exc:
        print(f"FAIL ({args.workload}, seed {args.seed}): {exc}",
              file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.put("peak_rss_mb", peak_mb, 1)

    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(catalogue) - set(result.values))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 3

    for line in result.lines:
        print(line)
    width = max(len(name) for name in result.values)
    print(f"{'metric'.ljust(width)}  {'value':>14}  unit        samples")
    for name in sorted(result.values):
        value, samples = result.values[name]
        unit = END_TO_END.get(name) or PER_LAYER[name]
        mark = "*" if name in catalogue else " "
        print(f"{name.ljust(width)}  {value:14.6g}  {unit:<10}  "
              f"{samples:>7} {mark}")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(),
        "samples": {name: result.values[name][1] for name in catalogue},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.values[name][0],
                           "unit": catalogue[name]}
                    for name in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
