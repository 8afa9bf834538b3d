"""Small statistics and formatting helpers."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


#: Sub-windows of a timed window for the throughput and p50 medians.
CHUNKS = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in ``(0, 1]``)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def windowed(done_at: Sequence[float], latencies: Sequence[float],
             seconds: float, chunks: int) -> tuple[float, float]:
    """Median over *chunks* equal sub-windows of ``[0, seconds)`` of the
    throughput and of the p50 latency, requests binned by completion
    offset.  Robust to a transient stall of the host in one sub-window."""
    width = seconds / chunks
    bins: list[list[float]] = [[] for _ in range(chunks)]
    for at, latency in zip(done_at, latencies):
        if 0 <= at < seconds:
            bins[min(chunks - 1, int(at / width))].append(latency)
    rates = [len(b) / width for b in bins]
    p50s = [percentile(b, 0.5) for b in bins if b]
    return statistics.median(rates), statistics.median(p50s)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def table(headers: list[str], rows: list[list], title: str = "") -> str:
    cells = [[str(c) for c in row] for row in [headers] + rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title] if title else []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) if j else c.ljust(w)
                               for j, (c, w) in enumerate(zip(row, widths))))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
