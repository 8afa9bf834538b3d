"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree.  A run with ``--trace 0`` prints every end-to-end
metric, a run with ``--trace 1`` every per-layer metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("hot_report", "analyze_mixed", "plan_adhoc")

#: ``name -> unit`` of the end-to-end metrics (untraced runs).
END_TO_END = {
    "throughput_qps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "plan_cost_units": "cost_units",
    "peak_rss_mb": "MB",
}

#: ``name -> unit`` of the per-layer metrics (traced runs).  Time metrics
#: are per read request unless the README says otherwise.
PER_LAYER = {
    "error_rate": "ratio",
    "exec_cost_units": "cost_units",
    "service.server.queue_wait_ms": "ms",
    "service.server.rejected": "count",
    "service.session.prepare_ms": "ms",
    "service.session.bind_ms": "ms",
    "service.plan_cache.hit_rate": "ratio",
    "service.plan_cache.misses": "count",
    "service.plan_cache.evictions": "count",
    "service.backends.run_plan_ms": "ms",
    "service.backends.transfer_ms": "ms",
    "service.backends.streamed_chunks": "count/req",
    "service.backends.worker_cache_hit_rate": "ratio",
    "service.backends.rebuilds": "count",
    "logical.fingerprint_ms": "ms",
    "optimizer.optimize_ms": "ms",
    "optimizer.pre_check_ms": "ms",
    "optimizer.join_enumeration_ms": "ms",
    "optimizer.physical_selection_ms": "ms",
    "optimizer.parameterization_ms": "ms",
    "optimizer.goals_examined": "count",
    "optimizer.goals_pruned": "count",
    "optimizer.memo_hit_ratio": "ratio",
    "optimizer.plan_cost_geomean": "cost_units",
    "core.refine_ms": "ms",
    "engine.lowering_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.sort_ms": "ms",
    "engine.worker_run_ms": "ms",
    "engine.merge_ms": "ms",
    "engine.rows_examined_per_row": "ratio",
    "engine.comparisons": "count/req",
    "engine.blocks_read": "count/req",
    "engine.blocks_written": "count/req",
    "expr.kernel_cache_hit_rate": "ratio",
    "storage.refresh_stats_ms": "ms",
    "storage.catalog_payload_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "obs.trace_coverage": "ratio",
}


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: ``name -> (value, samples)``; units come from the catalogue.
    values: dict[str, tuple[float, int]] = field(default_factory=dict)
    #: Human-readable report lines printed before the result line.
    lines: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        if name not in END_TO_END and name not in PER_LAYER:
            raise KeyError(f"metric {name!r} is not in the catalogue")
        self.values[name] = (float(value), int(samples))
