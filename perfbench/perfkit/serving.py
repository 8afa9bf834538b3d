"""The serving workloads: ``hot_report`` and ``analyze_mixed``.

Both drive one :class:`~repro.service.QueryServer` over a seeded
``trades`` table with the four-request serving mix, from two
closed-loop client threads (each sends its next request only after the
previous one returned).  ``hot_report`` runs on the process pool and
only ever hits the plan cache; ``analyze_mixed`` runs in-process and
makes every Nth operation of each client an ANALYZE, which invalidates
the cached plans over ``trades``.

A run is: references (a fresh serial session, itself checked against
the Python oracle), set-up repeated :data:`SETUP_REPEATS` times, a
deterministic single-client pass for the exact counts, the timed window
(with ``--trace 1``: untraced segments alternating with traced segments
under the probes), and the admission-accounting check.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.context import ExecutionContext
from repro.engine.kernels import KERNELS, kernel_stats
from repro.engine.lowering import meter_for
from repro.obs import ObservabilityConfig
from repro.service import QueryServer, QuerySession
from repro.storage.handoff import catalog_payload

from . import BenchmarkFailure
from .inputs import (
    SERVING_PARALLELISM,
    TRADES_ROWS,
    oracle_results,
    serving_mix,
    trades_catalog,
    trades_rows,
)
from .metrics import RunResult
from .probes import TRACE_ROUNDS, LayerBudget, Probes, report_traced
from .stats import CHUNKS, geomean, percentile, windowed

CLIENTS = 2
POOL_WORKERS = 2
MAX_INFLIGHT = 2
WARMUP_ROUNDS = 3
SETUP_REPEATS = 5


@dataclass(frozen=True)
class ServingSpec:
    backend: str
    #: Every Nth operation of each client is an ANALYZE (0: never).
    analyze_every: int


SPECS = {
    "hot_report": ServingSpec("process", 0),
    "analyze_mixed": ServingSpec("serial", 20),
}


@dataclass
class Window:
    """One closed-loop timed window."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    reads: int = 0
    latencies: list[float] = field(default_factory=list)
    #: Completion offset of each read from the window's start.
    done_at: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    analyze_seconds: list[float] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    sort_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        return self.reads / self.seconds

    def absorb(self, other: "Window") -> None:
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.reads += other.reads
        self.latencies += other.latencies
        self.done_at += other.done_at
        self.queue_waits += other.queue_waits
        self.analyze_seconds += other.analyze_seconds
        self.mismatches += other.mismatches
        self.sort_seconds += other.sort_seconds


def is_analyze(op: int, client: int, every: int) -> bool:
    """Whether operation *op* (counted from 1) of *client* is an ANALYZE:
    one in every *every*, client i offset by i/CLIENTS of a period so the
    clients never settle into invalidating together."""
    return bool(every) and (op + client * every // CLIENTS) % every == 0


def _binds(request) -> dict:
    return dict(request.binds)


def _check(name: str, rows: list[tuple], refs: dict, where: str) -> None:
    if rows != refs[name]:
        raise BenchmarkFailure(f"{where}: {name} returned wrong rows "
                               f"({len(rows)} rows, expected "
                               f"{len(refs[name])})")


def reference_results(rows: list[tuple]) -> dict[str, list[tuple]]:
    """The mix's answers from a fresh serial session at parallelism 1,
    each checked against the Python oracle."""
    session = QuerySession(trades_catalog(rows))
    oracle = oracle_results(rows)
    refs = {}
    for request in serving_mix():
        refs[request.name] = session.execute(request.query,
                                             **_binds(request))
        _check(request.name, refs[request.name], oracle, "reference")
    return refs


def build_server(rows, spec: ServingSpec, refs, obs) -> tuple:
    """Catalog build, server (and pool) construction and the warm-up
    that fills the plan cache and the workers' subplan caches.
    Returns ``(catalog, server, seconds)``."""
    KERNELS.clear()  # every set-up compiles its kernels afresh
    started = time.perf_counter()
    catalog = trades_catalog(rows)
    server = QueryServer(catalog, backend=spec.backend,
                         parallelism=SERVING_PARALLELISM,
                         max_inflight=MAX_INFLIGHT,
                         queue_limit=4 * CLIENTS,
                         pool_workers=POOL_WORKERS, obs=obs)
    try:
        for _ in range(WARMUP_ROUNDS):
            for request in serving_mix():
                result = server.execute(request.query, **_binds(request))
                _check(request.name, result.rows, refs, "warm-up")
    except BaseException:
        server.close()
        raise
    return catalog, server, time.perf_counter() - started


def closed_loop(server: QueryServer, catalog, refs, seconds: float,
                analyze_every: int, traced: bool = False,
                budget: Optional[LayerBudget] = None,
                progress: Optional[list[list[int]]] = None) -> Window:
    """*CLIENTS* closed-loop client threads for *seconds*; every read is
    checked against the references outside the latency clock.  Windows
    sharing a *progress* list (per client: operations, reads) continue
    each client's schedule where the previous window left it."""
    mix = serving_mix()
    window = Window()
    lock = threading.Lock()
    clock = time.perf_counter
    if progress is None:
        progress = [[0, 0] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            run_client(index)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    def run_client(index: int) -> None:
        mine = Window()
        op, done = progress[index]
        while clock() < stop_at:
            op += 1
            mine.attempted += 1
            if is_analyze(op, index, analyze_every):
                started = clock()
                try:
                    catalog.refresh_stats("trades")
                except Exception:
                    mine.failed += 1
                    continue
                mine.analyze_seconds.append(clock() - started)
                continue
            request = mix[(index + done + mine.reads) % len(mix)]
            started = clock()
            try:
                result = server.execute(request.query, trace=traced,
                                        **_binds(request))
            except Exception:
                mine.failed += 1
                continue
            latency = clock() - started
            mine.reads += 1
            mine.latencies.append(latency)
            mine.done_at.append(started + latency - window_start)
            mine.queue_waits.append(latency - result.latency_seconds)
            if result.rows != refs[request.name]:
                mine.mismatches.append(request.name)
            if budget is not None:
                with lock:
                    budget.add(result.trace.spans, latency)
                mine.sort_seconds += sort_self_seconds(
                    result.plan, result.operator_times)
        progress[index] = [op, done + mine.reads]
        with lock:
            window.absorb(mine)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(CLIENTS)]
    gc.collect()
    window_start = clock()
    stop_at = window_start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.seconds = clock() - window_start
    if errors:
        raise errors[0]
    if window.mismatches:
        raise BenchmarkFailure(f"served wrong rows for "
                               f"{sorted(set(window.mismatches))}")
    if window.reads == 0:
        raise BenchmarkFailure("no read request completed in the window")
    return window


def sort_self_seconds(plan, operator_times: dict) -> float:
    """Sort/PartialSort self time of one execution: their inclusive
    meter time minus that of their inputs (meters are keyed by tag, so
    equal-tagged nodes share one cell and are counted once)."""
    sorts, inputs = set(), set()
    for node in plan.walk():
        if node.op in ("Sort", "PartialSort"):
            sorts.add(meter_for(node)[0])
            inputs.update(meter_for(c)[0] for c in node.children)
    cell = lambda tag: operator_times.get(tag, (0.0, 0))[0]  # noqa: E731
    return max(0.0, sum(map(cell, sorts)) - sum(map(cell, inputs)))


def check_accounting(server: QueryServer) -> dict:
    """Admission outcomes are exclusive: at quiescence every submission
    resolved exactly once."""
    stats = server.stats()
    resolved = (stats["completed"] + stats["failed"] + stats["timeouts"]
                + stats["rejected_queue_full"] + stats["rejected_quota"]
                + stats["rejected_circuit"])
    if stats["submitted"] != resolved:
        raise BenchmarkFailure(
            f"accounting identity broken: submitted={stats['submitted']} "
            f"but completed+failed+timeouts+rejected={resolved}")
    return stats


def deterministic_pass(server: QueryServer, catalog, refs,
                       spec: ServingSpec, result: RunResult) -> None:
    """Counts that repeat exactly for a seed: one execution of each
    distinct query through the backend with a metering context, and one
    single-client pass of the operation schedule through the server."""
    session = QuerySession(catalog)
    costs: dict[str, float] = {}
    totals = dict(comparisons=0, blocks_read=0, blocks_written=0,
                  cost_units=0.0, examined=0, result_rows=0)
    mix = serving_mix()
    for request in mix:
        prepared = session.prepare(request.query,
                                   parallelism=SERVING_PARALLELISM)
        costs[prepared.fingerprint] = prepared.total_cost
        ctx = ExecutionContext(catalog)
        rows = server.backend.run_plan(prepared.bind(**_binds(request)),
                                       catalog,
                                       parallelism=SERVING_PARALLELISM,
                                       ctx=ctx)
        _check(request.name, rows, refs, "metered execution")
        totals["comparisons"] += ctx.comparisons.value
        totals["blocks_read"] += ctx.io.blocks_read
        totals["blocks_written"] += ctx.io.blocks_written
        totals["cost_units"] += ctx.cost_units()
        totals["examined"] += sum(c[1] for c in ctx.operator_rows.values())
        totals["result_rows"] += len(rows)
    result.put("plan_cost_units", sum(costs.values()), len(costs))
    result.put("optimizer.plan_cost_geomean", geomean(costs.values()),
               len(costs))
    result.put("exec_cost_units", totals["cost_units"], len(mix))
    for name in ("comparisons", "blocks_read", "blocks_written"):
        result.put(f"engine.{name}", totals[name] / len(mix), len(mix))
    result.put("engine.rows_examined_per_row",
               totals["examined"] / max(1, totals["result_rows"]), len(mix))

    before = server.stats()
    operations = 2 * spec.analyze_every if spec.analyze_every else len(mix)
    reads = 0
    for op in range(1, operations + 1):
        # Client 1's schedule: both ANALYZEs are followed by reads.
        if is_analyze(op, 1, spec.analyze_every):
            catalog.refresh_stats("trades")
            continue
        request = mix[reads % len(mix)]
        reads += 1
        rows = server.execute(request.query, **_binds(request)).rows
        _check(request.name, rows, refs, "counting pass")
    after = server.stats()
    delta = {k: after[k] - before[k] for k in (
        "cache_hits", "cache_misses", "cache_evictions", "goals_examined",
        "goals_pruned", "memo_hits")}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    result.put("service.plan_cache.hit_rate",
               delta["cache_hits"] / lookups if lookups else 0.0, lookups)
    result.put("service.plan_cache.misses", delta["cache_misses"], lookups)
    result.put("service.plan_cache.evictions", delta["cache_evictions"],
               lookups)
    result.put("optimizer.goals_examined", delta["goals_examined"], reads)
    result.put("optimizer.goals_pruned", delta["goals_pruned"], reads)
    searched = delta["memo_hits"] + delta["goals_examined"]
    result.put("optimizer.memo_hit_ratio",
               delta["memo_hits"] / searched if searched else 0.0, reads)


def _end_to_end(result: RunResult, window: Window, seconds: float) -> None:
    n = len(window.latencies)
    qps, p50 = windowed(window.done_at, window.latencies, seconds, CHUNKS)
    result.put("throughput_qps", qps, window.reads)
    result.put("latency_p50_ms", p50 * 1e3, n)
    result.put("latency_p95_ms", percentile(window.latencies, 0.95) * 1e3, n)


def _counters(server: QueryServer) -> dict:
    """The backend and kernel-cache counters the traced metrics need."""
    described = server.backend.describe()
    out = {key: described.get(key, 0) for key in (
        "streamed_chunks", "subplan_cache_hits", "subplan_cache_misses")}
    out.update(kernel_stats())
    return out


def _traced_metrics(result: RunResult, server: QueryServer, catalog,
                    traced: Window, budget: LayerBudget,
                    delta: dict) -> None:
    """The per-layer metrics of the serving stack and the engine;
    *delta* is the counters' growth over the traced segments."""
    n = traced.reads
    result.put("service.server.queue_wait_ms",
               statistics.fmean(traced.queue_waits) * 1e3, n)
    result.put("service.session.bind_ms", budget.per_request_ms("bind"), n)
    result.put("service.backends.run_plan_ms",
               budget.per_request_ms("execute"), n)
    result.put("service.backends.transfer_ms",
               budget.transfer_seconds * 1e3 / n, n)
    result.put("service.backends.streamed_chunks",
               delta["streamed_chunks"] / n, n)
    lookups = delta["subplan_cache_hits"] + delta["subplan_cache_misses"]
    result.put("service.backends.worker_cache_hit_rate",
               delta["subplan_cache_hits"] / lookups if lookups else 0.0,
               lookups)
    result.put("service.backends.rebuilds",
               server.backend.describe().get("pool_rebuilds", 0), 1)
    result.put("engine.lowering_ms",
               budget.per_request_ms("engine.lowering", "lower"), n)
    result.put("engine.execute_ms", budget.per_request_ms("engine.execute"),
               n)
    result.put("engine.sort_ms", traced.sort_seconds * 1e3 / n, n)
    result.put("engine.worker_run_ms", budget.per_request_ms("run"), n)
    result.put("engine.merge_ms", budget.per_request_ms("merge"), n)
    payload = []
    for _ in range(5):
        started = time.perf_counter()
        catalog_payload(catalog)
        payload.append(time.perf_counter() - started)
    result.put("storage.catalog_payload_ms",
               statistics.median(payload) * 1e3, len(payload))


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    spec = SPECS[workload]
    result = RunResult()
    rows = trades_rows(TRADES_ROWS, seed)
    refs = reference_results(rows)
    obs = ObservabilityConfig(trace_queries=False) if trace else None
    setup_seconds = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
                server = None
            catalog, server, elapsed = build_server(rows, spec, refs, obs)
            setup_seconds.append(elapsed)
        result.put("setup_s", statistics.median(setup_seconds),
                   len(setup_seconds))
        deterministic_pass(server, catalog, refs, spec, result)
        rejected_before = server.stats()
        if not trace:
            window = closed_loop(server, catalog, refs, seconds,
                                 spec.analyze_every)
            _end_to_end(result, window, seconds)
            counted = window
        else:
            # Untraced and traced segments alternate, so a drift of the
            # host's speed during the run biases neither side.
            segment = seconds / (2 * TRACE_ROUNDS)
            untraced, traced = Window(), Window()
            budget, probes, delta = LayerBudget(), Probes(), {}
            progress = [[0, 0] for _ in range(CLIENTS)]
            for _ in range(TRACE_ROUNDS):
                untraced.absorb(closed_loop(server, catalog, refs, segment,
                                            spec.analyze_every,
                                            progress=progress))
                before = _counters(server)
                with probes:
                    traced.absorb(closed_loop(
                        server, catalog, refs, segment, spec.analyze_every,
                        traced=True, budget=budget, progress=progress))
                for key, value in _counters(server).items():
                    delta[key] = delta.get(key, 0) + value - before[key]
            refresh = probes.tallies["storage.refresh_stats"]
            result.put("storage.refresh_stats_ms",
                       refresh.seconds * 1e3 / refresh.calls
                       if refresh.calls else 0.0, refresh.calls)
            _traced_metrics(result, server, catalog, traced, budget, delta)
            report_traced(result, budget, probes, delta,
                          untraced.throughput, traced.throughput,
                          traced.seconds)
            counted = untraced
        stats = check_accounting(server)
        rejected = sum(stats[k] - rejected_before[k] for k in (
            "rejected_queue_full", "rejected_quota", "rejected_circuit"))
        result.put("service.server.rejected", rejected, 1)
        result.attempted = counted.attempted
        result.failed = counted.failed
        result.put("error_rate", counted.failed / counted.attempted,
                   counted.attempted)
        result.lines.append(
            f"{workload}: whole window {counted.throughput:.2f} req/s, "
            f"p50 {percentile(counted.latencies, 0.5) * 1e3:.2f} ms; "
            f"{counted.reads} reads, "
            f"{len(counted.analyze_seconds)} ANALYZE, {counted.failed} "
            f"failed in {counted.seconds:.2f} s; {len(rows)} rows, "
            f"{CLIENTS} clients, backend {spec.backend}, parallelism "
            f"{SERVING_PARALLELISM}; setup runs "
            + ", ".join(f"{s:.3f}" for s in setup_seconds) + " s")
        if len(counted.latencies) < 200:
            result.lines.append(f"warning: p95 from only "
                                f"{len(counted.latencies)} samples (< 200)")
    finally:
        if server is not None:
            server.close()
    return result

