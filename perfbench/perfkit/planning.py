"""The ``plan_adhoc`` workload: EXPLAIN-only requests, no execution.

One client prepares and explains a stream of distinct requests — the
paper's Queries 3–6, Example 1 and the many-join query, each with a
seeded ORDER BY permutation of 1–4 output columns at parallelism 1 or 4
— through query sessions that share one 128-entry plan cache.  Every
request misses the cache, so the optimizer's four pipeline stages and
phase-2 refinement run on every one.

Verification: the first :data:`VERIFIED` requests of the stream are
planned once more by a fresh :class:`~repro.optimizer.Optimizer`; the
cost must match bit for bit and the guaranteed order must satisfy the
requested ORDER BY.  The timed window replays the same stream, so its
plans are checked against those, and every served plan's order is
checked too.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time

from repro.core.sort_order import SortOrder
from repro.engine.kernels import KERNELS, kernel_stats
from repro.obs import Tracer
from repro.optimizer import Optimizer
from repro.service import PlanCache, QuerySession

from . import BenchmarkFailure
from .inputs import adhoc_bases, adhoc_requests, adhoc_warmup
from .metrics import PER_LAYER, RunResult
from .probes import TRACE_ROUNDS, LayerBudget, Probes, report_traced
from .stats import CHUNKS, geomean, percentile, windowed

CACHE_CAPACITY = 128
#: Requests planned twice (session and fresh optimizer) before timing.
VERIFIED = 256
#: Served requests beyond the verified prefix re-planned after the window.
RESAMPLED = 32
#: Set-up is short here, so more repeats steady its median.
SETUP_REPEATS = 9


class Planner:
    """Query sessions over the workload's catalogs, sharing one cache."""

    def __init__(self, bases) -> None:
        self.bases = bases
        self.cache = PlanCache(CACHE_CAPACITY)
        self._sessions: dict[int, QuerySession] = {}
        for base in bases.values():
            if id(base.catalog) not in self._sessions:
                self._sessions[id(base.catalog)] = QuerySession(
                    base.catalog, cache=self.cache)

    def session(self, request) -> QuerySession:
        return self._sessions[id(self.bases[request.base].catalog)]

    def explain(self, request):
        prepared = self.session(request).prepare(
            request.query(self.bases), parallelism=request.parallelism)
        return prepared, prepared.explain()

    def totals(self, counter: str) -> int:
        return sum(getattr(s.metrics, counter)
                   for s in self._sessions.values())


def setup() -> tuple:
    """Catalog build, session construction and a warm-up of one request
    per query and parallelism.  Returns ``(planner, seconds)``."""
    KERNELS.clear()
    started = time.perf_counter()
    planner = Planner(adhoc_bases())
    for request in adhoc_warmup(planner.bases):
        planner.explain(request)
    return planner, time.perf_counter() - started


def _reference_cost(bases, request) -> float:
    base = bases[request.base]
    plan = Optimizer(base.catalog).optimize(
        request.query(bases), parallelism=request.parallelism)
    return plan.total_cost


def _check_order(bases, request, guaranteed) -> None:
    if not bases[request.base].satisfied_by(guaranteed,
                                            SortOrder(request.order)):
        raise BenchmarkFailure(
            f"{request}: plan order {guaranteed} does not satisfy the "
            f"requested ORDER BY")


def verification_pass(bases, seed: int, result: RunResult,
                      count: int = VERIFIED) -> dict:
    """Plan the stream's first *count* requests through fresh sessions
    (the exact counts) and again through a fresh optimizer each (the
    check).  Returns ``request -> cost``."""
    planner = Planner(bases)
    costs = {}
    for request in itertools.islice(adhoc_requests(bases, seed), count):
        prepared, _ = planner.explain(request)
        _check_order(bases, request, prepared.plan.order)
        reference = _reference_cost(bases, request)
        if prepared.total_cost != reference:
            raise BenchmarkFailure(
                f"{request}: served cost {prepared.total_cost!r} != fresh "
                f"optimizer cost {reference!r}")
        costs[request] = prepared.total_cost
    stats = planner.cache.stats
    n = len(costs)
    result.put("plan_cost_units", sum(costs.values()), n)
    result.put("optimizer.plan_cost_geomean", geomean(costs.values()), n)
    result.put("service.plan_cache.hit_rate", stats.hit_rate, stats.lookups)
    result.put("service.plan_cache.misses", stats.misses, stats.lookups)
    result.put("service.plan_cache.evictions", stats.evictions,
               stats.lookups)
    examined = planner.totals("goals_examined")
    memo_hits = planner.totals("memo_hits")
    result.put("optimizer.goals_examined", examined, n)
    result.put("optimizer.goals_pruned", planner.totals("goals_pruned"), n)
    result.put("optimizer.memo_hit_ratio",
               memo_hits / (memo_hits + examined) if examined else 0.0, n)
    return costs


class Window:
    def __init__(self) -> None:
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.done_at: list[float] = []
        self.served: list[tuple] = []

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.seconds

    def absorb(self, other: "Window") -> None:
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.done_at += other.done_at
        self.served += other.served


def timed_window(planner: Planner, stream, seconds: float,
                 budget: LayerBudget = None) -> Window:
    window = Window()
    tracer = Tracer()
    clock = time.perf_counter
    gc.collect()
    started = clock()
    stop_at = started + seconds
    while clock() < stop_at:
        request = next(stream)
        window.attempted += 1
        trace = root = None
        if budget is not None:
            trace = tracer.start("request")
            root = trace.begin("request")
        begin = clock()
        try:
            if trace is None:
                prepared, _ = planner.explain(request)
            else:
                with trace.activate(root):
                    prepared, _ = planner.explain(request)
        except Exception:
            window.failed += 1
            continue
        latency = clock() - begin
        window.latencies.append(latency)
        window.done_at.append(begin + latency - started)
        window.served.append((request, prepared.total_cost,
                              prepared.plan.order))
        if trace is not None:
            trace.finish(root)
            budget.add(trace.spans, latency, root_name="request")
    window.seconds = clock() - started
    if not window.latencies:
        raise BenchmarkFailure("no request completed in the window")
    return window


def check_served(bases, window: Window, verified: dict, seed: int) -> None:
    """Every served plan meets its ORDER BY; plans of verified requests
    cost what the fresh optimizer found; a seeded sample of the rest is
    re-planned by a fresh optimizer too."""
    rest = []
    for request, cost, order in window.served:
        _check_order(bases, request, order)
        if request in verified:
            if cost != verified[request]:
                raise BenchmarkFailure(f"{request}: served cost changed "
                                       f"from the verification pass")
        else:
            rest.append((request, cost))
    sample = random.Random(seed).sample(rest, min(RESAMPLED, len(rest)))
    for request, cost in sample:
        if cost != _reference_cost(bases, request):
            raise BenchmarkFailure(f"{request}: served cost differs from a "
                                   f"fresh optimizer's")


def _zero_unmeasured(result: RunResult) -> None:
    """Layers this workload never enters read zero."""
    for name in PER_LAYER:
        if name not in result.values:
            result.put(name, 0.0, 0)


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        planner, elapsed = setup()
        setup_seconds.append(elapsed)
    result.put("setup_s", statistics.median(setup_seconds),
               len(setup_seconds))
    bases = planner.bases
    verified = verification_pass(bases, seed, result)
    stream = adhoc_requests(bases, seed)
    if not trace:
        window = timed_window(planner, stream, seconds)
        check_served(bases, window, verified, seed)
        n = len(window.latencies)
        qps, p50 = windowed(window.done_at, window.latencies, seconds,
                            CHUNKS)
        result.put("throughput_qps", qps, n)
        result.put("latency_p50_ms", p50 * 1e3, n)
        result.put("latency_p95_ms",
                   percentile(window.latencies, 0.95) * 1e3, n)
        counted = window
    else:
        # Untraced and traced segments alternate, so a drift of the
        # host's speed during the run biases neither side.
        segment = seconds / (2 * TRACE_ROUNDS)
        untraced, traced = Window(), Window()
        budget, probes, delta = LayerBudget(), Probes(), {}
        for _ in range(TRACE_ROUNDS):
            untraced.absorb(timed_window(planner, stream, segment))
            before = kernel_stats()
            with probes:
                traced.absorb(timed_window(planner, stream, segment, budget))
            for key, value in kernel_stats().items():
                delta[key] = delta.get(key, 0) + value - before[key]
        check_served(bases, untraced, verified, seed)
        check_served(bases, traced, verified, seed)
        report_traced(result, budget, probes, delta, untraced.throughput,
                      traced.throughput, traced.seconds)
        counted = untraced
    result.attempted = counted.attempted
    result.failed = counted.failed
    result.put("error_rate", counted.failed / counted.attempted,
               counted.attempted)
    _zero_unmeasured(result)
    result.lines.append(
        f"plan_adhoc: whole window {counted.throughput:.2f} req/s, p50 "
        f"{percentile(counted.latencies, 0.5) * 1e3:.3f} ms; "
        f"{len(counted.latencies)} requests, {counted.failed} "
        f"failed in {counted.seconds:.2f} s; {len(verified)} verified; "
        f"cache {CACHE_CAPACITY}; setup runs "
        + ", ".join(f"{s:.3f}" for s in setup_seconds) + " s")
    return result
