"""Serving benchmark: QueryServer throughput and tail latency per backend.

Drives one :class:`~repro.service.QueryServer` with many concurrent
asyncio clients over a mixed prepared-query workload (a sort-heavy
report whose parallelism-4 plan carries a MergeExchange, a parameterized
aggregate, a filtered projection) and reports, per execution backend:

* **throughput** (queries/second over the timed window),
* **p50/p95 latency** from the server's own telemetry,
* steady-state **admission rejections** (must be 0 — the queue is sized
  for the client count),
* the shared-cache **hit rate** (deterministic: a sequential warm-up
  pass populates the cache, so the timed run is all hits).

The headline number is the process-over-serial throughput ratio at
parallelism 4: the process pool runs per-shard subplans (and whole
queries) on multiple cores, while the serial backend is GIL-bound.  The
ratio is only meaningful on a multi-core host — on one core the pool
pays IPC for nothing — so the regression gate skips it there.

Two modes:

* ``pytest benchmarks/bench_serving.py`` — smoke-sized, with the shared
  results sink;
* ``python benchmarks/bench_serving.py [--smoke]`` — standalone script
  (used by CI's regression gate), no pytest required.
"""

import asyncio
import os
import random
import sys
import time

import pytest

from repro.bench import format_table
from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.service import (
    QueryRejected,
    QueryServer,
    QuerySession,
    RetriesExhausted,
    RetryingClient,
    RetryPolicy,
)
from repro.storage import Catalog, Schema, SystemParameters


def serving_catalog(num_rows: int, seed: int = 11) -> Catalog:
    """Rows sized so the report sort spills at parallelism 1 and fits
    per shard — the regime the sharded enforcers (and therefore the
    process backend) target."""
    rng = random.Random(seed)
    catalog = Catalog(SystemParameters(sort_memory_blocks=max(20, num_rows // 100)))
    schema = Schema.of(("sym", "int", 8), ("ts", "int", 8),
                       ("qty", "int", 8), ("tag", "str", 64))
    rows = [(rng.randrange(64), rng.randrange(100_000),
             rng.randrange(1, 500), f"t{rng.randrange(997)}")
            for _ in range(num_rows)]
    catalog.create_table("trades", schema, rows=rows,
                         clustering_order=SortOrder(["sym"]))
    return catalog


def serving_workload():
    report = Query.table("trades").order_by("ts", "sym", "qty", "tag")
    volume = (Query.table("trades")
              .where(col("qty").ge(param("min_qty")))
              .group_by(["sym"], count_star("n"), agg_sum(col("qty"), "vol"))
              .order_by("sym"))
    recent = (Query.table("trades").where(col("ts").ge(90_000))
              .select("ts", "sym", "qty").order_by("ts", "sym", "qty"))
    return [(report, {}), (volume, {"min_qty": 100}),
            (volume, {"min_qty": 250}), (recent, {})]


def _drive(server: QueryServer, clients: int, rounds: int,
           references: list[list[tuple]]) -> dict:
    """Sequential warm-up (fills cache + pool), then a timed fan-out of
    *clients* async clients × *rounds* queries each.  Every result —
    warm-up included — is checked against *references* (the serial
    in-process rows), so a backend that diverged would fail here."""
    workload = serving_workload()
    for (query, binds), reference in zip(workload, references):
        assert server.execute(query, **binds).rows == reference, \
            f"{server.backend.name} warm-up diverged from serial reference"

    mismatches = [0]

    async def client(i: int) -> None:
        for r in range(rounds):
            pick = (i + r) % len(workload)
            query, binds = workload[pick]
            result = await server.submit(query, **binds)
            if result.rows != references[pick]:
                mismatches[0] += 1

    async def fan_out() -> None:
        await asyncio.gather(*[client(i) for i in range(clients)])

    start = time.perf_counter()
    asyncio.run(fan_out())
    elapsed = time.perf_counter() - start

    stats = server.stats()
    total = clients * rounds
    assert mismatches[0] == 0, "served rows diverged from the references"
    return {
        "queries": total,
        "seconds": elapsed,
        "throughput_qps": total / elapsed if elapsed else float("inf"),
        "p50_ms": stats["latency_p50_ms"],
        "p95_ms": stats["latency_p95_ms"],
        "rejections": stats["rejected_queue_full"],
        "timeouts": stats["timeouts"],
        "cache_hit_rate": stats["cache_hit_rate"],
        "worker_utilization": stats["worker_utilization"],
    }


def run_serving_benchmark(num_rows: int = 8_000, clients: int = 8,
                          rounds: int = 4, parallelism: int = 4,
                          workers: int | None = None) -> dict:
    """Throughput + tail latency for the serial vs process backends on
    one identical workload; every backend's rows are checked against the
    serial references inside :func:`_drive`."""
    workers = workers or min(4, os.cpu_count() or 1)
    results: dict = {"num_rows": num_rows, "clients": clients,
                     "rounds": rounds, "cores": os.cpu_count() or 1,
                     "pool_workers": workers}
    catalog = serving_catalog(num_rows)
    reference_session = QuerySession(catalog)
    references = [reference_session.execute(query, **binds)
                  for query, binds in serving_workload()]
    for backend in ("serial", "process"):
        with QueryServer(catalog, backend=backend, parallelism=parallelism,
                         max_inflight=workers, queue_limit=clients * rounds,
                         pool_workers=workers) as server:
            results[backend] = _drive(server, clients, rounds, references)
    results["serving_speedup"] = (
        results["process"]["throughput_qps"]
        / results["serial"]["throughput_qps"])
    results["serving_rejections"] = (results["serial"]["rejections"]
                                     + results["process"]["rejections"])
    results["serving_cache_hit_rate"] = min(
        results["serial"]["cache_hit_rate"],
        results["process"]["cache_hit_rate"])
    return results


# -- sustained overload: raw vs cooperative clients --------------------------------------
def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_overload_benchmark(num_rows: int = 4_000, clients: int = 8,
                           rounds: int = 3, max_inflight: int = 2,
                           queue_limit: int = 2) -> dict:
    """Offered load far beyond capacity (*clients* concurrent clients
    against ``max_inflight + queue_limit`` admission slots), twice:

    * **raw** clients take :class:`~repro.service.QueryRejected` on the
      chin — rejections are the backpressure protocol working;
    * **cooperative** clients (:class:`~repro.service.RetryingClient`)
      honour the ``retry_after`` hints with jittered backoff, so the
      same offered load lands with ~zero client-visible failures while
      server-side shed counts stay nonzero.

    *Goodput* is the fraction of the cohort's requests that ultimately
    returned rows (checked against the serial references)."""
    catalog = serving_catalog(num_rows)
    session = QuerySession(catalog)
    workload = serving_workload()
    references = [session.execute(query, **binds)
                  for query, binds in workload]
    result: dict = {"clients": clients, "rounds": rounds,
                    "max_inflight": max_inflight,
                    "queue_limit": queue_limit}

    for mode in ("raw", "cooperative"):
        with QueryServer(catalog, backend="serial", parallelism=4,
                         max_inflight=max_inflight,
                         queue_limit=queue_limit) as server:
            for (query, binds), reference in zip(workload, references):
                assert server.execute(query, **binds).rows == reference
            retrier = RetryingClient(server, RetryPolicy(
                max_attempts=12, base_delay=0.005, max_delay=0.2))
            succeeded = [0]
            failed = [0]
            mismatches = [0]

            async def client(i: int) -> None:
                for r in range(rounds):
                    pick = (i + r) % len(workload)
                    query, binds = workload[pick]
                    try:
                        if mode == "cooperative":
                            result_ = await retrier.submit(query, **binds)
                        else:
                            result_ = await server.submit(query, **binds)
                    except (QueryRejected, RetriesExhausted):
                        failed[0] += 1
                        continue
                    succeeded[0] += 1
                    if result_.rows != references[pick]:
                        mismatches[0] += 1

            async def fan_out() -> None:
                await asyncio.gather(*[client(i) for i in range(clients)])

            start = time.perf_counter()
            asyncio.run(fan_out())
            elapsed = time.perf_counter() - start
            assert mismatches[0] == 0, "overload run served wrong rows"
            stats = server.stats()
            total = clients * rounds
            result[mode] = {
                "requests": total,
                "succeeded": succeeded[0],
                "client_failures": failed[0],
                "goodput": succeeded[0] / total,
                "server_rejections": (stats["rejected_queue_full"]
                                      + stats["rejected_quota"]),
                "retries": retrier.stats()["retries"],
                "seconds": elapsed,
            }

    result["overload_goodput"] = result["cooperative"]["goodput"]
    result["overload_client_failures"] = float(
        result["cooperative"]["client_failures"])
    result["overload_raw_shed"] = (
        1.0 if result["raw"]["server_rejections"] > 0 else 0.0)
    return result


HEADERS = ["backend", "queries", "qps", "p50 ms", "p95 ms", "rejections",
           "cache hit rate", "utilization"]

OVERLOAD_HEADERS = ["clients", "requests", "succeeded", "client failures",
                    "goodput", "server rejections", "retries"]

def _overload_rows(result: dict) -> list:
    return [[mode, result[mode]["requests"], result[mode]["succeeded"],
             result[mode]["client_failures"],
             round(result[mode]["goodput"], 3),
             result[mode]["server_rejections"], result[mode]["retries"]]
            for mode in ("raw", "cooperative")]


def _rows(result: dict) -> list:
    return [[backend, result[backend]["queries"],
             round(result[backend]["throughput_qps"], 1),
             round(result[backend]["p50_ms"], 1),
             round(result[backend]["p95_ms"], 1),
             result[backend]["rejections"],
             round(result[backend]["cache_hit_rate"], 3),
             round(result[backend]["worker_utilization"], 2)]
            for backend in ("serial", "process")]


def test_serving_throughput_and_admission(benchmark, results_sink):
    result = benchmark.pedantic(
        lambda: run_serving_benchmark(num_rows=4_000, clients=6, rounds=3,
                                      workers=2),
        rounds=1, iterations=1)
    results_sink(format_table(
        HEADERS, _rows(result),
        title=f"Serving throughput — serial vs process backend "
              f"(parallelism 4, {result['cores']} cores)"))
    benchmark.extra_info["serving"] = {
        k: v for k, v in result.items() if not isinstance(v, dict)}
    # Steady state: the queue is sized for the offered load.
    assert result["serving_rejections"] == 0
    assert result["serial"]["timeouts"] == 0
    assert result["process"]["timeouts"] == 0
    # Warm-up fills the shared cache; the timed run is all hits (the
    # only misses are the warm-up pass's three cold plans).
    assert result["serving_cache_hit_rate"] >= 0.8
    # The acceptance bar needs real cores; on one core the pool only
    # pays IPC, so the ratio is informational there.
    if result["cores"] >= 2:
        assert result["serving_speedup"] > 1.5, result["serving_speedup"]


def test_overload_cooperative_goodput(benchmark, results_sink):
    result = benchmark.pedantic(
        lambda: run_overload_benchmark(num_rows=3_000, clients=6, rounds=3),
        rounds=1, iterations=1)
    results_sink(format_table(
        OVERLOAD_HEADERS, _overload_rows(result),
        title=f"Sustained overload — raw vs cooperative clients "
              f"({result['clients']} clients, "
              f"{result['max_inflight']}+{result['queue_limit']} slots)"))
    benchmark.extra_info["overload"] = {
        k: v for k, v in result.items() if not isinstance(v, dict)}
    # Backpressure works: the raw cohort is shed, the cooperative cohort
    # converts the same rejections into retries and loses (almost)
    # nothing client-side.
    assert result["raw"]["server_rejections"] > 0
    assert result["overload_goodput"] >= 0.9
    assert result["overload_client_failures"] == 0


# -- standalone / CI smoke ---------------------------------------------------------------
def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    result = run_serving_benchmark(
        num_rows=6_000 if smoke else 20_000,
        clients=8 if smoke else 16,
        rounds=3 if smoke else 6)
    print(format_table(
        HEADERS, _rows(result),
        title=f"Serving throughput — serial vs process backend "
              f"(parallelism 4, {result['cores']} cores, "
              f"{result['pool_workers']} workers)"))
    print(f"process/serial speedup: {result['serving_speedup']:.2f}x")
    if result["serving_rejections"] != 0:
        print(f"FAIL: {result['serving_rejections']} admission rejections "
              "at steady state")
        return 1
    if result["cores"] >= 2 and result["serving_speedup"] < 1.5:
        print(f"FAIL: process backend speedup "
              f"{result['serving_speedup']:.2f}x < 1.5x on "
              f"{result['cores']} cores")
        return 1
    if result["cores"] < 2:
        print("(single-core host: the speedup bar is not applied)")

    overload = run_overload_benchmark(
        num_rows=3_000 if smoke else 8_000,
        clients=6 if smoke else 12,
        rounds=3 if smoke else 5)
    print()
    print(format_table(
        OVERLOAD_HEADERS, _overload_rows(overload),
        title=f"Sustained overload — raw vs cooperative clients "
              f"({overload['clients']} clients, "
              f"{overload['max_inflight']}+{overload['queue_limit']} slots)"))
    if overload["raw"]["server_rejections"] == 0:
        print("FAIL: overload never triggered admission rejections")
        return 1
    if overload["overload_goodput"] < 0.9:
        print(f"FAIL: cooperative goodput "
              f"{overload['overload_goodput']:.2f} < 0.9 under overload")
        return 1

    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
