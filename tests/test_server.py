"""The concurrent query server: admission control, deadlines, the shared
cross-session plan cache, backend parity (including the process pool on
the fuzz-suite plan corpus), cooperative backpressure (retry-after,
tenant quotas, circuit breaker), pool resilience under breakage and
refresh, worker-cache telemetry, and the many-clients stress tests that
pin the admission-counter reconciliation invariant."""

import asyncio
import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.service import (
    CircuitOpen,
    ExecutionBackend,
    ProcessPoolBackend,
    QueryRejected,
    QueryServer,
    QuerySession,
    QueryTimeout,
    SharedPlanCache,
    make_backend,
)
from repro.storage import Catalog, Schema, SystemParameters


def reconciles(stats) -> bool:
    """The outcome-exclusivity invariant: every submission is counted in
    exactly one terminal bucket."""
    return stats["submitted"] == (
        stats["completed"] + stats["failed"] + stats["timeouts"]
        + stats["rejected_queue_full"] + stats["rejected_quota"]
        + stats["rejected_circuit"])


def wait_quiescent(server, timeout=10.0) -> dict:
    """Poll until no query is queued or executing, then return stats."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = server.stats()
        if stats["queue_depth"] == 0 and stats["in_flight"] == 0:
            return stats
        time.sleep(0.01)
    raise AssertionError("server never drained")


def serving_catalog(num_rows=4000, memory_blocks=40, seed=1):
    """Small catalog whose ORDER BY b sort spills at parallelism 1 and
    fits per shard — parallelism 4 plans carry a MergeExchange."""
    rng = random.Random(seed)
    catalog = Catalog(SystemParameters(sort_memory_blocks=memory_blocks))
    schema = Schema.of(("a", "int", 8), ("b", "int", 64), ("c", "int", 8))
    rows = [tuple(rng.randrange(50) for _ in range(3))
            for _ in range(num_rows)]
    catalog.create_table("t", schema, rows=rows,
                         clustering_order=SortOrder(["a"]))
    return catalog


def serving_queries():
    return [
        Query.table("t").order_by("b", "a", "c"),
        (Query.table("t").where(col("a").lt(param("lim")))
         .group_by(["a"], agg_sum(col("c"), "s")).order_by("a")),
        Query.table("t").where(col("c").ge(10)).select("c", "b")
        .order_by("c", "b"),
    ]


@pytest.fixture(scope="module")
def catalog():
    return serving_catalog()


@pytest.fixture(scope="module")
def references(catalog):
    session = QuerySession(catalog)
    q0, q1, q2 = serving_queries()
    return [session.execute(q0), session.execute(q1, lim=30),
            session.execute(q2)]


class _BlockingBackend(ExecutionBackend):
    """Deterministic concurrency probe: executions park on an event."""

    name = "blocking"

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()

    def run_plan(self, plan, catalog, parallelism=1, batch_size=None,
                 check_orders=False):
        self.started.set()
        assert self.release.wait(timeout=10)
        return [("done",)]


def metered_runs(plan, catalog, backend, parallelism=4):
    """``(rows, tallies)`` of *plan* on the serial backend and on
    *backend*, each with a metered ctx."""
    from repro.engine import ExecutionContext
    from repro.service.backends import SerialBackend

    runs = []
    for runner in (SerialBackend(), backend):
        ctx = ExecutionContext(catalog)
        rows = runner.run_plan(plan, catalog, parallelism=parallelism,
                               ctx=ctx)
        runs.append((rows, ctx.tallies()))
    return runs


# -- admission control -------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_rejects_and_counters_balance(self, catalog):
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=1) as server:
            async def scenario():
                first = asyncio.ensure_future(server.submit(query))
                await asyncio.get_running_loop().run_in_executor(
                    None, backend.started.wait, 10)
                # Slot busy; one submission queues, the next is rejected.
                second = asyncio.ensure_future(server.submit(query))
                await asyncio.sleep(0.05)
                with pytest.raises(QueryRejected):
                    await server.submit(query)
                with pytest.raises(QueryRejected):
                    server.execute(query)  # sync path rejects identically
                backend.release.set()
                return await asyncio.gather(first, second)

            results = asyncio.run(scenario())
            assert [r.rows for r in results] == [[("done",)], [("done",)]]
            stats = server.stats()
            assert stats["submitted"] == 4
            assert stats["admitted"] == 2
            assert stats["rejected_queue_full"] == 2
            assert stats["completed"] == 2
            assert stats["queue_depth"] == 0 and stats["in_flight"] == 0

    def test_deadline_timeout_counted(self, catalog):
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=4) as server:
            async def scenario():
                with pytest.raises(QueryTimeout):
                    await server.submit(query, timeout=0.05)

            try:
                asyncio.run(scenario())
            finally:
                backend.release.set()
            assert server.stats()["timeouts"] == 1

    def test_expired_while_queued_never_executes(self, catalog):
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=4, default_timeout=0.05) as server:
            async def scenario():
                first = asyncio.ensure_future(
                    server.submit(query, timeout=30.0))
                await asyncio.get_running_loop().run_in_executor(
                    None, backend.started.wait, 10)
                with pytest.raises(QueryTimeout):
                    await server.submit(query)  # queued past its deadline
                backend.release.set()
                await first

            asyncio.run(scenario())
            stats = server.stats()
            assert stats["timeouts"] == 1
            assert stats["completed"] == 1

    def test_bad_knobs_rejected(self, catalog):
        with pytest.raises(ValueError):
            QueryServer(catalog, max_inflight=0)
        with pytest.raises(ValueError):
            QueryServer(catalog, queue_limit=0)
        with pytest.raises(ValueError):
            QueryServer(catalog, backend="bogus")

    @pytest.mark.parametrize("knob", [{"streaming": True},
                                      {"chunk_rows": 1},
                                      {"strategy": "bogus"}], ids=str)
    def test_bad_optimizer_options_fail_the_constructor(self, catalog, knob):
        """Unknown options and configs the pre-check rejects raise where
        the server is built, not in every query's dispatch thread."""
        with pytest.raises((TypeError, ValueError)):
            QueryServer(catalog, **knob)


# -- the stress test ---------------------------------------------------------------------
class TestConcurrencyStress:
    def test_async_and_thread_clients_share_one_server(self, catalog,
                                                       references):
        """Many async clients and plain threads drive one shared server:
        every result is bit-identical to serial execution and the
        admission/cache counters reconcile exactly."""
        queries = serving_queries()
        mismatches: list[str] = []
        ASYNC_CLIENTS, ROUNDS, THREADS = 8, 4, 4

        with QueryServer(catalog, backend="serial", parallelism=4,
                         max_inflight=4, queue_limit=256) as server:
            async def async_client(i):
                for r in range(ROUNDS):
                    pick = (i + r) % 3
                    result = await server.submit(
                        queries[pick],
                        **({"lim": 30} if pick == 1 else {}))
                    if result.rows != references[pick]:
                        mismatches.append(f"async{i}/q{pick}")

            def thread_client(i):
                for r in range(ROUNDS):
                    pick = (i + r) % 3
                    result = server.execute(
                        queries[pick],
                        **({"lim": 30} if pick == 1 else {}))
                    if result.rows != references[pick]:
                        mismatches.append(f"thread{i}/q{pick}")

            threads = [threading.Thread(target=thread_client, args=(i,))
                       for i in range(THREADS)]
            for t in threads:
                t.start()

            async def fan_out():
                await asyncio.gather(*[async_client(i)
                                       for i in range(ASYNC_CLIENTS)])

            asyncio.run(fan_out())
            for t in threads:
                t.join()

            assert mismatches == []
            stats = server.stats()
            total = (ASYNC_CLIENTS + THREADS) * ROUNDS
            assert stats["submitted"] == total
            assert stats["admitted"] == total
            assert stats["completed"] == total
            assert stats["failed"] == 0
            assert stats["rejected_queue_full"] == 0
            assert stats["timeouts"] == 0
            assert stats["queue_depth"] == 0 and stats["in_flight"] == 0
            # Shared cache: every prepare was a cache lookup, and only
            # the first optimization(s) of each distinct plan missed.
            assert stats["prepares"] == total
            assert stats["executions"] == total
            assert stats["cache_hits"] + stats["cache_misses"] == total
            assert stats["cache_misses"] == stats["optimizations"]
            assert stats["cache_size"] <= 3
            assert 1 <= stats["sessions"] <= 4
            # Only fresh optimizations count sharded-plan decisions, so
            # the decision counters stay tied to misses, not traffic.
            assert stats["shard_merge_plans"] <= stats["optimizations"]
            assert stats["latency_p95_ms"] >= stats["latency_p50_ms"] > 0
            assert 0.0 < stats["worker_utilization"] <= 1.0

    def test_sessions_share_the_plan_cache(self, catalog):
        """Two explicit sessions over one SharedPlanCache: a plan
        optimized by the first is served to the second from cache."""
        cache = SharedPlanCache(capacity=16)
        s1 = QuerySession(catalog, cache=cache)
        s2 = QuerySession(catalog, cache=cache)
        query = Query.table("t").order_by("b", "a", "c")
        p1 = s1.prepare(query, parallelism=4)
        p2 = s2.prepare(query, parallelism=4)
        assert not p1.from_cache and p2.from_cache
        assert p1.plan is p2.plan
        assert s1.metrics.optimizations == 1
        assert s2.metrics.optimizations == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 1


# -- backend parity ----------------------------------------------------------------------
class TestProcessBackend:
    def test_bit_identical_on_fuzz_corpus(self):
        """Acceptance: the process-pool backend returns bit-identical
        rows to serial execution on the fuzz-suite plan corpus."""
        from tests.test_plan_fuzz import random_catalog, random_query

        seeds = range(12)
        for seed in seeds:
            rng = random.Random(seed)
            fuzz_catalog = random_catalog(rng)
            query = random_query(rng, fuzz_catalog)
            reference = QuerySession(fuzz_catalog).execute(query)
            with QueryServer(fuzz_catalog, backend="process", parallelism=4,
                             max_inflight=2, pool_workers=2) as server:
                result = server.execute(query)
                assert result.rows == reference, f"fuzz seed {seed}"

    def test_metered_tallies_match_serial_on_fuzz_corpus(self):
        """Corpus plans whose exchanges leave a full table scan outside
        the shipped shard scans (seeds 12, 28 and 43 at parallelism 4):
        workers and the local gather shard it as the serial executor
        does, so the scan blocks charged agree too."""
        from tests.test_plan_fuzz import random_catalog, random_query

        for seed in (12, 28, 43):
            rng = random.Random(seed)
            fuzz_catalog = random_catalog(rng)
            query = random_query(rng, fuzz_catalog)
            plan = QuerySession(fuzz_catalog).prepare(query,
                                                      parallelism=4).plan
            backend = ProcessPoolBackend(fuzz_catalog, workers=2)
            try:
                serial, pooled = metered_runs(plan, fuzz_catalog, backend)
            finally:
                backend.close()
            assert serial == pooled, f"fuzz seed {seed}"

    def test_shard_subplans_ship_to_workers(self, catalog, references):
        """A MergeExchange plan is cut at the exchange: per-shard sorts
        run in worker processes, the stable merge runs in the server."""
        from repro.engine import shard_subplans

        session = QuerySession(catalog)
        plan = session.prepare(serving_queries()[0], parallelism=4).plan
        occurrences, tasks = shard_subplans(plan)
        assert len(occurrences) == 1 and len(tasks) == 4
        assert all(t.op in ("Sort", "PartialSort") for t in tasks)

        with QueryServer(catalog, backend="process", parallelism=4,
                         pool_workers=2) as server:
            assert server.execute(serving_queries()[0]).rows == references[0]

    def test_whole_plan_fallback_without_exchange(self, catalog, references):
        """parallelism=1 plans carry no exchange and ship whole — the
        pool then parallelizes across queries instead of within one."""
        with QueryServer(catalog, backend="process", parallelism=1,
                         pool_workers=2) as server:
            assert server.execute(serving_queries()[2]).rows == references[2]

    def test_stale_pool_detection_and_refresh(self):
        catalog = serving_catalog(num_rows=500, seed=3)
        query = Query.table("t").order_by("b", "a", "c")
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            with QueryServer(catalog, backend=backend,
                             parallelism=2) as server:
                before = server.execute(query).rows
                table = catalog.table("t")
                table._rows[:] = table._rows[: len(table._rows) // 2]
                table._sort_rows_by(SortOrder(["a"]))
                catalog.refresh_stats("t")
                assert backend.stale()
                backend.refresh()
                assert not backend.stale()
                after = server.execute(query).rows
                assert after == QuerySession(catalog).execute(query)
                assert len(after) < len(before)
        finally:
            backend.close()

    def test_parameterized_binds_reach_workers(self, catalog, references):
        with QueryServer(catalog, backend="process", parallelism=4,
                         pool_workers=2) as server:
            assert server.execute(serving_queries()[1],
                                  lim=30).rows == references[1]

    def test_worker_tallies_surface_through_ctx(self, catalog, references):
        """Worker-side counters (absorbed in shard order) are observable
        by passing an ExecutionContext to the backend."""
        from repro.engine import ExecutionContext

        session = QuerySession(catalog)
        plan = session.prepare(serving_queries()[0], parallelism=4).plan
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            ctx = ExecutionContext(catalog)
            rows = backend.run_plan(plan, catalog, parallelism=4, ctx=ctx)
            assert rows == references[0]
            # The shards' scan I/O was charged in the workers and folded
            # back here; the k-way merge comparisons accrue locally.
            assert ctx.io.blocks_read > 0
            assert ctx.comparisons.value > 0
        finally:
            backend.close()


class TestThreadBackendParity:
    def test_threads_backend_matches_serial(self, catalog, references):
        with QueryServer(catalog, backend="threads", parallelism=4,
                         max_inflight=2) as server:
            for i, (query, reference) in enumerate(zip(serving_queries(),
                                                       references)):
                binds = {"lim": 30} if i == 1 else {}
                assert server.execute(query, **binds).rows == reference


# -- cooperative backpressure ------------------------------------------------------------
class _FailingBackend(ExecutionBackend):
    """Fails the first *n* executions with an injected backend error,
    then serves a canned row."""

    name = "failing"

    def __init__(self, fail_first: int) -> None:
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def run_plan(self, plan, catalog, parallelism=1, batch_size=None,
                 check_orders=False, ctx=None):
        with self._lock:
            self.calls += 1
            n = self.calls
        if n <= self.fail_first:
            raise RuntimeError("injected backend failure")
        return [("ok",)]


class TestBackpressure:
    def test_queue_full_rejection_carries_retry_after(self, catalog):
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=1) as server:
            async def scenario():
                first = asyncio.ensure_future(server.submit(query))
                await asyncio.get_running_loop().run_in_executor(
                    None, backend.started.wait, 10)
                second = asyncio.ensure_future(server.submit(query))
                await asyncio.sleep(0.05)
                with pytest.raises(QueryRejected) as exc_info:
                    await server.submit(query)
                backend.release.set()
                await asyncio.gather(first, second)
                return exc_info.value

            rejection = asyncio.run(scenario())
            assert rejection.reason == "queue_full"
            assert rejection.retry_after > 0.0
            assert reconciles(server.stats())

    def test_dispatch_submit_failure_releases_admission_slot(self, catalog):
        """Regression: a submission the dispatch pool refuses (shutdown
        race past the _closed check) must release its admission slot —
        previously `queued` inflated forever and eventually every
        submission was rejected."""
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend="serial", max_inflight=1,
                         queue_limit=2) as server:
            real_submit = server._dispatch.submit

            def refusing_submit(*args, **kwargs):
                raise RuntimeError("cannot schedule new futures")

            server._dispatch.submit = refusing_submit
            try:
                for _ in range(3):  # more failures than queue_limit slots
                    with pytest.raises(RuntimeError):
                        server.execute(query)
            finally:
                server._dispatch.submit = real_submit
            stats = server.stats()
            assert stats["queue_depth"] == 0
            assert stats["failed"] == 3
            # The queue is empty again, so admission still works.
            assert server.execute(query).rows
            stats = server.stats()
            assert stats["completed"] == 1
            assert reconciles(stats)

    def test_client_abandoned_query_not_recounted_completed(self, catalog):
        """A query whose client stopped waiting mid-run is counted as
        that client's timeout and *only* that: the late backend result is
        discarded as `abandoned`, never double-counted `completed`."""
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=2) as server:
            with pytest.raises(QueryTimeout):
                server.execute(query, timeout=0.05)
            backend.release.set()
            stats = wait_quiescent(server)
            assert stats["timeouts"] == 1
            assert stats["completed"] == 0
            assert stats["abandoned"] == 1
            assert reconciles(stats)

    def test_queued_deadline_expiry_not_double_counted(self, catalog):
        """Regression: the dispatch body's queued-deadline expiry used to
        count both `failed` and `timeouts`; outcomes are exclusive now."""
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=4, default_timeout=0.05) as server:
            async def scenario():
                first = asyncio.ensure_future(
                    server.submit(query, timeout=30.0))
                await asyncio.get_running_loop().run_in_executor(
                    None, backend.started.wait, 10)
                with pytest.raises(QueryTimeout):
                    await server.submit(query)
                backend.release.set()
                await first

            asyncio.run(scenario())
            stats = wait_quiescent(server)
            assert stats["timeouts"] == 1
            assert stats["failed"] == 0
            assert stats["completed"] == 1
            assert reconciles(stats)

    def test_circuit_breaker_open_halfopen_close(self, catalog):
        """Consecutive backend failures trip the circuit; the open
        circuit sheds load with CircuitOpen + retry_after; the half-open
        probe after the reset timeout closes it again."""
        backend = _FailingBackend(fail_first=3)
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         circuit_threshold=3,
                         circuit_reset_timeout=0.05) as server:
            for _ in range(3):
                with pytest.raises(RuntimeError):
                    server.execute(query)
            stats = server.stats()
            assert stats["circuit_state"] == "open"
            assert stats["circuit_opens"] == 1
            with pytest.raises(CircuitOpen) as exc_info:
                server.execute(query)
            assert exc_info.value.reason == "circuit_open"
            assert exc_info.value.retry_after > 0.0
            # The open circuit never reaches the backend.
            assert backend.calls == 3
            time.sleep(0.06)
            result = server.execute(query)  # the half-open probe
            assert result.rows == [("ok",)]
            stats = server.stats()
            assert stats["circuit_state"] == "closed"
            assert stats["circuit_half_opens"] == 1
            assert stats["circuit_closes"] == 1
            assert stats["rejected_circuit"] == 1
            assert stats["failed"] == 3 and stats["completed"] == 1
            assert reconciles(stats)

    def test_tenant_quota_weighted_fairness(self, catalog):
        """Under contention (wait queue at least half full), a tenant
        over its weighted-fair share is rejected with reason "quota"
        while a below-share tenant is still admitted."""
        backend = _BlockingBackend()
        query = Query.table("t").order_by("a")
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=4,
                         tenant_weights={"alice": 1.0, "bob": 1.0}) as server:
            async def scenario():
                # alice: one running + two queued (occupancy 3).
                pending = [asyncio.ensure_future(
                    server.submit(query, tenant="alice"))]
                await asyncio.get_running_loop().run_in_executor(
                    None, backend.started.wait, 10)
                for _ in range(2):
                    pending.append(asyncio.ensure_future(
                        server.submit(query, tenant="alice")))
                await asyncio.sleep(0.05)
                # Queue is half full now: fair shares bind.  bob's first
                # query is under his entitlement (floor(5/2) = 2) …
                pending.append(asyncio.ensure_future(
                    server.submit(query, tenant="bob")))
                await asyncio.sleep(0.05)
                # … while alice (occupancy 3 >= 2) is over hers.
                with pytest.raises(QueryRejected) as exc_info:
                    await server.submit(query, tenant="alice")
                backend.release.set()
                await asyncio.gather(*pending)
                return exc_info.value

            rejection = asyncio.run(scenario())
            assert rejection.reason == "quota"
            assert rejection.retry_after > 0.0
            stats = wait_quiescent(server)
            tenants = stats["tenants"]
            assert tenants["alice"]["rejected_quota"] == 1
            assert tenants["alice"]["completed"] == 3
            assert tenants["bob"]["rejected_quota"] == 0
            assert tenants["bob"]["completed"] == 1
            assert stats["rejected_quota"] == 1
            assert reconciles(stats)
            # Per-tenant counters partition the global ones exactly.
            for key in ("submitted", "completed", "failed", "timeouts",
                        "rejected_queue_full", "rejected_quota",
                        "rejected_circuit"):
                assert sum(t[key] for t in tenants.values()) == stats[key]


# -- pool resilience ---------------------------------------------------------------------
def _worker_suicide(_: int) -> None:
    """Kills the worker process outright: breaks the pool."""
    os._exit(17)


class TestPoolResilience:
    def test_concurrent_broken_pool_single_rebuild(self):
        """Many dispatch threads hitting one broken pool: the first
        attempt's futures are cancelled, exactly one replacement pool is
        built (the expectation guard makes racing rebuilds idempotent),
        and every query succeeds on retry."""
        catalog = serving_catalog(num_rows=800, seed=5)
        query = Query.table("t").order_by("b", "a", "c")
        session = QuerySession(catalog)
        reference = session.execute(query)
        plan = session.prepare(query, parallelism=2).plan
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            handle = backend._ensure_pool()
            doomed = handle.pool.submit(_worker_suicide, 0)
            with pytest.raises(BrokenExecutor):
                doomed.result(timeout=30)
            results: list = [None] * 4
            errors: list = []

            def client(i):
                try:
                    results[i] = backend.run_plan(plan, catalog,
                                                  parallelism=2)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert all(rows == reference for rows in results)
            assert backend.describe()["pool_rebuilds"] == 1
        finally:
            backend.close()

    def test_refresh_while_serving(self):
        """refresh() swaps the pool under traffic: dispatch threads
        mid-flight drain on the old generation or retry on the new one —
        never an error, never a wrong result."""
        catalog = serving_catalog(num_rows=600, seed=7)
        query = Query.table("t").order_by("b", "a", "c")
        session = QuerySession(catalog)
        reference = session.execute(query)
        plan = session.prepare(query, parallelism=2).plan
        backend = ProcessPoolBackend(catalog, workers=2)
        stop = threading.Event()
        errors: list = []
        served = [0]

        def client():
            while not stop.is_set():
                try:
                    rows = backend.run_plan(plan, catalog, parallelism=2)
                except Exception as exc:
                    errors.append(exc)
                    return
                if rows != reference:
                    errors.append(AssertionError("rows diverged"))
                    return
                served[0] += 1

        try:
            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for _ in range(2):
                time.sleep(0.05)
                backend.refresh()
            stop.set()
            for t in threads:
                t.join()
            assert errors == []
            assert served[0] > 0
        finally:
            backend.close()


# -- serving mix: worker telemetry and tally parity -------------------------------------
def trades_catalog(num_rows=3000, seed=5):
    """The serving benchmark's ``trades`` shape: clustered on ``sym``,
    sort memory sized so the report spills unsharded."""
    rng = random.Random(seed)
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=max(20, num_rows // 100)))
    schema = Schema.of(("sym", "int", 8), ("ts", "int", 8),
                       ("qty", "int", 8), ("tag", "str", 64))
    rows = [(rng.randrange(64), rng.randrange(100_000),
             rng.randrange(1, 500), f"t{rng.randrange(997)}")
            for _ in range(num_rows)]
    catalog.create_table("trades", schema, rows=rows,
                         clustering_order=SortOrder(["sym"]))
    return catalog


def serving_mix():
    """``(name, query, binds)``: the sort-heavy report (a MergeExchange
    at parallelism 4), a parameterised group-by at two bindings and a
    range projection (both shipped as whole-plan tasks)."""
    report = Query.table("trades").order_by("ts", "sym", "qty", "tag")
    volume = (Query.table("trades").where(col("qty").ge(param("min_qty")))
              .group_by(["sym"], count_star("n"), agg_sum(col("qty"), "vol"))
              .order_by("sym"))
    recent = (Query.table("trades").where(col("ts").ge(90_000))
              .select("ts", "sym", "qty").order_by("ts", "sym", "qty"))
    return [("report", report, {}), ("volume_100", volume, {"min_qty": 100}),
            ("volume_250", volume, {"min_qty": 250}), ("recent", recent, {})]


class TestServingMixOnThePool:
    def test_metered_tallies_match_serial(self):
        """Every counter a metered ctx collects — scan blocks included —
        is the serial backend's, for sharded and whole-plan tasks alike
        (a whole plan runs at the query's parallelism in the worker)."""
        catalog = trades_catalog()
        session = QuerySession(catalog)
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            for name, query, binds in serving_mix():
                plan = session.prepare(query, parallelism=4).bind(**binds)
                serial, pooled = metered_runs(plan, catalog, backend)
                assert serial == pooled, name
        finally:
            backend.close()

    def test_repeated_plan_reports_worker_cache_hits(self):
        """The first run lowers every task (misses); a re-served plan
        finds each one warm on the single worker (hits) — for the
        report's four shard tasks and a whole-plan task alike."""
        catalog = trades_catalog(num_rows=1000)
        session = QuerySession(catalog)
        backend = ProcessPoolBackend(catalog, workers=1)
        try:
            for (name, query, binds), tasks in zip(serving_mix()[::3],
                                                   (4, 1)):
                plan = session.prepare(query, parallelism=4).bind(**binds)
                before = backend.describe()
                backend.run_plan(plan, catalog, parallelism=4)
                backend.run_plan(plan, catalog, parallelism=4)
                after = backend.describe()
                assert (after["subplan_cache_misses"]
                        - before["subplan_cache_misses"]) == tasks, name
                assert (after["subplan_cache_hits"]
                        - before["subplan_cache_hits"]) == tasks, name
        finally:
            backend.close()

    def test_server_stats_report_worker_cache_hits(self):
        catalog = trades_catalog(num_rows=1000)
        name, query, _ = serving_mix()[0]
        with QueryServer(catalog, backend="process", parallelism=4,
                         pool_workers=1) as server:
            first = server.execute(query).rows
            assert server.execute(query).rows == first
            stats = server.stats()
        assert stats["subplan_cache_misses"] == 4
        assert stats["subplan_cache_hits"] == 4


# -- the chaos reconciliation suite ------------------------------------------------------
class _FlakyBackend(ExecutionBackend):
    """Delegates to a real backend, injecting periodic failures and a
    small fixed delay (to force queueing), plus an on-demand fail-
    everything mode for tripping the circuit deterministically."""

    name = "flaky"

    def __init__(self, inner, fail_every=6, delay=0.004) -> None:
        self.inner = inner
        self.fail_every = fail_every
        self.delay = delay
        self.fail_mode = False
        self.calls = 0
        self._lock = threading.Lock()

    def run_plan(self, plan, catalog, parallelism=1, batch_size=None,
                 check_orders=False, ctx=None):
        with self._lock:
            self.calls += 1
            n = self.calls
            forced = self.fail_mode
        if self.delay:
            time.sleep(self.delay)
        if forced or (self.fail_every and n % self.fail_every == 0):
            raise RuntimeError("injected backend failure")
        return self.inner.run_plan(plan, catalog, parallelism, batch_size,
                                   check_orders, ctx)

    def close(self):
        self.inner.close()


class TestChaosReconciliation:
    @pytest.mark.parametrize("inner", ["serial", "threads", "process"])
    def test_counters_reconcile_exactly_under_chaos(self, inner):
        """Mixed async + thread clients against an overloaded server with
        an injected flaky backend: rejections, queued-deadline expiries,
        mid-run client timeouts and backend failures all occur — and the
        admission counters still reconcile exactly, on every backend,
        with observable circuit transitions at the end."""
        catalog = serving_catalog(num_rows=500, seed=11)
        query = Query.table("t").order_by("b", "a", "c")
        reference = QuerySession(catalog).execute(query)
        flaky = _FlakyBackend(make_backend(inner, catalog, pool_workers=2))
        mismatches: list[str] = []
        ASYNC_CLIENTS, THREADS, ROUNDS = 6, 3, 6

        with QueryServer(catalog, backend=flaky, max_inflight=2,
                         queue_limit=3, circuit_threshold=4,
                         circuit_reset_timeout=0.05) as server:
            def run_one(execute, label, r):
                """One request with a rotating hazard profile."""
                tenant = "alice" if r % 2 == 0 else "bob"
                timeout = None
                if r % 4 == 3:
                    timeout = 0.001  # guaranteed mid-run client timeout
                elif r % 4 == 2:
                    timeout = 0.05   # may expire while queued
                try:
                    result = execute(timeout=timeout, tenant=tenant)
                except (QueryRejected, QueryTimeout, RuntimeError):
                    return
                if result.rows != reference:
                    mismatches.append(label)

            async def async_client(i):
                for r in range(ROUNDS):
                    try:
                        result = await server.submit(
                            query,
                            timeout=(0.001 if r % 4 == 3
                                     else 0.05 if r % 4 == 2 else None),
                            tenant="alice" if r % 2 == 0 else "bob")
                    except (QueryRejected, QueryTimeout, RuntimeError):
                        continue
                    if result.rows != reference:
                        mismatches.append(f"async{i}/{r}")

            def thread_client(i):
                for r in range(ROUNDS):
                    run_one(lambda **kw: server.execute(query, **kw),
                            f"thread{i}/{r}", r)

            threads = [threading.Thread(target=thread_client, args=(i,))
                       for i in range(THREADS)]
            for t in threads:
                t.start()

            async def fan_out():
                await asyncio.gather(*[async_client(i)
                                       for i in range(ASYNC_CLIENTS)])

            asyncio.run(fan_out())
            for t in threads:
                t.join()
            stats = wait_quiescent(server)
            assert mismatches == []
            assert reconciles(stats)
            total = (ASYNC_CLIENTS + THREADS) * ROUNDS
            assert stats["submitted"] >= total  # circuit retries excluded

            # Deterministic circuit phase: fail everything until the
            # breaker opens and sheds at least one submission …
            flaky.fail_every = 0  # fail_mode alone decides from here on
            flaky.fail_mode = True
            saw_circuit_open = False
            for _ in range(50):
                try:
                    server.execute(query)
                except CircuitOpen:
                    saw_circuit_open = True
                    break
                except (QueryRejected, QueryTimeout, RuntimeError):
                    continue
            assert saw_circuit_open
            assert server.stats()["circuit_state"] == "open"
            # … then heal: the half-open probe closes it again.
            flaky.fail_mode = False
            time.sleep(0.06)
            assert server.execute(query).rows == reference
            stats = wait_quiescent(server)
            assert stats["circuit_state"] == "closed"
            assert stats["circuit_opens"] >= 1
            assert stats["circuit_half_opens"] >= 1
            assert stats["circuit_closes"] >= 1
            assert stats["rejected_circuit"] >= 1
            assert reconciles(stats)
            # Per-tenant counters partition the global ones exactly.
            tenants = stats["tenants"]
            for key in ("submitted", "completed", "failed", "timeouts",
                        "rejected_queue_full", "rejected_quota",
                        "rejected_circuit"):
                assert sum(t[key] for t in tenants.values()) == stats[key], key
