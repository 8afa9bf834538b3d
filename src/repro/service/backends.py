"""Pluggable execution backends for the :class:`QueryServer`.

A backend turns one bound :class:`~repro.optimizer.plans.PhysicalPlan`
into result rows.  Three strategies:

* :class:`SerialBackend` — the in-process
  :class:`~repro.engine.executor.BatchedExecutor`, one plan per dispatch
  thread.  Concurrency across queries comes from the server's dispatch
  pool, but CPython's GIL serializes the CPU work.
* :class:`ThreadBackend` — same, with thread-pool exchange drains
  (``use_threads=True``).  Helps I/O-bound operator backends; pure-Python
  CPU work still serializes.
* :class:`ProcessPoolBackend` — ships per-shard subplans (or whole
  plans, when a plan has no exchange) to worker processes and gathers
  them through the order-preserving merge in the serving process
  (:mod:`repro.engine.subplan`).  This is the one backend that gives the
  sharded enforcers true multi-core parallelism beyond the GIL.

Every backend returns rows **bit-identical** to serial execution: shard
pipelines are cut only at exchange boundaries, workers run the exact
per-shard plans, and the serving-side gather performs the same stable
merge (ties to the lowest shard index) the local exchange would.

The process backend has one transfer protocol: each task's future
returns the worker's whole row list, and the serving-side gather runs
once every shard has landed.  A merge needs every row before it can
finish, so there is little for chunked transfer to overlap; unmetered,
the gather merges the shards' sorted runs with one C-level stable sort.
Workers keep a warm LRU of lowered subplans keyed by task fingerprint,
so the plan-cache steady state (the same physical plan served
repeatedly) skips lowering on warm workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Optional

from ..engine.context import ExecutionContext
from ..engine.executor import BatchedExecutor
from ..obs.trace import active_span, child_span
from ..engine.subplan import (
    assemble,
    execute_subplan,
    init_worker,
    shard_subplans,
)
from ..storage.catalog import Catalog
from ..storage.handoff import catalog_payload


class ExecutionBackend:
    """Interface: run one bound physical plan to completion.

    *ctx*, when supplied, receives the execution's counter tallies
    (simulated I/O, comparisons, sort metrics) — for the process
    backend these are the worker tallies folded in shard order, so
    totals match in-process execution's determinism.
    """

    name = "backend"

    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/processes; idempotent."""

    def describe(self) -> dict:
        """Configuration and counters for ``QueryServer.stats()``."""
        return {"backend": self.name}


class SerialBackend(ExecutionBackend):
    """In-process batched execution (the ``QuerySession.execute`` path)."""

    name = "serial"

    def __init__(self, use_threads: bool = False) -> None:
        self.use_threads = use_threads

    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        # A context made here is read by nobody: it skips comparison
        # counting.  A caller's ctx keeps its own setting.
        ctx = ctx or ExecutionContext(catalog, batch_size=batch_size,
                                      check_orders=check_orders,
                                      meter_comparisons=False)
        executor = BatchedExecutor(parallelism=parallelism,
                                   use_threads=self.use_threads)
        # child_span is ambient: a no-op unless the caller is inside an
        # active trace (the server's execute span), so untraced paths
        # pay one ContextVar read.
        with child_span("local_execute", backend=self.name) as span:
            rows = executor.run(plan.to_operator(catalog), ctx)
            span.tag(rows=len(rows))
        return rows


class ThreadBackend(SerialBackend):
    """Serial backend with thread-pool exchange drains."""

    name = "threads"

    def __init__(self) -> None:
        super().__init__(use_threads=True)


class _PoolHandle:
    """One pool generation: the executor and the catalog version it was
    built against.  Handles are immutable and swapped atomically under
    the backend lock, so a dispatch thread holding an old generation
    keeps a consistent pair even while a refresh installs the next
    one."""

    __slots__ = ("pool", "version")

    def __init__(self, pool: ProcessPoolExecutor, version) -> None:
        self.pool = pool
        self.version = version


class ProcessPoolBackend(ExecutionBackend):
    """Multi-core execution over a pool of worker processes.

    The pool is built once (eagerly, so all workers exist before the
    server's dispatch threads start) with each worker holding its own
    catalog copy from a :func:`~repro.storage.handoff.catalog_payload`
    snapshot.  Per query, the plan's maximal exchanges are cut into
    per-shard tasks (:func:`~repro.engine.subplan.shard_subplans`);
    plans without exchanges ship whole — the pool then provides
    inter-query parallelism instead.

    ``mp_context`` picks the multiprocessing start method; the default
    prefers ``fork`` (cheap worker startup, payload inherited by
    reference) and falls back to the platform default where ``fork`` is
    unavailable.  ``fork`` is only safe while the serving process is
    single-threaded, so it is used exclusively for the **eager initial
    build** (which the constructor performs, before the server's
    dispatch threads exist); any later rebuild — :meth:`refresh` after
    catalog row changes, or the automatic replacement of a broken pool
    — happens mid-traffic and therefore switches to ``spawn``, which
    never inherits another thread's held locks.  :meth:`stale` reports
    whether the catalog version moved since the pool was built.

    Rebuilds are **swap-under-lock**: the replacement pool is built and
    warmed first, the handle pointer is swapped atomically, and the old
    generation retires in the background once its in-flight work drains
    — a dispatch thread mid-submit on the old pool either finishes
    normally or observes a clean "cannot schedule new futures after
    shutdown" and retries on the new generation.  A broken pool's
    outstanding futures are cancelled *before* the rebuild so no
    dispatch thread waits on a future the dead pool will never complete.
    """

    name = "process"

    #: Transparent retries per query: once for a broken pool (rebuild),
    #: plus once more if the pool is swapped beneath a submit.
    MAX_RETRIES = 2

    def __init__(self, catalog: Catalog, workers: Optional[int] = None,
                 mp_context: Optional[str] = None) -> None:
        self.catalog = catalog
        self.workers = workers or os.cpu_count() or 1
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp_context = mp_context
        self._lock = threading.Lock()
        self._handle: Optional[_PoolHandle] = None
        self._forked_once = False
        # Telemetry (under self._lock).
        self._rebuilds = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._ensure_pool()

    # -- pool lifecycle ---------------------------------------------------------------
    def _build_context(self):
        """The start method for the next pool build: the configured one
        for the constructor-time build, never ``fork`` afterwards (a
        mid-traffic fork inherits whatever locks other threads hold)."""
        method = self._mp_context
        if method == "fork" and self._forked_once:
            method = "spawn"
        return multiprocessing.get_context(method) if method else None

    def _build_handle(self) -> _PoolHandle:
        """Build and warm a complete pool generation (no locks held —
        spawning workers is slow and must not block dispatch threads
        running on the current generation)."""
        payload = catalog_payload(self.catalog)
        context = self._build_context()
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context,
            initializer=init_worker, initargs=(payload,))
        try:
            # Touch every worker now, not at first traffic.
            list(pool.map(_noop, range(self.workers)))
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        if self._mp_context == "fork":
            self._forked_once = True
        return _PoolHandle(pool, payload.version_token)

    def _ensure_pool(self) -> _PoolHandle:
        with self._lock:
            if self._handle is not None:
                return self._handle
        return self._rebuild(replacing=None)

    def _rebuild(self, replacing: Optional[_PoolHandle]) -> _PoolHandle:
        """Install a fresh pool generation, replacing *replacing*.

        The expectation guard makes concurrent rebuild attempts idempotent:
        if another thread already swapped the handle (e.g. two dispatch
        threads both observed the same broken pool), the later builder
        discards its own pool and adopts the winner's.
        """
        fresh = self._build_handle()
        with self._lock:
            current = self._handle
            if current is not None and current is not replacing:
                # Lost the race: someone already installed a new
                # generation.  Retire ours without ever exposing it.
                stale, winner = fresh, current
            else:
                self._handle = fresh
                if replacing is not None:
                    self._rebuilds += 1
                stale, winner = replacing, fresh
        if stale is not None:
            _retire_handle_async(stale)
        return winner

    def stale(self) -> bool:
        """Whether the catalog changed since the workers were built."""
        with self._lock:
            handle = self._handle
        return (handle is not None
                and handle.version != self.catalog.stats_version)

    def refresh(self) -> None:
        """Rebuild the pool against the current catalog contents.

        Safe under traffic: the new generation is built and warmed
        first, then swapped in; dispatch threads mid-flight on the old
        generation drain there (the old pool retires in the background),
        and a submit that races the swap retries on the new pool.
        """
        with self._lock:
            current = self._handle
        self._rebuild(replacing=current)

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.pool.shutdown(wait=True, cancel_futures=True)

    # -- execution -------------------------------------------------------------------
    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        # Tracing rides the ambient span (the server's execute span):
        # run_plan's signature stays trace-free for third-party
        # backends, and untraced queries pay one ContextVar read.
        parent = active_span()
        meter_timing = ctx is not None and ctx.meter_timing
        # Without a caller ctx nobody reads the tallies: workers and the
        # local merge skip comparison counting.
        meter_comparisons = ctx is not None and ctx.meter_comparisons
        occurrences, tasks = shard_subplans(plan)
        attempts = 0
        while True:
            handle = self._ensure_pool()
            try:
                rows, local = self._run_gathered(
                    handle, occurrences, tasks, plan, catalog, parallelism,
                    batch_size, check_orders, parent, meter_timing,
                    attempts, meter_comparisons)
                break
            except BrokenExecutor:
                # A worker died (OOM, signal).  This attempt's futures
                # were already cancelled by the failing path; rebuild
                # once (spawn context — see _build_context) and retry,
                # so a transient casualty doesn't poison later queries.
                attempts += 1
                if attempts > self.MAX_RETRIES:
                    raise
                self._rebuild(replacing=handle)
            except RuntimeError as exc:
                # "cannot schedule new futures after shutdown": the pool
                # was swapped beneath us by a concurrent refresh.  The
                # new generation is already installed — just retry.
                if "shutdown" not in str(exc).lower():
                    raise
                attempts += 1
                if attempts > self.MAX_RETRIES:
                    raise
        if parent is not None and attempts:
            parent.tag(retries=attempts)
        if ctx is not None:
            ctx.absorb_tallies(local.tallies())
        return rows

    @staticmethod
    def _dispatch_span(parent, shard: int, attempt: int):
        """Open one shard's dispatch span (finished when its result —
        or failure — lands); returns ``(span, trace_ctx)`` or
        ``(None, None)`` untraced."""
        if parent is None:
            return None, None
        span = parent.trace.begin("shard_dispatch",
                                  parent_id=parent.span_id,
                                  shard=shard, attempt=attempt)
        return span, (parent.trace.trace_id, span.span_id)

    @staticmethod
    def _close_failed_spans(parent, spans, exc: BaseException) -> None:
        if parent is None:
            return
        for span in spans:
            if span is not None and span.end is None:
                span.tag(error=type(exc).__name__)
                parent.trace.finish(span)

    @staticmethod
    def _attach_worker_spans(parent, span, records) -> None:
        """Finish one shard's dispatch span and graft the worker's span
        records under it, rebased onto the dispatch span's start (worker
        clocks are not comparable with ours)."""
        if span is None:
            return
        parent.trace.finish(span)
        if records:
            parent.trace.attach(records, base_offset=span.start)

    def _run_gathered(self, handle: _PoolHandle, occurrences, tasks, plan,
                      catalog: Catalog, parallelism: int, batch_size,
                      check_orders, parent=None, meter_timing: bool = False,
                      attempt: int = 0, meter_comparisons: bool = True
                      ) -> tuple[list[tuple], ExecutionContext]:
        """Whole-result transfer: one future per task, each returning
        its full row list; the gather runs after every shard lands.
        Workers and the local gather run at *parallelism*, so every full
        scan left in a task or above the exchange is sharded exactly as
        the serial backend shards it, and charges the same blocks."""
        futures = []
        spans = []
        results = []
        try:
            # The submit loop sits inside the try: a broken pool can
            # raise at submit time, and any dispatch spans already
            # opened must still be closed.
            for i, task in enumerate(tasks):
                span, trace_ctx = self._dispatch_span(parent, i, attempt)
                spans.append(span)
                futures.append(handle.pool.submit(
                    execute_subplan, task, batch_size, check_orders,
                    meter_timing, trace_ctx, meter_comparisons,
                    parallelism))
            for future, span in zip(futures, spans):
                rows, tallies, cache_hit, records = future.result()
                results.append((rows, tallies, cache_hit))
                self._attach_worker_spans(parent, span, records)
        except BaseException as exc:
            # Cancel-before-rebuild: never leave the first attempt's
            # futures running (or queued) on a pool we may retire.
            for future in futures:
                future.cancel()
            self._close_failed_spans(parent, spans, exc)
            raise
        local = ExecutionContext(catalog, batch_size=batch_size,
                                 check_orders=check_orders,
                                 meter_timing=meter_timing,
                                 meter_comparisons=meter_comparisons)
        # Fold worker tallies in task (= shard) order: deterministic.
        for _, tallies, _ in results:
            local.absorb_tallies(tallies)
        hits = sum(1 for _, _, cache_hit in results if cache_hit)
        with self._lock:
            self._cache_hits += hits
            self._cache_misses += len(results) - hits
        if not occurrences:
            return results[0][0], local
        shard_rows = []
        cursor = 0
        for node in occurrences:
            width = len(node.children)
            shard_rows.append([results[cursor + j][0] for j in range(width)])
            cursor += width
        root = assemble(plan, occurrences, shard_rows, catalog)
        with child_span("merge", shards=len(tasks)) as merge_span:
            rows = BatchedExecutor(parallelism=parallelism).run(root, local)
            merge_span.tag(rows=len(rows))
        return rows, local

    def describe(self) -> dict:
        with self._lock:
            handle = self._handle
            out = {
                "backend": self.name,
                "pool_workers": self.workers,
                "pool_rebuilds": self._rebuilds,
                "subplan_cache_hits": self._cache_hits,
                "subplan_cache_misses": self._cache_misses,
            }
        out["pool_stale"] = (handle is not None
                             and handle.version != self.catalog.stats_version)
        return out


def _retire_handle_async(handle: _PoolHandle) -> None:
    """Retire an old pool generation without blocking the swapper.

    In-flight futures on the old pool are allowed to drain (dispatch
    threads may still be waiting on them).  A broken pool's futures were
    cancelled by the failing ``run_plan`` before the rebuild, so
    retirement is prompt there too.
    """
    threading.Thread(target=handle.pool.shutdown,
                     kwargs={"wait": True, "cancel_futures": False},
                     daemon=True, name="pool-retirement").start()


def _noop(_: int) -> None:
    """Pool warm-up task (must be module-level for pickling)."""


def make_backend(kind, catalog: Catalog,
                 pool_workers: Optional[int] = None,
                 mp_context: Optional[str] = None) -> ExecutionBackend:
    """Resolve a backend spec: an instance passes through, a name
    (``"serial"`` / ``"threads"`` / ``"process"``) is constructed."""
    if isinstance(kind, ExecutionBackend):
        return kind
    if kind == "serial":
        return SerialBackend()
    if kind == "threads":
        return ThreadBackend()
    if kind == "process":
        return ProcessPoolBackend(catalog, workers=pool_workers,
                                  mp_context=mp_context)
    raise ValueError(f"unknown backend {kind!r}; "
                     "have 'serial', 'threads', 'process'")
