"""Shard-subplan extraction and the process-pool worker entrypoint.

The process-pool backend (:mod:`repro.service.backends`) gives the
sharded enforcers true multi-core parallelism: the per-shard pipelines
the optimizer placed under a :class:`~repro.engine.exchange.MergeExchange`
(or :class:`~repro.engine.exchange.ExchangeUnion`) are shipped — as
picklable :class:`~repro.optimizer.plans.PhysicalPlan` subtrees — to
worker processes, executed there, and gathered back through the same
order-preserving merge in the serving process.  This module supplies the
pieces:

* :func:`exchange_occurrences` / :func:`shard_subplans` — find the
  *maximal* exchange nodes of a plan (exchanges not nested under another
  exchange) and cut their children out as independent worker tasks;
* :func:`strip_plan` — drop optimizer-only payload (the ``logical``
  back-references candidate generation attaches) before pickling, so
  the shipped bytes carry only what lowering needs;
* :func:`execute_subplan` — the worker entrypoint: lowers a subplan
  against the worker's catalog (installed once per pool by
  :func:`init_worker`) and returns its rows and tallies;
* :func:`assemble` — rebuild the serving-side operator tree with each
  shipped child replaced by a :class:`~repro.engine.scans.RowSource`
  over the worker's rows, so the gather (stable k-way merge, ties to the
  lowest shard index) and everything above it runs locally and the
  result is **bit-identical** to single-process execution.  Unmetered,
  the gather merges those materialised runs with one stable sort.

Workers also keep a small LRU of *lowered* subplans keyed by the task's
pickled fingerprint: operators are plans, not live cursors (they may be
re-executed), and a pool's catalog snapshot is immutable for the pool's
lifetime, so a repeated query — the plan-cache steady state — skips
lowering and kernel lookup entirely on a warm worker.

Determinism: tasks are generated in plan pre-order and, per exchange, in
shard order; the parent absorbs worker tallies in exactly that order, so
counters never depend on worker scheduling.  A gather whose children
were range partitions disjoint on the merge key concatenates heap-free
locally; ``RowSource`` children carry no partition bounds to
re-detect that from, so re-assembly forwards the plan node's
``disjoint`` arg (the planner's proof, which survives :func:`strip_plan`)
as the exchange's ``declared_disjoint`` — the re-assembled gather
concatenates exactly where local execution does, keeping comparison
tallies bit-identical across backends.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Any, Optional, Sequence

from ..obs.trace import Trace

from .context import ExecutionContext
from .executor import BatchedExecutor
from .exchange import ExchangeUnion, MergeExchange
from .iterators import Operator
from .lowering import meter_for, operators_from_plan
from .scans import RowSource

#: The gather operators whose children are independently executable
#: shard pipelines.
EXCHANGE_OPS = ("MergeExchange", "ExchangeUnion")


def exchange_occurrences(plan) -> list:
    """Maximal exchange nodes of *plan*, in pre-order.

    "Maximal" means not nested under another exchange: an exchange
    buried inside a shipped shard pipeline is executed by the worker
    that runs the pipeline.  The same (memoised) plan object appearing
    at two tree positions yields two occurrences — each is executed
    (and charged) separately, matching local execution.
    """
    out: list = []

    def visit(node) -> None:
        if node.op in EXCHANGE_OPS:
            out.append(node)
            return
        for child in node.children:
            visit(child)

    visit(plan)
    return out


#: Plan args that must never cross a process boundary: ``logical`` is an
#: optimizer-only back-reference; ``kernels`` holds compiled closures
#: (:class:`~repro.engine.kernels.OperatorKernels` refuses to pickle by
#: design — workers recompile against their own catalog snapshot and
#: keep warm per-process kernel caches instead).
_UNPICKLABLE_ARGS = ("logical", "kernels")


def strip_plan(plan):
    """A copy of *plan* without optimizer-only args (``logical``
    back-references into the logical tree) and without compiled kernel
    bundles (unpicklable by construction); lowering in the worker
    recompiles kernels through its process-global cache, and the pickled
    task shrinks accordingly."""
    from ..optimizer.plans import PhysicalPlan

    children = tuple(strip_plan(c) for c in plan.children)
    args = tuple((k, v) for k, v in plan.args if k not in _UNPICKLABLE_ARGS)
    if children == plan.children and args == plan.args:
        return plan
    return PhysicalPlan(plan.op, plan.schema, plan.order, plan.stats,
                        plan.self_cost, children, args)


def shard_subplans(plan) -> tuple[list, list[Any]]:
    """Cut *plan* into worker tasks.

    Returns ``(occurrences, tasks)``: the maximal exchange nodes and the
    flat task list — one stripped subplan per exchange child, ordered by
    occurrence then shard index.  A plan with no exchange at all becomes
    a single whole-plan task (``occurrences == []``): the pool then
    provides inter-query rather than intra-query parallelism.
    """
    occurrences = exchange_occurrences(plan)
    if not occurrences:
        return [], [strip_plan(plan)]
    tasks = [strip_plan(child)
             for node in occurrences for child in node.children]
    return occurrences, tasks


def assemble(plan, occurrences: Sequence[Any],
             shard_rows: Sequence[Sequence[list[tuple]]], catalog) -> Operator:
    """Serving-side operator tree with shipped children grafted back in.

    *shard_rows* holds, per occurrence, one row list per exchange child.
    Each exchange is rebuilt over :class:`RowSource` children declaring
    the exchange's merge order (their streams are sorted on it by
    construction — the workers ran the per-shard enforcers), so a
    ``MergeExchange`` returns the rows its merge over live shard streams
    would have, and ``check_orders`` execution still verifies every
    input.
    """
    remaining = [(node, rows) for node, rows in zip(occurrences, shard_rows)]

    def replace(node) -> Optional[Operator]:
        for i, (occ, rows_per_child) in enumerate(remaining):
            if occ is node:
                del remaining[i]
                if node.op == "MergeExchange":
                    children = [RowSource(c.schema, rows, node.order)
                                for c, rows in zip(node.children,
                                                   rows_per_child)]
                    exchange: Operator = MergeExchange(
                        children, node.order,
                        declared_disjoint=node.arg("disjoint", False))
                else:
                    children = [RowSource(c.schema, rows)
                                for c, rows in zip(node.children,
                                                   rows_per_child)]
                    exchange = ExchangeUnion(children)
                exchange._meter = meter_for(node)
                return exchange
        return None

    root = operators_from_plan(plan, catalog, replace=replace)
    if remaining:  # pragma: no cover - defensive
        raise RuntimeError("assemble: not every shipped exchange was grafted")
    return root


# -- worker side -------------------------------------------------------------------------
#: Installed once per worker process by :func:`init_worker`.
_WORKER_CATALOG = None
#: Warm cache of lowered subplans, keyed by task fingerprint.  Safe for
#: the pool's lifetime: the worker catalog is an immutable snapshot
#: (rebuilds spawn fresh workers), and operators are re-executable plans.
_SUBPLAN_CACHE: "OrderedDict[str, Operator]" = OrderedDict()
_SUBPLAN_CACHE_SIZE = 32


def init_worker(payload, cache_size: int = 32) -> None:
    """Process-pool initializer: build this worker's catalog copy and
    size the warm subplan cache."""
    global _WORKER_CATALOG, _SUBPLAN_CACHE_SIZE
    from ..storage.handoff import build_catalog

    _WORKER_CATALOG = build_catalog(payload)
    _SUBPLAN_CACHE_SIZE = max(0, cache_size)
    _SUBPLAN_CACHE.clear()


def _lowered_cached(plan) -> tuple[Operator, bool]:
    """Lower *plan* against the worker catalog, through the warm cache.

    The key is a fingerprint of the pickled task — value-based, so a
    re-shipped identical subplan hits whichever worker it lands on once
    that worker has seen it; parameterised binds differ in the pickle
    and naturally miss.  Returns ``(operator, was_hit)``.
    """
    if _SUBPLAN_CACHE_SIZE <= 0:
        return plan.to_operator(_WORKER_CATALOG), False
    key = hashlib.sha1(
        pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)).hexdigest()
    op = _SUBPLAN_CACHE.get(key)
    if op is not None:
        _SUBPLAN_CACHE.move_to_end(key)
        return op, True
    op = plan.to_operator(_WORKER_CATALOG)
    _SUBPLAN_CACHE[key] = op
    while len(_SUBPLAN_CACHE) > _SUBPLAN_CACHE_SIZE:
        _SUBPLAN_CACHE.popitem(last=False)
    return op, False


def _worker_trace(trace_ctx: Optional[tuple]) -> tuple[Optional[Trace],
                                                       Optional[Any]]:
    """Build this task's worker-local trace from a shipped
    ``(trace_id, parent_span_id)`` pair.

    The worker's span ids carry the parent span id as a prefix
    (``"<parent>.<n>"``), so re-attached ids can never collide with the
    serving process's own; its root span's ``parent_id`` is the parent's
    dispatch span, which is what stitches the shipped records into the
    parent tree.  Offsets are worker-relative (epoch = trace creation,
    i.e. task start) — the parent rebases them on attach.
    """
    if trace_ctx is None:
        return None, None
    trace_id, parent_span_id = trace_ctx
    trace = Trace(trace_id, id_prefix=f"{parent_span_id}.")
    root = trace.begin("worker_execute", parent_id=parent_span_id,
                       pid=os.getpid())
    return trace, root


def execute_subplan(plan, batch_size: Optional[int] = None,
                    check_orders: bool = False,
                    meter_timing: bool = False,
                    trace_ctx: Optional[tuple] = None,
                    meter_comparisons: bool = True,
                    parallelism: int = 1
                    ) -> tuple[list[tuple], dict, bool, Optional[list]]:
    """Worker entrypoint: run one shipped subplan to completion.

    Returns ``(rows, tallies, cache_hit, span_records)``: the result
    rows, the worker's counter tallies
    (:meth:`~repro.engine.context.ExecutionContext.tallies`) — absorbed
    by the parent in task order so totals stay deterministic — whether
    the lowered subplan came from the warm cache, and, when *trace_ctx*
    carries a ``(trace_id, parent_span_id)`` pair, the worker's span
    records for re-attachment (``None`` otherwise).  *meter_timing* and
    *meter_comparisons* mirror the parent context's flags, so the
    tallies shipped home are the ones it would have kept.
    *parallelism* is the query's scan fan-out: a full scan left in the
    task (all of them, in a whole-plan task) is sharded as the serial
    backend would shard it, so it charges the same blocks.
    """
    if _WORKER_CATALOG is None:
        raise RuntimeError("worker pool not initialized with a catalog "
                           "payload (init_worker was not run)")
    ctx = ExecutionContext(_WORKER_CATALOG, batch_size=batch_size,
                           check_orders=check_orders,
                           meter_timing=meter_timing,
                           meter_comparisons=meter_comparisons)
    executor = BatchedExecutor(parallelism=parallelism)
    trace, root = _worker_trace(trace_ctx)
    if trace is None:
        op, cache_hit = _lowered_cached(plan)
        return executor.run(op, ctx), ctx.tallies(), cache_hit, None
    with trace.span("lower", parent=root) as lower_span:
        op, cache_hit = _lowered_cached(plan)
        lower_span.tag(cache_hit=cache_hit)
    with trace.span("run", parent=root) as run_span:
        rows = executor.run(op, ctx)
        run_span.tag(rows=len(rows))
    trace.finish(root)
    return rows, ctx.tallies(), cache_hit, trace.to_records()
