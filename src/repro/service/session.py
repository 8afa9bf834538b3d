"""The query-serving facade: prepare once, execute many.

:class:`QuerySession` wires the optimizer, the plan cache and the
execution engine into the loop a production system actually runs:

1. ``prepare(query)`` — fingerprint the logical tree, look the plan up
   in the :class:`~repro.service.plan_cache.PlanCache`; only on a miss
   pay for a full (cost-bounded) Volcano search.
2. ``PreparedQuery.execute(**binds)`` — substitute parameter bindings
   into the cached physical plan and run it on the engine.

Parameters (:class:`repro.expr.expressions.Param`) make one cache entry
serve a whole family of queries: the cost model's selectivity estimates
never depend on literal values, so the plan is bind-independent by
construction, and binding is a pure plan-tree substitution — the
optimizer is not consulted again.

Cached plans are keyed on the versions of **only the tables they
reference** (:meth:`repro.storage.catalog.Catalog.table_versions`):
``refresh_stats("orders")`` or a new index on ``orders`` invalidates
exactly the plans that read ``orders`` and leaves the rest of the cache
hot.

Execution is batch-vectorized: ``execute`` accepts a ``batch_size``
(rows per :class:`~repro.engine.batch.RowBatch`) and a ``parallelism``
knob that fans full table scans out into contiguous shards driven
through the :class:`~repro.engine.executor.BatchedExecutor`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional, Union as TUnion

from ..engine.context import ExecutionContext
from ..engine.executor import BatchedExecutor
from ..engine.kernels import attach_plan_kernels, kernel_stats
from ..logical.algebra import LogicalExpr, referenced_tables
from ..logical.builder import Query
from ..logical.fingerprint import logical_fingerprint
from ..core.sort_order import SortOrder
from ..obs.analyze import ExplainAnalyze
from ..obs.trace import child_span
from ..optimizer.plans import PhysicalPlan
from ..optimizer.volcano import (
    Optimizer,
    OptimizerConfig,
    shardable_enforcement_input,
    split_required_order,
)
from ..storage.catalog import Catalog
from .feedback import FeedbackConfig, scan_table
from .plan_cache import PlanCache


# -- parameter binding (pipeline stage 4; re-exported here for compat) ---------------
# bind_expression / expression_params / plan_params / bind_plan moved to
# the optimizer pipeline's parameterization stage; the serving layer (and
# repro.service.__init__) keeps importing them from this module.
from ..optimizer.pipeline.parameterization import (  # noqa: E402,F401
    bind_expression,
    bind_plan,
    expression_params,
    plan_params,
)


# -- the session ------------------------------------------------------------------------
@dataclass
class SessionMetrics:
    """Serving-side counters (cache counters live on the cache itself)."""

    prepares: int = 0
    optimizations: int = 0
    executions: int = 0
    optimize_seconds: float = 0.0
    #: Shard-aware enforcer placement decisions, counted once per fresh
    #: optimization at ``parallelism > 1``: plans that enforce order
    #: per shard under a MergeExchange vs plans that kept the post-union
    #: sort because the cost model said the merge would not pay off.
    shard_merge_plans: int = 0
    post_union_sort_plans: int = 0
    #: Fresh plans that shard a *join* (per-shard merge joins under an
    #: exchange gather — broadcast or co-partitioned) and plans that
    #: shard an *aggregation* (per-shard aggregates + final combine).
    sharded_join_plans: int = 0
    sharded_agg_plans: int = 0
    #: Fresh plans that shard a *DISTINCT*: per-shard Dedup under a
    #: MergeExchange with a merge-level final dedup.
    sharded_distinct_plans: int = 0
    #: Per-stage optimizer telemetry, summed over fresh optimizations
    #: (from :attr:`Optimizer.last_telemetry`): stage-2 join-enumeration
    #: wall time and candidate count, and stage-3 search effort — goals
    #: expanded/pruned and (failure-)memo hits.
    enumerator_seconds: float = 0.0
    join_order_candidates: int = 0
    goals_examined: int = 0
    goals_pruned: int = 0
    memo_hits: int = 0
    failure_memo_hits: int = 0
    #: Adaptive-statistics feedback (sessions built with a
    #: :class:`~repro.service.feedback.FeedbackConfig`): executions whose
    #: tallies were inspected, scan meters found past the drift
    #: threshold, and catalog refreshes actually performed (drift that
    #: survived the ground-truth check — each one bumps ``stats_version``
    #: and invalidates the cached plans reading the table).
    drift_checks: int = 0
    drift_events: int = 0
    feedback_refreshes: int = 0


class PreparedQuery:
    """An optimized, cached plan ready for (repeated) execution."""

    def __init__(self, session: "QuerySession", plan: PhysicalPlan,
                 fingerprint: str, required: SortOrder,
                 from_cache: bool, tables: frozenset[str] = frozenset(),
                 parallelism: int = 1) -> None:
        self.session = session
        self.plan = plan
        self.fingerprint = fingerprint
        self.required_order = required
        self.from_cache = from_cache
        self.tables = tables
        #: The shard fan-out the plan was optimized for; ``execute``
        #: defaults to it so the merge-exchange choice and the runtime
        #: sharding stay in lockstep.
        self.parallelism = parallelism
        self.param_names = plan_params(plan)

    @property
    def total_cost(self) -> float:
        return self.plan.total_cost

    def explain(self) -> str:
        return self.plan.explain()

    def bind(self, **binds: Any) -> PhysicalPlan:
        """The executable plan with parameters substituted."""
        unknown = set(binds) - set(self.param_names)
        if unknown:
            raise KeyError(f"unknown query parameters: {sorted(unknown)}")
        missing = set(self.param_names) - set(binds)
        if missing:
            raise KeyError(f"missing bindings for parameters: {sorted(missing)}")
        if not self.param_names:
            return self.plan
        return bind_plan(self.plan, binds)

    def execute(self, ctx: Optional[ExecutionContext] = None,
                parallelism: Optional[int] = None,
                batch_size: Optional[int] = None,
                use_threads: bool = False, **binds: Any) -> list[tuple]:
        """Run the plan on the batched engine.

        ``parallelism`` (default: the value the plan was prepared with)
        shards every full table scan into that many contiguous partitions
        gathered by an ExchangeUnion; scans the optimizer already sharded
        under a MergeExchange are left as planned.  ``batch_size`` sets
        the rows-per-batch of a context created here (ignored when *ctx*
        is supplied).  A context created here skips comparison counting
        (nothing reads it); a supplied *ctx* keeps its own setting.
        """
        plan = self.bind(**binds)
        self.session.metrics.executions += 1
        ctx = ctx or ExecutionContext(self.session.catalog,
                                      batch_size=batch_size,
                                      meter_comparisons=False)
        if parallelism is None:
            parallelism = self.parallelism
        executor = BatchedExecutor(parallelism=parallelism,
                                   use_threads=use_threads)
        rows = executor.run(plan.to_operator(self.session.catalog), ctx)
        self.session.observe_execution(self, ctx)
        return rows


class QuerySession:
    """Prepare, cache and execute queries against one catalog.

    One session per serving process; safe to reuse across queries.  The
    underlying :class:`Optimizer` is rebuilt only when a plan-cache miss
    forces a fresh search.
    """

    def __init__(self, catalog: Catalog, strategy: str = "pyro-o",
                 config: Optional[OptimizerConfig] = None,
                 cache_capacity: int = 128,
                 cache_ttl: Optional[float] = None,
                 cache: Optional[PlanCache[PhysicalPlan]] = None,
                 feedback: Optional[FeedbackConfig] = None,
                 **overrides: Any) -> None:
        self.catalog = catalog
        self.optimizer = Optimizer(catalog, strategy, config, **overrides)
        #: *cache* may be a shared, cross-session instance (the serving
        #: tier passes one :class:`~repro.service.plan_cache.SharedPlanCache`
        #: to every session it creates); ``cache_capacity``/``cache_ttl``
        #: then belong to the shared cache's owner and are ignored here.
        self.cache: PlanCache[PhysicalPlan] = cache if cache is not None \
            else PlanCache(cache_capacity, ttl_seconds=cache_ttl)
        #: Adaptive-statistics feedback; ``None`` (the default) disables
        #: drift detection entirely — see :mod:`repro.service.feedback`.
        self.feedback = feedback
        self.metrics = SessionMetrics()

    # -- public API ------------------------------------------------------------------
    def prepare(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> PreparedQuery:
        """Plan (or fetch the cached plan for) a query.

        ``parallelism > 1`` plans for a sharded execution: enforcers may
        be placed per shard under a MergeExchange when the cost model
        favours it, so the fan-out is part of the cache key — the same
        logical query prepared at a different parallelism is a different
        physical plan.
        """
        # The "plan" span covers cache lookup + (on a miss) the full
        # optimizer pipeline; its children are the four stage spans the
        # Optimizer emits.  No-op when no query trace is active.
        with child_span("plan") as span:
            prepared = self._prepare(query, required_order, parallelism)
            span.tag(cache_hit=prepared.from_cache,
                     fingerprint=prepared.fingerprint)
        return prepared

    def _prepare(self, query: TUnion[Query, LogicalExpr],
                 required_order: Optional[SortOrder] = None,
                 parallelism: int = 1) -> PreparedQuery:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        # The same normalization Optimizer.optimize applies, so the cache
        # key always describes exactly the tree that gets planned.
        expr, required = split_required_order(query, required_order)
        fp = logical_fingerprint(expr, required)
        if parallelism > 1:
            fp = f"{fp}#p{parallelism}"
        # Like the parallelism salt: plans from different join-order
        # enumerators are different physical plans for the same logical
        # query, so they must never collide in a (shared) cache.  The
        # default exhaustive enumerator salts with "" — pre-pipeline
        # fingerprints stay valid.
        enumerator_salt = self.optimizer.pipeline.cache_salt
        if enumerator_salt:
            fp = f"{fp}#j{enumerator_salt}"
        tables = referenced_tables(expr)
        # Per-table invalidation: the token covers only the tables this
        # query reads, so refreshes elsewhere leave the entry valid.
        version = self.catalog.table_versions(tables)
        self.metrics.prepares += 1
        plan = self.cache.get(fp, version)
        if plan is not None:
            return PreparedQuery(self, plan, fp, required, from_cache=True,
                                 tables=tables, parallelism=parallelism)
        start = time.perf_counter()
        plan = self.optimizer.optimize(expr, required, parallelism=parallelism)
        self.metrics.optimize_seconds += time.perf_counter() - start
        self.metrics.optimizations += 1
        telemetry = self.optimizer.last_telemetry
        self.metrics.enumerator_seconds += telemetry.get(
            "enumerator_seconds", 0.0)
        self.metrics.join_order_candidates += int(telemetry.get(
            "join_order_candidates", 0))
        self.metrics.goals_examined += int(telemetry.get("goals_examined", 0))
        self.metrics.goals_pruned += int(telemetry.get("goals_pruned", 0))
        self.metrics.memo_hits += int(telemetry.get("memo_hits", 0))
        self.metrics.failure_memo_hits += int(telemetry.get(
            "failure_memo_hits", 0))
        if parallelism > 1:
            gathers = plan.find_all("MergeExchange")
            if any(c.op == "MergeJoin" for g in gathers for c in g.children) \
                    or any(c.op in ("MergeJoin", "HashJoin")
                           for g in plan.find_all("ExchangeUnion")
                           for c in g.children):
                self.metrics.sharded_join_plans += 1
            if plan.find_all("SortedCombine"):
                self.metrics.sharded_agg_plans += 1
            if any(c.op == "Dedup" for g in gathers for c in g.children):
                self.metrics.sharded_distinct_plans += 1
            if gathers:
                self.metrics.shard_merge_plans += 1
            elif any(shardable_enforcement_input(node.children[0], self.catalog,
                                                 parallelism)
                     for node in plan.walk()
                     if node.op in ("Sort", "PartialSort")):
                # Only count sorts where a per-shard alternative actually
                # existed and lost on cost — interior sorts over
                # unshardable shapes (join inputs etc.) are not decisions.
                self.metrics.post_union_sort_plans += 1
        # Compile the plan's hot expressions once, here at prepare time:
        # cached-plan re-executions (and repeated executes of this
        # PreparedQuery) lower straight from the attached bundles with
        # zero recompilation.  Parameterized nodes stay bundle-free and
        # compile at bind/execute time, exactly as before.
        plan = attach_plan_kernels(plan)
        self.cache.put(fp, plan, version)
        return PreparedQuery(self, plan, fp, required, from_cache=False,
                             tables=tables, parallelism=parallelism)

    def execute(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                ctx: Optional[ExecutionContext] = None,
                parallelism: int = 1, batch_size: Optional[int] = None,
                use_threads: bool = False, **binds: Any) -> list[tuple]:
        """Prepare (served from cache when possible) and execute."""
        return self.prepare(query, required_order, parallelism=parallelism).execute(
            ctx, batch_size=batch_size, use_threads=use_threads, **binds)

    def explain(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> str:
        return self.prepare(query, required_order, parallelism=parallelism).explain()

    def explain_analyze(self, query: TUnion[Query, LogicalExpr],
                        required_order: Optional[SortOrder] = None,
                        parallelism: int = 1,
                        batch_size: Optional[int] = None,
                        use_threads: bool = False,
                        **binds: Any) -> ExplainAnalyze:
        """Prepare, *actually execute*, and annotate the plan tree with
        measured rows, wall time and batch counts per operator —
        estimated vs actual, PostgreSQL's ``EXPLAIN ANALYZE``.

        The execution is a real one (feedback, kernels, metering all
        engaged) with ``meter_timing`` on; the result rows ride along on
        the returned :class:`~repro.obs.analyze.ExplainAnalyze` as
        ``.rows`` so callers don't pay for a second run.
        """
        prepared = self.prepare(query, required_order,
                                parallelism=parallelism)
        # Reads rows and times only: no comparison counting, so the
        # measured times are the served path's.
        ctx = ExecutionContext(self.catalog, batch_size=batch_size,
                               meter_timing=True, meter_comparisons=False)
        start = time.perf_counter()
        rows = prepared.execute(ctx, use_threads=use_threads, **binds)
        wall = time.perf_counter() - start
        return ExplainAnalyze(
            prepared.plan,
            {tag: (c[0], c[1]) for tag, c in ctx.operator_rows.items()},
            {tag: (c[0], c[1]) for tag, c in ctx.operator_times.items()},
            wall, len(rows), rows=rows)

    def cost_of(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> float:
        return self.prepare(query, required_order,
                            parallelism=parallelism).total_cost

    def invalidate_plans(self) -> int:
        """Manually drop every cached plan (bulk loads, DDL scripts)."""
        return self.cache.invalidate_all()

    # -- adaptive-statistics feedback ------------------------------------------------
    def observe_execution(self, prepared: PreparedQuery,
                          ctx: ExecutionContext) -> int:
        """Inspect one execution's per-operator row tallies for drift.

        For every scan meter whose actual row count left the configured
        drift band, the live table is consulted: only when its *declared*
        ``stats.num_rows`` also disagrees with the materialised row count
        (i.e. the catalog statistics themselves are stale — not a benign
        early-terminated scan under a ``Limit``) is
        ``catalog.refresh_stats`` invoked.  The refresh re-measures
        distinct sketches and row counts from the rows and bumps the
        table's ``stats_version``, invalidating exactly the cached plans
        that read it; the next ``prepare`` re-optimizes cost-first.

        Returns the number of tables refreshed.  No-op (returning 0)
        when the session was built without a :class:`FeedbackConfig`.
        """
        feedback = self.feedback
        if feedback is None:
            return 0
        self.metrics.drift_checks += 1
        refreshed = 0
        seen: set[str] = set()
        for tag, cell in ctx.operator_rows.items():
            table_name = scan_table(tag)
            if table_name is None or table_name in seen:
                continue
            seen.add(table_name)
            estimated, actual = cell[0], cell[1]
            if not feedback.drifted(estimated, actual):
                continue
            self.metrics.drift_events += 1
            if not self.catalog.has_table(table_name):
                continue
            table = self.catalog.table(table_name)
            if not table.is_materialized:
                continue  # stats-only tables have no ground truth to re-measure
            if not feedback.drifted(table.stats.num_rows, len(table)):
                continue  # declared stats match reality; drift was per-run noise
            self.catalog.refresh_stats(table_name)
            self.metrics.feedback_refreshes += 1
            refreshed += 1
        return refreshed

    def stats(self) -> dict[str, Any]:
        """Serving-side observability: session counters + cache counters.

        Flat, JSON-friendly dict — what a /metrics endpoint would expose.
        """
        out: dict[str, Any] = {
            "prepares": self.metrics.prepares,
            "optimizations": self.metrics.optimizations,
            "executions": self.metrics.executions,
            "optimize_seconds": self.metrics.optimize_seconds,
            "shard_merge_plans": self.metrics.shard_merge_plans,
            "post_union_sort_plans": self.metrics.post_union_sort_plans,
            "sharded_join_plans": self.metrics.sharded_join_plans,
            "sharded_agg_plans": self.metrics.sharded_agg_plans,
            "sharded_distinct_plans": self.metrics.sharded_distinct_plans,
            "join_enumerator": self.optimizer.pipeline.enumerator.name,
            "enumerator_seconds": self.metrics.enumerator_seconds,
            "join_order_candidates": self.metrics.join_order_candidates,
            "goals_examined": self.metrics.goals_examined,
            "goals_pruned": self.metrics.goals_pruned,
            "memo_hits": self.metrics.memo_hits,
            "failure_memo_hits": self.metrics.failure_memo_hits,
            "drift_checks": self.metrics.drift_checks,
            "drift_events": self.metrics.drift_events,
            "feedback_refreshes": self.metrics.feedback_refreshes,
            "cache_size": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache_ttl_seconds": self.cache.ttl_seconds,
        }
        for name, value in self.cache.stats.as_dict().items():
            out[f"cache_{name}"] = value
        # Kernel/columnar counters are process-global (the kernel cache
        # and batch telemetry are shared across sessions), surfaced here
        # so one serving process's /metrics shows compilation behaviour.
        out.update(kernel_stats())
        return out
