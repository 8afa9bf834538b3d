"""Exchange operators: fan N shard streams back into one stream.

:class:`ExchangeUnion` is the gather side of a scan fan-out: its
children are the shards of one logical stream (built by
:func:`shard_scans`), and it concatenates their batches in shard order.
Because :class:`~repro.engine.scans.ShardedScan` partitions a table into
*contiguous* row ranges, concatenation in shard order reproduces the
unsharded scan's row sequence exactly — including its clustering order —
so everything above the exchange is oblivious to the sharding.

:class:`MergeExchange` is the *order-preserving* gather: its children
each deliver rows already sorted on the merge order (typically per-shard
SRS/MRS enforcers over the shards), and it performs a stable k-way merge
— ties go to the lowest shard index, so the output is bit-identical to a
stable full sort of the shards concatenated in shard order (which is
exactly how it merges materialised shards when nobody counts
comparisons).  This
is what lets a required order be enforced *below* the exchange, shard by
shard, instead of by one big post-union sort (the shard-aware enforcer
placement; see docs/execution.md).

With ``max_workers > 1`` the children are executed concurrently on a
thread pool, each charging a forked
:class:`~repro.engine.context.ExecutionContext` whose counters are
folded back in shard order — totals stay deterministic regardless of
thread interleaving.  (CPython threads don't speed up pure-Python
operator code, but the pool exercises the exact driver structure the
async serving loop will reuse, and I/O-bound backends benefit today.)
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from .basic import Compute, Filter, Project, Sort
from .batch import RowBatch, batches_of, flatten_batches
from .context import ExecutionContext
from .iterators import (
    Operator,
    assert_sorted_batches,
    null_first_key,
    plain_key,
)
from .scans import (
    ClusteringIndexScan,
    RangePartitionScan,
    RowSource,
    ShardedScan,
    TableScan,
    range_shardable,
    shardable,
)
from .sorting import merge_sorted_streams


def _common_contiguous_order(children: Sequence[Operator]):
    """The order preserved by concatenating *children* in sequence.

    Guaranteed when the children are consecutive contiguous shards of one
    table (the shape :func:`shard_scans` builds), or the full set of
    range partitions of a table *clustered on the partition column* (the
    partitions then tile the clustered row sequence); anything else gets
    ε — concatenating independently sorted streams is not sorted.
    """
    if all(isinstance(c, RangePartitionScan) for c in children):
        table = children[0].table  # type: ignore[attr-defined]
        if (not table.partition_contiguous
                or table.partitioning.num_partitions != len(children)):
            return EMPTY_ORDER
        for i, child in enumerate(children):
            if child.table is not table or child.partition_index != i:  # type: ignore[attr-defined]
                return EMPTY_ORDER
        return children[0].output_order
    if not all(isinstance(c, TableScan) for c in children):
        return EMPTY_ORDER
    table = children[0].table  # type: ignore[attr-defined]
    count = children[0].shard_count  # type: ignore[attr-defined]
    if count != len(children):
        return EMPTY_ORDER
    for i, child in enumerate(children):
        if (child.table is not table or child.shard_count != count
                or child.shard_index != i):  # type: ignore[attr-defined]
            return EMPTY_ORDER
    return children[0].output_order


def _drain_shards(children: Sequence[Operator], ctx: ExecutionContext,
                  max_workers: int) -> list[list[RowBatch]]:
    """Eagerly run every child to completion on a thread pool.

    Each worker charges a forked context; all tallies are absorbed into
    *ctx* **in shard order** — never completion order — before any batch
    is returned, so totals stay deterministic however the workers
    interleave.  The one drain discipline shared by both exchanges.
    """
    def drain(child: Operator) -> tuple[ExecutionContext, list[RowBatch]]:
        forked = ctx.fork()
        return forked, list(child.execute_batches(forked))

    workers = min(max_workers, len(children))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(drain, child) for child in children]
        results = [future.result() for future in futures]
    for forked, _ in results:
        ctx.absorb(forked)
    return [batches for _, batches in results]


class ExchangeUnion(Operator):
    """Concatenate N shard streams in shard order (order-preserving
    gather for contiguous shards)."""

    name = "ExchangeUnion"

    def __init__(self, children: Sequence[Operator], max_workers: int = 1) -> None:
        if not children:
            raise ValueError("ExchangeUnion needs at least one child")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise ValueError("ExchangeUnion children must share a schema")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        super().__init__(first, _common_contiguous_order(children), children)
        self.max_workers = max_workers

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if self.max_workers > 1 and len(self.children) > 1:
            return self._parallel(ctx)
        return self._serial(ctx)

    def _serial(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        for child in self.children:
            yield from child.execute_batches(ctx)

    def _parallel(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Eager gather: every shard runs to completion on the pool.

        All forked tallies are folded into the parent *before* the first
        batch is handed downstream — the work ran, so it is charged even
        if the consumer stops early.  The materialisation this implies is
        the classic eager-exchange trade-off (workers don't pause);
        early-terminating consumers that care about I/O should drive the
        serial path.
        """
        for batches in _drain_shards(self.children, ctx, self.max_workers):
            yield from batches

    def details(self) -> str:
        suffix = f", {self.max_workers} workers" if self.max_workers > 1 else ""
        return f"{len(self.children)} shards{suffix}"


class MergeExchange(Operator):
    """Order-preserving gather: stable k-way merge of per-shard sorted
    streams.

    Every child must deliver rows sorted on *order* (enforced at run time
    under ``ctx.check_orders``).  The merge is stable — equal keys come
    out in shard order, and within a shard in arrival order — so the
    output is bit-identical to what a stable full sort over the
    concatenation of the children (in child order) would produce.  On a
    metered context each merge comparison is tallied once (see
    :func:`~repro.engine.sorting.merge_sorted_streams`), independent of
    the batch size.  Unmetered, children that are materialised
    :class:`~repro.engine.scans.RowSource` rows (the worker results a
    process-pool gather grafts back) are merged by one stable
    ``list.sort`` over their concatenation (:func:`_run_merge`); lazy
    children keep ``heapq.merge`` on plain keys, so the merge stays
    pipelined and pulls from each child only what it emits.
    """

    name = "MergeExchange"

    def __init__(self, children: Sequence[Operator], order: SortOrder,
                 max_workers: int = 1, declared_disjoint: bool = False) -> None:
        if not children:
            raise ValueError("MergeExchange needs at least one child")
        if not order:
            raise ValueError("MergeExchange needs a non-empty merge order")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise ValueError("MergeExchange children must share a schema")
        if not first.has_all(list(order)):
            missing = set(order) - set(first.names)
            raise ValueError(f"merge order references missing columns {missing}")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        super().__init__(first, order, children)
        self.max_workers = max_workers
        #: A planner-declared disjointness guarantee.  Re-assembled
        #: serving gathers put :class:`~repro.engine.scans.RowSource`
        #: children under the exchange, which carry no partition bounds
        #: for :func:`partitions_disjoint_on` to re-detect — the plan
        #: node's ``disjoint`` arg is the only surviving witness, so
        #: lowering and re-assembly pass it here.
        self.declared_disjoint = declared_disjoint

    @property
    def partition_disjoint(self) -> bool:
        """Whether the children are ascending range partitions disjoint on
        the leading merge column — concatenation is then already globally
        sorted and the k-way heap (with its ``N·log2(k)`` comparisons) is
        skipped entirely.  Either declared by the planner (which proved it
        from the catalog's partitioning) or re-detected from the operator
        shape, so hand-built pipelines get the same fast path."""
        return (self.declared_disjoint
                or partitions_disjoint_on(self.children, self.output_order))

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        positions = self.schema.positions(list(self.output_order))
        shards = self._shard_batches(ctx, positions)
        if self.partition_disjoint:
            # Disjoint ascending partitions: concatenating the per-shard
            # sorted streams is already the global order — no comparisons.
            rows = chain.from_iterable(map(flatten_batches, shards))
            return batches_of(rows, ctx.batch_size)
        if not ctx.meter_comparisons and all(
                isinstance(c, RowSource) and not c.charge_io
                for c in self.children):
            return _run_merge(shards, positions, ctx.batch_size)
        merged = merge_sorted_streams([flatten_batches(s) for s in shards],
                                      null_first_key(positions), ctx)
        return batches_of(merged, ctx.batch_size)

    def _shard_batches(self, ctx: ExecutionContext,
                       positions: Sequence[int]) -> list[Iterable[RowBatch]]:
        """One sorted batch stream per child, in shard order, each
        verified under ``ctx.check_orders``.

        Serial: lazy generators, so the merge stays pipelined.  Parallel:
        the same eager :func:`_drain_shards` discipline as
        :class:`ExchangeUnion` — all tallies land in *ctx* before the
        merge (which runs on the calling thread) touches a single row.
        """
        if self.max_workers > 1 and len(self.children) > 1:
            shards: list[Iterable[RowBatch]] = list(
                _drain_shards(self.children, ctx, self.max_workers))
        else:
            shards = [child.execute_batches(ctx) for child in self.children]
        if ctx.check_orders:
            shards = [assert_sorted_batches(s, positions,
                                            f"MergeExchange input shard {i}")
                      for i, s in enumerate(shards)]
        return shards

    def details(self) -> str:
        suffix = f", {self.max_workers} workers" if self.max_workers > 1 else ""
        if self.partition_disjoint:
            suffix += ", disjoint concat"
        return f"{len(self.children)} shards on {self.output_order}{suffix}"


def _run_merge(shards: Sequence[Iterable[RowBatch]], positions: Sequence[int],
               batch_size: int) -> Iterator[RowBatch]:
    """Merge in-memory sorted runs with one stable sort.

    The runs are concatenated in shard order; Timsort finds them and
    gallop-merges them in C, and stability hands key ties to the lowest
    shard — the rows :func:`merge_sorted_streams` would emit.  The sort
    first tries the bare C-level key: it raises ``TypeError`` as soon as
    it compares a NULL with a value, and a sort that finishes only ever
    compared keys the NULL-first order agrees with.  On a NULL the
    untouched concatenation is sorted again with
    :func:`~repro.engine.iterators.null_first_key`.  (Scanning every key
    for NULLs up front, as :func:`~repro.engine.iterators.load_key`
    does, would spend about 40% of what the run merge saves over the
    heap merge.)

    Only for unmetered merges over materialised children: it reads every
    row before emitting one, which a lazy child must not be made to do
    (draining it early changes what it charges).
    """
    rows: list[tuple] = []
    for batches in shards:
        for batch in batches:
            rows.extend(batch.rows)
    try:
        merged = sorted(rows, key=plain_key(positions))
    except TypeError:
        merged = sorted(rows, key=null_first_key(positions))
    yield from batches_of(merged, batch_size)


def shard_scans(op: Operator, shard_count: int, max_workers: int = 1) -> Operator:
    """Rewrite full table scans into ExchangeUnion-of-ShardedScan fan-outs.

    Non-destructive: the caller's tree is never touched.  Operators on
    the path to a replaced scan are shallow-copied with rebuilt child
    tuples (the replacement has the same schema and output order, so
    parents' precomputed positions stay valid); untouched subtrees are
    shared.  Re-running or re-sharding the original tree at a different
    parallelism therefore behaves identically.  Scans already sharded,
    stats-only tables and covering-index scans are left alone.
    """
    if shard_count < 2:
        return op
    if (isinstance(op, (TableScan, ClusteringIndexScan))
            and not isinstance(op, (ShardedScan, RangePartitionScan))
            and getattr(op, "shard_count", 1) == 1
            and shardable(op.table, shard_count)):
        # A clustered-contiguous range partitioning that matches the
        # requested width shards along partition boundaries instead of
        # equal row counts: the partitions tile the clustered sequence
        # (concatenation stays exact) and a sort later pushed below the
        # exchange can use the partition-aware (heap-free) merge.
        if (range_shardable(op.table) and op.table.partition_contiguous
                and op.table.partitioning.num_partitions == shard_count):
            shards: list[Operator] = [RangePartitionScan(op.table, i)
                                      for i in range(shard_count)]
        else:
            shards = [ShardedScan(op.table, shard_count, i)
                      for i in range(shard_count)]
        exchange = ExchangeUnion(shards, max_workers=max_workers)
        # The replaced scan's row meter (if lowering stamped one) moves to
        # the gather, which emits the same rows — estimated-vs-actual
        # tallies stay identical across parallelism settings.
        exchange._meter = op._meter
        return exchange
    new_children = tuple(shard_scans(c, shard_count, max_workers)
                         for c in op.children)
    if all(new is old for new, old in zip(new_children, op.children)):
        return op
    clone = copy.copy(op)
    clone.children = new_children
    return clone


#: Per-row unaries that commute with sharding: applying them to each
#: contiguous shard and concatenating equals applying them to the whole
#: stream, and each shard's output order equals the whole-stream order.
_ORDER_PRESERVING_UNARIES = (Filter, Project, Compute)

#: The same whitelist by plan-op name — the optimizer's shard-aware
#: enforcer placement imports this so the engine rewrite and the volcano
#: search can never disagree about which shapes are shard-transparent.
ORDER_PRESERVING_UNARY_OPS = tuple(cls.name for cls in _ORDER_PRESERVING_UNARIES)


def _partition_leaf(op: Operator) -> Optional[RangePartitionScan]:
    """The :class:`RangePartitionScan` under a chain of partition-bound
    preserving unaries, else ``None``.

    Filter/Project/Compute/Sort never move a row's partition-column value
    outside its partition's range, and a streaming group-aggregate emits
    group-column values taken from its input rows — so any such chain
    over a partition scan stays within the partition's value bounds.  A
    merge join is descended through its *left* input: output rows (and
    LEFT OUTER padding) take their left-column values from left input
    rows, so a left-side partition bound survives the join.
    """
    from .aggregates import SortAggregate
    from .joins import MergeJoin

    node = op
    while True:
        if (len(node.children) == 1
                and isinstance(node, _ORDER_PRESERVING_UNARIES
                               + (Sort, SortAggregate))):
            node = node.children[0]
        elif isinstance(node, MergeJoin) and node.join_type in ("inner", "left"):
            node = node.children[0]
        else:
            break
    return node if isinstance(node, RangePartitionScan) else None


def partitions_disjoint_on(children: Sequence[Operator], order: SortOrder) -> bool:
    """Whether *children* are ascending range partitions of one table,
    mutually disjoint on the leading attribute of *order*.

    This is the partition-aware merge condition: every row of child *i*
    compares ≤ every row of child *i+1* on the merge key, so the gather
    can concatenate instead of heap-merging.  Shared with the optimizer's
    cost model via the plans it builds (the engine re-detects the shape
    at run time, so hand-built pipelines get the same fast path).
    """
    if not order or len(children) < 2:
        return False
    leaves = [_partition_leaf(c) for c in children]
    if any(leaf is None for leaf in leaves):
        return False
    table = leaves[0].table
    if any(leaf.table is not table for leaf in leaves):
        return False
    indexes = [leaf.partition_index for leaf in leaves]
    if any(b <= a for a, b in zip(indexes, indexes[1:])):
        return False
    return order.as_tuple[0] == table.partitioning.column


def _exchange_under(op: Operator) -> Optional[tuple[list[Operator], "ExchangeUnion"]]:
    """The (unary path, exchange) below *op* when the subtree has the
    shard fan-out shape, else ``None``.

    Matches ``(Filter|Project|Compute)* → ExchangeUnion(shards of one
    table)`` — exactly what :func:`shard_scans` builds under an enforcer.
    """
    path: list[Operator] = []
    node = op
    while isinstance(node, _ORDER_PRESERVING_UNARIES):
        path.append(node)
        node = node.children[0]
    if not isinstance(node, ExchangeUnion):
        return None
    sharded = all(isinstance(c, TableScan) and c.shard_count > 1
                  for c in node.children)
    ranged = all(isinstance(c, RangePartitionScan) for c in node.children)
    if not (sharded or ranged):
        return None
    return path, node


def _rebuild_path(path: Sequence[Operator], leaf: Operator) -> Operator:
    """Clone the unary chain *path* (outermost first) onto a new leaf."""
    node = leaf
    for op in reversed(path):
        if isinstance(op, Filter):
            node = Filter(node, op.predicate)
        elif isinstance(op, Project):
            node = Project(node, list(op.schema.names))
        else:
            node = Compute(node, list(op.outputs))
    return node


def _derive_chain(stats, path: Sequence[Operator]):
    """Carry a scan-level :class:`StatsView` through the unary path
    (filter selectivities applied, projections narrowing the row width) —
    the same derivation the optimizer's candidate plans carry, so the two
    decisions agree even below selective filters."""
    for op in reversed(path):  # innermost (closest to the exchange) first
        if isinstance(op, Filter):
            stats = stats.scaled(op.predicate.selectivity(stats))
        elif all(name in stats.schema for name in op.schema.names):
            stats = stats.projected(list(op.schema.names))
        # else: a Compute added columns the table stats cannot price;
        # keep the current width as the approximation.
    return stats


def _sort_input_stats(scan: Operator, path: Sequence[Operator]):
    """Estimated statistics of the sort's input (whole stream)."""
    from ..storage.statistics import StatsView

    return _derive_chain(StatsView.of_table(scan.table.schema, scan.table.stats),
                         path)


def _per_shard_input_stats(scan: Operator, path: Sequence[Operator],
                           shard_count: int):
    """Per-shard statistics of the sort's input, measured from the actual
    shard/partition boundaries when the table is materialised (``None``
    falls back to the uniform ``scaled(1/k)`` model)."""
    from ..storage.statistics import StatsView

    table = scan.table
    if isinstance(scan, RangePartitionScan):
        per_table = table.partition_stats()
    else:
        per_table = table.shard_stats(shard_count)
    if per_table is None:
        return None
    return [_derive_chain(StatsView.of_table(table.schema, ts), path)
            for ts in per_table]


def _merge_beats_post_union(sort: Sort, scan: Operator,
                            path: Sequence[Operator], shard_count: int,
                            params) -> bool:
    """Cost-based pushdown decision, mirroring the optimizer's model.

    Uses the exact same ``coe`` / ``sharded_coe`` formulas (and the same
    tie-break) the volcano search applies, over statistics derived along
    the unary path — fed by measured per-shard/per-partition distinct and
    row counts where available — so the engine-level rewrite and the
    optimizer can never pull in opposite directions.
    """
    # Local imports: the engine package must stay importable without
    # dragging the optimizer in at module-import time.
    from ..optimizer.cost import CostModel, prefer_sharded

    stats = _sort_input_stats(scan, path)
    model = CostModel(params)
    partial = sort.algorithm != "srs"
    disjoint = (isinstance(scan, RangePartitionScan) and sort.output_order
                and sort.output_order.as_tuple[0] == scan.partitioning.column)
    post_union = model.coe(stats, sort.known_prefix, sort.output_order,
                           partial_enabled=partial)
    sharded = model.sharded_coe(stats, sort.known_prefix, sort.output_order,
                                shard_count, partial_enabled=partial,
                                shard_stats=_per_shard_input_stats(
                                    scan, path, shard_count),
                                disjoint_merge=bool(disjoint))
    return prefer_sharded(sharded, post_union)


def push_sorts_below_exchange(op: Operator, params=None) -> Operator:
    """Rewrite ``Sort → (unaries) → ExchangeUnion`` into per-shard sorts
    under a :class:`MergeExchange`, where the cost model favours it.

    The per-shard enforcers inherit the original sort's target order,
    known prefix and algorithm, so SRS stays SRS and MRS partial sorts
    keep exploiting the shards' clustering prefix.  Non-destructive like
    :func:`shard_scans`: untouched subtrees are shared, rewritten paths
    are rebuilt.  Applied by the executor only on explicit opt-in
    (optimizer-produced plans have already made this choice).
    """
    if isinstance(op, Sort):
        shape = _exchange_under(op.children[0])
        if shape is not None:
            path, exchange = shape
            if params is None:
                from ..storage.catalog import SystemParameters
                params = SystemParameters()
            scan = exchange.children[0]
            assert isinstance(scan, (TableScan, RangePartitionScan))
            if _merge_beats_post_union(op, scan, path, len(exchange.children),
                                       params):
                shards = [
                    Sort(_rebuild_path(path, shard), op.output_order,
                         known_prefix=op.known_prefix, algorithm=op.algorithm)
                    for shard in exchange.children
                ]
                merged = MergeExchange(shards, op.output_order,
                                       max_workers=exchange.max_workers)
                merged._meter = op._meter
                return merged
    new_children = tuple(push_sorts_below_exchange(c, params)
                         for c in op.children)
    if all(new is old for new, old in zip(new_children, op.children)):
        return op
    clone = copy.copy(op)
    clone.children = new_children
    return clone


def with_exchange_workers(op: Operator, max_workers: int) -> Operator:
    """A copy of *op* whose exchanges drain shards with *max_workers*.

    Non-destructive (the input tree may be a cached plan's lowering or a
    caller-owned pipeline); nodes already at the requested width are
    shared unchanged.
    """
    new_children = tuple(with_exchange_workers(c, max_workers)
                         for c in op.children)
    changed = any(new is not old
                  for new, old in zip(new_children, op.children))
    is_exchange = isinstance(op, (ExchangeUnion, MergeExchange))
    if not changed and not (is_exchange and op.max_workers != max_workers):
        return op
    clone = copy.copy(op)
    clone.children = new_children
    if is_exchange:
        clone.max_workers = max_workers
    return clone
