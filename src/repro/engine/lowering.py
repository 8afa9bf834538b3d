"""Lower optimizer :class:`~repro.optimizer.plans.PhysicalPlan` trees to
executable engine operators.

Payload (``args``) conventions per plan ``op``:

=====================  ==========================================================
op                     args
=====================  ==========================================================
``TableScan``          ``table`` (name)
``ShardedScan``        ``table``, ``shard_count``, ``shard_index``
``RangePartitionScan``  ``table``, ``partition_index``
``ExchangeUnion``      n-ary children; ``max_workers`` (optional)
``MergeExchange``      n-ary children; merge order = plan.order; ``max_workers``
``ClusteringIndexScan``  ``table``
``CoveringIndexScan``  ``table``, ``index`` (names)
``Filter``             ``predicate``
``Project``            ``columns`` (tuple of names)
``Compute``            ``outputs`` (tuple of (name, expression))
``Sort``               target = plan.order; ``prefix``; ``algorithm``
``PartialSort``        same, algorithm forced to MRS
``MergeJoin``          ``predicate`` (pairs in permutation order), ``join_type``
``HashJoin``           ``predicate``, ``join_type``
``NestedLoopsJoin``    ``predicate`` (optional), ``residual`` (optional)
``SortAggregate``      group order = plan.order; ``group_columns``, ``aggregates``
``SortedCombine``      group order = plan.order; ``group_columns``, ``aggregates``
``HashAggregate``      ``group_columns``, ``aggregates``
``MergeUnion``         order = plan.order
``UnionAll``           —
``Dedup``              order = plan.order
``HashDedup``          —
``Limit``              ``k``
=====================  ==========================================================

Expression-bearing ops (``Filter``, ``Compute``, ``NestedLoopsJoin``,
``SortAggregate``, ``HashAggregate``) additionally accept an optional
``kernels`` arg: a pre-compiled
:class:`~repro.engine.kernels.OperatorKernels` bundle attached at
prepare time by :func:`~repro.engine.kernels.attach_plan_kernels`.  It
is advisory — lowering passes it to the operator constructor, which
falls back to compiling (through the process-global kernel cache) when
absent.  Bundles are deliberately unpicklable;
:func:`~repro.engine.subplan.strip_plan` drops them before a plan
crosses a process boundary.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from ..core.sort_order import EMPTY_ORDER, SortOrder
from .aggregates import HashAggregate, SortAggregate, SortedGroupCombine
from .basic import Compute, Filter, Limit, Project, Sort
from .exchange import ExchangeUnion, MergeExchange
from .iterators import Operator
from .joins import HashJoin, MergeJoin, NestedLoopsJoin
from .scans import (
    ClusteringIndexScan,
    CoveringIndexScan,
    RangePartitionScan,
    ShardedScan,
    TableScan,
)
from .sets import Dedup, HashDedup, MergeUnion, UnionAll

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.catalog import Catalog


#: Ops whose meter tag carries the scanned table's name, so serving-time
#: feedback can attribute actual row counts back to catalog tables.
_TABLE_SCAN_OPS = frozenset((
    "TableScan", "ShardedScan", "RangePartitionScan",
    "ClusteringIndexScan", "CoveringIndexScan",
))


def meter_for(plan) -> Optional[tuple]:
    """The ``(tag, estimated_rows)`` meter for one plan node.

    Scan tags embed the table name (``"TableScan:orders"``); everything
    else meters under its op name.  Estimates are rounded to integers so
    per-shard contributions sum commutatively — tallies must not depend
    on the order in which shard contexts are absorbed.
    """
    stats = getattr(plan, "stats", None)
    if stats is None:
        return None
    tag = plan.op
    if tag in _TABLE_SCAN_OPS:
        tag = f"{tag}:{plan.arg('table')}"
    return (tag, int(stats.N + 0.5))


def operators_from_plan(plan, catalog: "Catalog",
                        replace: Optional[Callable[..., Optional[Operator]]] = None
                        ) -> Operator:
    """Recursively build the engine operator tree for *plan*.

    *replace*, when given, is consulted on every plan node **before**
    default lowering; returning an operator substitutes the whole
    subtree (its children are not lowered; the hook stamps its own row
    meters, if any).  The process-pool backend uses this to graft
    pre-executed shard results back into the plan
    (:mod:`repro.engine.subplan`).

    Every default-lowered operator carries a :func:`meter_for` stamp, so
    executions report estimated-vs-actual rows per operator through
    ``ExecutionContext.tallies()``.
    """
    if replace is not None:
        substituted = replace(plan)
        if substituted is not None:
            return substituted
    operator = _lower(plan, catalog, replace)
    operator._meter = meter_for(plan)
    return operator


def _lower(plan, catalog: "Catalog",
           replace: Optional[Callable[..., Optional[Operator]]]) -> Operator:
    children = [operators_from_plan(c, catalog, replace) for c in plan.children]
    op = plan.op

    if op == "TableScan":
        return TableScan(catalog.table(plan.arg("table")))
    if op == "ShardedScan":
        return ShardedScan(catalog.table(plan.arg("table")),
                           plan.arg("shard_count"), plan.arg("shard_index"))
    if op == "RangePartitionScan":
        return RangePartitionScan(catalog.table(plan.arg("table")),
                                  plan.arg("partition_index"))
    if op == "ExchangeUnion":
        return ExchangeUnion(children, plan.arg("max_workers", 1))
    if op == "MergeExchange":
        return MergeExchange(children, plan.order, plan.arg("max_workers", 1),
                             declared_disjoint=plan.arg("disjoint", False))
    if op == "ClusteringIndexScan":
        return ClusteringIndexScan(catalog.table(plan.arg("table")))
    if op == "CoveringIndexScan":
        index = next(ix for ix in catalog.indexes_of(plan.arg("table"))
                     if ix.name == plan.arg("index"))
        return CoveringIndexScan(index)
    if op == "Filter":
        return Filter(children[0], plan.arg("predicate"),
                      kernels=plan.arg("kernels"))
    if op == "Project":
        return Project(children[0], list(plan.arg("columns")))
    if op == "Compute":
        return Compute(children[0], list(plan.arg("outputs")),
                       kernels=plan.arg("kernels"))
    if op in ("Sort", "PartialSort"):
        prefix = plan.arg("prefix", EMPTY_ORDER)
        algorithm = plan.arg("algorithm", "auto")
        if op == "PartialSort" and not prefix:
            raise ValueError("PartialSort plan without a known prefix")
        return Sort(children[0], plan.order, known_prefix=prefix,
                    algorithm=algorithm)
    if op == "MergeJoin":
        return MergeJoin(children[0], children[1], plan.arg("predicate"),
                         plan.arg("join_type", "inner"))
    if op == "HashJoin":
        return HashJoin(children[0], children[1], plan.arg("predicate"),
                        plan.arg("join_type", "inner"))
    if op == "NestedLoopsJoin":
        return NestedLoopsJoin(children[0], children[1],
                               plan.arg("predicate"), plan.arg("residual"),
                               kernels=plan.arg("kernels"))
    if op == "SortAggregate":
        return SortAggregate(children[0], plan.order,
                             list(plan.arg("aggregates")),
                             group_columns=list(plan.arg("group_columns")),
                             kernels=plan.arg("kernels"))
    if op == "SortedCombine":
        return SortedGroupCombine(children[0], plan.order,
                                  list(plan.arg("group_columns")),
                                  list(plan.arg("aggregates")))
    if op == "HashAggregate":
        return HashAggregate(children[0], list(plan.arg("group_columns")),
                             list(plan.arg("aggregates")),
                             kernels=plan.arg("kernels"))
    if op == "MergeUnion":
        return MergeUnion(children[0], children[1], plan.order)
    if op == "UnionAll":
        return UnionAll(children[0], children[1])
    if op == "Dedup":
        return Dedup(children[0], plan.order)
    if op == "HashDedup":
        return HashDedup(children[0])
    if op == "Limit":
        return Limit(children[0], plan.arg("k"))
    raise ValueError(f"cannot lower unknown plan op {op!r}")
