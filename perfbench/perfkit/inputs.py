"""Seeded inputs for the three workloads, and oracles outside the engine.

Everything here is a pure function of the seed: the ``trades`` rows of
the serving workloads, the four-request serving mix, and the stream of
distinct EXPLAIN requests of ``plan_adhoc``.  The oracles recompute the
serving mix's answers with plain Python (``sorted()``, a dict group-by),
so a bug that every engine configuration shares still shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.logical.algebra import Annotator, OrderBy
from repro.logical.fds import query_fds
from repro.storage import Catalog, Schema, SystemParameters
from repro.workloads import (
    add_query3_indexes,
    consolidation_stats_catalog,
    example1_query,
    many_join_catalog,
    many_join_query,
    query4,
    query5,
    query6,
    r_tables_stats_catalog,
    tpch_stats_catalog,
    trading_stats_catalog,
)

#: Serving-mix parallelism: the report's plan carries a MergeExchange
#: over four per-shard sorts.
SERVING_PARALLELISM = 4
#: Rows of the seeded ``trades`` table.
TRADES_ROWS = 12_000
#: ``ts`` threshold of the range projection.
RECENT_TS = 90_000


# -- serving workloads ------------------------------------------------------------------
def trades_rows(num_rows: int, seed: int) -> list[tuple]:
    """``(sym, ts, qty, tag)`` rows drawn from *seed*."""
    rng = random.Random(seed)
    return [(rng.randrange(64), rng.randrange(100_000),
             rng.randrange(1, 500), f"t{rng.randrange(997)}")
            for _ in range(num_rows)]


def trades_catalog(rows: list[tuple]) -> Catalog:
    """A catalog over *rows* whose sort memory makes the report spill at
    parallelism 1 and fit per shard at parallelism 4."""
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=max(20, len(rows) // 100)))
    schema = Schema.of(("sym", "int", 8), ("ts", "int", 8),
                       ("qty", "int", 8), ("tag", "str", 64))
    catalog.create_table("trades", schema, rows=list(rows),
                         clustering_order=SortOrder(["sym"]))
    return catalog


@dataclass(frozen=True)
class ServingRequest:
    name: str
    query: Query
    binds: tuple


def serving_mix() -> list[ServingRequest]:
    """The four prepared requests of ``benchmarks/bench_serving.py``:
    the sort-heavy report, the parameterized group-by at two bindings
    and the range projection."""
    report = Query.table("trades").order_by("ts", "sym", "qty", "tag")
    volume = (Query.table("trades")
              .where(col("qty").ge(param("min_qty")))
              .group_by(["sym"], count_star("n"), agg_sum(col("qty"), "vol"))
              .order_by("sym"))
    recent = (Query.table("trades").where(col("ts").ge(RECENT_TS))
              .select("ts", "sym", "qty").order_by("ts", "sym", "qty"))
    return [ServingRequest("report", report, ()),
            ServingRequest("volume_100", volume, (("min_qty", 100),)),
            ServingRequest("volume_250", volume, (("min_qty", 250),)),
            ServingRequest("recent", recent, ())]


def oracle_results(rows: list[tuple]) -> dict[str, list[tuple]]:
    """The serving mix's answers computed without the engine."""
    out = {"report": sorted(rows, key=lambda r: (r[1], r[0], r[2], r[3]))}
    for min_qty in (100, 250):
        groups: dict[int, list[int]] = {}
        for sym, _, qty, _ in rows:
            if qty >= min_qty:
                groups.setdefault(sym, []).append(qty)
        out[f"volume_{min_qty}"] = [(sym, len(q), sum(q))
                                    for sym, q in sorted(groups.items())]
    out["recent"] = sorted((ts, sym, qty) for sym, ts, qty, _ in rows
                           if ts >= RECENT_TS)
    return out


# -- plan_adhoc ---------------------------------------------------------------------------
@dataclass
class AdhocBase:
    """One paper query, stripped of its ORDER BY, on its stats catalog."""

    name: str
    catalog: Catalog
    expr: object
    columns: tuple[str, ...]
    fds: object
    eq: object

    def satisfied_by(self, guaranteed: SortOrder, required: SortOrder) -> bool:
        """Whether a plan guaranteeing *guaranteed* meets *required*:
        attributes the query's FDs determine from their predecessors may
        be dropped, and join-equivalent attributes stand for each other."""
        return guaranteed.satisfies(self.fds.reduce_order(required), self.eq)


@dataclass(frozen=True)
class AdhocRequest:
    base: str
    order: tuple[str, ...]
    parallelism: int

    def query(self, bases: dict[str, AdhocBase]) -> Query:
        return Query(OrderBy(bases[self.base].expr, SortOrder(self.order)))


def _query3() -> Query:
    return (Query.table("partsupp")
            .join("lineitem", on=[("ps_suppkey", "l_suppkey"),
                                  ("ps_partkey", "l_partkey")])
            .where(col("l_linestatus").eq("O"))
            .group_by(["ps_availqty", "ps_partkey", "ps_suppkey"],
                      agg_sum(col("l_quantity"), "sum_qty"))
            .having(col("sum_qty").gt(col("ps_availqty")))
            .select("ps_suppkey", "ps_partkey", "ps_availqty", "sum_qty")
            .order_by("ps_partkey"))


def adhoc_bases() -> dict[str, AdhocBase]:
    """Queries 3–6, Example 1 and the many-join query on their
    stats-only paper-scale catalogs."""
    tpch = tpch_stats_catalog()
    add_query3_indexes(tpch)
    trading = trading_stats_catalog()
    cases = [
        ("q3", tpch, _query3()),
        ("q4", r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250)), query4()),
        ("q5", trading, query5()),
        ("q6", trading, query6()),
        ("example1", consolidation_stats_catalog(), example1_query()),
        ("many_join", many_join_catalog(), many_join_query()),
    ]
    bases = {}
    for name, catalog, query in cases:
        expr = query.expr
        if isinstance(expr, OrderBy):
            expr = expr.child
        annotator = Annotator(catalog, expr)
        bases[name] = AdhocBase(name, catalog, expr,
                                tuple(annotator.schema_of(expr).names),
                                query_fds(catalog, expr), annotator.eq)
    return bases


def adhoc_warmup(bases: dict[str, AdhocBase]) -> list[AdhocRequest]:
    """Warm-up requests: each query's first output column at both
    parallelisms.  The request stream never repeats them."""
    return [AdhocRequest(name, (base.columns[0],), p)
            for name, base in bases.items() for p in (1, 4)]


def adhoc_requests(bases: dict[str, AdhocBase], seed: int
                   ) -> Iterator[AdhocRequest]:
    """Distinct requests, round-robin over the queries: an ORDER BY of a
    seeded permutation of 1–4 output columns and a parallelism of 1 or
    4.  A query whose distinct requests run out leaves the rotation."""
    rng = random.Random(seed)
    seen = set(adhoc_warmup(bases))
    names = list(bases)
    while names:
        for name in list(names):
            columns = bases[name].columns
            for _ in range(64):
                k = rng.randint(1, min(4, len(columns)))
                request = AdhocRequest(name, tuple(rng.sample(columns, k)),
                                       rng.choice((1, 4)))
                if request not in seen:
                    seen.add(request)
                    yield request
                    break
            else:
                names.remove(name)
