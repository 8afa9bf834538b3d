"""NULLs in ORDER BY columns: every sort and merge path returns exactly
Python ``sorted()`` with NULLs first and ties in input order.

Covers SRS and MRS, in memory and spilled, the MergeExchange merge
(including one shard with NULLs beside shards without), and TopK — on
single- and multi-column keys, since a one-column key is a bare scalar
and a wider one a tuple — with comparison metering on and off, on the
engine directly and through the serial and process backends.  NaN is
out of scope here (it has no defined placement yet).
"""

import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    MergeExchange,
    RowSource,
    Sort,
    TopK,
    sort_stream,
)
from repro.logical import Query
from repro.service import QuerySession
from repro.service.backends import ProcessPoolBackend, SerialBackend
from repro.storage import Catalog, Schema, SystemParameters

SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))
ORDERS = [SortOrder(["k1"]), SortOrder(["k2"]), SortOrder(["k1", "k2"]),
          SortOrder(["k2", "k1", "v"])]
METERING = [True, False]


def python_sorted(rows, schema, order):
    """The oracle: a stable ``sorted()`` with NULLs before every value."""
    positions = schema.positions(list(order))
    return sorted(rows, key=lambda row: [
        (row[p] is not None, 0 if row[p] is None else row[p])
        for p in positions])


def null_rows(n, seed=3, null_share=0.25, domain=12):
    rng = random.Random(seed)

    def value():
        return None if rng.random() < null_share else rng.randrange(domain)
    return [(value(), value(), i) for i in range(n)]


def ctx_for(meter, memory_blocks=10_000):
    return ExecutionContext(
        params=SystemParameters(block_size=256,
                                sort_memory_blocks=memory_blocks),
        meter_comparisons=meter)


@pytest.mark.parametrize("meter", METERING)
@pytest.mark.parametrize("memory_blocks", [10_000, 4, 2])
@pytest.mark.parametrize("order", ORDERS, ids=str)
class TestSortPaths:
    def test_srs(self, order, memory_blocks, meter):
        rows = null_rows(500)
        ctx = ctx_for(meter, memory_blocks)
        out = list(sort_stream(rows, SCHEMA, order, ctx, algorithm="srs"))
        assert out == python_sorted(rows, SCHEMA, order)
        assert (ctx.sort_metrics.runs_created > 0) == (memory_blocks < 10_000)

    def test_mrs(self, order, memory_blocks, meter):
        # MRS needs its known prefix in front: lead with k1 (an order of
        # k1 alone is then already sorted and passes straight through).
        if order[0] != "k1":
            order = SortOrder(["k1"] + [c for c in order if c != "k1"])
        prefix = SortOrder(["k1"])
        rows = python_sorted(null_rows(500), SCHEMA, prefix)
        ctx = ctx_for(meter, memory_blocks)
        out = list(sort_stream(rows, SCHEMA, order, ctx,
                               known_prefix=prefix, algorithm="mrs"))
        assert out == python_sorted(rows, SCHEMA, order)

    def test_sort_operator_under_merge_exchange(self, order, memory_blocks,
                                                meter):
        """Per-shard sorts merged: shard 0 holds every NULL, the other
        shards none — encoded and bare keys meet in the merge."""
        rows = null_rows(600, null_share=0.0)
        with_nulls = null_rows(150, seed=9, null_share=0.4)
        shards = [with_nulls] + [rows[i::3] for i in range(3)]
        children = [Sort(RowSource(SCHEMA, shard), order, algorithm="srs")
                    for shard in shards]
        op = MergeExchange(children, order)
        ctx = ctx_for(meter, memory_blocks)
        expected = python_sorted(sum(shards, []), SCHEMA, order)
        assert op.run(ctx) == expected


@pytest.mark.parametrize("meter", METERING)
@pytest.mark.parametrize("order", ORDERS, ids=str)
class TestMergeAndTopK:
    def test_merge_exchange_null_shard_beside_plain_shards(self, order,
                                                           meter):
        plain = null_rows(300, null_share=0.0)
        shards = [python_sorted(null_rows(80, seed=4, null_share=0.5),
                                SCHEMA, order)]
        shards += [python_sorted(plain[i::3], SCHEMA, order)
                   for i in range(3)]
        # Both shard orders, empty shards around the NULL shard, and the
        # NULL shard alone; each against sorted() and the metered heap.
        for layout in (shards, shards[::-1], [[]] + shards[:2] + [[]],
                       shards[:1]):
            op = MergeExchange([RowSource(SCHEMA, s, output_order=order)
                                for s in layout], order)
            ctx = ctx_for(meter)
            rows = op.run(ctx)
            assert rows == python_sorted(sum(layout, []), SCHEMA, order)
            assert rows == op.run(ctx_for(True))

    @pytest.mark.parametrize("k", [1, 6, 40, 500])
    def test_topk(self, order, meter, k):
        rows = null_rows(300)
        op = TopK(RowSource(SCHEMA, rows), k, order)
        assert op.run(ctx_for(meter)) == python_sorted(rows, SCHEMA,
                                                        order)[:k]


def test_all_null_and_no_null_columns():
    rows = [(None, i % 3, i) for i in range(50)]
    for meter in METERING:
        for order in ORDERS:
            out = list(sort_stream(rows, SCHEMA, order, ctx_for(meter, 2),
                                   algorithm="srs"))
            assert out == python_sorted(rows, SCHEMA, order)


# -- through the serving backends ------------------------------------------------------
SERVING_SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8),
                           ("c", "int", 8), ("pad", "int", 200))


def serving_catalog(memory_blocks):
    """400 rows; NULLs in ``a`` and ``b`` only in the first 100, so at
    parallelism 4 one contiguous shard holds every NULL."""
    rng = random.Random(11)
    rows = []
    for i in range(400):
        nullable = i < 100

        def value(domain):
            if nullable and rng.random() < 0.4:
                return None
            return rng.randrange(domain)
        rows.append((value(20), value(5), rng.randrange(1000), i))
    catalog = Catalog(SystemParameters(sort_memory_blocks=memory_blocks))
    catalog.create_table("t", SERVING_SCHEMA, rows=rows)
    return catalog, rows


SERVING_ORDERS = [["a"], ["b", "a"], ["a", "b", "c"]]


@pytest.mark.parametrize("memory_blocks", [10_000, 20, 4])
def test_serving_backends(memory_blocks):
    """In-memory sorts; then a table (~22 blocks) that spills whole but
    fits per shard, so parallelism 4 merges per-shard sorts; then
    per-shard sorts that spill too."""
    catalog, rows = serving_catalog(memory_blocks)
    session = QuerySession(catalog)
    merges = 0
    backends = [SerialBackend(), ProcessPoolBackend(catalog, workers=2)]
    try:
        for columns in SERVING_ORDERS:
            query = Query.table("t").order_by(*columns)
            expected = python_sorted(rows, SERVING_SCHEMA, SortOrder(columns))
            for parallelism in (1, 4):
                plan = session.prepare(query, parallelism=parallelism).plan
                merges += any(n.op == "MergeExchange" for n in plan.walk())
                for backend in backends:
                    for meter in METERING:
                        ctx = ExecutionContext(catalog,
                                               meter_comparisons=meter)
                        got = backend.run_plan(plan, catalog, parallelism,
                                               ctx=ctx)
                        assert got == expected, (backend.name, columns,
                                                 parallelism, meter)
                        assert (ctx.comparisons.value > 0) == meter
                    assert backend.run_plan(plan, catalog,
                                            parallelism) == expected
    finally:
        backends[1].close()
    assert merges or memory_blocks == 10_000, "no plan merged shard sorts"
