"""MergeExchange unit tests: edge shapes (empty/single/oversharded
shards, duplicate keys), spilling per-shard sorts, the deterministic
thread-pool drain discipline shared with ExchangeUnion, and the run
merge (one stable sort) for unmetered merges of materialised shards."""

import random
import time

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExchangeUnion,
    ExecutionContext,
    MergeExchange,
    Operator,
    RowSource,
    ShardedScan,
    Sort,
    TableScan,
)
from repro.engine.joins import MergeJoin
from repro.expr import JoinPredicate
from repro.storage import Catalog, Schema, SystemParameters

SCHEMA = Schema.of(("k", "int", 8), ("v", "int", 8))
ORDER_K = SortOrder(["k"])


def source(rows, order=ORDER_K):
    return RowSource(SCHEMA, rows, output_order=order)


def _counters(ctx):
    return (ctx.io.blocks_read, ctx.io.blocks_written, ctx.comparisons.value,
            ctx.sort_metrics.runs_created, ctx.sort_metrics.in_memory_sorts)


class SlowOperator(Operator):
    """Pass-through that sleeps before producing — forces thread-pool
    workers to finish out of shard order."""

    name = "SlowOperator"

    def __init__(self, child, delay: float) -> None:
        super().__init__(child.schema, child.output_order, [child])
        self.delay = delay

    def execute_batches(self, ctx):
        time.sleep(self.delay)
        return self.children[0].execute_batches(ctx)


class TestMergeExchangeShapes:
    def test_merges_sorted_shards(self):
        left = source([(1, 0), (3, 0), (5, 0)])
        right = source([(2, 1), (4, 1), (6, 1)])
        merged = MergeExchange([left, right], ORDER_K)
        assert merged.output_order == ORDER_K
        assert merged.run() == [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]

    def test_empty_shards_are_skipped(self):
        children = [source([]), source([(2, 0), (9, 0)]), source([]),
                    source([(1, 1)])]
        assert MergeExchange(children, ORDER_K).run() == [(1, 1), (2, 0), (9, 0)]

    def test_all_shards_empty(self):
        merged = MergeExchange([source([]), source([])], ORDER_K)
        assert merged.run() == []
        assert list(merged.execute_batches(ExecutionContext())) == []

    def test_single_shard_is_a_free_passthrough(self):
        rows = [(1, 0), (2, 0), (3, 0)]
        ctx = ExecutionContext()
        merged = MergeExchange([source(rows)], ORDER_K)
        assert merged.run(ctx) == rows
        assert ctx.comparisons.value == 0  # no heap contention to pay for

    def test_duplicate_keys_stable_tie_break(self):
        """Equal keys come out in shard order, within a shard in arrival
        order — exactly what a stable full sort of the shard-order
        concatenation would produce."""
        shard0 = source([(1, 100), (1, 101), (2, 102)])
        shard1 = source([(1, 200), (2, 201), (2, 202)])
        merged = MergeExchange([shard0, shard1], ORDER_K)
        concatenated = [(1, 100), (1, 101), (2, 102), (1, 200), (2, 201), (2, 202)]
        assert merged.run() == sorted(concatenated, key=lambda r: r[0])
        assert merged.run() == [(1, 100), (1, 101), (1, 200), (2, 102),
                                (2, 201), (2, 202)]

    def test_shard_count_exceeding_row_count(self):
        """More shards than rows: the trailing shards are empty streams
        and the merge still reproduces the full sorted table."""
        cat = Catalog()
        rows = [(3, 0), (1, 1), (2, 2)]
        cat.create_table("tiny", SCHEMA, rows=rows)
        table = cat.table("tiny")
        shards = [Sort(ShardedScan(table, 8, i), ORDER_K) for i in range(8)]
        merged = MergeExchange(shards, ORDER_K)
        assert merged.run(ExecutionContext(cat)) == \
            sorted(table.rows, key=lambda r: r[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one child"):
            MergeExchange([], ORDER_K)
        with pytest.raises(ValueError, match="non-empty merge order"):
            MergeExchange([source([])], SortOrder())
        with pytest.raises(ValueError, match="missing columns"):
            MergeExchange([source([])], SortOrder(["nope"]))
        other = RowSource(Schema.of(("x", "int", 8)), [])
        with pytest.raises(ValueError, match="share a schema"):
            MergeExchange([source([]), other], ORDER_K)
        with pytest.raises(ValueError, match="max_workers"):
            MergeExchange([source([])], ORDER_K, max_workers=0)

    def test_check_orders_catches_lying_child(self):
        liar = source([(5, 0), (1, 0)])  # declares (k) but is not sorted
        merged = MergeExchange([liar], ORDER_K)
        ctx = ExecutionContext(check_orders=True)
        with pytest.raises(AssertionError, match="MergeExchange input shard 0"):
            merged.run(ctx)


class TestMergeExchangeCosts:
    def make_sharded_sorts(self, num_rows=2000, shard_count=4,
                           params=None, seed=7):
        import random
        rng = random.Random(seed)
        cat = Catalog(params or SystemParameters())
        rows = [(rng.randrange(50), i) for i in range(num_rows)]
        cat.create_table("t", SCHEMA, rows=rows)
        table = cat.table("t")
        shards = [Sort(ShardedScan(table, shard_count, i), ORDER_K)
                  for i in range(shard_count)]
        return cat, table, MergeExchange(shards, ORDER_K)

    def test_spilling_per_shard_sorts(self):
        """Shards larger than sort memory spill SRS runs; the merged
        result is still the full stable sort and the tallies are
        batch-size independent."""
        params = SystemParameters(block_size=256, sort_memory_blocks=4)
        cat, table, merged = self.make_sharded_sorts(params=params)
        expected = sorted(table.rows, key=lambda r: r[0])

        ref_ctx = ExecutionContext(cat, batch_size=1)
        assert merged.run(ref_ctx) == expected
        assert ref_ctx.sort_metrics.runs_created > 0  # genuinely spilled
        for batch_size in (3, 64, 4096):
            ctx = ExecutionContext(cat, batch_size=batch_size)
            assert merged.run(ctx) == expected, batch_size
            assert _counters(ctx) == _counters(ref_ctx), batch_size

    def test_merge_comparisons_counted(self):
        cat, table, merged = self.make_sharded_sorts(num_rows=64)
        sort_only = Sort(TableScan(table), ORDER_K)
        merge_ctx, sort_ctx = ExecutionContext(cat), ExecutionContext(cat)
        assert merged.run(merge_ctx) == sort_only.run(sort_ctx)
        # The k-way heap merge pays comparisons the single sort does not
        # (they are what the cost model's merge_exchange term estimates).
        assert merge_ctx.comparisons.value > 0


class TestDeterministicThreadDrain:
    """Thread-pool drains must absorb forked contexts in shard order and
    emit rows in shard order even when workers finish out of order."""

    def make_catalog(self, num_rows=800, seed=3):
        import random
        rng = random.Random(seed)
        cat = Catalog()
        rows = [(rng.randrange(40), i) for i in range(num_rows)]
        cat.create_table("t", SCHEMA, rows=rows)
        return cat

    def slow_shards(self, table, shard_count):
        """Shard 0 is the slowest, so completion order inverts shard
        order on the pool."""
        return [SlowOperator(ShardedScan(table, shard_count, i),
                             delay=0.05 if i == 0 else 0.0)
                for i in range(shard_count)]

    def test_exchange_union_absorbs_in_shard_order(self):
        cat = self.make_catalog()
        table = cat.table("t")
        serial = ExchangeUnion(self.slow_shards(table, 4), max_workers=1)
        threaded = ExchangeUnion(self.slow_shards(table, 4), max_workers=4)
        serial_ctx, threaded_ctx = ExecutionContext(cat), ExecutionContext(cat)
        assert threaded.run(threaded_ctx) == serial.run(serial_ctx) == table.rows
        assert _counters(threaded_ctx) == _counters(serial_ctx)

    def test_merge_exchange_parallel_drain_deterministic(self):
        cat = self.make_catalog()
        table = cat.table("t")

        def shards():
            return [Sort(slow, ORDER_K)
                    for slow in self.slow_shards(table, 4)]

        serial = MergeExchange(shards(), ORDER_K, max_workers=1)
        threaded = MergeExchange(shards(), ORDER_K, max_workers=4)
        serial_ctx, threaded_ctx = ExecutionContext(cat), ExecutionContext(cat)
        assert threaded.run(threaded_ctx) == serial.run(serial_ctx) == \
            sorted(table.rows, key=lambda r: r[0])
        assert _counters(threaded_ctx) == _counters(serial_ctx)


# -- the run merge -------------------------------------------------------------------------
RUN_SCHEMA = Schema.of(("k", "int", 8), ("j", "int", 8), ("v", "int", 8))
RUN_ORDERS = [SortOrder(["k"]), SortOrder(["k", "j"]), SortOrder(["j", "k"])]


def sorted_on(rows, order):
    """The oracle: a stable ``sorted()`` with NULLs before every value."""
    positions = RUN_SCHEMA.positions(list(order))
    return sorted(rows, key=lambda row: [
        (row[p] is not None, 0 if row[p] is None else row[p])
        for p in positions])


def random_shard(shard, n, domain=3, null_share=0.0, seed=5):
    """*n* rows with keys from a small domain (ties across shards) and
    ``v`` naming the row's shard and position."""
    rng = random.Random(seed * 100 + shard)

    def key():
        return None if rng.random() < null_share else rng.randrange(domain)
    return [(key(), key(), shard * 1000 + i) for i in range(n)]


#: Shard layouts, each shard sorted on the merge order before the merge.
RUN_LAYOUTS = {
    "equal_keys": [[(1, 1, 0), (1, 1, 1)], [(1, 1, 1000)],
                   [(1, 1, 2000), (1, 1, 2001)]],
    "ties_across_shards": [random_shard(s, 40) for s in range(4)],
    "null_shard_beside_plain": (
        [random_shard(0, 30, null_share=0.4)]
        + [random_shard(s, 40) for s in range(1, 4)]),
    "empty_shards": [[], random_shard(1, 25), [], random_shard(3, 25), []],
    "all_empty": [[], [], []],
    "single_shard": [random_shard(0, 50, null_share=0.2)],
}


def run_merge(shards, order, meter, **ctx_args):
    op = MergeExchange([RowSource(RUN_SCHEMA, s, output_order=order)
                        for s in shards], order)
    return op.run(ExecutionContext(meter_comparisons=meter, **ctx_args))


class TestRunMerge:
    """Unmetered merges over materialised shards sort the concatenation
    once; the rows must be exactly the metered heap merge's and a stable
    ``sorted()`` over the shard-order concatenation's."""

    @pytest.mark.parametrize("order", RUN_ORDERS, ids=str)
    @pytest.mark.parametrize("layout", sorted(RUN_LAYOUTS))
    def test_matches_sorted_and_heap_merge(self, layout, order):
        shards = [sorted_on(s, order) for s in RUN_LAYOUTS[layout]]
        expected = sorted_on(sum(shards, []), order)
        for batch_size in (1, 7, None):
            assert run_merge(shards, order, False,
                             batch_size=batch_size) == expected
            assert run_merge(shards, order, True,
                             batch_size=batch_size) == expected

    def test_ties_go_to_the_lowest_shard(self):
        shards = RUN_LAYOUTS["equal_keys"]
        assert [v for _, _, v in run_merge(shards, ORDER_K, False)] == \
            [0, 1, 1000, 2000, 2001]

    def test_materialised_children_skip_the_heap(self, monkeypatch):
        import repro.engine.exchange as exchange

        def no_heap(*args):
            raise AssertionError("heap merge used for materialised shards")
        monkeypatch.setattr(exchange, "merge_sorted_streams", no_heap)
        shards = [sorted_on(s, ORDER_K)
                  for s in RUN_LAYOUTS["ties_across_shards"]]
        assert run_merge(shards, ORDER_K, False) == \
            sorted_on(sum(shards, []), ORDER_K)
        with pytest.raises(AssertionError, match="heap merge used"):
            run_merge(shards, ORDER_K, True)

    @pytest.mark.parametrize("meter", [False, True])
    def test_check_orders_catches_unsorted_shard(self, meter):
        shards = [[(0, 0, 0), (4, 0, 1)], [(5, 0, 1000), (1, 0, 1001)]]
        with pytest.raises(AssertionError,
                           match="MergeExchange input shard 1"):
            run_merge(shards, ORDER_K, meter, check_orders=True)

    def test_lazy_children_keep_the_heap_merge(self):
        """A merge join stops reading one input once the other is
        exhausted.  Under it, a merge of spilled per-shard sorts must
        charge the same blocks metered or not: sorting the shards'
        concatenation would drain them to the end first (fuzz seed 37's
        shape, at batch size 1)."""
        rng = random.Random(37)
        cat = Catalog(SystemParameters(sort_memory_blocks=2))
        cat.create_table("l", Schema.of(("a", "int", 200), ("x", "int", 200)),
                         rows=[(rng.randrange(10), i) for i in range(200)])
        cat.create_table("r", Schema.of(("c", "int", 200), ("y", "int", 200)),
                         rows=[(rng.randrange(40), i) for i in range(200)])

        def gather(name, key):
            order = SortOrder([key])
            return MergeExchange(
                [Sort(ShardedScan(cat.table(name), 4, i), order)
                 for i in range(4)], order)

        join = MergeJoin(gather("l", "a"), gather("r", "c"),
                         JoinPredicate([("a", "c")]))
        runs = []
        for meter in (True, False):
            ctx = ExecutionContext(cat, batch_size=1, meter_comparisons=meter)
            rows = join.run(ctx)
            tallies = ctx.tallies()
            del tallies["comparisons"], tallies["meter_comparisons"]
            runs.append((rows, tallies))
        assert runs[0] == runs[1]
        assert runs[0][1]["run_blocks_read"] > 0  # the sorts spilled
