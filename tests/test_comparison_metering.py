"""Comparison metering: each key comparison is tallied exactly once, and
an unmetered context counts nothing while producing the same rows.

The oracles below re-run each algorithm's comparisons on *bare* keys
through a probe class of this module, so the count they report does not
come from the engine's counting machinery at all.  Heap entries there
are single probes whose ``__lt__`` is the only comparison Python can
call, which makes "one call, one comparison" hold by construction.
"""

import heapq
import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    MergeExchange,
    RowSource,
    TopK,
    sort_stream,
)
from repro.engine.context import (
    ComparisonCounter,
    CountedKey,
    CountedRank,
)
from repro.storage import Schema, SystemParameters

SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))
TARGET = SortOrder(["k1", "k2"])


class _Probe:
    """A bare key plus a unique tie-break; counts its own ``<`` calls."""

    __slots__ = ("key", "tie", "tally")

    def __init__(self, key, tie, tally):
        self.key, self.tie, self.tally = key, tie, tally

    def __lt__(self, other):
        self.tally[0] += 1
        return (self.key, self.tie) < (other.key, other.tie)


def _rows(n, seed=7, domain=50):
    rng = random.Random(seed)
    return [(rng.randrange(domain), rng.randrange(domain), i)
            for i in range(n)]


def _key(row):
    return row[0], row[1]


def oracle_heap_sort(rows):
    """Replacement selection with everything in memory: push all, pop
    all — the metered in-memory SRS path."""
    tally = [0]
    heap = []
    for seq, row in enumerate(rows):
        heapq.heappush(heap, _Probe(_key(row), seq, tally))
    while heap:
        heapq.heappop(heap)
    return tally[0]


def oracle_replacement_selection(rows, capacity, fan_in):
    """Replacement selection that spills runs, then merges them (with
    intermediate passes beyond *fan_in* runs) — the spilled SRS path.
    Entries compare on run first; only same-run pairs compare keys."""
    tally = [0]

    class Entry:
        __slots__ = ("run", "probe", "row")

        def __init__(self, run, probe, row):
            self.run, self.probe, self.row = run, probe, row

        def __lt__(self, other):
            if self.run != other.run:
                return self.run < other.run
            return self.probe < other.probe

    it = iter(rows)
    heap = []
    seq = 0
    for row in it:
        heapq.heappush(heap, Entry(0, _Probe(_key(row), seq, tally), row))
        seq += 1
        if len(heap) == capacity:
            break
    runs, current, buffer = [], 0, []
    pending = next(it, None)
    while heap:
        top = heapq.heappop(heap)
        if top.run != current:
            runs.append(buffer)
            current, buffer = top.run, []
        buffer.append(top.row)
        if pending is not None:
            probe = _Probe(_key(pending), seq, tally)
            run = top.run + 1 if probe < top.probe else top.run
            heapq.heappush(heap, Entry(run, probe, pending))
            seq += 1
            pending = next(it, None)
    runs.append(buffer)

    def merge(batch):
        streams = [[(_Probe(_key(r), i, tally), r) for r in run]
                   for i, run in enumerate(batch)]
        return [row for _, row in heapq.merge(*streams)]

    while len(runs) > fan_in:
        runs = [merge(runs[i:i + fan_in])
                for i in range(0, len(runs), fan_in)]
    merge(runs)
    return tally[0]


def oracle_segment_sorts(rows):
    """MRS on a k1-sorted input: one boundary test per row plus a
    ``list.sort`` of each k1 segment on k2."""
    tally = [0]
    segments = {}
    for row in rows:
        segments.setdefault(row[0], []).append(row)
    for segment in segments.values():
        # Tie 0: list.sort must see equal keys as equal, like bare keys.
        probes = [_Probe(row[1], 0, tally) for row in segment]
        probes.sort()
    return tally[0] + len(rows)


class TestEachComparisonCountedOnce:
    def test_in_memory_srs_matches_oracle(self):
        rows = _rows(2000)
        ctx = ExecutionContext()
        out = list(sort_stream(rows, SCHEMA, TARGET, ctx, algorithm="srs"))
        assert out == sorted(rows, key=_key)
        assert ctx.sort_metrics.in_memory_sorts == 1
        assert ctx.comparisons.value == oracle_heap_sort(rows)
        # Pinned: tuple-embedded counted keys used to tally 46,850 here
        # (their == and their < each counted).
        assert ctx.comparisons.value == 23_791

    def test_spilled_srs_matches_oracle(self):
        rows = _rows(600)
        params = SystemParameters(block_size=256, sort_memory_blocks=4)
        ctx = ExecutionContext(params=params)
        out = list(sort_stream(rows, SCHEMA, TARGET, ctx, algorithm="srs"))
        assert out == sorted(rows, key=_key)
        assert ctx.sort_metrics.runs_created > 4   # intermediate passes
        capacity = ctx.memory_capacity_rows(SCHEMA.row_bytes)
        fan_in = max(2, params.sort_memory_blocks - 1)
        assert ctx.comparisons.value == oracle_replacement_selection(
            rows, capacity, fan_in)

    def test_mrs_matches_oracle(self):
        rows = sorted(_rows(2000), key=lambda r: r[0])
        ctx = ExecutionContext()
        out = list(sort_stream(rows, SCHEMA, TARGET, ctx,
                               known_prefix=SortOrder(["k1"])))
        assert out == sorted(rows, key=_key)
        assert ctx.comparisons.value == oracle_segment_sorts(rows)

    def test_merge_exchange_matches_oracle(self):
        rows = _rows(1200)
        shards = [sorted(rows[i::4], key=_key) for i in range(4)]
        op = MergeExchange([RowSource(SCHEMA, s, output_order=TARGET)
                            for s in shards], TARGET)
        ctx = ExecutionContext()
        # A stable merge equals a stable sort of the shards' concatenation.
        assert op.run(ctx) == sorted(sum(shards, []), key=_key)
        tally = [0]
        streams = [[(_Probe(_key(r), i, tally), r) for r in s]
                   for i, s in enumerate(shards)]
        list(heapq.merge(*streams))
        assert ctx.comparisons.value == tally[0]

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_topk_matches_oracle(self, k):
        rows = _rows(900)
        op = TopK(RowSource(SCHEMA, rows), k, TARGET)
        ctx = ExecutionContext()
        assert op.run(ctx) == sorted(rows, key=_key)[:k]
        tally = [0]
        heapq.nsmallest(k, (_Probe(_key(r), i, tally)
                            for i, r in enumerate(rows)))
        assert ctx.comparisons.value == tally[0]

    def test_counted_rank_counts_once_inside_tuples(self):
        counter = ComparisonCounter()
        a = (0, CountedRank((1, 2), 0, counter), 0)
        b = (0, CountedRank((1, 3), 1, counter), 1)
        assert a < b
        assert counter.value == 1
        c = (0, CountedRank((1, 2), 2, counter), 2)   # equal key: tie-break
        assert a < c and not c < a
        assert counter.value == 3

    def test_counted_key_inside_tuples_would_double_count(self):
        """The bug this module pins: a bare counted key inside an entry
        is compared with == and then <, and each call counted."""
        counter = ComparisonCounter()
        a = (0, CountedKey((1, 2), counter), 0)
        b = (0, CountedKey((1, 3), counter), 1)
        assert a < b
        assert counter.value == 2


class TestUnmeteredContext:
    def _sorts(self, meter, memory_blocks):
        rows = _rows(800, domain=12)
        params = SystemParameters(block_size=256,
                                  sort_memory_blocks=memory_blocks)
        ctx = ExecutionContext(params=params, meter_comparisons=meter)
        srs = list(sort_stream(rows, SCHEMA, TARGET, ctx, algorithm="srs"))
        presorted = sorted(rows, key=lambda r: r[0])
        mrs = list(sort_stream(presorted, SCHEMA, TARGET, ctx,
                               known_prefix=SortOrder(["k1"])))
        top = TopK(RowSource(SCHEMA, rows), 25, TARGET).run(ctx)
        if memory_blocks < 10_000:
            assert ctx.sort_metrics.runs_created > 0
        return (srs, mrs, top), ctx

    @pytest.mark.parametrize("memory_blocks", [10_000, 4, 2])
    def test_same_rows_and_tallies_comparisons_zero(self, memory_blocks):
        metered_rows, metered = self._sorts(True, memory_blocks)
        plain_rows, plain = self._sorts(False, memory_blocks)
        assert plain_rows == metered_rows
        assert metered.comparisons.value > 0
        assert plain.comparisons.value == 0
        on, off = metered.tallies(), plain.tallies()
        for tallies in (on, off):
            del tallies["comparisons"], tallies["meter_comparisons"]
        assert on == off

    def test_flag_survives_fork_and_reset(self):
        ctx = ExecutionContext(meter_comparisons=False)
        assert ctx.fork().meter_comparisons is False
        ctx.comparisons.add(5)
        ctx.reset()
        assert ctx.meter_comparisons is False
        assert ctx.comparisons.value == 0
        assert ExecutionContext().fork().meter_comparisons is True

    def test_disabled_counter_cannot_be_bumped_directly(self):
        ctx = ExecutionContext(meter_comparisons=False)
        with pytest.raises(AttributeError):
            ctx.comparisons.value += 1

    def test_tallies_round_trip(self):
        worker = ExecutionContext(meter_comparisons=False)
        worker.comparisons.add(3)
        worker.io.read(2)
        tallies = worker.tallies()
        assert tallies["meter_comparisons"] is False
        assert tallies["comparisons"] == 0
        parent = ExecutionContext(meter_comparisons=False)
        parent.absorb_tallies(tallies)
        assert parent.io.blocks_read == 2
        assert parent.comparisons.value == 0
        # Mixed flags: a partial count, or a worker counting for nobody.
        with pytest.raises(ValueError, match="meter_comparisons"):
            ExecutionContext().absorb_tallies(tallies)
        with pytest.raises(ValueError, match="meter_comparisons"):
            parent.absorb_tallies(ExecutionContext().tallies())
