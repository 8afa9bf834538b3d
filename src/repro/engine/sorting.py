"""External sorting: standard and modified replacement selection (Section 3).

Two algorithms:

* :func:`srs_sort` — **SRS**, textbook replacement selection [Knu73]:
  a selection heap produces initial runs (~2× memory on random input, one
  giant run on presorted input), runs are written to the simulated disk
  and merged with fan-in ``M-1``.  On fully-presorted input SRS still
  "writes a single large run to the disk and reads it back; this breaks
  the pipeline and incurs substantial I/O" — exactly the behaviour the
  paper criticises.

* :func:`mrs_sort` — **MRS**, the paper's modified replacement selection:
  given a known partial sort order (a prefix of the target order), tuples
  sharing a prefix value form a *partial sort segment*; each segment is
  sorted independently on the remaining attributes and emitted as soon as
  the next segment starts.  If a segment fits in memory the whole sort
  does **zero** disk I/O, output begins immediately (pipelined), and
  comparisons drop from ``O(n log n)`` to ``O(n log(n/k))`` on fewer
  attributes.

Both charge block transfers to the :class:`~repro.engine.context.ExecutionContext`
and, when the context meters comparisons, count each key comparison
once, making Experiments A1–A4 reproducible.  Unmetered contexts sort
and merge with ``list.sort``/``heapq`` on plain ``itemgetter`` keys —
no Python call per comparison — and yield the same rows in the same
order.  Keys need no per-row wrapping: an in-memory load is checked
once for NULLs in its key columns, and streams that cannot be seen
whole (merges, spilled runs) re-encode only keys that hold a NULL.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from ..core.sort_order import SortOrder
from ..storage.schema import Schema
from .context import CountedKey, CountedRank, ExecutionContext
from .iterators import load_key, null_first_key, plain_key

KeyFn = Callable[[tuple], object]

_SENTINEL = object()


class _RunStore:
    """Simulated disk holding sort runs; charges I/O at write & read time."""

    def __init__(self, ctx: ExecutionContext, row_bytes: int, category: str = "run") -> None:
        self.ctx = ctx
        self.row_bytes = row_bytes
        self.category = category
        self.runs: list[list[tuple]] = []

    def write_run(self, rows: list[tuple]) -> None:
        if not rows:
            return
        self.ctx.charge_blocks_for_rows(len(rows), self.row_bytes,
                                        direction="write", category=self.category)
        self.ctx.sort_metrics.runs_created += 1
        self.ctx.sort_metrics.rows_spilled += len(rows)
        self.runs.append(rows)

    def read_run(self, run: list[tuple]) -> Iterator[tuple]:
        return self.ctx.charged_stream(run, self.row_bytes, category=self.category)


def _sort_load(rows: list[tuple], positions: Sequence[int],
               ctx: ExecutionContext) -> None:
    """Stable in-place sort of one in-memory load on *positions*.

    The key is chosen once for the load (:func:`load_key`); metered, each
    key is wrapped so ``list.sort`` — which compares bare keys with
    ``<`` only — tallies one comparison per comparison.
    """
    key_fn = load_key(rows, positions)
    if ctx.meter_comparisons:
        counter = ctx.comparisons
        rows.sort(key=lambda row: CountedKey(key_fn(row), counter))
    else:
        rows.sort(key=key_fn)


def merge_sorted_streams(streams: Sequence[Iterable[tuple]], key_fn: KeyFn,
                         ctx: ExecutionContext) -> Iterator[tuple]:
    """Stable k-way merge of sorted row streams.

    ``heapq.merge`` breaks key ties by stream position, so merging
    per-shard sorted streams *in shard order* reproduces exactly the row
    sequence a stable full sort of the concatenated input would emit —
    the invariant :class:`~repro.engine.exchange.MergeExchange` and the
    run merges below both rely on.  *key_fn* must accept every row of
    every stream (:func:`~repro.engine.iterators.null_first_key` when
    NULLs may appear).  Unmetered, this is ``heapq.merge`` on the plain
    keys; metered, each row's key becomes a :class:`CountedRank` tied on
    its stream index, so every merge comparison is tallied once.
    """
    if not ctx.meter_comparisons:
        return heapq.merge(*streams, key=key_fn)
    counter = ctx.comparisons

    def ranked(index: int, stream: Iterable[tuple]) -> Iterator[tuple]:
        for row in stream:
            yield CountedRank(key_fn(row), index, counter), row

    merged = heapq.merge(*(ranked(i, s) for i, s in enumerate(streams)))
    return (row for _, row in merged)


def _merge_runs(store: _RunStore, runs: list[list[tuple]], key_fn: KeyFn,
                ctx: ExecutionContext) -> Iterator[tuple]:
    """Multiway-merge *runs* down to a single sorted stream.

    Intermediate passes happen only when the number of runs exceeds the
    merge fan-in (``M - 1`` input buffers); each pass reads and rewrites
    the merged data, which is what makes the SRS curve jump in Fig. 9.
    """
    # Snapshot: write_run() appends to store.runs, which may be the very
    # list the caller handed us.
    runs = list(runs)
    fan_in = max(2, ctx.params.sort_memory_blocks - 1)

    while len(runs) > fan_in:
        ctx.sort_metrics.merge_passes += 1
        next_runs: list[list[tuple]] = []
        for i in range(0, len(runs), fan_in):
            batch = runs[i:i + fan_in]
            merged = list(merge_sorted_streams(
                [store.read_run(r) for r in batch], key_fn, ctx))
            store.write_run(merged)
            next_runs.append(merged)
        runs = next_runs
    ctx.sort_metrics.merge_passes += 1
    return merge_sorted_streams([store.read_run(r) for r in runs], key_fn, ctx)


def srs_sort(rows: Iterable[tuple], positions: Sequence[int],
             ctx: ExecutionContext, row_bytes: int) -> Iterator[tuple]:
    """Standard replacement selection external sort on *positions*.

    If the input fits in sort memory it is sorted in memory, with no
    I/O — this matches the cost model's ``B(e) ≤ M`` branch.  Otherwise
    runs go to the simulated disk and are merged, charging every
    transfer.  Metered, the in-memory sort drains a selection heap so
    the tally is replacement selection's; unmetered it is one stable
    ``list.sort`` — the same rows in the same order.
    """
    # A row wider than sort memory must not yield capacity 0: the first
    # row would become ``overflow_row`` against an empty heap and the
    # replacement-selection loop would silently drop the whole input.
    capacity = max(1, ctx.memory_capacity_rows(row_bytes))
    metered = ctx.meter_comparisons
    counter = ctx.comparisons
    it = iter(rows)
    load = list(islice(it, capacity))
    overflow_row = next(it, _SENTINEL)

    in_memory = overflow_row is _SENTINEL
    # A load seen whole picks its key once; a spilling sort cannot see
    # the rows still to come, so it re-encodes per row where NULLs occur.
    key_fn = (load_key(load, positions) if in_memory
              else null_first_key(positions))

    def heap_key(row: tuple, seq: int) -> object:
        # Heap entries order on (run, key, input sequence): ties leave in
        # arrival order, so every run is a stable sort.  Metered, the key
        # is a rank tied on the same sequence: one tally per comparison.
        key = key_fn(row)
        return CountedRank(key, seq, counter) if metered else key

    if in_memory:
        # Entire input fits in memory: no run I/O at all.
        ctx.sort_metrics.in_memory_sorts += 1
        if not metered:
            load.sort(key=key_fn)
            yield from load
            return
    heap: list[tuple] = []
    for seq, row in enumerate(load):
        heapq.heappush(heap, (0, heap_key(row, seq), seq, row))
    if in_memory:
        while heap:
            yield heapq.heappop(heap)[3]
        return

    seq = len(load)
    store = _RunStore(ctx, row_bytes)
    current_run = 0
    run_buffer: list[tuple] = []
    pending: object = overflow_row

    def flush_run() -> None:
        nonlocal run_buffer
        store.write_run(run_buffer)
        run_buffer = []

    while heap:
        run_id, popped_key, _, popped_row = heapq.heappop(heap)
        if run_id != current_run:
            flush_run()
            current_run = run_id
        run_buffer.append(popped_row)
        if pending is not _SENTINEL:
            new_key = heap_key(pending, seq)
            # A new tuple smaller than the last one output cannot join
            # the current run; defer it to the next run.  (Metered, this
            # comparison of two ranks is tallied like any other.)
            target = run_id + 1 if new_key < popped_key else run_id
            heapq.heappush(heap, (target, new_key, seq, pending))
            seq += 1
            pending = next(it, _SENTINEL)
    flush_run()

    yield from _merge_runs(store, store.runs, key_fn, ctx)


def mrs_sort(rows: Iterable[tuple], prefix_positions: Sequence[int],
             suffix_positions: Sequence[int], ctx: ExecutionContext,
             row_bytes: int) -> Iterator[tuple]:
    """Modified replacement selection exploiting a known partial sort order.

    ``prefix_positions`` hold the already-sorted prefix attributes;
    ``suffix_positions`` the remaining attributes to sort within a
    segment.  Tuples are emitted segment by segment — output starts as
    soon as the first segment completes, enabling fully pipelined
    execution.

    Oversized segments (larger than sort memory) degrade gracefully: full
    memory loads are sorted and spilled as runs, then merged — per
    segment, so run counts stay far below SRS until a single segment
    approaches the whole input (the convergence at the right edge of
    Fig. 9).
    """
    # Same ≥ 1 guard as srs_sort: a zero capacity would spill a run per
    # row (and an empty run first) instead of degrading gracefully.
    capacity = max(1, ctx.memory_capacity_rows(row_bytes))
    counter = ctx.comparisons
    # Segment boundaries test equality only, where plain keys and the
    # NULL-first encoding agree (NULL equals NULL, and nothing else).
    segment_key = plain_key(prefix_positions)
    suffix_key = null_first_key(suffix_positions)

    def emit_segment(segment: list[tuple], store: _RunStore | None) -> Iterator[tuple]:
        ctx.sort_metrics.segments_sorted += 1
        _sort_load(segment, suffix_positions, ctx)
        if store is None or not store.runs:
            ctx.sort_metrics.in_memory_sorts += 1
            yield from segment
            return
        # The segment spilled: merge its sorted in-memory tail with the
        # on-disk runs of this segment only.  The run merge honours the
        # same fan-in limit as SRS (intermediate passes when there are
        # more runs than buffers), so an all-one-segment input converges
        # to SRS cost — the right edge of Fig. 9.
        merged_runs = _merge_runs(store, store.runs, suffix_key, ctx)
        yield from merge_sorted_streams([merged_runs, segment], suffix_key, ctx)

    current_prefix: object = _SENTINEL
    segment: list[tuple] = []
    store: _RunStore | None = None

    for row in rows:
        prefix = segment_key(row)
        counter.add()  # the segment-boundary test is a key comparison
        # ``is not`` first: a one-column prefix is a scalar, and this
        # keeps tuple-element equality semantics for it.
        if prefix is not current_prefix and prefix != current_prefix:
            if current_prefix is not _SENTINEL:
                yield from emit_segment(segment, store)
            current_prefix = prefix
            segment = [row]
            store = None
            continue
        segment.append(row)
        if len(segment) >= capacity:
            # Spill one memory load of this segment as a sorted run.
            if store is None:
                store = _RunStore(ctx, row_bytes)
            _sort_load(segment, suffix_positions, ctx)
            store.write_run(segment)
            segment = []
    if current_prefix is not _SENTINEL:
        yield from emit_segment(segment, store)


def sort_stream(
    rows: Iterable[tuple],
    schema: Schema,
    target_order: SortOrder,
    ctx: ExecutionContext,
    known_prefix: SortOrder = SortOrder(),
    algorithm: str = "auto",
) -> Iterator[tuple]:
    """Sort a row stream to *target_order*, dispatching SRS vs MRS.

    ``known_prefix`` is the sort order already guaranteed on the input
    (must be a prefix of *target_order*).  ``algorithm`` may force
    ``"srs"`` (ignore the prefix, as the systems in Experiment A1 do) or
    ``"mrs"``; ``"auto"`` uses MRS exactly when a usable prefix exists.
    Rows come out NULLs first, ties in input order.
    """
    if algorithm not in ("auto", "srs", "mrs"):
        raise ValueError(f"unknown sort algorithm {algorithm!r}")
    if not known_prefix.is_prefix_of(target_order):
        raise ValueError(f"known prefix {known_prefix} is not a prefix of {target_order}")

    row_bytes = schema.row_bytes
    positions = schema.positions(list(target_order))
    k = len(known_prefix)

    if algorithm == "mrs" and k == 0:
        raise ValueError("MRS requires a non-empty known sort-order prefix")

    use_mrs = algorithm == "mrs" or (algorithm == "auto" and 0 < k)
    if use_mrs and k >= len(target_order):
        # Input already fully sorted; nothing to do.
        return iter(rows)
    if use_mrs:
        return mrs_sort(rows, positions[:k], positions[k:], ctx, row_bytes)
    return srs_sort(rows, positions, ctx, row_bytes)
