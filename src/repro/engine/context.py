"""Execution context: simulated block I/O accounting + CPU metering.

The paper evaluates everything in *I/O cost units* ("CPU cost is
appropriately translated into I/O cost units").  Our substrate holds all
data in RAM but charges every block transfer to an
:class:`IOAccountant`, and counts key comparisons (unless the context
opts out with ``meter_comparisons=False``, as serving does), so
experiments can report a deterministic simulated cost alongside
wall-clock time.

``ExecutionContext.cost_units()`` is the single number used by the
benchmark harness:  ``blocks_read + blocks_written +
comparisons / cpu_comparisons_per_io``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from ..storage.catalog import Catalog, SystemParameters
from .batch import DEFAULT_BATCH_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.schema import Schema


class ComparisonCounter:
    """A mutable comparison tally shared by sort keys.

    Kept as its own tiny object (not an int attribute) so that the
    :class:`CountedKey` wrapper can bump it without holding a reference
    to the whole context.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class DisabledComparisonCounter(ComparisonCounter):
    """The counter of an unmetered context: ``add`` is a no-op and
    ``value`` reads exactly 0 (never a partial count).

    Unmetered sorts never build :class:`CountedKey` wrappers, so nothing
    bumps ``value`` directly; a stray ``counter.value += 1`` fails loudly
    (no instance slot) instead of counting.
    """

    __slots__ = ()
    value = 0

    def __init__(self) -> None:
        pass

    def add(self, n: int = 1) -> None:
        pass


class CountedKey:
    """A sort key wrapper whose comparisons are tallied.

    Used by the metered sort paths so the "reduced number of
    comparisons" effect of MRS (Section 3.1, benefit 3) is directly
    measurable.  For *bare* keys — ``list.sort(key=...)`` compares keys
    only with ``<`` — one tally is one key comparison.  Keys embedded in
    heap entries need :class:`CountedRank` instead.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: tuple, counter: ComparisonCounter) -> None:
        self.key = key
        self.counter = counter

    def __lt__(self, other: "CountedKey") -> bool:
        self.counter.value += 1
        return self.key < other.key

    def __le__(self, other: "CountedKey") -> bool:
        self.counter.value += 1
        return self.key <= other.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountedKey):
            return NotImplemented
        self.counter.value += 1
        return self.key == other.key

    def __hash__(self) -> int:  # pragma: no cover - keys are not hashed in sorts
        return hash(self.key)


class CountedRank:
    """A counted sort key with a unique tie-break, for keys that heap
    algorithms compare *inside* tuples and lists.

    Python compares sequences element by element with ``==`` until one
    pair differs, then applies ``<`` to that pair — so a
    :class:`CountedKey` inside a heap entry is tallied twice for every
    unequal pair.  A rank carries its own tie-break (input sequence
    number, or shard index in a merge) and so is never equal to another
    rank: ``==`` falls back to identity without a Python call, and each
    comparison, bare or inside an entry, is exactly one counted
    ``__lt__``.
    """

    __slots__ = ("key", "tie", "counter")

    def __init__(self, key, tie: int, counter: ComparisonCounter) -> None:
        self.key = key
        self.tie = tie
        self.counter = counter

    def __lt__(self, other: "CountedRank") -> bool:
        self.counter.value += 1
        key, other_key = self.key, other.key
        if key == other_key:
            return self.tie < other.tie
        return key < other_key


@dataclass
class IOAccountant:
    """Tally of simulated block transfers, split by purpose."""

    blocks_read: int = 0
    blocks_written: int = 0
    scan_blocks: int = 0
    run_blocks_written: int = 0
    run_blocks_read: int = 0
    partition_blocks: int = 0

    def read(self, blocks: int, *, category: str = "scan") -> None:
        if blocks < 0:
            raise ValueError("negative block count")
        self.blocks_read += blocks
        if category == "scan":
            self.scan_blocks += blocks
        elif category == "run":
            self.run_blocks_read += blocks
        elif category == "partition":
            self.partition_blocks += blocks

    def write(self, blocks: int, *, category: str = "run") -> None:
        if blocks < 0:
            raise ValueError("negative block count")
        self.blocks_written += blocks
        if category == "run":
            self.run_blocks_written += blocks
        elif category == "partition":
            self.partition_blocks += blocks

    @property
    def total_blocks(self) -> int:
        return self.blocks_read + self.blocks_written

    def snapshot(self) -> "IOAccountant":
        return IOAccountant(
            self.blocks_read, self.blocks_written, self.scan_blocks,
            self.run_blocks_written, self.run_blocks_read, self.partition_blocks,
        )


@dataclass
class SortMetrics:
    """Per-execution sort statistics surfaced by Experiments A1–A4."""

    runs_created: int = 0
    segments_sorted: int = 0
    rows_spilled: int = 0
    merge_passes: int = 0
    in_memory_sorts: int = 0


class ExecutionContext:
    """Everything an operator needs at run time."""

    def __init__(self, catalog: Optional[Catalog] = None,
                 params: Optional[SystemParameters] = None,
                 check_orders: bool = False,
                 batch_size: Optional[int] = None,
                 columnar: bool = True,
                 meter_timing: bool = False,
                 meter_comparisons: bool = True) -> None:
        self.catalog = catalog
        self.params = params or (catalog.params if catalog else SystemParameters())
        self.io = IOAccountant()
        #: When false, nothing counts key comparisons: sorts and merges
        #: run ``list.sort``/``heapq`` on plain keys at C speed and
        #: ``comparisons.value`` reads exactly 0.  **On by default** —
        #: the paper's experiments and the tally pins read the count;
        #: the serving stack turns it off on the contexts it creates for
        #: itself, since nothing there reads it.  Rows and every other
        #: tally are identical either way.
        self.meter_comparisons = meter_comparisons
        self.comparisons = self._new_counter()
        self.sort_metrics = SortMetrics()
        #: When true, order-requiring operators verify their inputs are
        #: actually sorted (used heavily in tests; off in benchmarks).
        self.check_orders = check_orders
        #: Rows per :class:`~repro.engine.batch.RowBatch` produced by
        #: operators (a hint — selective operators may emit smaller
        #: batches).  ``batch_size=1`` degenerates to row-at-a-time.
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        #: When false, operators skip the whole-column kernel fast paths
        #: and run their compiled row loops (the PR-2 row-tuple batched
        #: engine).  Output rows, tallies and block charges are identical
        #: either way; the flag exists for benchmarks and parity tests.
        self.columnar = columnar
        #: Per-operator estimated-vs-actual row counts, keyed by the
        #: meter tag stamped at lowering time (scan ops carry their table
        #: name in the tag).  Each cell is ``[estimated, actual]``; both
        #: are integers so shard contributions sum commutatively and
        #: worker absorb order cannot perturb the totals.
        self.operator_rows: dict[str, list[int]] = {}
        #: When true, metered operators additionally record inclusive
        #: wall time and batch counts into :attr:`operator_times`
        #: (EXPLAIN ANALYZE).  **Opt-in** — wall clocks are the one
        #: nondeterministic tally, so default executions keep
        #: :meth:`tallies` bit-identical across backends and runs.
        self.meter_timing = meter_timing
        #: Per-operator ``[seconds, batches]`` cells keyed like
        #: :attr:`operator_rows`; always empty unless ``meter_timing``.
        self.operator_times: dict[str, list] = {}

    def _new_counter(self) -> ComparisonCounter:
        return (ComparisonCounter() if self.meter_comparisons
                else DisabledComparisonCounter())

    # -- derived ---------------------------------------------------------------------
    def cost_units(self) -> float:
        """Simulated cost in the paper's I/O units."""
        cpu = self.comparisons.value / self.params.cpu_comparisons_per_io
        return self.io.total_blocks + cpu

    def rows_per_block(self, row_bytes: int) -> int:
        return max(1, self.params.block_size // max(1, row_bytes))

    def memory_capacity_rows(self, row_bytes: int) -> int:
        """How many rows of the given width fit in sort memory."""
        return max(2, self.params.sort_memory_bytes // max(1, row_bytes))

    def charge_blocks_for_rows(self, num_rows: int, row_bytes: int,
                               direction: str = "read", category: str = "scan") -> int:
        blocks = math.ceil(num_rows * row_bytes / self.params.block_size) if num_rows else 0
        if direction == "read":
            self.io.read(blocks, category=category)
        else:
            self.io.write(blocks, category=category)
        return blocks

    def charged_stream(self, rows: Iterable[tuple], row_bytes: int,
                       category: str = "scan") -> Iterator[tuple]:
        """Yield rows, charging one block read per block's worth of rows.

        Progressive charging (rather than a lump sum at open time) keeps
        the tuples-vs-cost timeline of Experiment A2 honest: an operator
        that stops early stops paying.
        """
        per_block = self.rows_per_block(row_bytes)
        for i, row in enumerate(rows):
            if i % per_block == 0:
                self.io.read(1, category=category)
            yield row

    def meter_start(self, tag: str, estimate: int) -> list:
        """Register one metered operator execution and return its cell.

        The estimate is credited up front (at iterator-open time); the
        caller bumps ``cell[1]`` as actual rows stream through.  Repeated
        executions under the same tag (per-shard subplans, re-runs)
        accumulate into one cell.
        """
        cell = self.operator_rows.get(tag)
        if cell is None:
            cell = [0, 0]
            self.operator_rows[tag] = cell
        cell[0] += estimate
        return cell

    def time_cell(self, tag: str) -> list:
        """The ``[seconds, batches]`` timing cell for *tag* (created on
        first use); like row cells, repeated executions under one tag
        accumulate."""
        cell = self.operator_times.get(tag)
        if cell is None:
            cell = [0.0, 0]
            self.operator_times[tag] = cell
        return cell

    # -- parallel shard driving ----------------------------------------------------------
    def fork(self) -> "ExecutionContext":
        """A child context with fresh accountants (one per shard worker).

        Workers charge their own context; the driver folds the tallies
        back with :meth:`absorb` in shard order, so totals stay
        deterministic regardless of thread interleaving.
        """
        return ExecutionContext(self.catalog, self.params, self.check_orders,
                                self.batch_size, self.columnar,
                                self.meter_timing, self.meter_comparisons)

    def tallies(self) -> dict:
        """All counters as a flat, picklable dict.

        The process-pool backend's workers charge their own context and
        ship this dict back with the result rows; the parent folds it in
        with :meth:`absorb_tallies` (in shard order, like :meth:`absorb`),
        so totals stay deterministic across worker scheduling.
        """
        return {
            "blocks_read": self.io.blocks_read,
            "blocks_written": self.io.blocks_written,
            "scan_blocks": self.io.scan_blocks,
            "run_blocks_written": self.io.run_blocks_written,
            "run_blocks_read": self.io.run_blocks_read,
            "partition_blocks": self.io.partition_blocks,
            "comparisons": self.comparisons.value,
            "meter_comparisons": self.meter_comparisons,
            "runs_created": self.sort_metrics.runs_created,
            "segments_sorted": self.sort_metrics.segments_sorted,
            "rows_spilled": self.sort_metrics.rows_spilled,
            "merge_passes": self.sort_metrics.merge_passes,
            "in_memory_sorts": self.sort_metrics.in_memory_sorts,
            "operator_rows": {tag: (cell[0], cell[1])
                              for tag, cell in self.operator_rows.items()},
            "operator_times": {tag: (cell[0], cell[1])
                               for tag, cell in self.operator_times.items()},
        }

    def absorb_tallies(self, tallies: dict) -> None:
        """Fold a :meth:`tallies` dict (e.g. from a worker process) in.

        Both sides must agree on ``meter_comparisons``: unmetered tallies
        folded into a metered context would leave a partial comparison
        count, and metered ones in an unmetered context mean a worker
        counted for nobody.  Either mismatch raises.
        """
        if tallies.get("meter_comparisons", True) != self.meter_comparisons:
            raise ValueError(
                f"cannot absorb tallies with meter_comparisons="
                f"{not self.meter_comparisons} into a context with "
                f"meter_comparisons={self.meter_comparisons}")
        self.io.blocks_read += tallies["blocks_read"]
        self.io.blocks_written += tallies["blocks_written"]
        self.io.scan_blocks += tallies["scan_blocks"]
        self.io.run_blocks_written += tallies["run_blocks_written"]
        self.io.run_blocks_read += tallies["run_blocks_read"]
        self.io.partition_blocks += tallies["partition_blocks"]
        self.comparisons.add(tallies["comparisons"])
        self.sort_metrics.runs_created += tallies["runs_created"]
        self.sort_metrics.segments_sorted += tallies["segments_sorted"]
        self.sort_metrics.rows_spilled += tallies["rows_spilled"]
        self.sort_metrics.merge_passes += tallies["merge_passes"]
        self.sort_metrics.in_memory_sorts += tallies["in_memory_sorts"]
        # ``.get``: pre-existing tally dicts (old snapshots, third-party
        # backends) may not carry the per-operator key.
        for tag, (estimated, actual) in tallies.get("operator_rows", {}).items():
            cell = self.operator_rows.get(tag)
            if cell is None:
                self.operator_rows[tag] = [estimated, actual]
            else:
                cell[0] += estimated
                cell[1] += actual
        for tag, (seconds, batches) in tallies.get("operator_times",
                                                   {}).items():
            cell = self.operator_times.get(tag)
            if cell is None:
                self.operator_times[tag] = [seconds, batches]
            else:
                cell[0] += seconds
                cell[1] += batches

    def absorb(self, child: "ExecutionContext") -> None:
        """Fold a forked context's counters into this one."""
        self.absorb_tallies(child.tallies())

    def reset(self) -> None:
        self.io = IOAccountant()
        self.comparisons = self._new_counter()
        self.sort_metrics = SortMetrics()
        self.operator_rows = {}
        self.operator_times = {}
