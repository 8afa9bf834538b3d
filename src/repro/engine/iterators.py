"""Physical operator base class (batch-vectorized Volcano model).

Every operator exposes:

* ``schema`` — output :class:`~repro.storage.schema.Schema`;
* ``output_order`` — the :class:`~repro.core.sort_order.SortOrder`
  *guaranteed* on its output stream;
* ``execute_batches(ctx)`` — the **primary** execution method: a
  generator of :class:`~repro.engine.batch.RowBatch` chunks, charging
  simulated I/O and comparisons to the
  :class:`~repro.engine.context.ExecutionContext`;
* ``execute(ctx)`` — row-at-a-time view of the same stream (the seed
  engine's API, kept for compatibility; it simply flattens batches);
* ``explain()`` — a pretty-printed plan tree like the paper's figures.

Operators are *plans*, not live cursors: ``execute``/``execute_batches``
may be called repeatedly (each call is an independent execution), which
the benchmark harness relies on.
"""

from __future__ import annotations

import functools
import time
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..storage.schema import Schema
from .batch import RowBatch, batches_of, collect_rows, flatten_batches
from .context import ExecutionContext


def _counted_batches(batches: Iterator[RowBatch], cell: list) -> Iterator[RowBatch]:
    for batch in batches:
        cell[1] += len(batch)
        yield batch


def _timed_counted_batches(batches: Iterator[RowBatch], cell: list,
                           tcell: list) -> Iterator[RowBatch]:
    """Count rows like :func:`_counted_batches` and accumulate the wall
    time spent *inside* this operator's ``next()`` — inclusive time
    (children included), PostgreSQL's ``actual time`` convention.  Only
    on the EXPLAIN ANALYZE path (``ctx.meter_timing``), so the default
    hot loop pays nothing for it."""
    clock = time.perf_counter
    batches = iter(batches)
    while True:
        started = clock()
        try:
            batch = next(batches)
        except StopIteration:
            tcell[0] += clock() - started
            return
        tcell[0] += clock() - started
        tcell[1] += 1
        cell[1] += len(batch)
        yield batch


def _metered(fn):
    """Wrap an ``execute_batches`` so a meter stamped at lowering time
    (``op._meter = (tag, estimated_rows)``) counts actual output rows
    into ``ctx.operator_rows``.

    Wrapping happens at *class* definition time (see
    ``Operator.__init_subclass__``), not per instance: ``shard_scans``
    and ``with_exchange_workers`` clone operators with ``copy.copy``, and
    a per-instance wrapper would keep executing the original's children
    through its captured bound method.  Unmetered operators (``_meter``
    is ``None`` — anything built outside plan lowering) pay one attribute
    load and branch.
    """
    if getattr(fn, "_meter_wrapped", False):
        return fn

    @functools.wraps(fn)
    def execute_batches(self, ctx):
        meter = self._meter
        batches = fn(self, ctx)
        if meter is None:
            return batches
        cell = ctx.meter_start(meter[0], meter[1])
        if ctx.meter_timing:
            return _timed_counted_batches(batches, cell,
                                          ctx.time_cell(meter[0]))
        return _counted_batches(batches, cell)

    execute_batches._meter_wrapped = True
    return execute_batches


class Operator:
    """Base class of all physical operators."""

    name: str = "operator"

    #: Optional ``(tag, estimated_rows)`` meter, stamped on lowered
    #: instances by :mod:`repro.engine.lowering` from the plan node's
    #: cost-model stats.  ``None`` (the class default) disables metering.
    _meter: Optional[tuple] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "execute_batches" in cls.__dict__:
            cls.execute_batches = _metered(cls.__dict__["execute_batches"])

    def __init__(self, schema: Schema, output_order: SortOrder = EMPTY_ORDER,
                 children: Sequence["Operator"] = ()) -> None:
        self.schema = schema
        self.output_order = output_order
        self.children: tuple[Operator, ...] = tuple(children)

    # -- execution ---------------------------------------------------------------
    @_metered
    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Yield the output as row batches (the engine's native path).

        The fallback wraps a row-level ``execute`` override into batches,
        so third-party operators written against the seed's row-at-a-time
        API keep working inside a batched plan.
        """
        if type(self).execute is Operator.execute:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither execute_batches "
                f"nor execute")
        return batches_of(self.execute(ctx), ctx.batch_size)

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        """Row-at-a-time view: flattens :meth:`execute_batches`."""
        return flatten_batches(self.execute_batches(ctx))

    def run(self, ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Execute fully and collect the result (convenience for tests)."""
        ctx = ctx or ExecutionContext()
        return collect_rows(self.execute_batches(ctx))

    # -- order verification --------------------------------------------------------
    def _maybe_checked(self, rows: Iterator[tuple], ctx: ExecutionContext,
                       order: SortOrder, what: str) -> Iterator[tuple]:
        """Wrap *rows* with a runtime sortedness assertion when enabled."""
        if not ctx.check_orders or not order or not self.schema.has_all(list(order)):
            return rows
        positions = self.schema.positions(list(order))
        return assert_sorted_rows(rows, positions, what)

    # -- introspection ---------------------------------------------------------------
    def details(self) -> str:
        """One-line operator-specific annotation for ``explain``."""
        return ""

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        extra = self.details()
        order = f" [order: {self.output_order}]" if self.output_order else ""
        line = f"{pad}{self.name}{f' ({extra})' if extra else ''}{order}"
        parts = [line]
        parts.extend(child.explain(indent + 1) for child in self.children)
        return "\n".join(parts)

    def walk(self) -> Iterator["Operator"]:
        """Pre-order traversal of the operator tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.details()})"


class _SortednessProbe:
    """The one sortedness assertion, shared by every checked operator
    (row streams and batch streams alike)."""

    __slots__ = ("positions", "what", "prev")

    def __init__(self, positions: Sequence[int], what: str) -> None:
        self.positions = tuple(positions)
        self.what = what
        self.prev: Optional[tuple] = None

    def check(self, row: tuple) -> None:
        key = null_safe_wrap(tuple(row[i] for i in self.positions))
        if self.prev is not None and key < self.prev:
            raise AssertionError(
                f"{self.what}: stream not sorted — saw {key} after {self.prev}")
        self.prev = key


def assert_sorted_rows(rows: Iterator[tuple], positions: Sequence[int],
                       what: str) -> Iterator[tuple]:
    """Row-granular sortedness check (used on flattened streams)."""
    probe = _SortednessProbe(positions, what)
    for row in rows:
        probe.check(row)
        yield row


def assert_sorted_batches(batches: Iterable[RowBatch],
                          positions: Sequence[int],
                          what: str) -> Iterator[RowBatch]:
    """Batch-granular sortedness check, carrying state across batches."""
    probe = _SortednessProbe(positions, what)
    for batch in batches:
        for row in batch.rows:
            probe.check(row)
        yield batch


def null_safe_wrap(values: tuple) -> tuple:
    """Make a key tuple totally ordered in the presence of SQL NULLs.

    Each element becomes ``(present, value)`` with NULL mapped to
    ``(False, 0)``, so NULLs sort first and never raise ``TypeError``
    against non-NULL values.  Needed because outer-join outputs (Query 4)
    flow into further sorts and merge joins.
    """
    return tuple((False, 0) if v is None else (True, v) for v in values)


class _NullFirst:
    """SQL NULL inside a plain sort key: below every value, equal only to
    itself — the order :func:`null_safe_wrap` gives, without wrapping
    the non-NULL values.  Other types' comparisons against it return
    ``NotImplemented``, so Python consults the reflected method here."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return other is not self

    def __le__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __ge__(self, other: object) -> bool:
        return other is self

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NULL"


#: The one NULL-first sentinel of :func:`null_first_key`.
NULL_FIRST = _NullFirst()


def plain_key(positions: Sequence[int]) -> Callable[[tuple], object]:
    """The bare C-level key over *positions* (a scalar for one column,
    a tuple for several) — valid on rows whose key holds no NULL."""
    return itemgetter(*positions)


def null_first_key(positions: Sequence[int]) -> Callable[[tuple], object]:
    """:func:`plain_key` for streams that may hold NULLs: only a key that
    contains one is re-encoded, with :data:`NULL_FIRST` in its place.
    Re-encoded and bare keys order consistently, so merges and spilled
    runs can mix them — a shard with NULLs merges with one without."""
    getter = itemgetter(*positions)
    if len(positions) == 1:
        def key(row: tuple) -> object:
            value = getter(row)
            return NULL_FIRST if value is None else value
        return key

    def key(row: tuple) -> object:
        values = getter(row)
        if None in values:
            return tuple(NULL_FIRST if v is None else v for v in values)
        return values
    return key


def load_key(rows: list[tuple],
             positions: Sequence[int]) -> Callable[[tuple], object]:
    """The sort key for one in-memory load, chosen once by looking at
    the whole load: :func:`plain_key` when no key column holds a NULL,
    else :func:`null_first_key`.  Both give the same order."""
    for pos in positions:
        if None in map(itemgetter(pos), rows):
            return null_first_key(positions)
    return plain_key(positions)


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """Row → tuple-of-positions extractor (``itemgetter``-backed).

    Unlike a bare ``itemgetter``, always returns a tuple — including for
    a single position and for no positions at all.
    """
    positions = tuple(positions)
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        pos = positions[0]
        return lambda row: (row[pos],)
    return itemgetter(*positions)


def key_function(schema: Schema, order: SortOrder | Sequence[str]) -> Callable[[tuple], tuple]:
    """Row → null-safe key-tuple extractor for the given attribute sequence."""
    getter = tuple_getter(schema.positions(list(order)))
    return lambda row: null_safe_wrap(getter(row))
