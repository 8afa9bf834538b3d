"""Tuple-transforming operators: filter, project, compute, sort
enforcers, limit — batch-vectorized, with whole-column kernel paths.

Filter, project and compute compile their expressions **once, at
construction** (through the process-global kernel cache, or from the
bundle a prepared plan carries — see :mod:`repro.engine.kernels`), in
two forms: a row function and a whole-column batch kernel.  At run time
a batch of at least :data:`~repro.engine.batch.COLUMNAR_MIN_ROWS` rows
is evaluated columnar — one kernel call per batch instead of one Python
call per row — unless the context disables it
(``ExecutionContext(columnar=False)``); tiny batches use the row loop,
whose output is bit-identical.  Selective operators emit one (possibly
smaller) batch per input batch instead of re-buffering.

``Sort`` is the order *enforcer* of the paper: it knows both the target
order and the order already guaranteed by its input, and picks MRS
(partial sort) whenever a non-empty prefix is available — unless
explicitly forced to behave like the standard engines of Experiment A1
(``algorithm="srs"``).  The sort algorithms themselves consume a
flattened row stream (they materialise runs/segments anyway) and
re-batch their output, so comparison and I/O tallies are independent of
the batch size.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder, longest_common_prefix
from ..expr.expressions import Expression, Predicate
from ..storage.schema import Column, Schema
from .batch import COLUMNAR_MIN_ROWS, RowBatch, batches_of, flatten_batches
from .context import CountedRank, ExecutionContext
from .iterators import Operator, null_first_key
from .kernels import OperatorKernels, compile_kernels
from .sorting import sort_stream


class Filter(Operator):
    """σ: keep rows satisfying a predicate; preserves input order."""

    name = "Filter"

    def __init__(self, child: Operator, predicate: Predicate,
                 kernels: Optional[OperatorKernels] = None) -> None:
        if not child.schema.has_all(predicate.columns()):
            missing = set(predicate.columns()) - set(child.schema.names)
            raise ValueError(f"filter references missing columns {missing}")
        super().__init__(child.schema, child.output_order, [child])
        self.predicate = predicate
        row_fns, batch_fns = compile_kernels((predicate,), child.schema, kernels)
        self._row_fn = row_fns[0] if row_fns else None
        self._batch_fn = batch_fns[0] if batch_fns else None

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        # Unbound parameters surface here, like the seed engine's
        # compile-at-execute did.
        row_fn = self._row_fn or self.predicate.compile(self.schema)
        batch_fn = self._batch_fn if ctx.columnar else None
        return self._filtered(ctx, row_fn, batch_fn)

    def _filtered(self, ctx: ExecutionContext, row_fn,
                  batch_fn) -> Iterator[RowBatch]:
        for batch in self.children[0].execute_batches(ctx):
            if batch_fn is not None and (batch.is_columnar
                                         or len(batch) >= COLUMNAR_MIN_ROWS):
                kept = batch.compress(batch_fn(batch))
            else:
                kept = batch.filter(row_fn)
            if kept:
                yield kept

    def details(self) -> str:
        return repr(self.predicate)


class Project(Operator):
    """π: positional projection to a subset of columns.

    The guaranteed output order is the longest prefix of the input order
    that survives the projection.
    """

    name = "Project"

    def __init__(self, child: Operator, columns: Sequence[str]) -> None:
        schema = child.schema.project(list(columns))
        kept = set(columns)
        order = child.output_order.restrict_prefix_to(kept)
        super().__init__(schema, order, [child])
        self._positions = child.schema.positions(list(columns))
        self._identity = list(self._positions) == list(range(len(child.schema)))

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        if self._identity:
            # Pure rename: pass batches through untouched (zero copies).
            return child.execute_batches(ctx)
        positions = self._positions
        # ``project`` re-uses the input's column objects when columnar
        # and builds tuples via itemgetter otherwise.
        return (batch.project(positions)
                for batch in child.execute_batches(ctx))

    def details(self) -> str:
        return ", ".join(self.schema.names)


class Compute(Operator):
    """Extend each row with computed expressions (e.g. Quantity*Price).

    Appends one column per ``(name, expression)`` pair; preserves order.
    """

    name = "Compute"

    def __init__(self, child: Operator, outputs: Sequence[tuple[str, Expression]],
                 output_size: int = 8,
                 kernels: Optional[OperatorKernels] = None) -> None:
        new_cols = [Column(name, "num", output_size) for name, _ in outputs]
        schema = Schema(list(child.schema) + new_cols)
        super().__init__(schema, child.output_order, [child])
        self.outputs = list(outputs)
        self._row_fns, self._batch_fns = compile_kernels(
            tuple(expr for _, expr in self.outputs), child.schema, kernels)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        row_fns = self._row_fns
        if row_fns is None:  # unbound parameters: raise like the seed engine
            row_fns = tuple(expr.compile(self.children[0].schema)
                            for _, expr in self.outputs)
        batch_fns = self._batch_fns if ctx.columnar else None
        return self._computed(ctx, row_fns, batch_fns)

    def _computed(self, ctx: ExecutionContext, row_fns,
                  batch_fns) -> Iterator[RowBatch]:
        for batch in self.children[0].execute_batches(ctx):
            if batch_fns is not None and (batch.is_columnar
                                          or len(batch) >= COLUMNAR_MIN_ROWS):
                new_cols = [fn(batch) for fn in batch_fns]
                if batch.is_columnar:
                    cols = list(batch.columns)
                    cols.extend(new_cols)
                    yield RowBatch.from_columns(cols, len(batch))
                elif len(new_cols) == 1:
                    # Row-backed input stays row-backed: append the
                    # kernel's values without transposing the old
                    # columns there and back.
                    yield RowBatch([row + (v,) for row, v
                                    in zip(batch.rows, new_cols[0])])
                else:
                    yield RowBatch([row + ext for row, ext
                                    in zip(batch.rows, zip(*new_cols))])
            else:
                yield RowBatch([row + tuple(fn(row) for fn in row_fns)
                                for row in batch.rows])

    def details(self) -> str:
        return ", ".join(f"{name}={expr}" for name, expr in self.outputs)


class Sort(Operator):
    """Order enforcer: SRS full sort or MRS partial sort.

    ``known_prefix`` defaults to the usable prefix of the child's
    guaranteed order — the paper's partial sort enforcer ``o' → o``.
    """

    name = "Sort"

    def __init__(self, child: Operator, target_order: SortOrder,
                 known_prefix: Optional[SortOrder] = None,
                 algorithm: str = "auto") -> None:
        if not child.schema.has_all(list(target_order)):
            missing = set(target_order) - set(child.schema.names)
            raise ValueError(f"sort references missing columns {missing}")
        if known_prefix is None:
            known_prefix = longest_common_prefix(child.output_order, target_order)
        super().__init__(child.schema, target_order, [child])
        self.known_prefix = known_prefix
        self.algorithm = algorithm

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        rows = flatten_batches(child.execute_batches(ctx))
        if ctx.check_orders and self.known_prefix:
            rows = self._check_input_prefix(rows, ctx)
        out = sort_stream(rows, self.schema, self.output_order, ctx,
                          known_prefix=self.known_prefix, algorithm=self.algorithm)
        out = self._maybe_checked(out, ctx, self.output_order, "Sort output")
        return batches_of(out, ctx.batch_size)

    def _check_input_prefix(self, rows: Iterator[tuple],
                            ctx: ExecutionContext) -> Iterator[tuple]:
        from .iterators import null_safe_wrap

        positions = self.schema.positions(list(self.known_prefix))
        prev: Optional[tuple] = None
        for row in rows:
            key = null_safe_wrap(tuple(row[i] for i in positions))
            if prev is not None and key < prev:
                raise AssertionError(
                    f"Sort: input violates declared prefix {self.known_prefix}: "
                    f"{key} after {prev}")
            prev = key
            yield row

    @property
    def is_partial(self) -> bool:
        return bool(self.known_prefix) and self.algorithm != "srs"

    def details(self) -> str:
        if self.is_partial:
            return f"{self.known_prefix} --> {self.output_order}"
        return f"ε --> {self.output_order}"

    def explain_name(self) -> str:  # pragma: no cover - cosmetic
        return "PartialSort" if self.is_partial else "Sort"


class PartialSort(Sort):
    """Alias emphasising a partial sort enforcer in explain output."""

    name = "PartialSort"

    def __init__(self, child: Operator, target_order: SortOrder,
                 known_prefix: Optional[SortOrder] = None) -> None:
        super().__init__(child, target_order, known_prefix, algorithm="mrs")


class Limit(Operator):
    """Pass through the first *k* rows (ORDER BY ... LIMIT k on sorted input).

    Stops pulling from the child once *k* rows arrived — early
    termination at batch granularity, so upstream stops paying I/O.
    """

    name = "Limit"

    def __init__(self, child: Operator, k: int) -> None:
        if k < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(child.schema, child.output_order, [child])
        self.k = k

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        remaining = self.k
        if remaining == 0:
            return
        for batch in self.children[0].execute_batches(ctx):
            if len(batch) < remaining:
                remaining -= len(batch)
                yield batch
            else:
                yield batch.head(remaining)
                return

    def details(self) -> str:
        return f"k={self.k}"


class TopK(Operator):
    """Heap-based top-k by an order, for *unsorted* input.

    Keeps a bounded heap of k rows; used as the baseline against the
    MRS + Limit pipeline in the Top-K example (paper §3.1 benefit 2).
    """

    name = "TopK"

    def __init__(self, child: Operator, k: int, order: SortOrder) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        super().__init__(child.schema, order, [child])
        self.k = k

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        key_fn = null_first_key(self.schema.positions(list(self.output_order)))
        rows = flatten_batches(self.children[0].execute_batches(ctx))
        if not ctx.meter_comparisons:
            return batches_of(heapq.nsmallest(self.k, rows, key=key_fn),
                              ctx.batch_size)
        # Ranks tie on input position, so each comparison nsmallest
        # makes — bare or inside its heap entries — is tallied once.
        counter = ctx.comparisons
        ranked = heapq.nsmallest(
            self.k, enumerate(rows),
            key=lambda item: CountedRank(key_fn(item[1]), item[0], counter))
        return batches_of([row for _, row in ranked], ctx.batch_size)

    def details(self) -> str:
        return f"k={self.k} by {self.output_order}"
