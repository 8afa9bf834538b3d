"""Expression-kernel microbenchmark: per-row compiled closures vs
whole-column batch kernels — plus the counted-vs-plain sort/merge
microbenchmark.

Times the two compiled forms of the same expressions
(:meth:`Expression.compile` vs :meth:`Expression.compile_batch`) over
identical batched data, per expression shape: simple comparison,
compound conjunction, arithmetic, and a nested mix.  Fresh ``RowBatch``
objects are built for every timed pass so the kernel side pays its real
column-extraction cost each time — cached transposes from a previous
pass must not flatter it.

The headline metric is ``kernel_speedup``: the geometric mean of the
per-shape batch/row ratios, gated ≥ 2x by ``check_regression.py``.

The second benchmark times the engine's in-memory sort and its k-way
``MergeExchange`` merge on an ``ExecutionContext`` that counts key
comparisons (the paper-experiment path: a selection heap and merge
entries of counted keys) against one that does not (the serving path:
``list.sort``/``heapq.merge`` on plain keys).  Its metric
``sort_plain_speedup`` is the geometric mean of the two counted/plain
ratios; ``check_regression.py`` gates it against a baseline measured
on the re-baselining host.

The third times the unmetered gather of materialised shards (what the
process backend's serving-side merge does): ``MergeExchange``'s run
merge — one stable ``list.sort`` over the concatenated sorted runs —
against the heap merge it replaced (``heapq.merge`` keyed by
``null_first_key``, with the same batching around it).  Its metric
``gather_merge_speedup`` is the heap/run time ratio, gated by
``check_regression.py`` against a measured baseline.

Two modes, like the other benches:

* ``pytest benchmarks/bench_kernels.py`` — full run with the shared
  results sink;
* ``python benchmarks/bench_kernels.py [--smoke]`` — standalone script
  (CI's fast smoke job), no pytest required.
"""

from __future__ import annotations

import math
import random
import sys
import time
from itertools import chain

from repro.bench import format_table
from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    MergeExchange,
    RowBatch,
    RowSource,
    batches_of,
    collect_rows,
    flatten_batches,
    merge_sorted_streams,
    sort_stream,
)
from repro.engine.iterators import null_first_key
from repro.expr import And, col
from repro.storage import Schema

SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("c", "int", 8))

#: (name, expression) — the shapes operators actually compile: filter
#: predicates, compute outputs, and a compound of both.
SHAPES = [
    ("compare col<const", col("a").lt(700_000)),
    ("conjunction", And(col("a").lt(700_000), col("b").ge(100))),
    ("arithmetic col*const+col", col("a") * 3 + col("b")),
    ("nested mix", (col("a") - col("b")) * 2 + col("c")),
]

#: The regression bar: kernels must beat the row closures by this much
#: (geometric mean across shapes) on the full-size run.
KERNEL_SPEEDUP_BAR = 2.0


def _rows(num_rows: int, seed: int = 11) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(1_000_000), rng.randrange(1_000),
             rng.randrange(50)) for _ in range(num_rows)]


def _chunks(rows: list[tuple], batch_size: int) -> list[list[tuple]]:
    return [rows[i:i + batch_size] for i in range(0, len(rows), batch_size)]


def _time_row(expr, chunks, repeats: int) -> float:
    fn = expr.compile(SCHEMA)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for chunk in chunks:
            [fn(row) for row in chunk]
        best = min(best, time.perf_counter() - start)
    return best


def _time_kernel(expr, chunks, repeats: int) -> float:
    kernel = expr.compile_batch(SCHEMA)
    best = float("inf")
    for _ in range(repeats):
        # Fresh batches every pass: memoized column views from the last
        # pass would make the kernel look cheaper than it is.
        batches = [RowBatch(chunk) for chunk in chunks]
        start = time.perf_counter()
        for batch in batches:
            kernel(batch)
        best = min(best, time.perf_counter() - start)
    return best


def run_kernel_benchmark(num_rows: int = 200_000, batch_size: int = 1024,
                         repeats: int = 3) -> dict:
    """Per-shape row/kernel timings plus the geomean ``kernel_speedup``.

    Also cross-checks output parity per shape — a kernel that drifted
    from the row semantics must fail the benchmark, not just a test.
    """
    rows = _rows(num_rows)
    chunks = _chunks(rows, batch_size)
    shapes = []
    log_sum = 0.0
    for name, expr in SHAPES:
        fn = expr.compile(SCHEMA)
        kernel = expr.compile_batch(SCHEMA)
        for chunk in chunks[:2]:
            assert list(kernel(RowBatch(chunk))) == [fn(r) for r in chunk], name
        row_s = _time_row(expr, chunks, repeats)
        kern_s = _time_kernel(expr, chunks, repeats)
        ratio = row_s / kern_s if kern_s else float("inf")
        log_sum += math.log(ratio)
        shapes.append({"name": name, "row_ms": row_s * 1000.0,
                       "kernel_ms": kern_s * 1000.0, "speedup": ratio})
    geomean = math.exp(log_sum / len(SHAPES))
    return {"num_rows": num_rows, "batch_size": batch_size,
            "shapes": shapes, "kernel_speedup": geomean}


KERNEL_HEADERS = ["expression shape", "row-closure ms", "kernel ms", "speedup"]

#: The serving report's sort shape: a timestamp-like leading key with
#: about four rows per value, so ties reach the later columns.
SORT_SCHEMA = Schema.of(("ts", "int", 8), ("sym", "int", 8),
                        ("qty", "int", 8), ("tag", "int", 8))
SORT_ORDER = SortOrder(["ts", "sym", "qty"])

#: Plain sorts/merges must beat counted ones by this much (geomean).
SORT_SPEEDUP_BAR = 2.0


def _sort_rows(num_rows: int, seed: int = 5) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(num_rows // 4), rng.randrange(40),
             rng.randrange(500), i) for i in range(num_rows)]


def run_sort_benchmark(num_rows: int = 6_000, shards: int = 4,
                       repeats: int = 7) -> dict:
    """Best-of-*repeats* wall time of one in-memory SRS sort and one
    *shards*-way MergeExchange merge, counted vs plain, interleaved so a
    drift in host speed hits both sides alike.  Rows must match."""
    rows = _sort_rows(num_rows)
    positions = SORT_SCHEMA.positions(list(SORT_ORDER))

    def key(row: tuple) -> tuple:
        return tuple(row[p] for p in positions)

    parts = [sorted(rows[i::shards], key=key) for i in range(shards)]

    def sort_once(meter: bool) -> list[tuple]:
        ctx = ExecutionContext(meter_comparisons=meter)
        return list(sort_stream(rows, SORT_SCHEMA, SORT_ORDER, ctx,
                                algorithm="srs"))

    def merge_once(meter: bool) -> list[tuple]:
        op = MergeExchange([RowSource(SORT_SCHEMA, part,
                                      output_order=SORT_ORDER)
                            for part in parts], SORT_ORDER)
        return op.run(ExecutionContext(meter_comparisons=meter))

    cases = []
    log_sum = 0.0
    # A stable merge of the parts equals a stable sort of their
    # concatenation.
    for name, run, expected in (
            ("in-memory sort", sort_once, sorted(rows, key=key)),
            (f"{shards}-way merge", merge_once,
             sorted(sum(parts, []), key=key))):
        assert run(True) == run(False) == expected, name
        best = {True: float("inf"), False: float("inf")}
        for _ in range(repeats):
            for meter in (True, False):
                start = time.perf_counter()
                run(meter)
                best[meter] = min(best[meter], time.perf_counter() - start)
        ratio = best[True] / best[False]
        log_sum += math.log(ratio)
        cases.append({"name": name, "counted_ms": best[True] * 1000.0,
                      "plain_ms": best[False] * 1000.0, "speedup": ratio})
    return {"num_rows": num_rows, "cases": cases,
            "sort_plain_speedup": math.exp(log_sum / len(cases))}


SORT_HEADERS = ["path", "counted ms", "plain ms", "speedup"]

#: The run merge must beat the heap merge by this much (full-size run).
GATHER_SPEEDUP_BAR = 1.3


def run_gather_merge_benchmark(shard_rows: int = 3_000, shards: int = 4,
                               repeats: int = 9) -> dict:
    """Best-of-*repeats* wall time of an unmetered gather of *shards*
    sorted runs of *shard_rows* rows each: the run merge as the engine
    serves it vs the heap merge it replaced, interleaved so a drift in
    host speed hits both sides alike.  Rows must match a stable
    ``sorted()`` over the shard-order concatenation."""
    rows = _sort_rows(shard_rows * shards)
    positions = SORT_SCHEMA.positions(list(SORT_ORDER))

    def key(row: tuple) -> tuple:
        return tuple(row[p] for p in positions)

    parts = [sorted(rows[i::shards], key=key) for i in range(shards)]
    children = [RowSource(SORT_SCHEMA, part, output_order=SORT_ORDER)
                for part in parts]
    gather = MergeExchange(children, SORT_ORDER)
    key_fn = null_first_key(positions)

    def run_merge() -> list[tuple]:
        return gather.run(ExecutionContext(meter_comparisons=False))

    def heap_merge() -> list[tuple]:
        ctx = ExecutionContext(meter_comparisons=False)
        streams = [flatten_batches(c.execute_batches(ctx)) for c in children]
        return collect_rows(batches_of(
            merge_sorted_streams(streams, key_fn, ctx), ctx.batch_size))

    expected = sorted(chain.from_iterable(parts), key=key)
    assert run_merge() == heap_merge() == expected
    best = {run_merge: float("inf"), heap_merge: float("inf")}
    for _ in range(repeats):
        for merge in best:
            start = time.perf_counter()
            merge()
            best[merge] = min(best[merge], time.perf_counter() - start)
    return {"num_rows": len(rows), "shards": shards,
            "heap_ms": best[heap_merge] * 1000.0,
            "run_ms": best[run_merge] * 1000.0,
            "gather_merge_speedup": best[heap_merge] / best[run_merge]}


def _sort_table_rows(result: dict) -> list:
    return [[c["name"], round(c["counted_ms"], 2), round(c["plain_ms"], 2),
             round(c["speedup"], 2)] for c in result["cases"]]


def _kernel_rows(result: dict) -> list:
    return [[s["name"], round(s["row_ms"], 2), round(s["kernel_ms"], 2),
             round(s["speedup"], 2)] for s in result["shapes"]]


# -- pytest entry point ------------------------------------------------------------------
def test_kernels_beat_row_closures(benchmark, results_sink):
    result = benchmark.pedantic(run_kernel_benchmark, rounds=1, iterations=1)
    results_sink(format_table(
        KERNEL_HEADERS, _kernel_rows(result),
        title=(f"Expression kernels — whole-column vs per-row closures "
               f"({result['num_rows']:,} rows, batches of "
               f"{result['batch_size']}); geomean speedup "
               f"{result['kernel_speedup']:.2f}x")))
    benchmark.extra_info["kernel_speedup"] = result["kernel_speedup"]
    assert result["kernel_speedup"] >= KERNEL_SPEEDUP_BAR, result


def test_plain_sorts_beat_counted(benchmark, results_sink):
    result = benchmark.pedantic(run_sort_benchmark, rounds=1, iterations=1)
    results_sink(format_table(
        SORT_HEADERS, _sort_table_rows(result),
        title=(f"Sort/merge — counted vs plain keys "
               f"({result['num_rows']:,} rows); geomean speedup "
               f"{result['sort_plain_speedup']:.2f}x")))
    benchmark.extra_info["sort_plain_speedup"] = result["sort_plain_speedup"]
    assert result["sort_plain_speedup"] >= SORT_SPEEDUP_BAR, result


def _gather_line(result: dict) -> str:
    return (f"Gather of {result['shards']} sorted runs "
            f"({result['num_rows']:,} rows): heap merge "
            f"{result['heap_ms']:.2f} ms, run merge {result['run_ms']:.2f} "
            f"ms; speedup {result['gather_merge_speedup']:.2f}x")


def test_run_merge_beats_heap_merge(benchmark, results_sink):
    result = benchmark.pedantic(run_gather_merge_benchmark, rounds=1,
                                iterations=1)
    results_sink(_gather_line(result))
    benchmark.extra_info["gather_merge_speedup"] = \
        result["gather_merge_speedup"]
    assert result["gather_merge_speedup"] >= GATHER_SPEEDUP_BAR, result


# -- standalone / CI smoke ---------------------------------------------------------------
def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    num_rows = 30_000 if smoke else 200_000
    result = run_kernel_benchmark(num_rows, repeats=2 if smoke else 3)
    print(format_table(
        KERNEL_HEADERS, _kernel_rows(result),
        title=f"Expression kernels — row closures vs batch kernels "
              f"({num_rows:,} rows)"))
    sorts = run_sort_benchmark(repeats=5 if smoke else 7)
    print(format_table(
        SORT_HEADERS, _sort_table_rows(sorts),
        title=f"Sort/merge — counted vs plain keys "
              f"({sorts['num_rows']:,} rows)"))
    gather = run_gather_merge_benchmark(repeats=5 if smoke else 9)
    print(_gather_line(gather))
    floor = 1.5 if smoke else KERNEL_SPEEDUP_BAR
    sort_floor = 1.5 if smoke else SORT_SPEEDUP_BAR
    gather_floor = 1.1 if smoke else GATHER_SPEEDUP_BAR
    failed = False
    if result["kernel_speedup"] < floor:
        print(f"FAIL: kernel speedup {result['kernel_speedup']:.2f}x "
              f"< {floor}x (geomean across shapes)")
        failed = True
    if sorts["sort_plain_speedup"] < sort_floor:
        print(f"FAIL: plain sort/merge speedup "
              f"{sorts['sort_plain_speedup']:.2f}x < {sort_floor}x")
        failed = True
    if gather["gather_merge_speedup"] < gather_floor:
        print(f"FAIL: run merge speedup over the heap merge "
              f"{gather['gather_merge_speedup']:.2f}x < {gather_floor}x")
        failed = True
    if failed:
        return 1
    print(f"\nkernel speedup (geomean): {result['kernel_speedup']:.2f}x")
    print(f"plain sort/merge speedup (geomean): "
          f"{sorts['sort_plain_speedup']:.2f}x")
    print(f"run merge speedup: {gather['gather_merge_speedup']:.2f}x")
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
