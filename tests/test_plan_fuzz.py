"""Randomized plan-parity fuzz suite.

Generates seeded random logical plans mixing joins (inner / left / full
outer), aggregates, unions, distinct, computed columns, limits and a
root ORDER BY over random catalogs (random clustering, random range
partition specs, random sort-memory sizes), and asserts the result rows
are **bit-identical** across every execution configuration:

* ``parallelism`` ∈ {1, 2, 4} (different physical plans: the shard-aware
  search may place enforcers, joins and aggregations per shard);
* ``batch_size`` ∈ {1, 64, default};
* threads on/off (thread-pool exchange drains);
* row-at-a-time vs batch-vectorized driving;
* order-checked execution (``check_orders=True``), so every operator's
  declared sort order is verified at run time;
* columnar kernels on vs off (``ExecutionContext(columnar=False)`` is
  the row-tuple batched engine), including a tally comparison: the
  evaluation layout must not change any simulated cost counter;
* comparison metering on vs off (``meter_comparisons``) on the serial,
  threads and process backends, at parallelism
  1 and 4 and every batch size: same rows in the same order, every
  tally but ``comparisons`` identical, and an unmetered count of 0.

Every generated query ends with ``ORDER BY *all output columns*``, which
totally orders the output up to fully-duplicate rows — interchangeable
by definition — so exact list equality is the right oracle even when
different parallelism levels pick structurally different plans.  All
table values are small ints, keeping SUM/COUNT/MIN/MAX recombination
bit-exact across per-shard partial aggregation.

On a mismatch the suite *shrinks* the failing query: every logical
subtree is re-checked smallest-first and the minimal failing fragment is
reported together with the seed, so a one-line repro lands in the
assertion message.

The seed base is ``REPRO_FUZZ_SEED`` (default 0 — what CI pins) and the
plan count ``REPRO_FUZZ_PLANS`` (default 200, per the acceptance bar).
"""

import os
import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext
from repro.expr import col
from repro.expr.aggregates import AggSpec, count_star
from repro.logical import Query
from repro.logical.algebra import Annotator
from repro.service import QuerySession
from repro.service.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.storage import Catalog, RangePartitioning, Schema, SystemParameters

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
NUM_PLANS = int(os.environ.get("REPRO_FUZZ_PLANS", "200"))
CHUNKS = 4

AGG_FUNCS = ("sum", "min", "max", "count", "avg")


# -- random catalogs ---------------------------------------------------------------------
def random_catalog(rng: random.Random) -> Catalog:
    """2–3 small int tables; random clustering, range partitioning and
    sort-memory size so in-memory, spilling, contiguous and filtered-
    partition regimes all appear across seeds."""
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=rng.choice([2, 4, 16, 10_000])))
    for t in range(rng.randint(2, 3)):
        names = [f"t{t}_c{i}" for i in range(rng.randint(2, 4))]
        # Declared widths vary so sorts cross the spill boundary: a
        # 60-row table of 200-byte columns is ~12 blocks against 2–16
        # blocks of sort memory, putting per-shard enforcement in play.
        schema = Schema.of(*[(n, "int", rng.choice([8, 8, 64, 200]))
                             for n in names])
        num_rows = rng.randint(20, 60)
        domain = rng.choice([4, 10, 40])
        rows = [tuple(rng.randrange(domain) for _ in names)
                for _ in range(num_rows)]
        clustered = rng.random() < 0.6
        clustering = SortOrder([names[0]]) if clustered else SortOrder(())
        partitioning = None
        if domain > 2 and rng.random() < 0.45:
            cuts = sorted(rng.sample(range(1, domain),
                                     min(rng.randint(1, 3), domain - 1)))
            partitioning = RangePartitioning(names[0], tuple(cuts))
        catalog.create_table(f"t{t}", schema, rows=rows,
                             clustering_order=clustering,
                             partitioning=partitioning)
    return catalog


# -- random queries ----------------------------------------------------------------------
def _random_filter(rng: random.Random, q: Query, cols: list[str]) -> Query:
    c = rng.choice(cols)
    value = rng.randrange(40)
    comparison = rng.choice([col(c).lt, col(c).le, col(c).gt, col(c).ge,
                             col(c).eq])
    return q.where(comparison(value))


def random_query(rng: random.Random, catalog: Catalog) -> Query:
    available = [table.name for table in catalog.tables()]
    rng.shuffle(available)
    q = Query.table(available.pop())
    cols = list(catalog.table(q.expr.table_name).schema.names)
    fresh = [0]

    for _ in range(rng.randint(1, 4)):
        choice = rng.random()
        if choice < 0.18:
            q = _random_filter(rng, q, cols)
        elif choice < 0.30 and len(cols) > 1:
            keep = sorted(rng.sample(range(len(cols)),
                                     rng.randint(1, len(cols))))
            cols = [cols[i] for i in keep]
            q = q.select(*cols)
        elif choice < 0.40:
            name = f"x{fresh[0]}"
            fresh[0] += 1
            q = q.compute(**{name: col(rng.choice(cols)) + rng.randrange(5)})
            cols = cols + [name]
        elif choice < 0.62 and available:
            other = available.pop()
            other_cols = list(catalog.table(other).schema.names)
            pairs = [(rng.choice(cols), rng.choice(other_cols))
                     for _ in range(rng.randint(1, 2))]
            # Join predicates reject duplicates on either side.
            seen_l: set[str] = set()
            seen_r: set[str] = set()
            deduped = []
            for l, r in pairs:
                if l not in seen_l and r not in seen_r:
                    deduped.append((l, r))
                    seen_l.add(l)
                    seen_r.add(r)
            pairs = deduped
            how = rng.choice(["inner", "inner", "left", "full"])
            q = q.join(other, on=pairs, how=how)
            cols = cols + other_cols
        elif choice < 0.80:
            group = sorted(rng.sample(range(len(cols)),
                                      rng.randint(1, min(2, len(cols)))))
            group_cols = [cols[i] for i in group]
            aggs = []
            for j in range(rng.randint(1, 2)):
                name = f"a{fresh[0]}"
                fresh[0] += 1
                if rng.random() < 0.2:
                    aggs.append(count_star(name))
                else:
                    aggs.append(AggSpec(rng.choice(AGG_FUNCS),
                                        col(rng.choice(cols)), name))
            q = q.group_by(group_cols, *aggs)
            cols = group_cols + [a.output_name for a in aggs]
        elif choice < 0.90:
            q = _random_filter(rng, q, cols).union(_random_filter(rng, q, cols))
        else:
            q = q.distinct()

    q = q.order_by(*cols)
    if rng.random() < 0.2:
        q = q.limit(rng.randint(1, 40))
    return q


# -- the parity oracle -------------------------------------------------------------------
def execution_mismatches(catalog: Catalog, query) -> list[str]:
    """Run *query* under every configuration; names of configs whose rows
    differ from the serial reference (empty = parity holds)."""
    session = QuerySession(catalog)
    reference = session.execute(query)
    results: dict[str, list[tuple]] = {}
    for parallelism in (1, 2, 4):
        for batch_size in (1, 64, None):
            name = f"p{parallelism}/b{batch_size or 'def'}"
            results[name] = session.execute(query, parallelism=parallelism,
                                            batch_size=batch_size)
        results[f"p{parallelism}/threads"] = session.execute(
            query, parallelism=parallelism, use_threads=True)
    # Order-checked execution: every declared order is verified per row.
    checked = ExecutionContext(catalog, check_orders=True)
    results["p4/checked"] = session.execute(query, parallelism=4, ctx=checked)
    # Row-at-a-time driving of the sharded plan (the seed engine's API).
    plan = session.prepare(query, parallelism=4).plan
    row_ctx = ExecutionContext(catalog, batch_size=1)
    results["p4/rows"] = list(plan.to_operator(catalog).execute(row_ctx))
    # Columnar-vs-row parity: the same plans driven with whole-column
    # kernels disabled (columnar=False reproduces the row-tuple batched
    # engine) must return the same rows...
    for parallelism in (1, 4):
        for batch_size in (1, 64, None):
            engine_ctx = ExecutionContext(catalog, batch_size=batch_size,
                                          columnar=False)
            name = f"p{parallelism}/b{batch_size or 'def'}/rowengine"
            results[name] = session.execute(query, parallelism=parallelism,
                                            ctx=engine_ctx)
    bad = [name for name, rows in results.items() if rows != reference]
    # ...and bit-identical simulated costs: I/O blocks, comparison
    # counts and sort metrics may not depend on the evaluation layout.
    columnar_ctx = ExecutionContext(catalog)
    rowwise_ctx = ExecutionContext(catalog, columnar=False)
    session.execute(query, ctx=columnar_ctx)
    session.execute(query, ctx=rowwise_ctx)
    if columnar_ctx.tallies() != rowwise_ctx.tallies():
        bad.append("tallies/columnar-vs-row")
    for backend in (SerialBackend(), ThreadBackend()):
        bad += metering_mismatches(catalog, session, query, backend,
                                   reference)
    return bad


def _tallies_but_comparisons(ctx: ExecutionContext) -> dict:
    tallies = ctx.tallies()
    del tallies["comparisons"], tallies["meter_comparisons"]
    return tallies


def metering_mismatches(catalog: Catalog, session: QuerySession, query,
                        backend, reference: list[tuple]) -> list[str]:
    """Run *query* on *backend* with a metered ctx, an unmetered ctx and
    no ctx (the serving default) per parallelism × batch size; names of
    configs that break metering parity."""
    bad = []
    for parallelism in (1, 4):
        plan = session.prepare(query, parallelism=parallelism).plan
        for batch_size in (1, 64, None):
            name = f"{backend.name}/p{parallelism}/b{batch_size or 'def'}"
            metered = ExecutionContext(catalog, batch_size=batch_size)
            plain = ExecutionContext(catalog, batch_size=batch_size,
                                     meter_comparisons=False)
            runs = [backend.run_plan(plan, catalog, parallelism,
                                     batch_size, ctx=ctx)
                    for ctx in (metered, plain, None)]
            if any(rows != reference for rows in runs):
                bad.append(f"metering/rows {name}")
            if (_tallies_but_comparisons(metered)
                    != _tallies_but_comparisons(plain)):
                bad.append(f"metering/tallies {name}")
            if plain.comparisons.value != 0:
                bad.append(f"metering/unmetered-count {name}")
    return bad


def shrink_failure(catalog: Catalog, query) -> str:
    """Smallest failing logical fragment (each subtree re-ordered on its
    own output columns and re-checked), for the assertion message."""
    candidates = sorted(query.expr.walk(), key=lambda e: sum(1 for _ in e.walk()))
    for node in candidates:
        annotator = Annotator(catalog, node)
        sub = Query.of(node).order_by(*annotator.schema_of(node).names)
        try:
            bad = execution_mismatches(catalog, sub)
        except Exception as exc:  # a crash is as good as a mismatch
            return f"{sub.pretty()}\n(shrunk fragment raises: {exc!r})"
        if bad:
            return f"{sub.pretty()}\n(shrunk fragment mismatches: {bad})"
    return query.pretty() + "\n(no smaller failing fragment found)"


def run_seed(seed: int) -> None:
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    query = random_query(rng, catalog)
    try:
        mismatches = execution_mismatches(catalog, query)
    except Exception:
        print(f"\nfuzz seed {seed} crashed on:\n{query.pretty()}")
        raise
    if mismatches:
        fragment = shrink_failure(catalog, query)
        pytest.fail(
            f"fuzz seed {seed}: configs {mismatches} diverge from the "
            f"serial reference.\nquery:\n{query.pretty()}\n"
            f"minimal failing fragment:\n{fragment}")


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_plan_parity_fuzz(chunk):
    per_chunk = (NUM_PLANS + CHUNKS - 1) // CHUNKS
    start = BASE_SEED + chunk * per_chunk
    for seed in range(start, start + per_chunk):
        run_seed(seed)


# -- join-enumerator result parity -------------------------------------------------------
REORDERING_ENUMERATORS = ("simpli-squared", "greedy-m2m")


def random_join_catalog(rng: random.Random) -> Catalog:
    """4–6 small int tables for multi-leaf inner-join regions: unlike
    :func:`random_catalog`, wide enough that join-order rewriting
    (needs >= 3 leaves in one region) fires on most seeds."""
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=rng.choice([4, 16, 10_000])))
    for t in range(rng.randint(4, 6)):
        names = [f"t{t}_c{i}" for i in range(rng.randint(2, 4))]
        schema = Schema.of(*[(n, "int", 8) for n in names])
        domain = rng.choice([6, 8, 10])
        rows = [tuple(rng.randrange(domain) for _ in names)
                for _ in range(rng.randint(10, 25))]
        clustering = (SortOrder([names[0]]) if rng.random() < 0.5
                      else SortOrder(()))
        catalog.create_table(f"t{t}", schema, rows=rows,
                             clustering_order=clustering)
    return catalog


def random_join_region_query(rng: random.Random, catalog: Catalog) -> Query:
    """One maximal inner-join region over every table, joined in a
    random connected order with 1–2 predicate pairs per step."""
    tables = [table.name for table in catalog.tables()]
    rng.shuffle(tables)
    q = Query.table(tables[0])
    placed_cols = list(catalog.table(tables[0]).schema.names)
    for name in tables[1:]:
        new_cols = list(catalog.table(name).schema.names)
        pairs = []
        used_l: set[str] = set()
        used_r: set[str] = set()
        for _ in range(rng.randint(1, 2)):
            l, r = rng.choice(placed_cols), rng.choice(new_cols)
            if l not in used_l and r not in used_r:
                pairs.append((l, r))
                used_l.add(l)
                used_r.add(r)
        q = q.join(name, on=pairs)
        placed_cols += new_cols
    q = q.order_by(*placed_cols)
    if rng.random() < 0.3:
        q = q.limit(rng.randint(1, 50))
    return q


@pytest.mark.parametrize("enumerator", REORDERING_ENUMERATORS)
def test_enumerator_parity_on_fuzz_corpus(enumerator):
    """Each reordering enumerator returns exactly the rows the default
    exhaustive enumerator returns, on every corpus query (serial and
    sharded execution)."""
    for seed in range(BASE_SEED, BASE_SEED + NUM_PLANS):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        reference = QuerySession(catalog).execute(query)
        session = QuerySession(catalog, join_enumerator=enumerator)
        for parallelism in (1, 4):
            rows = session.execute(query, parallelism=parallelism)
            assert rows == reference, (
                f"{enumerator} diverges from exhaustive on fuzz seed "
                f"{seed} at parallelism {parallelism}:\n{query.pretty()}")


@pytest.mark.parametrize("enumerator", REORDERING_ENUMERATORS)
def test_enumerator_parity_on_join_regions(enumerator):
    """Result parity on wide inner-join regions, where the rewrite
    actually fires — and it must fire, or the parity claim is vacuous."""
    from repro.optimizer.pipeline import make_enumerator
    enum = make_enumerator(enumerator)
    rewrites = 0
    for seed in range(BASE_SEED, BASE_SEED + 40):
        rng = random.Random(seed)
        catalog = random_join_catalog(rng)
        query = random_join_region_query(rng, catalog)
        if list(enum.candidate_trees(catalog, query.expr)) != [query.expr]:
            rewrites += 1
        reference = QuerySession(catalog).execute(query)
        session = QuerySession(catalog, join_enumerator=enumerator)
        for parallelism in (1, 4):
            rows = session.execute(query, parallelism=parallelism)
            assert rows == reference, (
                f"{enumerator} diverges from exhaustive on join-region "
                f"seed {seed} at parallelism {parallelism}:\n"
                f"{query.pretty()}")
    assert rewrites >= 10, (
        f"{enumerator} only rewrote {rewrites}/40 join-region queries — "
        f"the parity run is not exercising the reordering path")


def test_process_backend_columnar_parity():
    """Prepared plans now carry unpicklable kernel bundles; the process
    backend must strip them (``strip_plan``), let workers recompile
    through their own kernel caches, and still return bit-identical rows
    to the in-process columnar engine."""
    from repro.service import QueryServer

    for seed in range(BASE_SEED + 100, BASE_SEED + 106):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        reference = QuerySession(catalog).execute(query)
        with QueryServer(catalog, backend="process", parallelism=4,
                         max_inflight=2, pool_workers=2) as server:
            assert server.execute(query).rows == reference, f"seed {seed}"


def _corpus_case(seed: int):
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    return catalog, random_query(rng, catalog)


def test_process_backend_metering_parity():
    """Metering on vs off through the worker pool: the flag rides to the
    workers with each task.  Four plain corpus
    seeds plus the first four whose sharded plan has a MergeExchange
    (about one seed in twenty), so the serving-side merge is covered."""
    seeds = list(range(BASE_SEED + 100, BASE_SEED + 104))
    merge_seeds = []
    for seed in range(BASE_SEED, BASE_SEED + 400):
        catalog, query = _corpus_case(seed)
        plan = QuerySession(catalog).prepare(query, parallelism=4).plan
        if any(node.op == "MergeExchange" for node in plan.walk()):
            merge_seeds.append(seed)
            if len(merge_seeds) == 4:
                break
    assert merge_seeds, "no corpus seed planned a MergeExchange"
    for seed in seeds + merge_seeds:
        catalog, query = _corpus_case(seed)
        session = QuerySession(catalog)
        reference = session.execute(query)
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            bad = metering_mismatches(catalog, session, query, backend,
                                      reference)
        finally:
            backend.close()
        assert not bad, f"fuzz seed {seed}: {bad}\n{query.pretty()}"


def test_fuzz_exercises_new_machinery():
    """The suite only means something if the generated population
    actually reaches the sharded machinery: across the first 60 seeds,
    sharded executions must plan merge exchanges, range partition scans
    and outer joins somewhere."""
    ops_seen: set[str] = set()
    for seed in range(BASE_SEED, BASE_SEED + 60):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        session = QuerySession(catalog)
        plan = session.prepare(query, parallelism=4).plan
        ops_seen |= {node.op for node in plan.walk()}
        for node in plan.walk():
            if node.op == "MergeJoin" and node.arg("join_type") != "inner":
                ops_seen.add("OuterMergeJoin")
    assert "MergeExchange" in ops_seen, ops_seen
    assert {"MergeJoin", "HashJoin", "SortAggregate"} <= ops_seen, ops_seen
