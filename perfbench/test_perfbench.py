"""The benchmark's own tests: its catalogue matches ``BENCHMARK.json``,
its exact counts repeat for a fixed seed, and its checks fail a run
that serves wrong rows or breaks the admission accounting.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The counts
are compared between two runs of the same seed rather than against
recorded values, so a change to the program that moves a count shows as
a changed benchmark figure, not as a failing test.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfkit import BenchmarkFailure
from perfkit.inputs import trades_rows
from perfkit.metrics import END_TO_END, PER_LAYER, WORKLOADS, RunResult
from perfkit.planning import verification_pass
from perfkit.probes import PROBE_TARGETS, Probes
from perfkit import inputs, serving

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

#: Counts that must repeat exactly for a fixed seed.
SERVING_PINS = ("plan_cost_units", "exec_cost_units", "engine.comparisons",
                "engine.blocks_read", "engine.blocks_written")
ADHOC_PINS = ("plan_cost_units", "optimizer.goals_examined",
              "service.plan_cache.misses")


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["perfbench"]


def _serving_counts(workload: str, rows) -> dict:
    spec = serving.SPECS[workload]
    refs = serving.reference_results(rows)
    _, server, _ = serving.build_server(rows, spec, refs, obs=None)
    try:
        result = RunResult()
        serving.deterministic_pass(server, server.catalog, refs, spec,
                                   result)
        serving.check_accounting(server)
    finally:
        server.close()
    return {name: result.values[name][0] for name in SERVING_PINS}


@pytest.mark.parametrize("workload", ["analyze_mixed", "hot_report"])
def test_serving_counts_repeat(workload):
    rows = trades_rows(3_000, SEED)
    first = _serving_counts(workload, rows)
    assert _serving_counts(workload, rows) == first
    assert first["engine.comparisons"] > 0


def test_adhoc_counts_repeat():
    bases = inputs.adhoc_bases()
    runs = []
    for _ in range(2):
        result = RunResult()
        verification_pass(bases, SEED, result, count=48)
        runs.append({name: result.values[name][0] for name in ADHOC_PINS})
    assert runs[0] == runs[1]
    assert runs[0]["service.plan_cache.misses"] == 48


def test_adhoc_requests_are_distinct_and_seeded():
    bases = inputs.adhoc_bases()
    take = lambda seed: [r for _, r in zip(range(500),  # noqa: E731
                                           inputs.adhoc_requests(bases, seed))]
    first = take(SEED)
    assert len(set(first)) == len(first)
    assert not set(first) & set(inputs.adhoc_warmup(bases))
    assert take(SEED) == first
    assert take(SEED + 1) != first


def test_wrong_rows_fail_the_run():
    rows = trades_rows(2_000, SEED)
    spec = serving.SPECS["analyze_mixed"]
    refs = serving.reference_results(rows)
    catalog, server, _ = serving.build_server(rows, spec, refs, obs=None)
    try:
        # Client 0's first read is the report, so even a short window
        # serves it.
        corrupted = dict(refs, report=refs["report"][1:])
        with pytest.raises(BenchmarkFailure, match="report"):
            serving.closed_loop(server, catalog, corrupted, 0.3, 0)
    finally:
        server.close()


def test_oracle_disagreement_fails_the_references(monkeypatch):
    rows = trades_rows(500, SEED)
    broken = serving.oracle_results(rows)
    broken["report"] = broken["report"][::-1]
    monkeypatch.setattr(serving, "oracle_results", lambda _: broken)
    with pytest.raises(BenchmarkFailure, match="report"):
        serving.reference_results(rows)


class _Stats:
    def __init__(self, **stats) -> None:
        self._stats = stats

    def stats(self) -> dict:
        return self._stats


def test_broken_accounting_fails_the_run():
    ok = dict(submitted=10, completed=7, failed=1, timeouts=1,
              rejected_queue_full=1, rejected_quota=0, rejected_circuit=0)
    serving.check_accounting(_Stats(**ok))
    with pytest.raises(BenchmarkFailure, match="accounting"):
        serving.check_accounting(_Stats(**dict(ok, completed=6)))


def _probe_bindings() -> dict:
    bindings = {}
    for _, _, module_name, path in PROBE_TARGETS:
        owner_name, _, attr = path.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        bindings[path] = getattr(owner, attr)
    return bindings


def test_probes_install_and_restore_every_binding():
    before = _probe_bindings()
    with Probes():
        during = _probe_bindings()
    assert all(during[path] is not before[path] for path in before)
    after = _probe_bindings()
    assert all(after[path] is before[path] for path in before)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_adhoc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
