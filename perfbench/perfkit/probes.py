"""Per-layer measurement from outside the package.

Two sources feed the traced run's layer budget:

* **Probes** — timing wrappers installed over public functions of each
  layer (fingerprinting, the optimizer facade, phase-2 refinement,
  lowering, the executor, the kernel cache, statistics refresh).  They
  are installed only for the traced phase and removed afterwards, so
  untraced phases run the package's own code.  Inside an active query
  trace a probe also opens a child span, so its time is subtracted from
  the enclosing span's self time; outside one it only tallies.
* **Spans** — the span tree the package itself records when a query is
  traced (admission, queue wait, the optimizer's four stages, bind,
  backend dispatch, per-shard worker spans, the serving-side merge).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.obs import active_span, child_span

from .metrics import RunResult
from .stats import table

#: ``(layer, probe name, module, attribute path)`` of every probe.
PROBE_TARGETS = (
    ("logical", "logical.fingerprint", "repro.logical.fingerprint",
     "logical_fingerprint"),
    ("optimizer", "optimizer.optimize", "repro.optimizer.volcano",
     "Optimizer.optimize"),
    ("core", "core.refine", "repro.core.refinement", "refine_plan"),
    ("engine", "engine.lowering", "repro.engine.lowering",
     "operators_from_plan"),
    ("engine", "engine.execute", "repro.engine.executor",
     "BatchedExecutor.run"),
    ("expr", "expr.row_kernel", "repro.engine.kernels", "KernelCache.row_fn"),
    ("expr", "expr.batch_kernel", "repro.engine.kernels",
     "KernelCache.batch_fn"),
    ("storage", "storage.refresh_stats", "repro.storage.catalog",
     "Catalog.refresh_stats"),
)

#: Layer of every span name the package records.  The root ``query``
#: span is the request itself and belongs to no layer.
SPAN_LAYERS = {
    "admission": "service", "queue_wait": "service", "plan": "service",
    "bind": "service", "execute": "service", "shard_dispatch": "service",
    "pre_check": "optimizer", "join_enumeration": "optimizer",
    "physical_selection": "optimizer", "parameterization": "optimizer",
    "local_execute": "engine", "merge": "engine", "worker_execute": "engine",
    "lower": "engine", "run": "engine",
}
SPAN_LAYERS.update({name: layer for layer, name, _, _ in PROBE_TARGETS})

#: Spans whose self time is time work waited, not time a layer worked:
#: the admission queue, and a shard's transfer (dispatch minus the
#: worker's own execution).
WAIT_SPANS = frozenset(("queue_wait", "shard_dispatch"))

#: Untraced/traced segment pairs of a traced run.
TRACE_ROUNDS = 3

LAYERS = ("service", "optimizer", "core", "logical", "engine", "expr",
          "storage")


@dataclass
class Tally:
    calls: int = 0
    seconds: float = 0.0
    #: Calls made outside any query trace (no span recorded for them).
    untraced_calls: int = 0
    untraced_seconds: float = 0.0
    untraced_failures: int = 0


class Probes:
    """Installs the :data:`PROBE_TARGETS` wrappers for a ``with`` block."""

    def __init__(self) -> None:
        self.tallies = {name: Tally() for _, name, _, _ in PROBE_TARGETS}
        self._lock = threading.Lock()
        self._depth = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probes":
        for _, name, module_name, path in PROBE_TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            # A function imported by name elsewhere is bound in each
            # importing module: replace every binding of the object.
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    self._patch(loaded, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tally = self.tallies[name]
        depth = self._depth
        lock = self._lock
        clock = time.perf_counter

        def probe(*args, **kwargs):
            # Only the outermost call of a recursive function is timed.
            level = getattr(depth, name, 0)
            if level:
                return fn(*args, **kwargs)
            setattr(depth, name, 1)
            traced = active_span() is not None
            failed = False
            started = clock()
            try:
                if traced:
                    with child_span(name):
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - started
                setattr(depth, name, 0)
                with lock:
                    tally.calls += 1
                    tally.seconds += elapsed
                    if not traced:
                        tally.untraced_calls += 1
                        tally.untraced_seconds += elapsed
                        tally.untraced_failures += failed

        probe.__wrapped__ = fn
        return probe


# -- span folding --------------------------------------------------------------------------
def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class LayerBudget:
    """Folds traced requests into per-span-name totals and a per-layer
    table of calls, busy time, wait time and failures."""

    def __init__(self) -> None:
        self.requests = 0
        self.span_seconds: dict[str, float] = {}
        self.transfer_seconds = 0.0
        self.calls = {layer: 0 for layer in LAYERS}
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.wait = {layer: 0.0 for layer in LAYERS}
        self.failures = {layer: 0 for layer in LAYERS}
        self.coverage: list[float] = []

    def add(self, spans: list, latency: float,
            root_name: str = "query") -> None:
        """Fold one request's finished spans; *latency* is what the
        client observed for it."""
        self.requests += 1
        children: dict[Optional[str], list] = {}
        for span in spans:
            if span.end is not None:
                children.setdefault(span.parent_id, []).append(span)
        root = next((s for s in spans if s.name == root_name
                     and s.parent_id is None), None)
        if root is not None and latency > 0:
            # The root's direct children run one after the other on the
            # request's blocking path.
            covered = sum(c.end - c.start
                          for c in children.get(root.span_id, ()))
            self.coverage.append(covered / latency)
        for span in spans:
            if span.end is None or span is root:
                continue
            duration = span.end - span.start
            self.span_seconds[span.name] = (
                self.span_seconds.get(span.name, 0.0) + duration)
            kids = children.get(span.span_id, ())
            self_time = duration - _covered(
                ((c.start, c.end) for c in kids), span.start, span.end)
            if span.name == "shard_dispatch":
                self.transfer_seconds += self_time
            layer = SPAN_LAYERS.get(span.name)
            if layer is None:
                continue
            self.calls[layer] += 1
            if span.name in WAIT_SPANS:
                self.wait[layer] += self_time
            else:
                self.busy[layer] += self_time
            if "error" in span.tags:
                self.failures[layer] += 1

    def add_untraced(self, probes: Probes) -> None:
        """Count probe calls made outside any trace (e.g. ANALYZE on a
        client thread) — they have no span to fold."""
        for layer, name, _, _ in PROBE_TARGETS:
            tally = probes.tallies[name]
            self.calls[layer] += tally.untraced_calls
            self.busy[layer] += tally.untraced_seconds
            self.failures[layer] += tally.untraced_failures

    def per_request_ms(self, *names: str) -> float:
        if not self.requests:
            return 0.0
        total = sum(self.span_seconds.get(n, 0.0) for n in names)
        return total * 1e3 / self.requests

    def table(self) -> list[list]:
        return [[layer, self.calls[layer], round(self.busy[layer] * 1e3, 3),
                 round(self.wait[layer] * 1e3, 3), self.failures[layer]]
                for layer in LAYERS]


def report_traced(result: RunResult, budget: LayerBudget, probes: Probes,
                  delta: dict, untraced_qps: float, traced_qps: float,
                  traced_seconds: float) -> None:
    """The per-layer metrics every workload measures the same way, and
    the layer table; *delta* is the growth of the kernel-cache counters
    over the traced segments."""
    n = budget.requests
    per_request = lambda seconds: seconds * 1e3 / n  # noqa: E731
    tally = probes.tallies
    result.put("service.session.prepare_ms", budget.per_request_ms("plan"), n)
    result.put("logical.fingerprint_ms",
               per_request(tally["logical.fingerprint"].seconds), n)
    result.put("optimizer.optimize_ms",
               per_request(tally["optimizer.optimize"].seconds), n)
    for stage in ("pre_check", "join_enumeration", "physical_selection",
                  "parameterization"):
        result.put(f"optimizer.{stage}_ms", budget.per_request_ms(stage), n)
    result.put("core.refine_ms", per_request(tally["core.refine"].seconds), n)
    hits = delta["kernel_cache_hits"]
    lookups = hits + delta["kernels_compiled"]
    result.put("expr.kernel_cache_hit_rate",
               hits / lookups if lookups else 0.0, lookups)
    overhead = untraced_qps / traced_qps
    coverage = sum(budget.coverage) / len(budget.coverage)
    result.put("obs.trace_overhead_ratio", overhead, 2)
    result.put("obs.trace_coverage", coverage, len(budget.coverage))
    budget.add_untraced(probes)
    result.lines.append(table(
        ["layer", "calls", "busy ms", "wait ms", "failures"], budget.table(),
        title=f"per-layer budget, traced segments ({n} requests, "
              f"{traced_seconds:.1f} s)"))
    result.lines.append(f"obs.trace_overhead_ratio {overhead:.4f} "
                        f"({untraced_qps:.2f} / {traced_qps:.2f} req/s), "
                        f"obs.trace_coverage {coverage:.4f}")
