"""The repository benchmark: three seeded workloads over the serving
stack and the optimizer, with end-to-end metrics, a traced per-layer
budget and output checks against oracles outside the engine.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""


class BenchmarkFailure(RuntimeError):
    """A wrong result or a broken accounting identity: the run is void."""
