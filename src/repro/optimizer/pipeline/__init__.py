"""The staged optimizer pipeline: pre-check → join enumeration →
physical selection → parameterization, composed by
:class:`OptimizationPipeline` (see :mod:`.pipeline` for the overview
and ``docs/optimizer.md`` for the guide)."""

from .join_enumeration import (
    ENUMERATORS,
    ExhaustiveEnumerator,
    GreedyManyToManyEnumerator,
    JoinOrderEnumerator,
    SimpliSquaredEnumerator,
    make_enumerator,
)
from .parameterization import (
    bind_expression,
    bind_plan,
    expression_params,
    parameterize,
    plan_params,
)
from .physical_selection import (
    PhysicalSelection,
    enforcement_chain_scan,
    shardable_enforcement_input,
)
from .pipeline import OptimizationPipeline
from .pre_check import OptimizerConfig, PreCheckError, configure, run_pre_check

__all__ = [
    "ENUMERATORS",
    "ExhaustiveEnumerator",
    "GreedyManyToManyEnumerator",
    "JoinOrderEnumerator",
    "OptimizationPipeline",
    "OptimizerConfig",
    "PhysicalSelection",
    "PreCheckError",
    "SimpliSquaredEnumerator",
    "bind_expression",
    "bind_plan",
    "configure",
    "enforcement_chain_scan",
    "expression_params",
    "make_enumerator",
    "parameterize",
    "plan_params",
    "run_pre_check",
    "shardable_enforcement_input",
]
