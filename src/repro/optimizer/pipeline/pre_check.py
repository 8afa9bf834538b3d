"""Stage 1 — pre-check: parameter and feature validation.

Validates an :class:`OptimizerConfig` once, up front, and resolves its
string-valued knobs into the live stage objects the rest of the
pipeline runs with: the interesting-order strategy
(:func:`repro.core.interesting.make_strategy`) and the join-order
enumerator (:func:`.join_enumeration.make_enumerator`).  Invalid
configurations fail here — before any search state is built — with
:class:`PreCheckError`, so every downstream stage can assume a sane,
fully-resolved configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union as TUnion

from ...core.interesting import OrderStrategy, make_strategy
from .join_enumeration import JoinOrderEnumerator, make_enumerator

__all__ = ["OptimizerConfig", "PreCheckError", "configure", "run_pre_check"]


@dataclass
class OptimizerConfig:
    """Feature switches; defaults correspond to PYRO-O."""

    strategy: str = "pyro-o"
    partial_sort_enforcers: bool = True
    refine: bool = True
    enable_hash_join: bool = True
    enable_nested_loops: bool = False
    enable_hash_aggregate: bool = True
    use_favorable_orders_everywhere: bool = True
    #: Branch-and-bound pruning: skip subgoals/enforcers that provably
    #: cannot beat the best plan found so far for the current goal.  The
    #: chosen plan is identical either way; only search effort changes.
    cost_bound_pruning: bool = True
    #: Shard fan-out the plan will execute with (``QuerySession`` passes
    #: the execution-time ``parallelism`` knob through).  At 1 the search
    #: is oblivious to sharding; above 1 enforcers may be placed below a
    #: :class:`MergeExchange`, shard by shard, when that is cheaper.
    parallelism: int = 1
    #: Master switch for the per-shard enforcer placement — off forces
    #: the pre-shard-aware behaviour (one post-union sort above the
    #: exchange) even at ``parallelism > 1``; used as the baseline in
    #: benchmarks and regression tests.
    shard_aware_enforcers: bool = True
    #: Stage-2 join-order enumerator: a registry name
    #: (``"exhaustive"`` | ``"simpli-squared"`` | ``"greedy-m2m"``) or a
    #: ready :class:`~.join_enumeration.JoinOrderEnumerator` instance
    #: for custom strategies.  ``"exhaustive"`` is the pre-pipeline
    #: behaviour (bit-identical plans, unsalted cache fingerprints).
    join_enumerator: TUnion[str, JoinOrderEnumerator] = "exhaustive"


class PreCheckError(ValueError):
    """An :class:`OptimizerConfig` failed stage-1 validation."""


def configure(strategy: str = "pyro-o",
              config: Optional[OptimizerConfig] = None,
              **overrides: Any) -> OptimizerConfig:
    """*config* (default: the one for *strategy*) with keyword
    *overrides* applied, as a private copy.  An option the config does
    not have raises :class:`TypeError` here, where the caller passed it,
    not later wherever the config is first used."""
    config = (OptimizerConfig(strategy=strategy) if config is None
              else replace(config))  # never mutate the caller's config
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise TypeError(f"unknown optimizer option {key!r}")
        setattr(config, key, value)
    return config


def run_pre_check(config: OptimizerConfig
                  ) -> tuple[OptimizerConfig, OrderStrategy,
                             JoinOrderEnumerator]:
    """Validate *config* and resolve its pluggable pieces.

    Returns a private copy of the config (normalized: registry-driven
    feature flags applied, never the caller's object) together with the
    resolved order strategy and join-order enumerator.
    """
    config = replace(config)  # never mutate the caller's config
    if not isinstance(config.parallelism, int) or config.parallelism < 1:
        raise PreCheckError(
            f"parallelism must be a positive int, got {config.parallelism!r}")
    try:
        strategy, partial = make_strategy(config.strategy)
    except ValueError as exc:
        raise PreCheckError(str(exc)) from None
    if not partial:
        # Honour the registry flag: any partial-disabled variant in
        # STRATEGY_VARIANTS (not just "pyro-o-") loses its enforcers.
        config.partial_sort_enforcers = False
    try:
        enumerator = make_enumerator(config.join_enumerator)
    except ValueError as exc:
        raise PreCheckError(str(exc)) from None
    return config, strategy, enumerator
