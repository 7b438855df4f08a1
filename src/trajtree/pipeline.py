"""Stage orchestration shared by the CLI: the stage config and per-instance
mining.

`mine_instance` gives the per-node lists `emit` renders every file from;
`process_instances` gathers them per instance as the library's results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .ingest import DEFAULT_LOOP_THRESHOLD, DEFAULT_OUTLIER_MIN_PREFIX
from .model import CanonConfig, Trajectory
from .scoring import (
    ALL_PAIRS, DEFAULT_THRESHOLD, CriticalPair, NodeScore, critical_triples, distinct_triples,
    extract_critical_pairs, score_nodes, subtree_counts,
)
from .tree import TrajTree, build_tree


class StageConfig(NamedTuple):
    canon: CanonConfig = CanonConfig()
    loop_threshold: int = DEFAULT_LOOP_THRESHOLD
    outlier_min_prefix: int = DEFAULT_OUTLIER_MIN_PREFIX
    strict_merge: bool = False
    critical_threshold: Fraction = DEFAULT_THRESHOLD
    pair_mode: str = ALL_PAIRS


class InstanceResult(NamedTuple):
    tree: TrajTree
    scores: dict[int, NodeScore]
    pairs: Sequence[CriticalPair] = ()


def mine_instance(
    instance_id: str, ts: list[Trajectory], config: StageConfig
) -> tuple[TrajTree, list[int], list[int], list[tuple[int, int, int]]]:
    """One instance's tree, its `subtree_counts` and its distinct critical triples."""
    tree = build_tree(instance_id, ts[0].prompt, ts, config.canon, config.strict_merge)
    successes, totals = subtree_counts(tree)
    triples = critical_triples(tree, successes, totals, config.critical_threshold, config.pair_mode)
    return tree, successes, totals, distinct_triples(tree, triples)


def process_instances(
    groups: dict[str, list[Trajectory]], config: StageConfig
) -> dict[str, InstanceResult]:
    """`mine_instance` per instance, in the groups' key order, as a tree,
    `NodeScore`s and `CriticalPair`s."""
    results = {}
    for name, ts in groups.items():
        tree, _, _, triples = mine_instance(name, ts, config)
        scores = score_nodes(tree)
        results[name] = InstanceResult(tree, scores, extract_critical_pairs(tree, triples, scores))
    return results
