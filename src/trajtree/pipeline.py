"""Stage orchestration shared by the CLI: the stage and synth configs,
per-instance processing and selfcheck.

Tree building, scoring and pair extraction run one instance at a time,
in first-appearance instance order. Only `selfcheck` needs the synthetic
generator and its brute-force oracles, so it imports them itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple, Sequence

from .errors import ConfigError, InvariantError
from .ingest import ingest_trajectories
from .model import CanonConfig, Trajectory
from .scoring import (
    ALL_PAIRS, DEFAULT_THRESHOLD, CriticalPair, NodeScore, critical_triples, distinct_triples,
    extract_critical_pairs, score_nodes, subtree_counts,
)
from .tree import TrajTree, build_tree, enumerate_paths, path_ids


class StageConfig(NamedTuple):
    canon: CanonConfig = CanonConfig()
    loop_threshold: int = 3
    outlier_min_prefix: int = 1
    strict_merge: bool = False
    critical_threshold: Fraction = DEFAULT_THRESHOLD
    pair_mode: str = ALL_PAIRS


class SynthConfig(NamedTuple):
    """Shape of a `trajtree.synth` corpus; the synth and selfcheck flags are its fields."""

    seed: int = 0
    instances: int = 10
    branching: int = 3
    depth: int = 6
    trajectories_per_instance: int = 6
    planted_critical: int = 1
    loop_rate: float = 0.1
    outlier_rate: float = 0.1
    duplicate_rate: float = 0.1
    divergent_observations: bool = False

    def validate(self) -> None:
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if min(self.instances, self.trajectories_per_instance, self.planted_critical) < 0:
            raise ConfigError("counts must be >= 0")
        if self.branching < 1:
            raise ConfigError("branching must be >= 1")
        for name in ("loop_rate", "outlier_rate", "duplicate_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")


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


def process_instance(instance_id: str, ts: list[Trajectory], config: StageConfig) -> InstanceResult:
    """`mine_instance` as a tree, `NodeScore`s and `CriticalPair`s."""
    tree, _, _, triples = mine_instance(instance_id, ts, config)
    scores = score_nodes(tree)
    return InstanceResult(tree, scores, extract_critical_pairs(tree, triples, scores))


def process_instances(
    groups: dict[str, list[Trajectory]], config: StageConfig
) -> dict[str, InstanceResult]:
    """`process_instance` per instance, in the groups' key order."""
    return {name: process_instance(name, ts, config) for name, ts in groups.items()}


def node_prefix_scores(
    tree: TrajTree, scores: dict[int, NodeScore]
) -> dict[tuple[str, ...], tuple[int, int]]:
    """Node scores keyed by canonical action prefix (action-only merge mode)."""
    return {
        tuple(tree.action_key[i] for i in path_ids(tree, node_id)): (s.successes, s.total)
        for node_id, s in scores.items()
        if tree.outcome[node_id] is None
    }


def pairs_as_prefix_set(
    pairs: list[CriticalPair], canon: CanonConfig
) -> set[tuple[tuple[str, ...], str, str]]:
    from .model import canonicalize_action

    def key(text: str) -> str:
        return canonicalize_action(text, canon).key

    return {
        (tuple(key(s.content) for s in p.context if s.role == "action"),
         key(p.chosen), key(p.rejected))
        for p in pairs
    }


def selfcheck(synth_config: SynthConfig) -> dict[str, Any]:
    """Synthesize a corpus, run the pipeline, and compare against the oracles.

    Raises InvariantError on any disagreement; returns a summary record.
    Uses default filtration parameters to match the generated ground truth.
    """
    from .synth import brute_force_pairs, brute_force_scores, generate

    corpus, truth = generate(synth_config)
    groups, report = ingest_trajectories(corpus)
    stage = StageConfig()
    results = process_instances(groups, stage)

    checked_instances = 0
    pair_total = 0
    for instance_id, truth_rec in truth["instances"].items():
        retained = groups.get(instance_id, [])
        if set(t.trajectory_id for t in retained) != set(truth_rec["retained"]):
            raise InvariantError(f"{instance_id}: retained set differs from ground truth")
        if not retained:
            continue
        result = results[instance_id]
        # path reconstruction: leaves must reproduce the retained set exactly
        got_paths = {
            (keys, outcome) for keys, outcome, _ in enumerate_paths(result.tree)
        }
        want_paths = {(t.action_keys(), t.resolved) for t in retained}
        if got_paths != want_paths:
            raise InvariantError(f"{instance_id}: tree paths differ from retained set")
        oracle_scores = brute_force_scores(retained)
        if node_prefix_scores(result.tree, result.scores) != oracle_scores:
            raise InvariantError(f"{instance_id}: node scores disagree with oracle")
        oracle_pairs = brute_force_pairs(oracle_scores, stage.critical_threshold)
        got_pairs = pairs_as_prefix_set(result.pairs, stage.canon)
        if got_pairs != oracle_pairs:
            raise InvariantError(f"{instance_id}: critical pairs disagree with oracle")
        for planted in truth_rec["planted_pairs"]:
            key = (tuple(planted["prefix"]), planted["chosen"], planted["rejected"])
            if key not in oracle_pairs:
                raise InvariantError(f"{instance_id}: planted pair missing from oracle")
        checked_instances += 1
        pair_total += len(result.pairs)
    return {
        "status": "ok",
        "seed": synth_config.seed,
        "instances_generated": synth_config.instances,
        "instances_checked": checked_instances,
        "trajectories_input": report.input_count,
        "trajectories_retained": report.retained,
        "critical_pairs": pair_total,
    }
