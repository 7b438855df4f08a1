"""Stage orchestration shared by the CLI: the stage and synth configs,
per-instance mining and selfcheck.

`mine_instance` gives the per-node lists the CLI writes every file from.
`selfcheck` checks them, one synthetic instance at a time, against the
brute-force oracles; only it needs the generator and the oracles, so it
imports them itself.
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


def selfcheck(synth_config: SynthConfig) -> dict[str, Any]:
    """Generate a synthetic corpus one instance at a time; clean and mine each
    as the CLI does, and compare its per-node counts and distinct triples,
    keyed by canonical action prefix, with the brute-force oracles.

    Raises InvariantError on any disagreement; returns a summary record.
    Uses the default StageConfig, which the generated ground truth assumes.
    """
    from .synth import brute_force_pairs, brute_force_scores, iter_instances

    stage = StageConfig()
    checked_instances = pair_total = input_count = retained_count = 0
    for ts, truth in iter_instances(synth_config):
        instance_id = truth["instance_id"]
        groups, report = ingest_trajectories(ts)
        input_count += report.input_count
        retained_count += report.retained
        retained = groups.get(instance_id, [])
        if set(t.trajectory_id for t in retained) != set(truth["retained"]):
            raise InvariantError(f"{instance_id}: retained set differs from ground truth")
        if not retained:
            continue
        tree, successes, totals, triples = mine_instance(instance_id, retained, stage)
        # path reconstruction: leaves must reproduce the retained set exactly
        got_paths = {(keys, outcome) for keys, outcome, _ in enumerate_paths(tree)}
        want_paths = {(t.action_keys(), t.resolved) for t in retained}
        if got_paths != want_paths:
            raise InvariantError(f"{instance_id}: tree paths differ from retained set")
        key = tree.action_key
        prefix = {  # the root and every action node: the action keys on its path
            i: tuple(key[j] for j in path_ids(tree, i))
            for i, outcome in enumerate(tree.outcome) if outcome is None
        }
        oracle_scores = brute_force_scores(retained)
        if {p: (successes[i], totals[i]) for i, p in prefix.items()} != oracle_scores:
            raise InvariantError(f"{instance_id}: node scores disagree with oracle")
        oracle_pairs = brute_force_pairs(oracle_scores, stage.critical_threshold)
        if {(prefix[p], key[c], key[r]) for p, c, r in triples} != oracle_pairs:
            raise InvariantError(f"{instance_id}: critical pairs disagree with oracle")
        for planted in truth["planted_pairs"]:
            pair = (tuple(planted["prefix"]), planted["chosen"], planted["rejected"])
            if pair not in oracle_pairs:
                raise InvariantError(f"{instance_id}: planted pair missing from oracle")
        checked_instances += 1
        pair_total += len(triples)
    return {
        "status": "ok",
        "seed": synth_config.seed,
        "instances_generated": synth_config.instances,
        "instances_checked": checked_instances,
        "trajectories_input": input_count,
        "trajectories_retained": retained_count,
        "critical_pairs": pair_total,
    }
