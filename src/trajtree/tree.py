"""Prefix-merged trajectory trees, one per task instance.

Internal nodes are actions (merged on canonical action key by default),
leaves carry the binary outcome of one retained trajectory. Every
root-to-leaf path reproduces exactly one retained trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .errors import InputError
from .model import CanonConfig, Trajectory

ROOT = "root"
ACTION = "action"
LEAF = "leaf"


@dataclass
class TreeNode:
    node_id: int
    kind: str  # root | action | leaf
    action_key: str | None = None
    action_raw: str | None = None  # first-merged occurrence, preserved verbatim
    observation: str | None = None
    children: list[int] = field(default_factory=list)
    outcome: int | None = None  # leaves only
    trajectory_id: str | None = None  # leaves only (provenance)
    parent_id: int | None = None  # None only at the root; not exported


@dataclass
class TrajTree:
    instance_id: str
    prompt: str
    nodes: dict[int, TreeNode]
    root_id: int
    path_count: int
    trajectory_ids: list[str]
    observation_divergences: int = 0  # merges where recorded observations disagreed


def build_tree(
    instance_id: str,
    prompt: str,
    ts: list[Trajectory],
    canon: CanonConfig = CanonConfig(),
    strict_merge: bool = False,
) -> TrajTree:
    """Insert each trajectory along shared-prefix action nodes, then append its leaf.

    strict_merge widens the merge key from the canonical action to
    (action, observation), for nondeterministic environments.
    """
    if not ts:
        raise InputError(f"instance {instance_id!r} has no trajectories")
    root = TreeNode(node_id=0, kind=ROOT)
    nodes = {0: root}
    # (parent id, action key[, observation]) -> the action child it merges into
    merged: dict[tuple, TreeNode] = {}
    divergences = 0
    next_id = 1
    seen_ids: set[str] = set()
    for t in ts:
        if t.instance_id != instance_id:
            raise InputError(
                f"trajectory {t.trajectory_id!r} belongs to {t.instance_id!r}, "
                f"not {instance_id!r}"
            )
        if t.trajectory_id in seen_ids:  # two leaves with one id: ambiguous provenance
            raise InputError(
                f"duplicate trajectory_id {t.trajectory_id!r} in instance {instance_id!r}"
            )
        seen_ids.add(t.trajectory_id)
        if t.prompt != prompt:
            raise InputError(f"prompt mismatch in instance {instance_id!r}")
        cur = root
        for key, step in zip(t.action_keys(canon), t.steps):
            merge_key = (
                (cur.node_id, key, step.observation) if strict_merge else (cur.node_id, key)
            )
            match = merged.get(merge_key)
            if match is None:
                match = TreeNode(
                    node_id=next_id,
                    kind=ACTION,
                    action_key=key,
                    action_raw=step.action,
                    observation=step.observation,
                    parent_id=cur.node_id,
                )
                nodes[next_id] = match
                merged[merge_key] = match
                cur.children.append(next_id)
                next_id += 1
            else:
                if match.observation is None:
                    match.observation = step.observation
                elif step.observation is not None and step.observation != match.observation:
                    divergences += 1  # keep first-seen text
            cur = match
        leaf = TreeNode(
            node_id=next_id,
            kind=LEAF,
            outcome=t.resolved,
            trajectory_id=t.trajectory_id,
            parent_id=cur.node_id,
        )
        nodes[next_id] = leaf
        cur.children.append(next_id)
        next_id += 1
    return TrajTree(
        instance_id=instance_id,
        prompt=prompt,
        nodes=nodes,
        root_id=0,
        path_count=len(ts),
        trajectory_ids=[t.trajectory_id for t in ts],
        observation_divergences=divergences,
    )


def enumerate_paths(tree: TrajTree) -> list[tuple[tuple[str, ...], int, str]]:
    """Depth-first, child-order-stable list of (action keys, outcome, trajectory_id)."""
    out: list[tuple[tuple[str, ...], int, str]] = []
    # explicit stack: trajectories can be long
    stack: list[tuple[int, tuple[str, ...]]] = [(tree.root_id, ())]
    while stack:
        node_id, prefix = stack.pop()
        node = tree.nodes[node_id]
        if node.kind == LEAF:
            assert node.outcome is not None and node.trajectory_id is not None
            out.append((prefix, node.outcome, node.trajectory_id))
            continue
        if node.kind == ACTION:
            assert node.action_key is not None
            prefix = prefix + (node.action_key,)
        for child_id in reversed(node.children):
            stack.append((child_id, prefix))
    return out


def iter_path_nodes(tree: TrajTree, node_id: int) -> Iterator[TreeNode]:
    """Action nodes on the root-to-node path, in root-first order (node included)."""
    path = []
    cur = tree.nodes[node_id]
    while cur.node_id != tree.root_id:
        path.append(cur)
        assert cur.parent_id is not None
        cur = tree.nodes[cur.parent_id]
    yield from reversed(path)


def path_lengths(tree: TrajTree) -> list[tuple[int, int, int]]:
    """(char length, step count, outcome) per root-to-leaf path."""
    out = []
    stack: list[tuple[int, int, int]] = [(tree.root_id, len(tree.prompt), 0)]
    while stack:
        node_id, chars, depth = stack.pop()
        node = tree.nodes[node_id]
        if node.kind == LEAF:
            out.append((chars, depth, node.outcome or 0))
            continue
        if node.kind == ACTION:
            chars += len(node.action_raw or "")
            chars += len(node.observation or "")
            depth += 1
        for child_id in node.children:
            stack.append((child_id, chars, depth))
    return out


def path_stats(paths: list[tuple[int, int, int]], instance_count: int) -> dict[str, Any]:
    """Corpus statistics from every tree's `path_lengths`: counts, approximate
    token length, average path length.

    Token length is approximated as characters / 4 so no tokenizer is
    required; the exact character average is reported alongside.
    """
    n = len(paths)
    successful = sum(1 for _, _, outcome in paths if outcome == 1)
    avg_chars = sum(chars for chars, _, _ in paths) / n if n else 0.0
    avg_steps = sum(steps for _, steps, _ in paths) / n if n else 0.0
    return {
        "instance_count": instance_count,
        "trajectory_count": n,
        "successful_count": successful,
        "wrong_count": n - successful,
        "avg_char_len": avg_chars,
        "avg_token_len": round(avg_chars / 4),
        "avg_path_len": avg_steps,
        "critical_pair_count": None,  # joined in by the emission stage
    }


def tree_stats(trees: list[TrajTree]) -> dict[str, Any]:
    """`path_stats` over the trees' paths."""
    return path_stats([p for tree in trees for p in path_lengths(tree)], len(trees))


def tree_to_dict(tree: TrajTree) -> dict[str, Any]:
    """Export schema consumed by scoring joins and visualization tools."""
    return {
        "instance_id": tree.instance_id,
        "prompt": tree.prompt,
        "root_id": tree.root_id,
        "path_count": tree.path_count,
        "trajectory_ids": list(tree.trajectory_ids),
        "observation_divergences": tree.observation_divergences,
        "nodes": [
            {
                "node_id": node.node_id,
                "kind": node.kind,
                "action_key": node.action_key,
                "action_raw": node.action_raw,
                "observation": node.observation,
                "children": list(node.children),
                "outcome": node.outcome,
                "trajectory_id": node.trajectory_id,
            }
            for node in (tree.nodes[nid] for nid in sorted(tree.nodes))
        ],
    }
