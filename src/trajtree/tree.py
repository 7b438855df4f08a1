"""Prefix-merged trajectory trees, one per task instance.

Internal nodes are actions (merged on canonical action key by default),
leaves carry the binary outcome of one retained trajectory. Every
root-to-leaf path reproduces exactly one retained trajectory.

A tree is parallel lists indexed by node id. Ids are the tree's order:
the root is node 0 and every child's id is above its parent's, so each
sweep over a tree is a range over the ids. `TrajTree.nodes` is a
`TreeNode` view of the lists, built when a library caller reads it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, NamedTuple

from .errors import InputError
from .model import CanonConfig, Trajectory, _Record

ROOT = "root"
ACTION = "action"
LEAF = "leaf"


class TreeNode(NamedTuple):  # one node as `TrajTree.nodes` presents it
    node_id: int
    kind: str  # root | action | leaf
    action_key: str | None
    action_raw: str | None  # first-merged occurrence, preserved verbatim
    observation: str | None
    children: list[int]
    outcome: int | None  # leaves only
    trajectory_id: str | None  # leaves only (provenance)
    parent_id: int | None  # None only at the root; not exported


class TrajTree(_Record):
    """One instance's tree as lists indexed by node id: an action node has a key
    and its first-merged raw text, verbatim; a leaf an outcome and (provenance)
    a trajectory_id; the root neither. The root is node 0, and every other
    node's parent has a lower id: `parent[0] == -1`, `0 <= parent[i] < i`."""

    root_id = 0
    _fields = (
        "instance_id", "prompt", "path_count", "trajectory_ids", "observation_divergences",
        "parent", "action_key", "action_raw", "observation", "outcome", "trajectory_id",
        "children",
    )

    def __init__(
        self, instance_id: str, prompt: str, path_count: int, trajectory_ids: list[str],
        observation_divergences: int,  # merges where recorded observations disagreed
        parent: list[int],
        action_key: list[str | None], action_raw: list[str | None], observation: list[str | None],
        outcome: list[int | None], trajectory_id: list[str | None], children: list[list[int]],
    ) -> None:
        self.__dict__.update(zip(self._fields, (
            instance_id, prompt, path_count, trajectory_ids, observation_divergences, parent,
            action_key, action_raw, observation, outcome, trajectory_id, children,
        )))

    @cached_property
    def nodes(self) -> dict[int, TreeNode]:
        """The lists as one `TreeNode` per node id, for library callers."""
        return {
            i: TreeNode(
                i, ACTION if key is not None else ROOT if outcome is None else LEAF,
                key, self.action_raw[i], self.observation[i], list(self.children[i]), outcome,
                self.trajectory_id[i], None if i == 0 else self.parent[i],
            )
            for i, (key, outcome) in enumerate(zip(self.action_key, self.outcome))
        }


def build_tree(
    instance_id: str,
    prompt: str,
    ts: list[Trajectory],
    canon: CanonConfig = CanonConfig(),
    strict_merge: bool = False,
) -> TrajTree:
    """Insert each trajectory along shared-prefix action nodes, then append its leaf.

    Every node gets the next free id, so a child's id is above its parent's.
    strict_merge widens the merge key from the canonical action to
    (action, observation), for nondeterministic environments.
    """
    if not ts:
        raise InputError(f"instance {instance_id!r} has no trajectories")
    # per node: (parent, action key, raw action, outcome, trajectory id); the
    # observation, which a later merge may fill in, and the children apart
    rows: list[tuple] = [(-1, None, None, None, None)]
    obs: list[str | None] = [None]
    children: list[list[int]] = [[]]
    # (parent id, action key[, observation]) -> the action child it merges into
    merged: dict[tuple, int] = {}
    divergences = 0
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
        cur = 0
        for key, (action, observation) in zip(t.action_keys(canon), t.steps):
            merge_key = (cur, key, observation) if strict_merge else (cur, key)
            node = merged.get(merge_key)
            if node is None:
                node = merged[merge_key] = len(rows)
                children[cur].append(node)
                rows.append((cur, key, action, None, None))
                obs.append(observation)
                children.append([])
            elif observation is not None:
                if obs[node] is None:
                    obs[node] = observation
                elif observation != obs[node]:
                    divergences += 1  # keep first-seen text
            cur = node
        children[cur].append(len(rows))
        rows.append((cur, None, None, t.resolved, t.trajectory_id))
        obs.append(None)
        children.append([])
    parent, key, raw, outcome, tid = map(list, zip(*rows))
    return TrajTree(
        instance_id, prompt, len(ts), [t.trajectory_id for t in ts], divergences,
        parent, key, raw, obs, outcome, tid, children,
    )


def enumerate_paths(tree: TrajTree) -> list[tuple[tuple[str, ...], int, str]]:
    """(action keys, outcome, trajectory_id) per leaf, in leaf id order."""
    return [
        (tuple(tree.action_key[i] for i in path_ids(tree, tree.parent[leaf])), outcome,
         tree.trajectory_id[leaf])
        for leaf, outcome in enumerate(tree.outcome)
        if outcome is not None
    ]


def path_ids(tree: TrajTree, node_id: int) -> list[int]:
    """Action node ids on the root-to-node path, in root-first order (node included)."""
    path = []
    while node_id:
        path.append(node_id)
        node_id = tree.parent[node_id]
    path.reverse()
    return path


def path_totals(
    tree: TrajTree, successes: list[int], totals: list[int]
) -> tuple[int, int, int, int]:
    """(paths, successful paths, char length, step count), the last two
    summed over the root-to-leaf paths, from the tree's `subtree_counts`:
    the prompt and each action node's text and step lie on `totals[node]` paths."""
    chars, steps = len(tree.prompt) * totals[0], 0
    for paths, action, observation in zip(totals, tree.action_raw, tree.observation):
        if action is not None:  # an action node; the root and leaves have no text
            chars += paths * (len(action) + len(observation or ""))
            steps += paths
    return totals[0], successes[0], chars, steps


def tree_to_dict(tree: TrajTree) -> dict[str, Any]:
    """Export schema consumed by scoring joins and visualization tools."""
    return {
        "instance_id": tree.instance_id,
        "prompt": tree.prompt,
        "root_id": tree.root_id,
        "path_count": tree.path_count,
        "trajectory_ids": list(tree.trajectory_ids),
        "observation_divergences": tree.observation_divergences,
        "nodes": [  # in id order
            {k: list(v) if k == "children" else v
             for k, v in node._asdict().items() if k != "parent_id"}
            for node in tree.nodes.values()
        ],
    }
