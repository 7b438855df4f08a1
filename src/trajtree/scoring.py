"""Node scoring by subtree success fraction and critical action extraction.

Scores are exact rationals (successful paths / total paths through the
subtree), kept as two integer lists per tree; two sibling actions form a
critical pair when their scores differ by strictly more than the threshold
(default 1/2). `NodeScore` and `CriticalPair` are library views of those
integers and of node-id triples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any, NamedTuple

from .errors import ConfigError, InvariantError
from .model import CanonConfig
from .tree import TrajTree, path_ids, tree_to_dict

DEFAULT_THRESHOLD = Fraction(1, 2)

ALL_PAIRS = "all-pairs"
MAX_MIN = "max-min"


class NodeScore(NamedTuple):
    node_id: int
    successes: int
    total: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.successes, self.total)


class Segment(NamedTuple):
    role: str  # prompt | action | observation
    content: str


class CriticalPair(NamedTuple):
    instance_id: str
    context: tuple[Segment, ...]  # prompt, then alternating action/observation, raw text
    chosen: str
    rejected: str
    score_chosen: Fraction
    score_rejected: Fraction
    parent_node_id: int


def subtree_counts(tree: TrajTree) -> tuple[list[int], list[int]]:
    """Successes and totals per node id: a leaf is its outcome over 1, an inner
    node the sum over its children, in one sweep down the ids, so every child
    is summed before its parent."""
    successes = [outcome or 0 for outcome in tree.outcome]
    totals = [0 if outcome is None else 1 for outcome in tree.outcome]
    parent = tree.parent
    for node_id in range(len(parent) - 1, 0, -1):
        successes[parent[node_id]] += successes[node_id]
        totals[parent[node_id]] += totals[node_id]
    if totals[0] != tree.path_count:
        raise InvariantError(f"root path total {totals[0]} != path_count {tree.path_count}")
    return successes, totals


def score_nodes(tree: TrajTree) -> dict[int, NodeScore]:
    """`subtree_counts` as one `NodeScore` per node id."""
    return {i: NodeScore(i, s, n) for i, (s, n) in enumerate(zip(*subtree_counts(tree)))}


def critical_triples(
    tree: TrajTree,
    successes: list[int],
    totals: list[int],
    threshold: Fraction = DEFAULT_THRESHOLD,
    pair_mode: str = ALL_PAIRS,
) -> list[tuple[int, int, int]]:
    """(parent, chosen child, rejected child) triples with score gap > threshold.

    Only action children participate; leaf children terminate a
    trajectory and carry no contrastable action. all-pairs emits every
    qualifying unordered pair; max-min emits at most one per parent.
    """
    threshold = Fraction(threshold)
    if not (0 < threshold < 1):
        raise ConfigError(f"critical threshold must be in (0, 1), got {threshold}")
    if pair_mode not in (ALL_PAIRS, MAX_MIN):
        raise ConfigError(f"unknown pair mode {pair_mode!r}")
    # a/b - c/d > num/den  <=>  (a*d - c*b) * den > num * b * d, all integers
    num, den = threshold.numerator, threshold.denominator
    key, children = tree.action_key, tree.children
    triples: list[tuple[int, int, int]] = []
    stack = [0]
    while stack:
        node_id = stack.pop()
        if len(children[node_id]) == 1:  # most nodes: the walk goes on or stops
            if key[children[node_id][0]] is not None:
                stack.append(children[node_id][0])
            continue
        action_children = [c for c in children[node_id] if key[c] is not None]
        stack.extend(reversed(action_children))
        if len(action_children) < 2:
            continue
        counts = [(c, successes[c], totals[c]) for c in action_children]
        if pair_mode == MAX_MIN:
            # max and min return the first extreme, by exact score
            hi = max(counts, key=lambda c: Fraction(c[1], c[2]))
            lo = min(counts, key=lambda c: Fraction(c[1], c[2]))
            if (hi[1] * lo[2] - lo[1] * hi[2]) * den > num * hi[2] * lo[2]:
                triples.append((node_id, hi[0], lo[0]))
            continue
        for i, (a, sa, ta) in enumerate(counts):
            for b, sb, tb in counts[i + 1 :]:
                cross = (sa * tb - sb * ta) * den
                bound = num * ta * tb
                if cross > bound:
                    triples.append((node_id, a, b))
                elif -cross > bound:
                    triples.append((node_id, b, a))
    return triples


def identify_critical_actions(
    tree: TrajTree,
    scores: dict[int, NodeScore],
    threshold: Fraction = DEFAULT_THRESHOLD,
    pair_mode: str = ALL_PAIRS,
) -> list[tuple[int, int, int]]:
    """`critical_triples` on `NodeScore`s."""
    successes, totals = [0] * len(tree.parent), [0] * len(tree.parent)
    for node_id, score in scores.items():
        successes[node_id], totals[node_id] = score.successes, score.total
    return critical_triples(tree, successes, totals, threshold, pair_mode)


def distinct_triples(
    tree: TrajTree, triples: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """The triples whose pair differs after canonicalization (action keys on
    the parent's path, chosen key, rejected key), each at its first
    occurrence. Every node on a parent's path must carry an observation."""
    key, obs = tree.action_key, tree.observation
    paths: dict[int, tuple[str, ...]] = {}  # parent id -> the action keys on its path
    seen: set[tuple] = set()
    out = []
    for triple in triples:
        parent_id, chosen, rejected = triple
        path = paths.get(parent_id)
        if path is None:
            ids = path_ids(tree, parent_id)
            if any(obs[i] is None for i in ids):
                message = f"context of node {parent_id} in {tree.instance_id!r} lacks observations"
                raise InvariantError(message)
            path = paths[parent_id] = tuple(key[i] for i in ids)
        signature = (path, key[chosen], key[rejected])
        if signature not in seen:
            seen.add(signature)
            out.append(triple)
    return out


def extract_critical_pairs(
    tree: TrajTree,
    triples: list[tuple[int, int, int]],
    scores: dict[int, NodeScore],
    canon: CanonConfig = CanonConfig(),
) -> list[CriticalPair]:
    """`distinct_triples` as pairs with their shared raw-text context prefix.
    `canon` is unused (build_tree stored the keys), kept for callers."""
    raw, obs = tree.action_raw, tree.observation
    contexts: dict[int, tuple[Segment, ...]] = {}  # parent id -> its context, made once
    pairs = []
    for parent_id, chosen, rejected in distinct_triples(tree, triples):
        if parent_id not in contexts:
            segments = [Segment("prompt", tree.prompt)]
            for i in path_ids(tree, parent_id):
                segments += (Segment("action", raw[i]), Segment("observation", obs[i]))
            contexts[parent_id] = tuple(segments)
        pairs.append(CriticalPair(
            tree.instance_id, contexts[parent_id], raw[chosen], raw[rejected],
            scores[chosen].value, scores[rejected].value, parent_id,
        ))
    return pairs


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_ratio(successes: int, total: int) -> str:
    """`format_rational(Fraction(successes, total))` without the Fraction."""
    g = gcd(successes, total)
    return f"{successes // g}/{total // g}"


def scored_tree_to_dict(tree: TrajTree, scores: dict[int, NodeScore]) -> dict[str, Any]:
    """Tree export with per-node score columns joined on."""
    out = tree_to_dict(tree)
    for node in out["nodes"]:
        s, n = scores[node["node_id"]].successes, scores[node["node_id"]].total
        node.update(successes=s, total=n, score=f"{s}/{n}")
    return out


def pair_to_dict(pair: CriticalPair) -> dict[str, Any]:
    """Line-record export; scores as exact "num/den" strings plus decimals."""
    return {
        "instance_id": pair.instance_id,
        "parent_node_id": pair.parent_node_id,
        "context": [{"role": s.role, "content": s.content} for s in pair.context],
        "chosen": pair.chosen,
        "rejected": pair.rejected,
        "score_chosen": format_rational(pair.score_chosen),
        "score_rejected": format_rational(pair.score_rejected),
        "score_chosen_decimal": float(pair.score_chosen),
        "score_rejected_decimal": float(pair.score_rejected),
    }
