"""Node scoring by subtree success fraction and critical action extraction.

Scores are exact rationals (successful paths / total paths through the
subtree); two sibling actions form a critical pair when their scores
differ by strictly more than the threshold (default 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import ConfigError, InvariantError
from .model import CanonConfig
from .tree import ACTION, LEAF, TrajTree, iter_path_nodes

DEFAULT_THRESHOLD = Fraction(1, 2)

ALL_PAIRS = "all-pairs"
MAX_MIN = "max-min"


@dataclass(frozen=True)
class NodeScore:
    node_id: int
    successes: int
    total: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.successes, self.total)


@dataclass(frozen=True)
class Segment:
    role: str  # prompt | action | observation
    content: str


@dataclass(frozen=True)
class CriticalPair:
    instance_id: str
    context: tuple[Segment, ...]  # prompt, then alternating action/observation, raw text
    chosen: str
    rejected: str
    score_chosen: Fraction
    score_rejected: Fraction
    parent_node_id: int


def score_nodes(tree: TrajTree) -> dict[int, NodeScore]:
    """Subtree counts: leaf = its outcome over 1, internal = sum over children."""
    nodes = tree.nodes
    # breadth-first order puts every node after its parent, whatever the ids;
    # iterative, as real trajectories can exceed the recursion limit
    order = [tree.root_id]
    for node_id in order:
        order.extend(nodes[node_id].children)
    counts: dict[int, tuple[int, int]] = {}
    for node_id in reversed(order):  # children before their parent
        node = nodes[node_id]
        if node.kind == LEAF:
            assert node.outcome is not None
            counts[node_id] = (node.outcome, 1)
            continue
        successes = total = 0
        for child_id in node.children:
            s, n = counts[child_id]
            successes += s
            total += n
        counts[node_id] = (successes, total)
    if counts[tree.root_id][1] != tree.path_count:
        raise InvariantError(
            f"root path total {counts[tree.root_id][1]} != path_count {tree.path_count}"
        )
    return {node_id: NodeScore(node_id, s, n) for node_id, (s, n) in counts.items()}


def identify_critical_actions(
    tree: TrajTree,
    scores: dict[int, NodeScore],
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
    triples: list[tuple[int, int, int]] = []
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        node = tree.nodes[node_id]
        action_children = [c for c in node.children if tree.nodes[c].kind == ACTION]
        stack.extend(reversed(action_children))
        if len(action_children) < 2:
            continue
        counts = [(c, scores[c].successes, scores[c].total) for c in action_children]
        if pair_mode == MAX_MIN:
            hi = lo = counts[0]  # first maximum and first minimum, as max()/min() pick
            for cur in counts[1:]:
                if cur[1] * hi[2] > hi[1] * cur[2]:
                    hi = cur
                if cur[1] * lo[2] < lo[1] * cur[2]:
                    lo = cur
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


def extract_critical_pairs(
    tree: TrajTree,
    triples: list[tuple[int, int, int]],
    scores: dict[int, NodeScore],
    canon: CanonConfig = CanonConfig(),
) -> list[CriticalPair]:
    """Materialize pairs with their shared raw-text context prefix.

    Pairs identical after canonicalization (context + chosen + rejected)
    are emitted once, keeping the first occurrence. The canonical form is
    the nodes' stored action keys, which build_tree computed under the
    same `canon`; the parameter is kept for callers that pass it.
    """
    pairs: list[CriticalPair] = []
    seen: set[tuple] = set()
    # parent id -> (context segments, action keys on the path), built once per parent
    contexts: dict[int, tuple[tuple[Segment, ...], tuple[str, ...]]] = {}
    values: dict[int, Fraction] = {}  # node id -> its score, made once per node
    for parent_id, chosen_id, rejected_id in triples:
        if parent_id not in contexts:
            contexts[parent_id] = _context(tree, parent_id)
        context, path_keys = contexts[parent_id]
        chosen = tree.nodes[chosen_id]
        rejected = tree.nodes[rejected_id]
        assert chosen.action_raw is not None and rejected.action_raw is not None
        signature = (path_keys, chosen.action_key, rejected.action_key)
        if signature in seen:
            continue
        seen.add(signature)
        for node_id in (chosen_id, rejected_id):
            if node_id not in values:
                values[node_id] = scores[node_id].value
        pairs.append(
            CriticalPair(
                instance_id=tree.instance_id,
                context=context,
                chosen=chosen.action_raw,
                rejected=rejected.action_raw,
                score_chosen=values[chosen_id],
                score_rejected=values[rejected_id],
                parent_node_id=parent_id,
            )
        )
    return pairs


def _context(tree: TrajTree, parent_id: int) -> tuple[tuple[Segment, ...], tuple[str, ...]]:
    """Raw-text context up to and including parent_id, plus its canonical key path."""
    segments = [Segment("prompt", tree.prompt)]
    keys = []
    for node in iter_path_nodes(tree, parent_id):
        assert node.action_raw is not None and node.action_key is not None
        if node.observation is None:
            raise InvariantError(
                f"context node {node.node_id} in {tree.instance_id!r} "
                "lacks an observation"
            )
        segments.append(Segment("action", node.action_raw))
        segments.append(Segment("observation", node.observation))
        keys.append(node.action_key)
    return tuple(segments), tuple(keys)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def scored_tree_to_dict(tree: TrajTree, scores: dict[int, NodeScore]) -> dict[str, Any]:
    """Tree export with per-node score columns joined on."""
    from .tree import tree_to_dict

    out = tree_to_dict(tree)
    for node in out["nodes"]:
        score = scores[node["node_id"]]
        node["successes"] = score.successes
        node["total"] = score.total
        node["score"] = f"{score.successes}/{score.total}"
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
