"""Dataset emission: masked-SFT examples, DPO pairs, and run statistics.

All emitted text is raw trajectory text, never the canonicalized form.
Loss masks are segment-granular; trainers tokenize and broadcast them.

The dataset commands render every file here: `_LINES` gives a JSON-lines
file's lines for one instance, spliced from pieces encoded once, and
`_DOCS` a whole-corpus document as a dict. The tests pin both to the dict
exports (`sft_to_dict`, `dpo_to_dict`, ...).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add
from typing import Any, Callable, Iterable, NamedTuple, TextIO

from .ingest import IngestReport
from .model import Trajectory, _string, serialize_trajectory
from .pipeline import StageConfig, mine_instance
from .scoring import CriticalPair, Segment, format_ratio, format_rational, subtree_counts
from .tree import TrajTree, path_ids, path_totals


class MaskedSegment(NamedTuple):
    role: str  # prompt | action | observation
    content: str
    loss: bool  # actions train; prompt and observations are masked out


class SftExample(NamedTuple):
    instance_id: str
    trajectory_id: str
    segments: tuple[MaskedSegment, ...]


class DpoExample(NamedTuple):
    instance_id: str
    context: tuple[Segment, ...]
    chosen: str
    rejected: str
    score_chosen: Fraction
    score_rejected: Fraction


def emit_sft(trajectories: Iterable[Trajectory]) -> tuple[list[SftExample], int]:
    """One example per resolved trajectory; failures never appear.

    Returns (examples, warning_count); the warning counts an input that
    yielded no successful trajectory at all.
    """
    out = []
    saw_any = False
    for t in trajectories:
        saw_any = True
        if t.resolved != 1:
            continue
        segments = [MaskedSegment("prompt", t.prompt, loss=False)]
        for step in t.steps:
            segments.append(MaskedSegment("action", step.action, loss=True))
            if step.observation is not None:
                segments.append(MaskedSegment("observation", step.observation, loss=False))
        out.append(SftExample(t.instance_id, t.trajectory_id, tuple(segments)))
    warnings = 1 if saw_any and not out else 0
    return out, warnings


def emit_dpo(pairs: Iterable[CriticalPair]) -> list[DpoExample]:
    """Mirror extracted pairs in extraction order (instance, parent node, pair index)."""
    return [
        DpoExample(p.instance_id, p.context, p.chosen, p.rejected, p.score_chosen, p.score_rejected)
        for p in pairs
    ]


def emit_stats(
    report: IngestReport | None,
    trees: list[TrajTree],
    pairs: list[CriticalPair],
) -> dict[str, Any]:
    """`stats_from_totals` over the trees' summed `path_totals`."""
    totals = map(sum, zip((0, 0, 0, 0), *(path_totals(t, *subtree_counts(t)) for t in trees)))
    divergences = sum(t.observation_divergences for t in trees)
    return stats_from_totals(report, totals, len(trees), len(pairs), divergences)


def stats_from_totals(
    report: IngestReport | None,
    totals: Iterable[int],
    instance_count: int,
    pair_count: int,
    divergences: int,
) -> dict[str, Any]:
    """The `stats.json` record from whole-corpus sums: every tree's
    `path_totals` summed, and the instance, pair and observation-divergence
    counts, plus the ingest report when there is one.

    Token length is approximated as characters / 4 so no tokenizer is
    required; the exact character average is reported alongside.
    """
    n, successful, chars, steps = totals
    avg_chars = chars / n if n else 0.0
    stats = {
        "instance_count": instance_count,
        "trajectory_count": n,
        "successful_count": successful,
        "wrong_count": n - successful,
        "avg_char_len": avg_chars,
        "avg_token_len": round(avg_chars / 4),
        "avg_path_len": steps / n if n else 0.0,
        "critical_pair_count": pair_count,
        "observation_divergences": divergences,
    }
    if report is not None:
        stats["ingest"] = report.to_dict()
    return stats


class _Instance:
    """One instance's trajectories and, built on first use, its mined tree and
    the pieces every file's lines for it are spliced from. It is dropped
    before the next instance's tree is built."""

    def __init__(self, instance_id: str, ts: list[Trajectory], stage: StageConfig) -> None:
        self.instance_id, self.ts, self.stage = instance_id, ts, stage

    @cached_property
    def mined(self) -> tuple[TrajTree, list[int], list[int], list[tuple[int, int, int]]]:
        return mine_instance(self.instance_id, self.ts, self.stage)

    @cached_property
    def tree_parts(self) -> tuple[str, list[str]]:
        """The tree_to_dict record up to `"nodes":[`, and each node's JSON without
        its `}`, for trees.jsonl and scored_trees.jsonl, as the compact encoder
        writes them. A leaf, as build_tree makes it, has no text and no children."""
        tree = self.mined[0]
        bodies = []
        for node_id, (key, raw, text, children, outcome, tid) in enumerate(zip(
            tree.action_key, tree.action_raw, tree.observation, tree.children, tree.outcome,
            tree.trajectory_id,
        )):
            if key is not None:
                key_text = _string(key)  # the raw text's JSON too, when the raw text is the key
                kids = str(children[0]) if len(children) == 1 else ",".join(map(str, children))
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"action","action_key":{key_text}'
                    f',"action_raw":{key_text if raw == key else _string(raw)}'
                    f',"observation":{"null" if text is None else _string(text)}'
                    f',"children":[{kids}],"outcome":null,"trajectory_id":null'
                )
            elif outcome is not None:
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"leaf","action_key":null,"action_raw":null'
                    f',"observation":null,"children":[],"outcome":{outcome}'
                    f',"trajectory_id":{_string(tid)}'
                )
            else:
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"root","action_key":null,"action_raw":null'
                    f',"observation":null,"children":[{",".join(map(str, children))}]'
                    ',"outcome":null,"trajectory_id":null'
                )
        head = (
            f'{{"instance_id":{_string(tree.instance_id)},"prompt":{_string(tree.prompt)}'
            f',"root_id":{tree.root_id},"path_count":{tree.path_count}'
            f',"trajectory_ids":[{",".join(map(_string, tree.trajectory_ids))}]'
            f',"observation_divergences":{tree.observation_divergences},"nodes":['
        )
        return head, bodies

    @cached_property
    def pair_parts(self) -> list[tuple[str, str, str, str]]:
        """Per pair: `{"instance_id":…`, `,"parent_node_id":N`, `,"context":[…]`
        (encoded once per parent) and `,"chosen":…}` with its newline. A
        pairs.jsonl line joins all four; a dpo.jsonl line skips the second."""
        tree, successes, totals, triples = self.mined
        head = '{"instance_id":' + _string(self.instance_id)
        contexts: dict[int, str] = {}
        # node id -> its raw action's JSON, and its score as "num/den" and as the
        # encoder writes float(Fraction(s, n)), which is s / n: repr(s / n)
        texts: dict[int, tuple[str, str, str]] = {}
        parts = []
        for parent_id, chosen, rejected in triples:
            if parent_id not in contexts:
                contexts[parent_id] = _context(tree, parent_id)
            for i in (chosen, rejected):
                if i not in texts:
                    s, n = successes[i], totals[i]
                    texts[i] = (_string(tree.action_raw[i]), format_ratio(s, n), repr(s / n))
            chosen_raw, chosen_ratio, chosen_decimal = texts[chosen]
            rejected_raw, rejected_ratio, rejected_decimal = texts[rejected]
            tail = (
                f',"chosen":{chosen_raw},"rejected":{rejected_raw}'
                f',"score_chosen":"{chosen_ratio}","score_rejected":"{rejected_ratio}"'
                f',"score_chosen_decimal":{chosen_decimal}'
                f',"score_rejected_decimal":{rejected_decimal}}}\n'
            )
            parts.append((head, f',"parent_node_id":{parent_id}', contexts[parent_id], tail))
        return parts


def _context(tree: TrajTree, parent_id: int) -> str:
    """`,"context":[…]` of the pairs below `parent_id`: the prompt, then each
    path node's action and observation, as the compact encoder writes them."""
    segments = "".join(
        f',{{"role":"action","content":{_string(tree.action_raw[node_id])}}}'
        f',{{"role":"observation","content":{_string(tree.observation[node_id])}}}'
        for node_id in path_ids(tree, parent_id)
    )
    return f',"context":[{{"role":"prompt","content":{_string(tree.prompt)}}}{segments}]'


class _Run:
    """One dataset command's whole-corpus state: the ingest report, and the
    counts stats.json and the sft warning are made from."""

    def __init__(self, report: IngestReport | None) -> None:
        self.report = report
        self.totals = [0, 0, 0, 0]  # every tree's path_totals, summed
        self.instances = self.pair_count = self.divergences = self.sft_examples = 0


def _scored_tree_line(run: _Run, inst: _Instance) -> str:
    """Each node's trees.jsonl body with scored_tree_to_dict's columns appended,
    formatted once per distinct (successes, total) of the instance."""
    head, bodies = inst.tree_parts
    _, successes, totals, _ = inst.mined
    columns = {
        (s, n): f',"successes":{s},"total":{n},"score":"{s}/{n}"}}'
        for s, n in set(zip(successes, totals))
    }
    scored = map(add, bodies, map(columns.__getitem__, zip(successes, totals)))
    return head + ",".join(scored) + "]}\n"


def _sft_lines(run: _Run, inst: _Instance) -> str:
    """sft_to_dict's record for each resolved trajectory, formatted field by
    field; the prompt segment is encoded once, as group_by_instance gives an
    instance one prompt."""
    head = '{"instance_id":' + _string(inst.instance_id) + ',"trajectory_id":'
    prompt = (
        ',"segments":[{"role":"prompt","content":' + _string(inst.ts[0].prompt) + ',"loss":false}'
    )
    lines = []
    for t in inst.ts:
        if t.resolved != 1:
            continue
        lines.append(head + _string(t.trajectory_id) + prompt)
        for s in t.steps:
            lines.append(f',{{"role":"action","content":{_string(s.action)},"loss":true}}')
            if s.observation is not None:
                lines.append(
                    f',{{"role":"observation","content":{_string(s.observation)},"loss":false}}'
                )
        lines.append("]}\n")
        run.sft_examples += 1
    return "".join(lines)


# file -> its lines for one instance; each file is these, instance by instance
_LINES: dict[str, Callable[[_Run, _Instance], str]] = {
    "retained.jsonl": lambda run, inst: "".join(serialize_trajectory(t) + "\n" for t in inst.ts),
    "trees.jsonl": lambda run, inst: inst.tree_parts[0] + "},".join(inst.tree_parts[1]) + "}]}\n",
    "scored_trees.jsonl": _scored_tree_line,
    "pairs.jsonl": lambda run, inst: "".join(chain.from_iterable(inst.pair_parts)),
    "sft.jsonl": _sft_lines,
    "dpo.jsonl": lambda run, inst: "".join(
        piece for head, _, context, tail in inst.pair_parts for piece in (head, context, tail)
    ),
}

# file -> the whole-corpus document written after the last instance
_DOCS: dict[str, Callable[[_Run], dict[str, Any]]] = {
    "ingest_report.json": lambda run: run.report.to_dict(),
    "stats.json": lambda run: stats_from_totals(
        run.report, run.totals, run.instances, run.pair_count, run.divergences
    ),
}


def _write_instance(run: _Run, files: dict[str, TextIO], inst: _Instance) -> None:
    for name, fh in files.items():
        if name in _LINES:
            fh.write(_LINES[name](run, inst))
    run.instances += 1
    if "stats.json" in files:  # the sums stats.json is made from
        tree, successes, totals, triples = inst.mined
        run.totals = [a + b for a, b in zip(run.totals, path_totals(tree, successes, totals))]
        run.pair_count += len(triples)
        run.divergences += tree.observation_divergences


def sft_to_dict(ex: SftExample) -> dict[str, Any]:
    return {
        "instance_id": ex.instance_id,
        "trajectory_id": ex.trajectory_id,
        "segments": [
            {"role": s.role, "content": s.content, "loss": s.loss} for s in ex.segments
        ],
    }


def dpo_to_dict(ex: DpoExample) -> dict[str, Any]:
    return {
        "instance_id": ex.instance_id,
        "context": [{"role": s.role, "content": s.content} for s in ex.context],
        "chosen": ex.chosen,
        "rejected": ex.rejected,
        "score_chosen": format_rational(ex.score_chosen),
        "score_rejected": format_rational(ex.score_rejected),
        "score_chosen_decimal": float(ex.score_chosen),
        "score_rejected_decimal": float(ex.score_rejected),
    }
