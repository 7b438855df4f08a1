"""Dataset emission: masked-SFT examples, DPO pairs, and run statistics.

All emitted text is raw trajectory text, never the canonicalized form.
Loss masks are segment-granular; trainers tokenize and broadcast them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, NamedTuple

from .ingest import IngestReport
from .scoring import CriticalPair, Segment, format_rational, subtree_counts
from .tree import TrajTree, path_totals
from .model import Trajectory


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
