"""Reference copies of four `trajtree.synth` functions, and the text helpers
`render_truth` uses, as they stood before their per-step and per-pair costs
were cut. `TestMatchesReference` in test_synth.py checks that the current
functions give the same trajectories, retained sets, pair sets and rendered
text as these."""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from typing import Any, Iterable

from trajtree.model import Step, Trajectory
from trajtree.scoring import DEFAULT_THRESHOLD

_string = json.encoder.encode_basestring
_RECORD = " " * 4
_FIELD = _RECORD + "  "
_ITEM = _FIELD + "  "
_SUBITEM = _ITEM + "  "


def attach_observations(
    instance_id: str, trajectory_id: str, actions: list[str], resolved: int, prompt: str,
    divergent: bool, omit_final_obs: bool,
) -> Trajectory:
    suffix = f":{trajectory_id}" if divergent else ""
    prefix_hash = hashlib.sha1()
    separator = b""
    steps = []
    for i, action in enumerate(actions):
        prefix_hash.update(separator + action.encode("utf-8"))
        separator = b"|"
        if i == len(actions) - 1 and omit_final_obs:
            obs = None
        else:
            obs = f"obs[{instance_id}:{i + 1}:{prefix_hash.copy().hexdigest()[:10]}]{suffix}"
        steps.append(Step(action=action, observation=obs))
    return Trajectory(
        instance_id, trajectory_id, prompt, tuple(steps), resolved, {"source": "synth"},
    )


def intended_retained(ts: list[Trajectory]) -> list[Trajectory]:
    seen = set()
    kept = []
    for t in ts:
        keys = t.action_keys()
        key = (t.resolved, keys)
        if key in seen:
            continue
        seen.add(key)
        max_run = max(sum(1 for _ in group) for _, group in itertools.groupby(keys))
        if max_run >= 3:
            continue
        kept.append(t)
    if len(kept) <= 1:
        return kept
    firsts = Counter(t.action_keys()[0] for t in kept)
    return [t for t in kept if firsts[t.action_keys()[0]] > 1]


def brute_force_pairs(
    prefix_scores: dict[tuple[str, ...], tuple[int, int]],
    threshold: Fraction = DEFAULT_THRESHOLD,
) -> set[tuple[tuple[str, ...], str, str]]:
    threshold = Fraction(threshold)
    num, den = threshold.numerator, threshold.denominator
    children: dict[tuple[str, ...], list[str]] = {}
    for prefix in prefix_scores:
        if prefix:
            children.setdefault(prefix[:-1], []).append(prefix[-1])
    pairs = set()
    for parent, actions in children.items():
        if len(actions) < 2:
            continue
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                sa, na = prefix_scores[parent + (a,)]
                sb, nb = prefix_scores[parent + (b,)]
                cross = (sa * nb - sb * na) * den
                bound = num * na * nb
                if cross > bound:
                    pairs.add((parent, a, b))
                elif -cross > bound:
                    pairs.add((parent, b, a))
    return pairs


def _block(brackets: str, entries: list[str], indent: str) -> str:
    if not entries:
        return brackets
    inner = ",\n" + indent + "  "
    return brackets[0] + inner[1:] + inner.join(entries) + "\n" + indent + brackets[1]


def _strings(items: Iterable[str], indent: str) -> str:
    return _block("[]", [_string(item) for item in items], indent)


def render_truth(truth: dict[str, Any]) -> str:
    scores = truth["prefix_scores"]
    fields = [
        '"instance_id": ' + _string(truth["instance_id"]),
        '"oracle_pairs": ' + _block("[]", [
            _block("[]", [_strings(prefix, _SUBITEM), _string(chosen), _string(rejected)], _ITEM)
            for prefix, chosen, rejected in truth["oracle_pairs"]
        ], _FIELD),
        '"planted_pairs": ' + _block("[]", [
            _block("{}", [
                '"chosen": ' + _string(p["chosen"]),
                '"prefix": ' + _strings(p["prefix"], _SUBITEM),
                '"rejected": ' + _string(p["rejected"]),
            ], _ITEM)
            for p in truth["planted_pairs"]
        ], _FIELD),
        '"prefix_scores": ' + _block("{}", [
            f"{_string(key)}: [\n{_SUBITEM}{scores[key][0]},\n{_SUBITEM}{scores[key][1]}\n{_ITEM}]"
            for key in sorted(scores)
        ], _FIELD),
        '"retained": ' + _strings(truth["retained"], _FIELD),
    ]
    return _RECORD + _string(truth["instance_id"]) + ": " + _block("{}", fields, _RECORD)
