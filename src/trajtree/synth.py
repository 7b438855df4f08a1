"""Seeded synthetic corpora with planted structure, plus brute-force oracles.

The oracles work on flat prefix multisets and never touch the tree code,
so they can independently check node scoring and pair extraction.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .model import CanonConfig, Step, Trajectory, _string, key_memo
from .pipeline import SynthConfig  # defined with StageConfig; importable from here too
from .scoring import DEFAULT_THRESHOLD

PREFIX_JOIN = ""  # unit separator; cannot appear in canonical keys we generate
_instance_name = "inst{:04d}".format  # an instance's name from its index


def _attach_observations(
    instance_id: str, trajectory_id: str, actions: list[str], resolved: int, prompt: str,
    divergent: bool, omit_final_obs: bool, key_of: Callable[[str], str],
) -> Trajectory:
    """The observation after the first k actions is `obs[instance_id:k:digest]`,
    digest being the sha1 of those actions joined by "|". It comes from the
    one running hash itself, with no copy: a hashlib object can still be
    updated after a digest. Its default action_keys come from `key_of`."""
    import hashlib  # loads libcrypto; only synthesis hashes anything

    head, tail = f"obs[{instance_id}:", f"]:{trajectory_id}" if divergent else "]"
    running = hashlib.sha1()
    update, hexdigest = running.update, running.hexdigest
    separator = b""
    steps = []
    for k, action in enumerate(actions, 1):
        update(separator + action.encode("utf-8"))
        separator = b"|"
        steps.append(tuple.__new__(Step, (action, f"{head}{k}:{hexdigest()[:10]}{tail}")))
    if omit_final_obs:
        steps[-1] = tuple.__new__(Step, (actions[-1], None))
    t = Trajectory(instance_id, trajectory_id, prompt, tuple(steps), resolved, {"source": "synth"})
    t._keys[CanonConfig()] = tuple(map(key_of, actions))
    return t


def _generate_instance(
    config: SynthConfig, index: int, key_of: Callable[[str], str]
) -> tuple[list[Trajectory], dict[str, Any]]:
    # per-instance derived seed keeps generation order-independent across instances
    rng = random.Random(f"{config.seed}:{index}")
    instance_id = _instance_name(index)
    prompt = f"Task {instance_id}: make the failing check pass."
    prefix = ["d0:inspect"]
    tpi = config.trajectories_per_instance
    planted = min(config.planted_critical, tpi // 2) if config.depth >= 3 else 0

    action_lists: list[tuple[list[str], int, str]] = []  # (actions, resolved, tag)
    planted_pairs: list[dict[str, Any]] = []
    for j in range(planted):
        branch = f"d1:branch{j}"
        good, bad = f"d2:good{j}", f"d2:bad{j}"
        good_suffix = [
            f"d{3 + s}:go{j}" for s in range(rng.randint(0, max(0, config.depth - 3)))
        ]
        bad_suffix = [
            f"d{3 + s}:halt{j}" for s in range(rng.randint(0, max(0, config.depth - 3)))
        ]
        action_lists.append((prefix + [branch, good] + good_suffix, 1, "planted"))
        action_lists.append((prefix + [branch, bad] + bad_suffix, 0, "planted"))
        planted_pairs.append(
            {"prefix": prefix + [branch], "chosen": good, "rejected": bad}
        )

    pool: list[tuple[list[str], int]] = [
        (actions, resolved) for actions, resolved, _ in action_lists
    ]
    for t in range(tpi - 2 * planted):
        roll = rng.random()
        if roll < config.duplicate_rate:
            kind = "duplicate" if pool else "fresh"
        elif roll < config.duplicate_rate + config.loop_rate:
            kind = "loop" if config.depth >= 4 else "fresh"
        elif roll < config.duplicate_rate + config.loop_rate + config.outlier_rate:
            kind = "outlier"
        else:
            kind = "fresh"
        if kind == "duplicate":
            actions, resolved = rng.choice(pool)
            action_lists.append((list(actions), resolved, "duplicate"))
        elif kind == "loop":
            spin = f"d2:spin{t}"
            action_lists.append((prefix + [f"d1:loop{t}", spin, spin, spin], 0, "loop"))
        elif kind == "outlier":
            actions = [f"d0:off{t}"] + [
                f"d{1 + s}:off{t}" for s in range(rng.randint(0, config.depth - 1))
            ]
            action_lists.append((actions, 0, "outlier"))
        else:
            actions = prefix + [
                f"d{1 + s}:x{t}b{rng.randrange(config.branching)}"
                for s in range(rng.randint(0, config.depth - 1))
            ]
            resolved = rng.randint(0, 1)
            action_lists.append((actions, resolved, "fresh"))
            pool.append((actions, resolved))

    trajectories = []
    for t, (actions, resolved, tag) in enumerate(action_lists):
        omit_final = tag == "fresh" and rng.random() < 0.3
        trajectories.append(_attach_observations(
            instance_id, f"{instance_id}/t{t:03d}", actions, resolved, prompt,
            config.divergent_observations, omit_final, key_of,
        ))

    retained = _intended_retained(trajectories)
    prefix_scores = brute_force_scores(retained)
    oracle_pairs = brute_force_pairs(prefix_scores, DEFAULT_THRESHOLD)
    truth = {
        "instance_id": instance_id,
        "retained": [t.trajectory_id for t in retained],
        "prefix_scores": {PREFIX_JOIN.join(p): [s, n] for p, (s, n) in prefix_scores.items()},
        "planted_pairs": planted_pairs,
        "oracle_pairs": sorted(
            [list(p), c, r] for p, c, r in oracle_pairs
        ),
    }
    return trajectories, truth


def _intended_retained(ts: list[Trajectory]) -> list[Trajectory]:
    """Restatement of the default filtration rules (n=3, k=1) for ground truth."""
    seen = set()
    kept = []
    for t in ts:
        keys = t.action_keys()
        key = (t.resolved, keys)
        if key in seen:
            continue
        seen.add(key)
        if any(a == b == c for a, b, c in zip(keys, keys[1:], keys[2:])):
            continue
        kept.append(t)
    if len(kept) <= 1:
        return kept
    # an outlier shares its first action with no other kept trajectory
    firsts = Counter(t.action_keys()[0] for t in kept)
    return [t for t in kept if firsts[t.action_keys()[0]] > 1]


def iter_instances(config: SynthConfig) -> Iterator[tuple[list[Trajectory], dict[str, Any]]]:
    """Each instance's trajectories and ground-truth record, generated lazily
    in the sorted order of their names (index order below 10,000 instances),
    canonicalizing through one `key_memo`. The config is validated before
    this returns."""
    config.validate()
    key_of = key_memo(CanonConfig())
    order = sorted(range(config.instances), key=_instance_name)
    return (_generate_instance(config, i, key_of) for i in order)


def generate(config: SynthConfig) -> tuple[list[Trajectory], dict[str, Any]]:
    """Deterministic corpus plus ground truth (retained sets, scores, planted pairs)."""
    corpus: list[Trajectory] = []
    instances: dict[str, Any] = {}
    for ts, truth in iter_instances(config):
        corpus.extend(ts)
        instances[truth["instance_id"]] = truth
    return corpus, {"config": config._asdict(), "instances": instances}


# ground_truth.json is {"config": ..., "instances": {name: record}} as
# json.dumps(indent=2, sort_keys=True, ensure_ascii=False) writes it. The
# writer below renders it one instance record at a time, for the fixed schema
# of `_generate_instance`'s records, instead of encoding one whole dict.
_RECORD = " " * 4  # indent of an instance's key and its record's closing brace
_FIELD = _RECORD + "  "
_ITEM = _FIELD + "  "
_SUBITEM = _ITEM + "  "


def _block(brackets: str, entries: list[str], indent: str) -> str:
    """An array ("[]") or object ("{}") of encoded entries, one per line,
    indented two spaces past `indent`, where the closing bracket sits."""
    if not entries:
        return brackets
    inner = ",\n" + indent + "  "
    return brackets[0] + inner[1:] + inner.join(entries) + "\n" + indent + brackets[1]


def _strings(items: Iterable[str], indent: str) -> str:
    return _block("[]", [_string(item) for item in items], indent)


def render_truth(truth: dict[str, Any]) -> str:
    """One `_generate_instance` ground-truth record as its `"name": {...}`
    entry in the "instances" object, without separator or newline.

    Keys come in the sorted order of the record's fixed schema; prefix_scores
    keys are sorted as strings, as sort_keys sorts them.
    """
    # each distinct oracle-pair prefix is rendered once; sibling pairs share one
    prefixes = {p: _strings(p, _SUBITEM) for p in {tuple(p) for p, _, _ in truth["oracle_pairs"]}}
    fields = [
        '"instance_id": ' + _string(truth["instance_id"]),
        '"oracle_pairs": ' + _block("[]", [
            f"[\n{_SUBITEM}{prefixes[tuple(prefix)]},\n{_SUBITEM}{_string(chosen)},"
            f"\n{_SUBITEM}{_string(rejected)}\n{_ITEM}]"
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
            f"{_string(key)}: [\n{_SUBITEM}{s},\n{_SUBITEM}{n}\n{_ITEM}]"
            for key, (s, n) in sorted(truth["prefix_scores"].items())
        ], _FIELD),
        '"retained": ' + _strings(truth["retained"], _FIELD),
    ]
    return _RECORD + _string(truth["instance_id"]) + ": " + _block("{}", fields, _RECORD)


def truth_chunks(config: SynthConfig, entries: Iterable[str]) -> Iterator[str]:
    """ground_truth.json in pieces: the config, then the `render_truth`
    entries in the order given, which is the sorted order of their names
    when they come from `iter_instances`, then the closing braces."""
    head = json.dumps({"config": config._asdict()}, ensure_ascii=False, indent=2, sort_keys=True)
    yield head[: -len("\n}")] + ',\n  "instances": {'
    separator = "\n"
    for entry in entries:
        yield separator + entry
        separator = ",\n"
    yield "}\n}\n" if separator == "\n" else "\n  }\n}\n"


def brute_force_scores(
    ts: list[Trajectory], canon: CanonConfig = CanonConfig()
) -> dict[tuple[str, ...], tuple[int, int]]:
    """(successes, total) for every canonical action prefix, by direct counting.

    The empty prefix carries whole-instance counts. No trees involved.
    """
    scores: dict[tuple[str, ...], list[int]] = {}
    for t in ts:
        keys = t.action_keys(canon)
        for end in range(len(keys) + 1):
            cell = scores.setdefault(keys[:end], [0, 0])
            cell[0] += t.resolved
            cell[1] += 1
    return {prefix: (s, n) for prefix, (s, n) in scores.items()}


def brute_force_pairs(
    prefix_scores: dict[tuple[str, ...], tuple[int, int]],
    threshold: Fraction = DEFAULT_THRESHOLD,
) -> set[tuple[tuple[str, ...], str, str]]:
    """All (prefix, chosen, rejected) next-action pairs with score gap > threshold.

    sa/na - sb/nb > num/den is compared as (sa*nb - sb*na)*den > num*na*nb.
    """
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
        counts = [(a, *prefix_scores[parent + (a,)]) for a in actions]
        for i, (a, sa, na) in enumerate(counts):
            for b, sb, nb in counts[i + 1 :]:
                cross = (sa * nb - sb * na) * den
                bound = num * na * nb
                if cross > bound:
                    pairs.add((parent, a, b))
                elif -cross > bound:
                    pairs.add((parent, b, a))
    return pairs
