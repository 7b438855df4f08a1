"""Seeded synthetic corpora with planted structure, plus brute-force oracles.

The oracles work on flat prefix multisets and never touch the tree code,
so they can independently check node scoring and pair extraction.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any

from .errors import ConfigError
from .model import CanonConfig, Step, Trajectory
from .scoring import DEFAULT_THRESHOLD

PREFIX_JOIN = ""  # unit separator; cannot appear in canonical keys we generate


@dataclass(frozen=True)
class SynthConfig:
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


def _observation(instance_id: str, prefix: tuple[str, ...], suffix: str = "") -> str:
    digest = hashlib.sha1("|".join(prefix).encode("utf-8")).hexdigest()[:10]
    return f"obs[{instance_id}:{len(prefix)}:{digest}]{suffix}"


def _attach_observations(
    instance_id: str,
    trajectory_id: str,
    actions: list[str],
    resolved: int,
    prompt: str,
    divergent: bool,
    omit_final_obs: bool,
) -> Trajectory:
    steps = []
    for i, action in enumerate(actions):
        if i == len(actions) - 1 and omit_final_obs:
            obs = None
        else:
            suffix = f":{trajectory_id}" if divergent else ""
            obs = _observation(instance_id, tuple(actions[: i + 1]), suffix)
        steps.append(Step(action=action, observation=obs))
    return Trajectory(
        instance_id=instance_id,
        trajectory_id=trajectory_id,
        prompt=prompt,
        steps=tuple(steps),
        resolved=resolved,
        meta={"source": "synth"},
    )


def _generate_instance(
    config: SynthConfig, index: int
) -> tuple[list[Trajectory], dict[str, Any]]:
    # per-instance derived seed keeps generation order-independent across instances
    rng = random.Random(f"{config.seed}:{index}")
    instance_id = f"inst{index:04d}"
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
        trajectories.append(
            _attach_observations(
                instance_id,
                f"{instance_id}/t{t:03d}",
                actions,
                resolved,
                prompt,
                config.divergent_observations,
                omit_final,
            )
        )

    retained = _intended_retained(trajectories)
    prefix_scores = brute_force_scores(retained)
    oracle_pairs = brute_force_pairs(prefix_scores, DEFAULT_THRESHOLD)
    truth = {
        "instance_id": instance_id,
        "retained": [t.trajectory_id for t in retained],
        "prefix_scores": {
            PREFIX_JOIN.join(p): [s, n] for p, (s, n) in sorted(prefix_scores.items())
        },
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
        max_run = max(sum(1 for _ in group) for _, group in itertools.groupby(keys))
        if max_run >= 3:
            continue
        kept.append(t)
    if len(kept) <= 1:
        return kept
    return [
        t
        for t in kept
        if any(u is not t and t.action_keys()[0] == u.action_keys()[0] for u in kept)
    ]


def generate(config: SynthConfig) -> tuple[list[Trajectory], dict[str, Any]]:
    """Deterministic corpus plus ground truth (retained sets, scores, planted pairs)."""
    config.validate()
    corpus: list[Trajectory] = []
    instances: dict[str, Any] = {}
    for i in range(config.instances):
        ts, truth = _generate_instance(config, i)
        corpus.extend(ts)
        instances[truth["instance_id"]] = truth
    return corpus, {"config": asdict(config), "instances": instances}


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
    """All (prefix, chosen, rejected) next-action pairs with score gap > threshold."""
    threshold = Fraction(threshold)
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
                diff = Fraction(sa, na) - Fraction(sb, nb)
                if diff > threshold:
                    pairs.add((parent, a, b))
                elif -diff > threshold:
                    pairs.add((parent, b, a))
    return pairs
