"""Corpus-level cleaning: de-duplication, loop filtering, outlier filtering.

Stage order is fixed as dedup -> loops -> outliers so outlier detection
only sees the cleaned peer set.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from .errors import ConfigError, InputError, InvariantError
from .model import CanonConfig, Trajectory, _Record

DEFAULT_LOOP_THRESHOLD = 3  # consecutive identical actions counted as stuck-in-loop
DEFAULT_OUTLIER_MIN_PREFIX = 1


class IngestReport(_Record):
    """What one ingest read, removed and retained; counters are set as it runs."""

    _fields = (
        "input_count", "duplicates_removed", "loops_removed", "outliers_removed", "retained",
        "malformed_skipped", "per_instance_retained",
    )

    def __init__(
        self, input_count: int = 0, duplicates_removed: int = 0, loops_removed: int = 0,
        outliers_removed: int = 0, retained: int = 0,
        malformed_skipped: int = 0,  # lenient-parse skips, outside the conservation sum
        per_instance_retained: dict[str, int] | None = None,
    ) -> None:
        self.__dict__.update(zip(self._fields, (
            input_count, duplicates_removed, loops_removed, outliers_removed, retained,
            malformed_skipped, {} if per_instance_retained is None else per_instance_retained,
        )))

    def to_dict(self) -> dict[str, Any]:
        out = {name: getattr(self, name) for name in self._fields}
        out["per_instance_retained"] = dict(self.per_instance_retained)
        return out

    def add(self, other: IngestReport) -> None:
        """Fold in the report of a later part of the corpus that shares no instance."""
        self.input_count += other.input_count
        self.duplicates_removed += other.duplicates_removed
        self.loops_removed += other.loops_removed
        self.outliers_removed += other.outliers_removed
        self.retained += other.retained
        self.malformed_skipped += other.malformed_skipped
        self.per_instance_retained.update(other.per_instance_retained)


def deduplicate(
    ts: list[Trajectory], canon: CanonConfig = CanonConfig()
) -> tuple[list[Trajectory], int]:
    """Drop repeats of (instance_id, resolved, canonical action sequence), keeping the first."""
    seen: set[tuple] = set()
    kept = []
    for t in ts:
        key = (t.instance_id, t.resolved, t.action_keys(canon))
        if key in seen:
            continue
        seen.add(key)
        kept.append(t)
    return kept, len(ts) - len(kept)


def max_identical_run(keys: tuple[str, ...]) -> int:
    best = run = 1
    for prev, cur in zip(keys, keys[1:]):
        run = run + 1 if cur == prev else 1
        best = max(best, run)
    return best


def filter_loops(
    ts: list[Trajectory],
    n: int = DEFAULT_LOOP_THRESHOLD,
    canon: CanonConfig = CanonConfig(),
) -> tuple[list[Trajectory], int]:
    """Remove trajectories with n or more consecutive identical canonical actions."""
    if n < 2:
        raise ConfigError(f"loop threshold must be >= 2, got {n}")
    kept = [t for t in ts if max_identical_run(t.action_keys(canon)) < n]
    return kept, len(ts) - len(kept)


def filter_outliers(
    groups: dict[str, list[Trajectory]],
    k: int = DEFAULT_OUTLIER_MIN_PREFIX,
    canon: CanonConfig = CanonConfig(),
) -> tuple[dict[str, list[Trajectory]], int]:
    """Within each instance, drop trajectories sharing < k leading actions with every peer.

    Removal is simultaneous over the group, so a removed outlier never
    vouches for another. Singleton instances are exempt. Because prefix
    overlap is symmetric, every survivor's vouching peer also survives,
    which makes the filter idempotent.

    A trajectory shares at least k leading actions with some peer exactly
    when its first k keys (it has at least k) occur at least twice in the
    group, so one count over the k-key heads decides every member.
    """
    if k < 1:
        raise ConfigError(f"outlier prefix threshold must be >= 1, got {k}")
    removed = 0
    out: dict[str, list[Trajectory]] = {}
    for instance_id, ts in groups.items():
        if len(ts) <= 1:
            out[instance_id] = list(ts)
            continue
        heads = [t.action_keys(canon)[:k] for t in ts]
        counts = Counter(heads)
        kept = [t for t, head in zip(ts, heads) if len(head) == k and counts[head] >= 2]
        removed += len(ts) - len(kept)
        if kept:
            out[instance_id] = kept
    return out, removed


def group_by_instance(ts: Iterable[Trajectory]) -> dict[str, list[Trajectory]]:
    """Group by instance_id in first-appearance order; prompts must agree verbatim."""
    groups: dict[str, list[Trajectory]] = {}
    prompts: dict[str, str] = {}
    for t in ts:
        if t.instance_id in prompts and prompts[t.instance_id] != t.prompt:
            raise InputError(
                f"instance {t.instance_id!r} has conflicting prompts "
                f"(trajectory {t.trajectory_id!r})"
            )
        prompts[t.instance_id] = t.prompt
        groups.setdefault(t.instance_id, []).append(t)
    return groups


def ingest_trajectories(
    ts: list[Trajectory],
    loop_threshold: int = DEFAULT_LOOP_THRESHOLD,
    outlier_min_prefix: int = DEFAULT_OUTLIER_MIN_PREFIX,
    canon: CanonConfig = CanonConfig(),
) -> tuple[dict[str, list[Trajectory]], IngestReport]:
    """Run dedup -> loop filter -> outlier filter over parsed trajectories."""
    report = IngestReport(input_count=len(ts))
    ts, report.duplicates_removed = deduplicate(ts, canon)
    ts, report.loops_removed = filter_loops(ts, loop_threshold, canon)
    groups = group_by_instance(ts)
    groups, report.outliers_removed = filter_outliers(groups, outlier_min_prefix, canon)
    report.per_instance_retained = {k: len(v) for k, v in groups.items()}
    report.retained = sum(report.per_instance_retained.values())
    removed = report.duplicates_removed + report.loops_removed + report.outliers_removed
    if removed + report.retained != report.input_count:  # a filter dropped one uncounted
        raise InvariantError("ingest conservation violated")
    return groups, report

