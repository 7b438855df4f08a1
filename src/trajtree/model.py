"""Trajectory data model: records, line-format parsing, canonical actions.

A trajectory is a task prompt plus an alternating action/observation
sequence and a binary resolved flag. The corpus on disk is UTF-8 JSON
lines, one trajectory per line.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator

from .errors import InputError

_WS_RUN = re.compile(r"\s+")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # a JSON integer fails only the interpreter's length limit
        raise ValueError(f"integer literal of {len(text.lstrip('-'))} digits is too long") from None


# NaN, Infinity and literals that overflow a float (1e400) have no JSON form
# on output; rejecting them at parse keeps them out of every output file
_decode = json.JSONDecoder(parse_constant=_finite, parse_float=_finite, parse_int=_int).decode

# Top-level corpus fields; anything else is folded into meta on parse.
_KNOWN_FIELDS = {"instance_id", "trajectory_id", "prompt", "steps", "resolved", "meta"}


@dataclass(frozen=True)
class CanonConfig:
    """How action text is normalized for merge-key equality."""

    collapse_whitespace: bool = True


@dataclass(frozen=True)
class CanonicalAction:
    key: str  # normalized text used for node identity
    raw: str  # original text, emitted verbatim downstream


def canonicalize_action(raw: str, config: CanonConfig = CanonConfig()) -> CanonicalAction:
    """Normalize an action for equality: trim, optionally collapse whitespace runs."""
    key = raw.strip()
    if config.collapse_whitespace:
        key = _WS_RUN.sub(" ", key)
    if not key:
        raise InputError("empty action after canonicalization")
    return CanonicalAction(key=key, raw=raw)


@dataclass(frozen=True)
class Step:
    """One agent action and the environment's reply.

    observation may be absent only on a trajectory's final step
    (e.g. a submission that gets no environment response).
    """

    action: str
    observation: str | None = None


@dataclass(frozen=True)
class Trajectory:
    instance_id: str
    trajectory_id: str
    prompt: str
    steps: tuple[Step, ...]
    resolved: int
    meta: dict[str, Any] = field(default_factory=dict)
    # action_keys memo per CanonConfig; never compared, printed or serialized
    _keys: dict[CanonConfig, tuple[str, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.resolved not in (0, 1):
            raise InputError(f"resolved must be 0 or 1, got {self.resolved!r}")
        if not self.steps:
            raise InputError("trajectory has no steps")
        for i, step in enumerate(self.steps[:-1]):
            if step.observation is None:
                raise InputError(f"step {i} is non-final but has no observation")

    def action_keys(self, config: CanonConfig = CanonConfig()) -> tuple[str, ...]:
        """Canonical merge keys for the action sequence, computed once per config."""
        keys = self._keys.get(config)
        if keys is None:
            keys = tuple(canonicalize_action(s.action, config).key for s in self.steps)
            self._keys[config] = keys
        return keys


def _parse_record(obj: Any, canon: CanonConfig) -> Trajectory:
    if not isinstance(obj, dict):
        raise InputError("record is not an object")
    for name in ("instance_id", "trajectory_id", "prompt"):
        value = obj.get(name)
        if not isinstance(value, str):
            raise InputError(f"missing or non-string field {name!r}")
    resolved = obj.get("resolved")
    if isinstance(resolved, bool) or not isinstance(resolved, int) or resolved not in (0, 1):
        raise InputError(f"resolved must be integer 0 or 1, got {resolved!r}")
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise InputError("steps must be a non-empty array")
    steps = []
    keys = []
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict) or not isinstance(raw.get("action"), str):
            raise InputError(f"step {i} lacks a string action")
        obs = raw.get("observation")
        if obs is not None and not isinstance(obs, str):
            raise InputError(f"step {i} observation is not a string")
        if obs is None and i != len(raw_steps) - 1:
            raise InputError(f"step {i} is non-final but has no observation")
        keys.append(canonicalize_action(raw["action"], canon).key)  # rejects blank actions
        steps.append(Step(action=raw["action"], observation=obs))
    meta = obj.get("meta") or {}
    if not isinstance(meta, dict):
        raise InputError("meta must be an object")
    meta = dict(meta)
    for key, value in obj.items():
        if key not in _KNOWN_FIELDS:
            meta[key] = value  # unknown fields survive round-trips via meta
    t = Trajectory(
        instance_id=obj["instance_id"],
        trajectory_id=obj["trajectory_id"],
        prompt=obj["prompt"],
        steps=tuple(steps),
        resolved=resolved,
        meta=meta,
    )
    t._keys[canon] = tuple(keys)
    return t


def iter_trajectories(
    source: IO[bytes] | IO[str] | Iterable[str],
    strict: bool = True,
    canon: CanonConfig = CanonConfig(),
) -> Iterator[Trajectory | None]:
    """Parse a line-delimited corpus lazily, one line per step, in input order.

    Yields each parsed trajectory, and None for each malformed line that
    lenient mode skips; in strict mode the first malformed line raises
    InputError with its line number. Blank lines yield nothing. Each
    trajectory's action_keys for `canon` are filled from the parse's own
    canonicalization, so later stages never canonicalize again.
    """
    for line_no, line in enumerate(source, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            obj = _decode(line)
            if "\\u" in line:
                # a \u escape can decode to a lone surrogate, which no UTF-8
                # output can hold: UnicodeEncodeError
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            t = _parse_record(obj, canon)
        # ValueError: not UTF-8 or not JSON, a non-finite number, or an integer
        # too long to convert; RecursionError: nesting deeper than the decoder follows
        except (ValueError, RecursionError, InputError) as exc:
            if strict:
                raise InputError(str(exc), line=line_no) from exc
            t = None
        yield t


def parse_trajectory_stream(
    source: IO[bytes] | IO[str] | Iterable[str],
    strict: bool = True,
    canon: CanonConfig = CanonConfig(),
) -> tuple[list[Trajectory], int]:
    """The whole corpus from `iter_trajectories`: (trajectories, skipped_count)."""
    out: list[Trajectory] = []
    skipped = 0
    for t in iter_trajectories(source, strict, canon):
        if t is None:
            skipped += 1
        else:
            out.append(t)
    return out, skipped


def serialize_trajectory(t: Trajectory) -> str:
    """Emit one corpus line (no trailing newline); parse inverts it field-for-field."""
    steps = []
    for step in t.steps:
        record: dict[str, Any] = {"action": step.action}
        if step.observation is not None:
            record["observation"] = step.observation
        steps.append(record)
    obj = {
        "instance_id": t.instance_id,
        "trajectory_id": t.trajectory_id,
        "prompt": t.prompt,
        "steps": steps,
        "resolved": t.resolved,
        "meta": t.meta,
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
