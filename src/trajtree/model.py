"""Trajectory data model: records, line-format parsing, canonical actions.

A trajectory is a task prompt plus an alternating action/observation
sequence and a binary resolved flag. The corpus on disk is UTF-8 JSON
lines, one trajectory per line.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from .errors import InputError


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


def _reason(exc: BaseException) -> str:
    """The message of a failed read: `exc`'s own, except for text that starts with
    a byte-order mark, which `_decode` fails at its first character without naming it."""
    if isinstance(exc, json.JSONDecodeError) and exc.pos == 0 and exc.doc.startswith("\ufeff"):
        return "text starts with a UTF-8 byte-order mark (BOM); save the file without one"
    return str(exc)


# The compact encoder of the corpus and every JSON-lines file, and its string
# encoding. NaN, the infinities (so no output line holds them) and a container
# met again inside itself raise ValueError, a value of no JSON type TypeError.
# Each call makes its own markers: overlapping calls (threads, nested calls) share none.
_string = json.encoder.encode_basestring
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode


def _utf8(text: str) -> bool:
    """Whether `text` has a UTF-8 form, which a lone surrogate has not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class CanonConfig(NamedTuple):
    """How action text is normalized for merge-key equality."""

    collapse_whitespace: bool = True


def canonicalize_action(raw: str, config: CanonConfig = CanonConfig()) -> str:
    """The merge key of an action: trimmed, optionally with whitespace runs collapsed.

    "Whitespace" is what `str.isspace` accepts, so the collapsed key is
    `re.sub(r"\\s+", " ", raw.strip())`. An action that is already its own
    key returns `raw` itself, so the two share one string.
    """
    key = " ".join(raw.split()) if config.collapse_whitespace else raw.strip()
    if not key:
        raise InputError("empty action after canonicalization")
    return raw if key == raw else key


class Step(NamedTuple):
    """One agent action and the environment's reply.

    observation may be absent only on a trajectory's final step
    (e.g. a submission that gets no environment response). A named tuple,
    cheap to build, that equals only a Step with equal fields.
    """

    action: str
    observation: str | None = None

    def __eq__(self, other: object) -> bool:
        return type(other) is Step and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class _Record:
    """Field equality and a dataclass-style repr for a plain class that
    names its fields in `_fields`; like a mutable dataclass, unhashable."""

    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Trajectory(_Record):
    """One corpus record; immutable. Its action_keys memo (`_keys`, per
    CanonConfig) is never compared, printed or serialized."""

    _fields = ("instance_id", "trajectory_id", "prompt", "steps", "resolved", "meta")

    def __init__(
        self, instance_id: str, trajectory_id: str, prompt: str, steps: tuple[Step, ...],
        resolved: int, meta: dict[str, Any] | None = None,
    ) -> None:
        # every rule of the corpus format, in the parser's order and with its
        # messages: the parser builds each record through here. A record
        # built here reads back equal from the line serialize_trajectory writes.
        for name, value in (
            ("instance_id", instance_id), ("trajectory_id", trajectory_id), ("prompt", prompt),
        ):
            if not isinstance(value, str):
                raise InputError(f"missing or non-string field {name!r}")
            if not (value.isascii() or _utf8(value)):
                raise InputError(f"field {name!r} holds a lone surrogate")
        if isinstance(resolved, bool) or not isinstance(resolved, int) or resolved not in (0, 1):
            raise InputError(f"resolved must be integer 0 or 1, got {resolved!r}")
        if isinstance(steps, list):
            steps = tuple(steps)  # a list of steps is stored as a tuple
        if not isinstance(steps, tuple) or not steps:
            raise InputError("steps must be a non-empty array")
        last = len(steps) - 1
        for i, step in enumerate(steps):
            if type(step) is not Step:
                raise InputError(f"step {i} is not a Step")
            action, observation = step
            if not isinstance(action, str):
                raise InputError(f"step {i} lacks a string action")
            if observation is None:
                if i != last:
                    raise InputError(f"step {i} is non-final but has no observation")
            elif not isinstance(observation, str):
                raise InputError(f"step {i} observation is not a string")
            if not action.strip():  # blank under every CanonConfig
                raise InputError("empty action after canonicalization")
            if not (action.isascii() or _utf8(action)):
                raise InputError(f"step {i} action holds a lone surrogate")
            if not (observation is None or observation.isascii() or _utf8(observation)):
                raise InputError(f"step {i} observation holds a lone surrogate")
        if meta is not None:
            if not isinstance(meta, dict):
                raise InputError("meta must be an object")
            try:
                text = _encode(meta)
                # a tuple, say, or a key that is not a string reads back different
                differs = _decode(text) != meta
            # NaN or an infinity; a set, say; nesting deeper than the encoder,
            # the decoder or the comparison follows
            except (TypeError, ValueError, RecursionError) as exc:
                raise InputError(f"meta has no JSON form: {exc}") from None
            if not (text.isascii() or _utf8(text)):
                raise InputError("meta holds a lone surrogate")
            if differs:
                raise InputError("meta does not read back equal from its JSON form")
        self.__dict__.update(
            instance_id=instance_id, trajectory_id=trajectory_id, prompt=prompt, steps=steps,
            resolved=resolved, meta={} if meta is None else meta, _keys={},
        )

    def __setattr__(self, name: str, *value: Any) -> None:  # also __delattr__
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def action_keys(self, config: CanonConfig = CanonConfig()) -> tuple[str, ...]:
        """Canonical merge keys for the action sequence, computed once per config."""
        keys = self._keys.get(config)
        if keys is None:
            keys = tuple([canonicalize_action(step[0], config) for step in self.steps])
            self._keys[config] = keys
        return keys


# Top-level corpus fields; anything else is folded into meta on parse.
_KNOWN_FIELDS = frozenset(Trajectory._fields)


def _parse_record(obj: Any, canon: CanonConfig) -> Trajectory:
    """Decode one record's JSON shape; `Trajectory` checks every field."""
    if not isinstance(obj, dict):
        raise InputError("record is not an object")
    get = obj.get
    meta = get("meta")
    unknown = {key: value for key, value in obj.items() if key not in _KNOWN_FIELDS}
    if unknown and (meta is None or isinstance(meta, dict)):
        meta = {**(meta or {}), **unknown}  # unknown fields survive round-trips via meta
    raw_steps = get("steps")
    # Step(action, observation), but cheaper; a step that is no object has no
    # action, and `steps` that is no array has no steps
    steps = tuple([
        tuple.__new__(Step, (raw.get("action"), raw.get("observation"))
                      if isinstance(raw, dict) else (None, None))
        for raw in raw_steps
    ]) if isinstance(raw_steps, list) else ()
    t = Trajectory(
        get("instance_id"), get("trajectory_id"), get("prompt"), steps, get("resolved"), meta,
    )
    t.action_keys(canon)  # cached on the record; no action is blank now
    return t


def _json_lines(
    source: IO[bytes] | IO[str] | Iterable[str], parse: Callable[[Any], Any], strict: bool,
) -> Iterator[Any]:
    """`parse` of each JSON line of `source`, lazily and in order. Lines are UTF-8
    and numbered from 1; a blank line, one of only the decoder's whitespace
    (space, tab, CR, LF), yields nothing. A line whose text, JSON or `parse`
    fails raises InputError naming the line in strict mode, else yields None."""
    for line_no, line in enumerate(source, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip(" \t\r\n"):  # str.strip() would also drop \x1c or \u3000
                continue
            value = parse(_decode(line))
        # ValueError: not UTF-8 or not JSON, a non-finite number, or an integer
        # too long to convert; RecursionError: nesting deeper than the decoder follows
        except (ValueError, RecursionError, InputError) as exc:
            if strict:
                raise InputError(_reason(exc), line=line_no) from exc
            value = None
        yield value


def iter_trajectories(
    source: IO[bytes] | IO[str] | Iterable[str],
    strict: bool = True,
    canon: CanonConfig = CanonConfig(),
) -> Iterator[Trajectory | None]:
    """Parse a line-delimited corpus lazily, one line per step, in input order.

    Yields each parsed trajectory, and None for each malformed line that
    lenient mode skips; in strict mode the first malformed line raises
    InputError with its line number. Blank lines yield nothing. Each
    trajectory's action_keys for `canon` are filled as it is parsed, so later
    stages never canonicalize again; nothing of a yielded record is kept.
    """
    return _json_lines(source, lambda obj: _parse_record(obj, canon), strict)


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
    """Emit one corpus line (no trailing newline); parse inverts it field-for-field.

    The line is what the compact encoder writes for the record dict,
    formatted field by field; a step's observation is omitted when absent.
    """
    steps = ",".join(
        f'{{"action":{_string(s.action)}}}' if s.observation is None
        else f'{{"action":{_string(s.action)},"observation":{_string(s.observation)}}}'
        for s in t.steps
    )
    return (
        f'{{"instance_id":{_string(t.instance_id)},"trajectory_id":{_string(t.trajectory_id)}'
        f',"prompt":{_string(t.prompt)},"steps":[{steps}],"resolved":{t.resolved:d}'
        f',"meta":{_encode(t.meta)}}}'
    )
