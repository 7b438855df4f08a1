import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from trajtree import model
from trajtree.errors import InputError
from trajtree.model import (
    CanonConfig,
    Step,
    Trajectory,
    canonicalize_action,
    parse_trajectory_stream,
    serialize_trajectory,
)

VALID_LINE = json.dumps(
    {
        "instance_id": "i1",
        "trajectory_id": "t1",
        "prompt": "fix it",
        "steps": [
            {"action": "search", "observation": "found"},
            {"action": "submit"},
        ],
        "resolved": 1,
    }
)


# the 29 code points str.isspace() accepts, which re's \s, str.split() and
# str.strip() all treat as whitespace
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


class TestCanonicalize:
    def test_trims_whitespace(self):
        assert canonicalize_action("  run_tests()\n") == "run_tests()"

    def test_already_canonical(self):
        assert canonicalize_action("edit(file='a.py')") == "edit(file='a.py')"

    def test_collapses_internal_runs(self):
        assert canonicalize_action("a  b") == "a b"

    def test_collapse_disabled(self):
        cfg = CanonConfig(collapse_whitespace=False)
        assert canonicalize_action("a  b", cfg) == "a  b"

    def test_empty_after_trim_is_error(self):
        with pytest.raises(InputError):
            canonicalize_action("   \n\t")

    def test_unchanged_key_is_the_raw_string(self):
        for raw in ("edit", "open a.py"):
            assert canonicalize_action(raw) is raw
            assert canonicalize_action(raw, CanonConfig(collapse_whitespace=False)) is raw

    def test_whitespace_is_every_isspace_code_point(self):
        assert WHITESPACE == "".join(
            c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()
        )
        assert all(re.fullmatch(r"\s", c) for c in WHITESPACE)

    @given(st.text(st.sampled_from(WHITESPACE + "ab_\u00e9\u4e2d"), max_size=12), st.booleans())
    def test_key_is_the_regex_definition(self, raw, collapse):
        expected = re.sub(r"\s+", " ", raw.strip()) if collapse else raw.strip()
        config = CanonConfig(collapse_whitespace=collapse)
        if not expected:
            with pytest.raises(InputError):
                canonicalize_action(raw, config)
        else:
            assert canonicalize_action(raw, config) == expected

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, raw):
        once = canonicalize_action(raw)
        assert canonicalize_action(once) == once


class TestParse:
    def test_valid_line(self):
        ts, skipped = parse_trajectory_stream(io.StringIO(VALID_LINE + "\n"))
        assert skipped == 0
        assert len(ts) == 1
        assert len(ts[0].steps) == 2
        assert ts[0].resolved == 1

    def test_empty_input(self):
        ts, skipped = parse_trajectory_stream(io.StringIO(""))
        assert ts == [] and skipped == 0

    def test_bytes_input(self):
        ts, _ = parse_trajectory_stream(io.BytesIO((VALID_LINE + "\n").encode()))
        assert len(ts) == 1

    def test_bad_resolved_lenient_skips(self):
        bad = VALID_LINE.replace('"resolved": 1', '"resolved": 2')
        ts, skipped = parse_trajectory_stream(io.StringIO(bad + "\n"), strict=False)
        assert ts == [] and skipped == 1

    def test_bad_resolved_strict_aborts_with_line(self):
        bad = VALID_LINE.replace('"resolved": 1', '"resolved": 2')
        with pytest.raises(InputError, match="line 2"):
            parse_trajectory_stream(io.StringIO(VALID_LINE + "\n" + bad + "\n"))

    def test_boolean_resolved_rejected(self):
        bad = VALID_LINE.replace('"resolved": 1', '"resolved": true')
        with pytest.raises(InputError):
            parse_trajectory_stream(io.StringIO(bad + "\n"))

    def test_missing_observation_midway_rejected(self):
        obj = json.loads(VALID_LINE)
        obj["steps"] = [{"action": "a"}, {"action": "b", "observation": "o"}]
        with pytest.raises(InputError):
            parse_trajectory_stream(io.StringIO(json.dumps(obj) + "\n"))

    def test_unknown_fields_folded_into_meta(self):
        obj = json.loads(VALID_LINE)
        obj["extra"] = {"k": 3}
        ts, _ = parse_trajectory_stream(io.StringIO(json.dumps(obj) + "\n"))
        assert ts[0].meta["extra"] == {"k": 3}

    def test_absent_or_null_meta_is_empty(self):
        null_meta = json.dumps({**json.loads(VALID_LINE), "meta": None})
        ts, skipped = parse_trajectory_stream(io.StringIO(VALID_LINE + "\n" + null_meta))
        assert skipped == 0 and [t.meta for t in ts] == [{}, {}]

    def test_order_preserved(self):
        lines = []
        for i in range(5):
            obj = json.loads(VALID_LINE)
            obj["trajectory_id"] = f"t{i}"
            lines.append(json.dumps(obj))
        ts, _ = parse_trajectory_stream(io.StringIO("\n".join(lines)))
        assert [t.trajectory_id for t in ts] == [f"t{i}" for i in range(5)]

    def test_key_memo_is_bounded(self, monkeypatch):
        # a memo of two keys empties itself on the third distinct action and
        # still gives every step its own key
        monkeypatch.setattr(model, "_KEY_MEMO_SIZE", 2)
        calls = []
        original = model.canonicalize_action

        def counting(raw, config):
            calls.append(raw)
            return original(raw, config)

        monkeypatch.setattr(model, "canonicalize_action", counting)
        actions = ["a  x", "b", "c\t", "a  x", "b", "b"]
        line = json.dumps({
            "instance_id": "i", "trajectory_id": "t", "prompt": "p", "resolved": 0,
            "steps": [{"action": a, "observation": "o"} for a in actions],
        })
        (t,), _ = parse_trajectory_stream(io.StringIO(line + "\n"))
        assert t.action_keys() == ("a x", "b", "c", "a x", "b", "b")
        assert calls == ["a  x", "b", "c\t", "a  x", "b"]


class TestActionKeys:
    def test_keys_per_config(self):
        line = VALID_LINE.replace('"search"', '" search  all "')
        (t,), _ = parse_trajectory_stream(io.StringIO(line + "\n"))
        assert t.action_keys() == ("search all", "submit")
        assert t.action_keys(CanonConfig(collapse_whitespace=False)) == ("search  all", "submit")
        assert t.action_keys() == ("search all", "submit")

    def test_memo_not_compared_or_printed(self):
        t = Trajectory("i", "t", "p", (Step("a"),), resolved=1)
        fresh = Trajectory("i", "t", "p", (Step("a"),), resolved=1)
        t.action_keys()
        assert t == fresh and repr(t) == repr(fresh)

    def test_fields_cannot_be_set_or_deleted(self):
        t = Trajectory("i", "t", "p", (Step("a"),), resolved=1)
        with pytest.raises(AttributeError):
            t.resolved = 0
        with pytest.raises(AttributeError):
            del t.meta
        with pytest.raises(AttributeError):
            t.extra = 1
        assert (t.resolved, t.meta) == (1, {}) and not hasattr(t, "extra")


class TestStep:
    def test_equal_hashable_and_immutable(self):
        parsed, _ = parse_trajectory_stream(io.StringIO(VALID_LINE + "\n"))
        step = parsed[0].steps[0]
        built = Step(action=step.action, observation=step.observation)
        assert type(step) is Step and step == built and hash(step) == hash(built)
        assert not step != built
        assert step != Step(step.action, "other") and step != (step.action, step.observation)
        with pytest.raises(AttributeError):
            step.action = "x"


class TestInvariants:
    def test_resolved_must_be_binary(self):
        with pytest.raises(InputError):
            Trajectory("i", "t", "p", (Step("a"),), resolved=2)

    def test_resolved_must_be_an_integer(self):
        # the parser rejects these, so serialize_trajectory could not round-trip them
        for resolved in (True, False, 1.0):
            with pytest.raises(InputError, match="resolved must be integer 0 or 1"):
                Trajectory("i", "t", "p", (Step("a"),), resolved=resolved)

    def test_steps_nonempty(self):
        for steps in ((), [], None, "ab", iter([Step("a")])):
            with pytest.raises(InputError, match="steps must be a non-empty array"):
                Trajectory("i", "t", "p", steps, resolved=0)

    def test_only_final_step_may_lack_observation(self):
        with pytest.raises(InputError):
            Trajectory("i", "t", "p", (Step("a"), Step("b")), resolved=0)

    def test_list_of_steps_is_stored_as_a_tuple(self):
        t = Trajectory("i", "t", "p", [Step("a", "o"), Step("b")], resolved=0)
        assert type(t.steps) is tuple
        assert parse_trajectory_stream(io.StringIO(serialize_trajectory(t) + "\n")) == ([t], 0)

    @pytest.mark.parametrize("steps", [(("a", None),), (Step("a", "o"), ["b", None])])
    def test_step_that_is_not_a_step_is_rejected(self, steps):
        with pytest.raises(InputError, match=f"^step {len(steps) - 1} is not a Step$"):
            Trajectory("i", "t", "p", steps, resolved=0)

    @pytest.mark.parametrize("meta", [
        {"x": float("nan")}, {"x": [1, {"y": float("-inf")}]}, {"x": {1}},
    ], ids=["nan", "nested_inf", "set"])
    def test_meta_with_no_json_form_is_rejected(self, meta):
        with pytest.raises(InputError, match="^meta has no JSON form: "):
            Trajectory("i", "t", "p", (Step("a"),), resolved=0, meta=meta)


# strategy for arbitrary valid trajectories
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=30
)
_action = _text.filter(lambda s: s.strip())
# any JSON value
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 5))
    steps = []
    for i in range(n):
        obs = draw(_text) if i < n - 1 else draw(st.none() | _text)
        steps.append(Step(action=draw(_action), observation=obs))
    meta = draw(st.dictionaries(st.text(max_size=8), st.integers() | _text, max_size=3))
    return Trajectory(
        instance_id=draw(_text),
        trajectory_id=draw(_text),
        prompt=draw(_text),
        steps=tuple(steps),
        resolved=draw(st.integers(0, 1)),
        meta=meta,
    )


class TestRoundTrip:
    @given(trajectories())
    def test_parse_inverts_serialize(self, t):
        line = serialize_trajectory(t)
        parsed, skipped = parse_trajectory_stream(io.StringIO(line + "\n"))
        assert skipped == 0
        assert parsed == [t]

    def test_final_step_without_observation_omits_field(self):
        t = Trajectory("i", "t", "p", (Step("a", "o"), Step("b")), resolved=0)
        obj = json.loads(serialize_trajectory(t))
        assert "observation" not in obj["steps"][-1]

    @given(_json)
    def test_any_meta_is_rejected_or_round_trips(self, meta):
        # the constructor is as strict as the parser: what it accepts reads back equal
        try:
            t = Trajectory("i", "t", "p", (Step("a"),), resolved=1, meta=meta)
        except InputError as exc:
            assert str(exc) == "meta must be an object"
            assert meta is not None and not isinstance(meta, dict)
            return
        parsed, skipped = parse_trajectory_stream(io.StringIO(serialize_trajectory(t) + "\n"))
        assert skipped == 0 and parsed == [t]

    def test_empty_meta_emitted_and_round_trips(self):
        t = Trajectory("i", "t", "p", (Step("a"),), resolved=1)
        obj = json.loads(serialize_trajectory(t))
        assert obj["meta"] == {}
        parsed, _ = parse_trajectory_stream(io.StringIO(serialize_trajectory(t) + "\n"))
        assert parsed == [t]


def built_or_parsed(fields: dict, pairs: list) -> Trajectory | None:
    """`Trajectory(...)` from `fields` and one `Step` per (action, observation)
    pair, checked against the parser on the same record as a corpus line:
    both raise InputError with one message, or both give the same record,
    which round-trips through `serialize_trajectory`. None when both raise."""
    record = {**fields, "steps": [{"action": a, "observation": o} for a, o in pairs]}
    try:
        t = Trajectory(steps=tuple(Step(a, o) for a, o in pairs), **fields)
    except InputError as exc:
        with pytest.raises(InputError) as parsed:
            parse_trajectory_stream(io.StringIO(json.dumps(record) + "\n"))
        assert str(parsed.value) == f"line 1: {exc}"
        return None
    for line in (json.dumps(record), serialize_trajectory(t)):
        assert parse_trajectory_stream(io.StringIO(line + "\n")) == ([t], 0)
    return t


def _mostly(valid):
    """`valid` most of the time, else any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else _json)


_pairs = st.lists(st.tuples(_mostly(_text), _mostly(st.none() | _text)), max_size=3)
_fields = st.fixed_dictionaries({
    "instance_id": _mostly(_text), "trajectory_id": _mostly(_text), "prompt": _mostly(_text),
    "resolved": _mostly(st.integers(0, 1)),
    "meta": _mostly(st.dictionaries(_text, _json, max_size=2)),
})


class TestOneRuleSet:
    """The constructor applies every rule the parser does, in the same order."""

    @given(_fields, _pairs)
    @settings(max_examples=300)
    def test_constructor_and_parser_agree(self, fields, pairs):
        built_or_parsed(fields, pairs)

    @pytest.mark.parametrize("fields, pairs, message", [
        ({"instance_id": 1}, [("a", None)], "missing or non-string field 'instance_id'"),
        ({"prompt": None}, [("a", None)], "missing or non-string field 'prompt'"),
        ({}, [(3, None)], "step 0 lacks a string action"),
        ({}, [("a", 3)], "step 0 observation is not a string"),
        # a blank action at step 0 outranks a non-string observation at step 1
        ({}, [(" ", "o"), ("b", 3)], "empty action after canonicalization"),
    ], ids=["instance_id", "prompt", "action", "observation", "blank_first"])
    def test_rejected_alike(self, fields, pairs, message):
        fields = {"instance_id": "i", "trajectory_id": "t", "prompt": "p", "resolved": 1, **fields}
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Trajectory(steps=tuple(Step(a, o) for a, o in pairs), **fields)
        assert built_or_parsed(fields, pairs) is None
