import io
import json
import re
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trajtree.errors import InputError
from trajtree.model import (
    CanonConfig,
    Step,
    Trajectory,
    _encode,
    canonicalize_action,
    iter_trajectories,
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


# the encoder _encode is built as, made anew for each call
REFERENCE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def self_containing() -> list:
    cycle: list = []
    cycle.append(cycle)
    return cycle


class TestEncoder:
    @given(json_values)
    @settings(max_examples=300)
    def test_writes_what_the_reference_encoder_writes(self, value):
        assert _encode(value) == REFERENCE.encode(value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("-inf"), {1, 2}, self_containing(), {"x": [float("inf")]},
    ], ids=["nan", "minus_infinity", "set", "self_containing", "nested_infinity"])
    def test_raises_what_the_reference_encoder_raises(self, value):
        with pytest.raises(Exception) as expected:
            REFERENCE.encode(value)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            _encode(value)

    def test_a_failed_call_leaves_no_marker(self):
        cycle = self_containing()
        for _ in range(2):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                _encode(cycle)
        assert _encode([[1], [2, [3]]]) == "[[1],[2,[3]]]"
        cycle[0] = [1]  # the same list, no longer in a cycle
        assert _encode(cycle) == "[[1]]"
        unencodable = [[{1}]]
        with pytest.raises(TypeError):
            _encode(unencodable)
        unencodable[0][0] = 1
        assert _encode(unencodable) == "[[1]]"

    def test_a_call_made_during_a_call_keeps_its_markers(self):
        # a dict subclass's items() runs while its container is marked; a call
        # made there, as another thread's could be, must not clear that mark
        class EncodesOnItems(dict):
            def items(self):
                assert _encode([[1]]) == "[[1]]"
                return super().items()

        assert _encode([EncodesOnItems(x=[2])]) == REFERENCE.encode([{"x": [2]}])
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            _encode(self_containing())

    def test_threads_share_no_markers(self):
        # each thread's items() yields the interpreter lock mid-call, so calls
        # overlap; a call that cleared another's marks would raise KeyError
        class Yields(dict):
            def items(self):
                time.sleep(0)
                return super().items()

        value, expected = [Yields(x=[1, Yields(y=[2])])], '[{"x":[1,{"y":[2]}]}]'
        got: list[str] = []

        def work():
            for _ in range(300):
                got.append(_encode(value))
                with pytest.raises(ValueError, match="^Circular reference detected$"):
                    _encode(self_containing())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [expected] * 2400


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

    def test_keeps_nothing_of_a_yielded_record(self):
        # 300 records, each with a distinct ~10 KB multi-line action that is
        # not its own key: ~3 MB of action text, of which the parser holds one
        # record's worth at a time
        body = "".join(f"    line {k}:  x = x  +  {k}\n" for k in range(350))
        lines = [
            json.dumps({
                "instance_id": f"i{i}", "trajectory_id": "t", "prompt": "p", "resolved": 0,
                "steps": [{"action": f"edit  file{i}.py\n{body}end"}],
            }) + "\n"
            for i in range(300)
        ]
        assert min(map(len, lines)) > 10_000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, t in enumerate(iter_trajectories(lines), 1):
                assert t.action_keys()[0] != t.steps[0].action
                del t
                if n == len(lines):  # the generator is still open on the last line
                    held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert held < 1_000_000


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


def nested_meta(depth: int) -> dict:
    """A meta of `depth` nested objects."""
    meta: dict = {}
    for _ in range(depth):
        meta = {"x": meta}
    return meta


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
        {"x": float("nan")}, {"x": [1, {"y": float("-inf")}]}, {"x": {1}}, nested_meta(5000),
    ], ids=["nan", "nested_inf", "set", "nested_5000"])
    def test_meta_with_no_json_form_is_rejected(self, meta):
        with pytest.raises(InputError, match="^meta has no JSON form: "):
            Trajectory("i", "t", "p", (Step("a"),), resolved=0, meta=meta)


# strategy for arbitrary valid trajectories
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=30
)
_action = _text.filter(lambda s: s.strip())
_scalar = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _text
)
# any JSON value
_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
# any JSON value, or a Python value the encoder writes as one that reads back
# different: a tuple (an array), a key that is not a string (a string key)
_json_like = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_scalar, inner, max_size=3),
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

    @given(_json_like)
    def test_any_meta_is_rejected_or_round_trips(self, meta):
        # the constructor is as strict as the parser: what it accepts reads back equal
        try:
            t = Trajectory("i", "t", "p", (Step("a"),), resolved=1, meta=meta)
        except InputError as exc:
            if meta is not None and not isinstance(meta, dict):
                assert str(exc) == "meta must be an object"
            else:
                assert str(exc) == "meta does not read back equal from its JSON form"
                assert json.loads(json.dumps(meta)) != meta
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


def _mostly(valid, other=_json):
    """`valid` most of the time, else `other`: by default any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else other)


# text, now and then with a lone surrogate, which no UTF-8 line can hold
_loose = _mostly(_text, st.tuples(_text, st.integers(0xD800, 0xDFFF).map(chr), _text).map("".join))
_pairs = st.lists(st.tuples(_mostly(_loose), _mostly(st.none() | _loose)), max_size=3)
_fields = st.fixed_dictionaries({
    "instance_id": _mostly(_loose), "trajectory_id": _mostly(_loose), "prompt": _mostly(_loose),
    "resolved": _mostly(st.integers(0, 1)),
    "meta": _mostly(st.dictionaries(_loose, _json, max_size=2)),
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
