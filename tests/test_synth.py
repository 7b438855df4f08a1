import gc
import hashlib
import io
import json
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trajtree import pipeline, synth
from trajtree.cli import json_doc, main
from trajtree.errors import ConfigError, InvariantError
from trajtree.ingest import ingest_trajectories
from trajtree.model import CanonConfig, Step, Trajectory, key_memo, serialize_trajectory
from trajtree.pipeline import StageConfig, mine_instance, selfcheck
from trajtree.synth import (
    SynthConfig,
    _attach_observations,
    _intended_retained,
    brute_force_pairs,
    brute_force_scores,
    generate,
    iter_instances,
    render_truth,
    truth_chunks,
)

import synth_reference as reference
from conftest import make_traj, prefix_pairs, prefix_scores, synth_configs


class TestGenerate:
    def test_same_seed_byte_identical(self):
        cfg = SynthConfig(seed=42, instances=5)
        a_corpus, a_truth = generate(cfg)
        b_corpus, b_truth = generate(cfg)
        assert [serialize_trajectory(t) for t in a_corpus] == [
            serialize_trajectory(t) for t in b_corpus
        ]
        assert a_truth == b_truth

    def test_different_seeds_differ(self):
        a, _ = generate(SynthConfig(seed=1, instances=3))
        b, _ = generate(SynthConfig(seed=2, instances=3))
        assert [serialize_trajectory(t) for t in a] != [serialize_trajectory(t) for t in b]

    def test_duplicate_rate_one_two_trajectories(self):
        cfg = SynthConfig(
            seed=3, instances=4, trajectories_per_instance=2, planted_critical=0,
            duplicate_rate=1.0, loop_rate=0.0, outlier_rate=0.0,
        )
        corpus, _ = generate(cfg)
        groups, report = ingest_trajectories(corpus)
        assert report.duplicates_removed == cfg.instances  # one dup per instance
        assert all(len(ts) == 1 for ts in groups.values())

    def test_planted_pair_has_large_gap(self):
        cfg = SynthConfig(seed=9, instances=6, planted_critical=1,
                          loop_rate=0.0, outlier_rate=0.0, duplicate_rate=0.0)
        _, truth = generate(cfg)
        for rec in truth["instances"].values():
            assert rec["planted_pairs"]
            oracle = {
                (tuple(p), c, r) for p, c, r in
                ((tuple(entry[0]), entry[1], entry[2]) for entry in rec["oracle_pairs"])
            }
            for planted in rec["planted_pairs"]:
                key = (tuple(planted["prefix"]), planted["chosen"], planted["rejected"])
                assert key in oracle

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(depth=0))
        with pytest.raises(ConfigError):
            generate(SynthConfig(loop_rate=1.5))


class TestBruteForceScores:
    def test_fixture_prefixes(self, fixture_trajectories):
        scores = brute_force_scores(fixture_trajectories)
        assert scores[("search", "edit")] == (1, 2)
        assert scores[("search",)] == (1, 3)
        assert scores[()] == (1, 3)
        assert scores[("search", "edit", "test")] == (1, 1)

    def test_single_trajectory(self):
        t = make_traj("t", [("a", "o"), ("b", None)], 1)
        scores = brute_force_scores([t])
        assert all(v == (1, 1) for v in scores.values())

    def test_empty_prefix_is_whole_instance(self, fixture_trajectories):
        scores = brute_force_scores(fixture_trajectories)
        assert scores[()] == (1, 3)


def fraction_pairs(prefix_scores, threshold):
    """brute_force_pairs restated in Fraction arithmetic."""
    children = {}
    for prefix in prefix_scores:
        if prefix:
            children.setdefault(prefix[:-1], []).append(prefix[-1])
    pairs = set()
    for parent, actions in children.items():
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                diff = Fraction(*prefix_scores[parent + (a,)]) - Fraction(*prefix_scores[parent + (b,)])
                if diff > threshold:
                    pairs.add((parent, a, b))
                elif -diff > threshold:
                    pairs.add((parent, b, a))
    return pairs


class TestBruteForcePairs:
    def test_fixture_single_pair(self, fixture_trajectories):
        scores = brute_force_scores(fixture_trajectories)
        pairs = brute_force_pairs(scores, Fraction(1, 2))
        assert pairs == {(("search", "edit"), "test", "submit")}

    def test_all_success_no_pairs(self):
        ts = [
            make_traj("t1", [("a", "o"), ("x", None)], 1),
            make_traj("t2", [("a", "o"), ("y", None)], 1),
        ]
        assert brute_force_pairs(brute_force_scores(ts), Fraction(1, 2)) == set()

    def test_threshold_one_never_emits(self, fixture_trajectories):
        scores = brute_force_scores(fixture_trajectories)
        assert brute_force_pairs(scores, Fraction(1)) == set()

    @given(
        st.dictionaries(
            st.lists(st.sampled_from("abc"), max_size=3).map(tuple),
            st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
            max_size=24,
        ),
        st.fractions(0, 1, max_denominator=12),
    )
    def test_matches_fraction_arithmetic(self, prefix_scores, threshold):
        assert brute_force_pairs(prefix_scores, threshold) == fraction_pairs(prefix_scores, threshold)


class TestPipelineAgainstOracle:
    @given(synth_configs)
    @settings(max_examples=60, deadline=None)
    def test_selfcheck_passes(self, cfg):
        summary = selfcheck(cfg)
        assert summary["status"] == "ok"

    def test_oracle_agreement_explicit(self):
        corpus, _ = generate(SynthConfig(seed=11, instances=12))
        groups, _ = ingest_trajectories(corpus)
        for instance_id, ts in groups.items():
            tree, successes, totals, triples = mine_instance(instance_id, ts, StageConfig())
            oracle = brute_force_scores(ts)
            assert prefix_scores(tree, successes, totals) == oracle
            assert prefix_pairs(tree, triples) == brute_force_pairs(oracle, Fraction(1, 2))

    def test_selfcheck_never_calls_generate(self, monkeypatch):
        def whole_corpus(config):
            raise AssertionError("selfcheck built the whole corpus")

        monkeypatch.setattr(synth, "generate", whole_corpus)
        assert selfcheck(SynthConfig(seed=4, instances=5))["status"] == "ok"

    def test_selfcheck_peak_memory_is_one_instance(self):
        def peak(instances: int) -> int:
            tracemalloc.start()
            try:
                selfcheck(cfg._replace(instances=instances))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # `tuple(iterator)` resizes a free 10-tuple, and freeing the result
        # puts it on the free list of its own size (CPython keeps up to 2,000
        # per size; a full collection empties them). So those lists fill up as
        # a run goes on, as traced memory that no instance holds. Filled before
        # tracing, with collections off, they stay full.
        cfg = SynthConfig(seed=1, trajectories_per_instance=20, depth=12, branching=2)
        gc.disable()
        try:
            spare = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
            del spare
            small, large = peak(10), peak(100)
        finally:
            gc.enable()
        assert large <= 2 * small, (small, large)


def _wrap(monkeypatch, module, name, change):
    """Replace `module.name` by a call that passes its result through `change`."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args)))


def _drop_one_retained(cleaned):
    groups, report = cleaned
    return {name: ts[:-1] for name, ts in groups.items()}, report


def _flip_one_outcome(mined):
    outcome = mined[0].outcome
    leaf = next(i for i, value in enumerate(outcome) if value is not None)
    outcome[leaf] = 1 - outcome[leaf]
    return mined


def _miscount_one_node(mined):
    tree, successes = mined[0], mined[1]
    successes[next(i for i, key in enumerate(tree.action_key) if key is not None)] += 1
    return mined


def _swap_every_pair(mined):
    tree, successes, totals, triples = mined
    return tree, successes, totals, [(p, rejected, chosen) for p, chosen, rejected in triples]


def _swap_planted_pairs(instances):
    for ts, truth in instances:
        planted = [{**p, "chosen": p["rejected"], "rejected": p["chosen"]}
                   for p in truth["planted_pairs"]]
        yield ts, {**truth, "planted_pairs": planted}


class TestSelfcheckFaults:
    """Each check fails on its own fault: selfcheck raises its message, and
    the CLI prints it and exits 3."""

    FAULTS = {
        "retained set differs from ground truth":
            (pipeline, "ingest_trajectories", _drop_one_retained),
        "tree paths differ from retained set": (pipeline, "mine_instance", _flip_one_outcome),
        "node scores disagree with oracle": (pipeline, "mine_instance", _miscount_one_node),
        "critical pairs disagree with oracle": (pipeline, "mine_instance", _swap_every_pair),
        "planted pair missing from oracle": (synth, "iter_instances", _swap_planted_pairs),
    }

    @pytest.mark.parametrize("message", FAULTS)
    def test_fault_fails_its_check(self, message, monkeypatch):
        cfg = SynthConfig(seed=5, instances=3)
        assert selfcheck(cfg)["status"] == "ok"
        _wrap(monkeypatch, *self.FAULTS[message])
        with pytest.raises(InvariantError, match=f"^inst0000: {message}$"):
            selfcheck(cfg)
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["selfcheck", "--seed", "5", "--instances", "3"]) == 3
        assert err.getvalue() == f"error: inst0000: {message}\n"


def synth_files(cfg: SynthConfig, out: Path) -> dict[str, bytes]:
    """The files `trajtree synth` writes for `cfg`."""
    argv = ["synth", "--out-dir", str(out)]
    for name, value in cfg._asdict().items():
        if isinstance(value, bool):
            argv += [f"--{name.replace('_', '-')}"] if value else []
        else:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return {name: (out / name).read_bytes() for name in ("corpus.jsonl", "ground_truth.json")}


class TestSynthFiles:
    # sha256 of (corpus.jsonl, ground_truth.json), recorded before the corpus
    # and ground truth were streamed; they pin the benchmark's input bytes
    GOLDEN = {
        "default": ([], (
            "f04cb3868afdf7cbce8c29d247b39795892f05962c37760484a9bcd19ede52ab",
            "148cc3e89ec56defda30242d321d0b80bd043ebc98343bbb2cf342671a63085f",
        )),
        "deep": (["--seed", "1", "--instances", "4", "--trajectories-per-instance", "40",
                  "--depth", "30", "--branching", "2"], (
            "5437c7d0bb345af0336edc05a18d079a1ed22ce6523611317e93ce6e318fc40b",
            "a390bb515d6f0dbdbb6ab25a81f17f736438115784df29ccd7470415e49d54f8",
        )),
        "wide": (["--seed", "1", "--instances", "3", "--trajectories-per-instance", "60",
                  "--depth", "12", "--branching", "8"], (
            "1621039e41c8ef07f70828eb2fb66f30b9139bc9788792f4b2ca96695f7ac3e5",
            "7799378b50908e68628bb00e6d6c8b049f7648fd67caa42a184a50675d11739f",
        )),
        "divergent": (["--seed", "7", "--instances", "6", "--divergent-observations"], (
            "466d83f6b7ff4b4258bb6ee2ed7caf20aaccbd901171bfbc9339cecdd65e27ff",
            "b5a3ebfa56f1042fc9549961b702e553c0c863abf42c306f47128d55973fd286",
        )),
        # the shapes below were recorded before the per-step and per-pair
        # rewrite of synth.py's observation, filter, pair and truth code
        "single-branch": (["--branching", "1", "--depth", "2"], (
            "c346b8dcb78315a719db41c6755093fe4ea02e800dc0050dc2164cf04007e833",
            "7f8519dcd6f9751f38e4fb1fd6517b55b1434b7f4b0b2c796b4647c33d5a50c7",
        )),
        "unplanted": (["--depth", "1"], (
            "0cde1b2ef8b9b48d717c3c513a9ca103fdf44dd25314efaae861382b54f5595e",
            "58c8fc9fd41b35495852257b68a978d2b2e000921c6074402570e2ffbe5b1275",
        )),
        "duplicates": (["--duplicate-rate", "1"], (
            "e2d347541397bed013393d255f4a38408421e71016ae728ce70979067401ecfb",
            "6c2b7bcd7e690d5fe63056d2e19ff7d707dadf9ca6176ea3446db464abeee0bc",
        )),
        "loops": (["--loop-rate", "1", "--depth", "4"], (
            "910e97f0a0e18182c1f7a28dfda391d3484f2dfc3f5240d5c2ce3075aec99672",
            "b686ac058db4e1d2a7777e938e00256234bd0abac25528a1761f12e3460d239f",
        )),
        "outliers": (["--outlier-rate", "1"], (
            "7c8a1602dcea90a49da89772ebb498199a6d6bbd7ce3eda986a5ac69d5cba2d7",
            "7dc928f94b94f02b1fae49b392ccf1b8c76824087190260e9e306f261e4cf13b",
        )),
        "planted": (["--planted-critical", "3", "--trajectories-per-instance", "5"], (
            "b77903f9d0bc6a36d3099c63c13acf31e22b36ad667423d82c62971a57dc110a",
            "da98df8b59924089736d04fd43b940b6217ad4da0a331ef975fe2a4bcbd21eb5",
        )),
    }

    @pytest.mark.parametrize("shape", GOLDEN)
    def test_golden_digests(self, shape, tmp_path):
        flags, digests = self.GOLDEN[shape]
        assert main(["synth", *flags, "--out-dir", str(tmp_path)]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("corpus.jsonl", "ground_truth.json")
        )
        assert got == digests

    @given(st.builds(
        SynthConfig,
        seed=st.integers(0, 10_000),
        instances=st.integers(0, 4),
        branching=st.integers(1, 3),
        depth=st.integers(1, 5),
        trajectories_per_instance=st.integers(0, 8),
        planted_critical=st.integers(0, 2),
        loop_rate=st.floats(0, 0.4),
        outlier_rate=st.floats(0, 0.4),
        duplicate_rate=st.floats(0, 0.4),
        divergent_observations=st.booleans(),
    ))
    @settings(max_examples=40, deadline=None)
    def test_streamed_files_match_generate(self, cfg):
        corpus, truth = generate(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            files = synth_files(cfg, Path(tmp))
        assert files["ground_truth.json"] == json_doc(truth).encode("utf-8")
        assert files["corpus.jsonl"] == "".join(
            serialize_trajectory(t) + "\n" for t in corpus
        ).encode("utf-8")

    @given(
        st.text(min_size=1),
        st.lists(st.text(), max_size=3),
        st.dictionaries(st.text(), st.tuples(st.integers(0, 9), st.integers(1, 9)).map(list),
                        max_size=4),
        st.lists(st.fixed_dictionaries({
            "prefix": st.lists(st.text(), max_size=3), "chosen": st.text(), "rejected": st.text(),
        }), max_size=2),
        st.lists(st.tuples(st.lists(st.text(), max_size=3), st.text(), st.text()).map(list),
                 max_size=2),
    )
    def test_writer_matches_json_dumps_on_any_text(
        self, instance_id, retained, prefix_scores, planted_pairs, oracle_pairs
    ):
        truth = {
            "instance_id": instance_id,
            "retained": retained,
            "prefix_scores": prefix_scores,
            "planted_pairs": planted_pairs,
            "oracle_pairs": oracle_pairs,
        }
        cfg = SynthConfig()
        text = "".join(truth_chunks(cfg, [render_truth(truth)]))
        assert text == json_doc({"config": cfg._asdict(), "instances": {instance_id: truth}})

    def test_names_past_inst9999_are_written_in_sorted_order(self, tmp_path):
        cfg = SynthConfig(instances=10_001, trajectories_per_instance=1)
        files = synth_files(cfg, tmp_path)
        assert files["ground_truth.json"] == json_doc(generate(cfg)[1]).encode("utf-8")
        # corpus.jsonl lists the instances in ground_truth.json's order
        names = list(json.loads(files["ground_truth.json"])["instances"])
        lines = files["corpus.jsonl"].decode("utf-8").splitlines()
        assert [json.loads(line)["instance_id"] for line in lines] == names

    def test_bad_config_makes_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--depth", "0", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def assert_same_trajectory(got: Trajectory, want: Trajectory) -> None:
    """Equal field by field, with Step steps and the same action_keys memo."""
    assert type(got) is Trajectory
    for name in Trajectory._fields:
        assert getattr(got, name) == getattr(want, name), name
    assert all(type(step) is Step for step in got.steps)
    assert got._keys == want._keys
    assert got.action_keys() == want.action_keys()


class TestMatchesReference:
    """The synth functions against their copies in synth_reference.py, taken
    before their per-step and per-pair costs were cut."""

    @given(st.builds(
        SynthConfig,
        seed=st.integers(0, 10_000),
        instances=st.integers(1, 4),
        branching=st.integers(1, 4),
        depth=st.integers(1, 12),
        trajectories_per_instance=st.integers(0, 12),
        planted_critical=st.integers(0, 3),
        loop_rate=st.floats(0, 0.5),
        outlier_rate=st.floats(0, 0.5),
        duplicate_rate=st.floats(0, 0.5),
        divergent_observations=st.booleans(),
    ))
    @settings(max_examples=60, deadline=None)
    def test_instances(self, cfg):
        key_of = key_memo(CanonConfig())
        for ts, truth in iter_instances(cfg):
            for t in ts:
                actions = [step.action for step in t.steps]
                omitted = t.steps[-1].observation is None
                args = (t.instance_id, t.trajectory_id, actions, t.resolved, t.prompt,
                        cfg.divergent_observations)
                assert_same_trajectory(t, reference.attach_observations(*args, omitted, key_of))
                for omit in (False, True):
                    assert_same_trajectory(
                        _attach_observations(*args, omit, key_of),
                        reference.attach_observations(*args, omit, key_of),
                    )
            retained = reference.intended_retained(ts)
            assert [id(t) for t in _intended_retained(ts)] == [id(t) for t in retained]
            scores = brute_force_scores(retained)
            pairs = reference.brute_force_pairs(scores)
            assert brute_force_pairs(scores) == pairs
            assert truth["retained"] == [t.trajectory_id for t in retained]
            assert truth["oracle_pairs"] == sorted([list(p), c, r] for p, c, r in pairs)
            assert render_truth(truth) == reference.render_truth(truth)

    @given(st.lists(st.tuples(
        st.integers(0, 1), st.lists(st.sampled_from(["a", "b", " b", "c"]), min_size=1, max_size=7),
    ), max_size=10))
    def test_intended_retained(self, records):
        ts = [
            make_traj(f"t{i}", [(a, "o") for a in actions[:-1]] + [(actions[-1], None)], resolved)
            for i, (resolved, actions) in enumerate(records)
        ]
        got = _intended_retained(ts)
        assert [id(t) for t in got] == [id(t) for t in reference.intended_retained(ts)]

    @given(
        st.dictionaries(
            st.lists(st.sampled_from("abcd"), max_size=4).map(tuple),
            st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
            max_size=40,
        ),
        st.fractions(0, 1, max_denominator=12),
    )
    def test_brute_force_pairs(self, prefix_scores, threshold):
        got = brute_force_pairs(prefix_scores, threshold)
        assert got == reference.brute_force_pairs(prefix_scores, threshold)

    @given(st.fixed_dictionaries({
        "instance_id": st.text(min_size=1),
        "retained": st.lists(st.text(), max_size=3),
        "prefix_scores": st.dictionaries(
            st.text(), st.tuples(st.integers(0, 9), st.integers(1, 9)).map(list), max_size=4,
        ),
        "planted_pairs": st.lists(st.fixed_dictionaries({
            "prefix": st.lists(st.text(), max_size=3), "chosen": st.text(), "rejected": st.text(),
        }), max_size=2),
        # oracle pairs share prefixes, as a tree's siblings do
        "oracle_pairs": st.lists(st.tuples(
            st.sampled_from([[], ["a"], ["a", "b"]]) | st.lists(st.text(), max_size=3),
            st.text(), st.text(),
        ).map(list), max_size=6),
    }))
    def test_render_truth(self, truth):
        assert render_truth(truth) == reference.render_truth(truth)
