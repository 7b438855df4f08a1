import pytest
from hypothesis import given, settings, strategies as st

from trajtree import ingest
from trajtree.cli import main
from trajtree.errors import ConfigError, InputError, InvariantError
from trajtree.ingest import (
    deduplicate,
    filter_loops,
    filter_outliers,
    group_by_instance,
    ingest_trajectories,
    max_identical_run,
)
from trajtree.model import serialize_trajectory

from conftest import make_traj


def chain(trajectory_id, actions, resolved=0, instance_id="i1"):
    pairs = [(a, f"obs-{i}") for i, a in enumerate(actions)]
    return make_traj(trajectory_id, pairs, resolved, instance_id=instance_id)


class TestDeduplicate:
    def test_same_actions_same_resolved_is_duplicate(self):
        ts = [chain("t1", ["a", "b"], 1), chain("t2", ["a", "b"], 1)]
        kept, removed = deduplicate(ts)
        assert [t.trajectory_id for t in kept] == ["t1"]  # first occurrence wins
        assert removed == 1

    def test_resolved_is_part_of_the_key(self):
        ts = [chain("t1", ["a", "b"], 1), chain("t2", ["a", "b"], 0)]
        kept, removed = deduplicate(ts)
        assert len(kept) == 2 and removed == 0

    def test_scoped_per_instance(self):
        ts = [chain("t1", ["a"], 1), chain("t2", ["a"], 1, instance_id="i2")]
        kept, removed = deduplicate(ts)
        assert len(kept) == 2 and removed == 0

    def test_canonicalized_actions_compared(self):
        ts = [chain("t1", ["a  b"], 1), chain("t2", ["a b"], 1)]
        kept, removed = deduplicate(ts)
        assert removed == 1


class TestFilterLoops:
    def test_three_identical_consecutive_removed(self):
        ts = [chain("t1", ["a", "a", "a", "b"])]
        kept, removed = filter_loops(ts, n=3)
        assert kept == [] and removed == 1

    def test_run_of_two_kept(self):
        ts = [chain("t1", ["a", "a", "b", "a"])]
        kept, removed = filter_loops(ts, n=3)
        assert len(kept) == 1 and removed == 0

    def test_alternation_kept(self):
        ts = [chain("t1", ["a", "b", "a", "b"])]
        kept, removed = filter_loops(ts, n=3)
        assert len(kept) == 1 and removed == 0

    def test_threshold_below_two_rejected(self):
        with pytest.raises(ConfigError):
            filter_loops([], n=1)

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12), st.integers(2, 4))
    def test_never_removes_short_runs(self, actions, n):
        t = chain("t", list(actions))
        kept, removed = filter_loops([t], n=n)
        if max_identical_run(t.action_keys()) < n:
            assert kept == [t] and removed == 0
        else:
            assert kept == [] and removed == 1


class TestFilterOutliers:
    def test_zero_overlap_removed(self):
        groups = group_by_instance(
            [
                chain("t1", ["search", "a"]),
                chain("t2", ["search", "b"]),
                chain("t3", ["rm_rf", "c"]),
            ]
        )
        out, removed = filter_outliers(groups, k=1)
        assert removed == 1
        assert [t.trajectory_id for t in out["i1"]] == ["t1", "t2"]
        # one shared action is the least overlap a threshold can ask for
        with pytest.raises(ConfigError, match="^outlier prefix threshold must be >= 1, got 0$"):
            filter_outliers(groups, k=0)

    def test_singleton_instance_exempt(self):
        groups = group_by_instance([chain("t1", ["x"])])
        out, removed = filter_outliers(groups, k=1)
        assert removed == 0 and len(out["i1"]) == 1

    def test_shared_first_action_all_kept(self):
        groups = group_by_instance(
            [chain("t1", ["a", "x"]), chain("t2", ["a", "y"]), chain("t3", ["a", "z"])]
        )
        out, removed = filter_outliers(groups, k=1)
        assert removed == 0 and len(out["i1"]) == 3

    def test_mutually_vouching_pair_survives(self):
        groups = group_by_instance(
            [chain("t1", ["a", "x"]), chain("t2", ["a", "y"]), chain("t3", ["b"])]
        )
        out, removed = filter_outliers(groups, k=1)
        assert removed == 1
        assert {t.trajectory_id for t in out["i1"]} == {"t1", "t2"}


class TestGrouping:
    def test_prompt_mismatch_is_input_error(self):
        ts = [
            chain("t1", ["a"]),
            make_traj("t2", [("a", None)], 0, instance_id="i1", prompt="different"),
        ]
        with pytest.raises(InputError, match="conflicting prompts"):
            group_by_instance(ts)


class TestPipeline:
    def test_fixture_counts(self):
        ts = [
            chain("t1", ["a", "b"], 1),
            chain("t2", ["a", "b"], 1),  # duplicate of t1
            chain("t3", ["x", "x", "x"], 0),  # loop
            chain("t4", ["a", "c"], 0),
        ]
        groups, report = ingest_trajectories(ts)
        assert report.input_count == 4
        assert report.duplicates_removed == 1
        assert report.loops_removed == 1
        assert report.outliers_removed == 0
        assert report.retained == 2
        assert report.per_instance_retained == {"i1": 2}

    def test_empty_corpus(self):
        groups, report = ingest_trajectories([])
        assert groups == {} and report.input_count == 0 and report.retained == 0

    def test_nothing_removable(self):
        ts = [chain("t1", ["a", "b"], 1), chain("t2", ["a", "c"], 0)]
        _, report = ingest_trajectories(ts)
        assert report.retained == report.input_count == 2

    def test_uncounted_drop_is_an_invariant_error(self, monkeypatch, tmp_path, capsys):
        ts = [chain("t1", ["a", "b"], 1), chain("t2", ["a", "c"], 0)]
        original = ingest.filter_loops

        def dropping(*args):  # loses the first trajectory without counting it
            kept, removed = original(*args)
            return kept[1:], removed

        monkeypatch.setattr(ingest, "filter_loops", dropping)
        with pytest.raises(InvariantError, match="ingest conservation violated"):
            ingest_trajectories(ts)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(serialize_trajectory(t) + "\n" for t in ts), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(corpus), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: ingest conservation violated\n"
        assert list(out.iterdir()) == []


@st.composite
def corpora(draw):
    ts = []
    n = draw(st.integers(0, 10))
    for i in range(n):
        instance = draw(st.sampled_from(["i1", "i2"]))
        actions = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6))
        ts.append(chain(f"t{i}", actions, draw(st.integers(0, 1)), instance_id=instance))
    return ts


class TestProperties:
    @given(corpora())
    @settings(max_examples=150)
    def test_conservation(self, ts):
        _, report = ingest_trajectories(ts)
        assert (
            report.duplicates_removed
            + report.loops_removed
            + report.outliers_removed
            + report.retained
            == report.input_count
        )

    @given(corpora())
    @settings(max_examples=150)
    def test_idempotent_on_own_output(self, ts):
        groups, _ = ingest_trajectories(ts)
        retained = [t for group in groups.values() for t in group]
        groups2, report2 = ingest_trajectories(retained)
        assert report2.retained == report2.input_count == len(retained)
        assert groups2 == groups

    @given(corpora(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_outliers_match_pairwise_overlap(self, ts, k):
        def overlap(a, b):
            n = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                n += 1
            return n

        groups = group_by_instance(ts)
        want, want_removed = {}, 0
        for inst, group in groups.items():
            kept = [
                t
                for t in group
                if len(group) <= 1
                or max(overlap(t.action_keys(), u.action_keys()) for u in group if u is not t) >= k
            ]
            want_removed += len(group) - len(kept)
            if kept:
                want[inst] = kept
        assert filter_outliers(groups, k=k) == (want, want_removed)

    @given(corpora(), st.randoms())
    @settings(max_examples=150)
    def test_membership_invariant_under_permutation(self, ts, rnd):
        def signature(groups):
            return {
                inst: {(t.resolved, t.action_keys()) for t in group}
                for inst, group in groups.items()
            }

        groups_a, _ = ingest_trajectories(ts)
        shuffled = list(ts)
        rnd.shuffle(shuffled)
        groups_b, _ = ingest_trajectories(shuffled)
        assert signature(groups_a) == signature(groups_b)
