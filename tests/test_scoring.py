from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajtree.errors import ConfigError
from trajtree.scoring import (
    ALL_PAIRS,
    MAX_MIN,
    NodeScore,
    extract_critical_pairs,
    format_ratio,
    format_rational,
    identify_critical_actions,
    score_nodes,
)
from trajtree.synth import brute_force_scores
from trajtree.tree import ACTION, TrajTree, build_tree

from conftest import O_EDIT, O_SEARCH, PROMPT, make_traj


def scores_by_key(tree, scores):
    out = {}
    for node in tree.nodes.values():
        if node.kind == ACTION:
            out.setdefault(node.action_key, []).append(scores[node.node_id])
    return out


@pytest.fixture
def fixture_tree(fixture_trajectories):
    return build_tree("inst-fix-x", PROMPT, fixture_trajectories)


class TestScoreNodes:
    def test_fixture_scores(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        by_key = scores_by_key(fixture_tree, scores)
        assert by_key["test"][0].value == Fraction(1)
        assert by_key["edit"][0].value == Fraction(1, 2)
        assert by_key["delete"][0].value == Fraction(0)
        assert by_key["search"][0].value == Fraction(1, 3)
        submits = sorted(s.value for s in by_key["submit"])
        assert submits == [Fraction(0), Fraction(0)]
        assert scores[fixture_tree.root_id].value == Fraction(1, 3)

    def test_all_success(self):
        ts = [
            make_traj("t1", [("a", "o"), ("b", None)], 1),
            make_traj("t2", [("a", "o"), ("c", None)], 1),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        assert all(s.value == 1 for s in scores.values())

    def test_all_failure(self):
        ts = [make_traj("t1", [("a", None)], 0)]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        assert all(s.value == 0 for s in scores.values())

    def test_conservation(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        for node in fixture_tree.nodes.values():
            if node.children:
                assert scores[node.node_id].successes == sum(
                    scores[c].successes for c in node.children
                )
                assert scores[node.node_id].total == sum(
                    scores[c].total for c in node.children
                )
        assert scores[fixture_tree.root_id].total == fixture_tree.path_count

    def test_matches_brute_force_on_fixture(self, fixture_tree, fixture_trajectories):
        scores = score_nodes(fixture_tree)
        oracle = brute_force_scores(fixture_trajectories)
        assert oracle[("search", "edit")] == (1, 2)
        assert oracle[("search",)] == (1, 3)
        assert oracle[()] == (1, 3)
        by_key = scores_by_key(fixture_tree, scores)
        s = by_key["edit"][0]
        assert (s.successes, s.total) == oracle[("search", "edit")]


class TestIdentifyCritical:
    def test_fixture_exactly_one_triple(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        triples = identify_critical_actions(fixture_tree, scores)
        assert len(triples) == 1
        parent, chosen, rejected = triples[0]
        assert fixture_tree.nodes[parent].action_key == "edit"
        assert fixture_tree.nodes[chosen].action_key == "test"
        assert fixture_tree.nodes[rejected].action_key == "submit"

    def test_boundary_gap_exactly_half_not_emitted(self):
        # children scored 1 and 1/2: diff is exactly the threshold
        ts = [
            make_traj("t1", [("a", "o"), ("win", None)], 1),
            make_traj("t2", [("a", "o"), ("mixed", "o2"), ("x", None)], 1),
            make_traj("t3", [("a", "o"), ("mixed", "o2"), ("y", None)], 0),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        triples = identify_critical_actions(tree, scores)
        parents = {tree.nodes[p].action_key for p, _, _ in triples}
        assert "a" not in parents  # win(1) vs mixed(1/2): not strict
        assert len(triples) == 1  # but x(1) vs y(0) under mixed qualifies

    def test_three_children_two_pairs(self):
        ts = [
            make_traj("t1", [("a", "o"), ("p", None)], 1),
            make_traj("t2", [("a", "o"), ("q", None)], 1),
            make_traj("t3", [("a", "o"), ("r", None)], 0),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        triples = identify_critical_actions(tree, scores)
        named = {
            (tree.nodes[c].action_key, tree.nodes[r].action_key) for _, c, r in triples
        }
        assert named == {("p", "r"), ("q", "r")}

    def test_max_min_mode_emits_single_pair(self):
        ts = [
            make_traj("t1", [("a", "o"), ("p", None)], 1),
            make_traj("t2", [("a", "o"), ("q", None)], 1),
            make_traj("t3", [("a", "o"), ("r", None)], 0),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        triples = identify_critical_actions(tree, scores, pair_mode=MAX_MIN)
        assert len(triples) == 1
        _, chosen, rejected = triples[0]
        assert tree.nodes[chosen].action_key == "p"  # first max in child order
        assert tree.nodes[rejected].action_key == "r"

    def test_leaf_children_never_pair(self):
        # one trajectory terminates at "a" (leaf sibling), another continues
        ts = [
            make_traj("t1", [("a", None)], 0),
            make_traj("t2", [("a", "o"), ("b", None)], 1),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        assert identify_critical_actions(tree, scores) == []

    def test_threshold_monotone(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        counts = [
            len(identify_critical_actions(fixture_tree, scores, threshold=Fraction(n, 10)))
            for n in range(1, 10)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_invalid_threshold(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        with pytest.raises(ConfigError):
            identify_critical_actions(fixture_tree, scores, threshold=Fraction(3, 2))
        with pytest.raises(ConfigError, match="^unknown pair mode 'x'$"):
            identify_critical_actions(fixture_tree, scores, pair_mode="x")

    def test_emitted_pairs_always_exceed_threshold(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        for threshold in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for _, c, r in identify_critical_actions(fixture_tree, scores, threshold):
                assert scores[c].value - scores[r].value > threshold


def fraction_triples(counts, threshold, pair_mode):
    """Restatement of the sibling comparison in exact Fraction arithmetic."""
    value = {c: Fraction(s, t) for c, (s, t) in counts.items()}
    children = list(counts)
    if pair_mode == MAX_MIN:
        hi = max(children, key=value.get)
        lo = min(children, key=value.get)
        return [(0, hi, lo)] if value[hi] - value[lo] > threshold else []
    out = []
    for i, a in enumerate(children):
        for b in children[i + 1 :]:
            diff = value[a] - value[b]
            if diff > threshold:
                out.append((0, a, b))
            elif -diff > threshold:
                out.append((0, b, a))
    return out


def star_tree(n):
    """A root with n action children, scored directly by the test."""
    return TrajTree(
        "i", PROMPT, path_count=0, trajectory_ids=[], observation_divergences=0,
        parent=[-1] + [0] * n,
        action_key=[None] + [f"a{i}" for i in range(1, n + 1)],
        action_raw=[None] * (n + 1),
        observation=[None] * (n + 1),
        outcome=[None] * (n + 1),
        trajectory_id=[None] * (n + 1),
        children=[list(range(1, n + 1))] + [[] for _ in range(n)],
    )


_count = st.integers(1, 40).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t)))


class TestIntegerComparison:
    @given(
        st.lists(_count, min_size=2, max_size=8),
        st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda f: 0 < f < 1),
        st.sampled_from([ALL_PAIRS, MAX_MIN]),
    )
    @settings(max_examples=300)
    def test_matches_fraction_arithmetic(self, children, threshold, pair_mode):
        tree = star_tree(len(children))
        counts = {i: c for i, c in enumerate(children, start=1)}
        scores = {i: NodeScore(i, s, t) for i, (s, t) in counts.items()}
        got = identify_critical_actions(tree, scores, threshold, pair_mode)
        assert got == fraction_triples(counts, threshold, pair_mode)


class TestExtractPairs:
    def test_fixture_pair_context(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        triples = identify_critical_actions(fixture_tree, scores)
        pairs = extract_critical_pairs(fixture_tree, triples, scores)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.chosen == "test"
        assert pair.rejected == "submit"
        assert pair.score_chosen == 1
        assert pair.score_rejected == 0
        roles = [s.role for s in pair.context]
        assert roles == ["prompt", "action", "observation", "action", "observation"]
        contents = [s.content for s in pair.context]
        assert contents == [PROMPT, "search", O_SEARCH, "edit", O_EDIT]

    def test_depth_one_pair_has_prompt_only_context(self):
        ts = [
            make_traj("t1", [("good", None)], 1),
            make_traj("t2", [("good", "o"), ("x", None)], 1),
            make_traj("t3", [("bad", None)], 0),
            make_traj("t4", [("bad", "o"), ("y", None)], 0),
        ]
        tree = build_tree("inst-fix-x", PROMPT, ts)
        scores = score_nodes(tree)
        triples = identify_critical_actions(tree, scores)
        pairs = extract_critical_pairs(tree, triples, scores)
        assert len(pairs) == 1
        assert [s.role for s in pairs[0].context] == ["prompt"]

    def test_duplicate_pairs_after_canonicalization_merged(self, fixture_tree):
        scores = score_nodes(fixture_tree)
        triples = identify_critical_actions(fixture_tree, scores)
        pairs = extract_critical_pairs(fixture_tree, triples * 2, scores)
        assert len(pairs) == 1


def test_format_rational():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(2, 4)) == "1/2"


# totals past 2**53, where a float no longer holds every integer, included
_ratio = st.one_of(st.integers(1, 100), st.integers(2**53, 2**80)).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))
)


@given(_ratio)
@settings(max_examples=300)
def test_integer_formatting_matches_fraction(ratio):
    s, n = ratio
    assert format_ratio(s, n) == format_rational(Fraction(s, n))
    assert repr(s / n) == repr(float(Fraction(s, n)))
