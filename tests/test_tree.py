import pytest
from hypothesis import given, settings, strategies as st

from trajtree.emit import emit_stats
from trajtree.errors import InputError
from trajtree.ingest import ingest_trajectories
from trajtree.synth import SynthConfig, generate
from trajtree.tree import (
    ACTION,
    LEAF,
    build_tree,
    enumerate_paths,
    path_ids,
    tree_to_dict,
)

from conftest import PROMPT, make_traj, synth_configs


def build_fixture_tree(fixture_trajectories):
    return build_tree("inst-fix-x", PROMPT, fixture_trajectories)


def action_children(tree, node_id):
    return [
        tree.nodes[c] for c in tree.nodes[node_id].children if tree.nodes[c].kind == ACTION
    ]


def find_action(tree, key, under=None):
    start = under if under is not None else tree.root_id
    for child in action_children(tree, start):
        if child.action_key == key:
            return child
    raise AssertionError(f"no child {key!r} under node {start}")


class TestBuildTree:
    def test_fixture_shape(self, fixture_trajectories):
        tree = build_fixture_tree(fixture_trajectories)
        assert tree.path_count == 3
        search = find_action(tree, "search")
        edit = find_action(tree, "edit", under=search.node_id)
        delete = find_action(tree, "delete", under=search.node_id)
        assert {c.action_key for c in action_children(tree, edit.node_id)} == {
            "test",
            "submit",
        }
        assert {c.action_key for c in action_children(tree, delete.node_id)} == {"submit"}

    def test_single_trajectory_is_a_chain(self):
        t = make_traj("t1", [("a", "o1"), ("b", "o2"), ("c", None)], 1)
        tree = build_tree("inst-fix-x", PROMPT, [t])
        assert tree.path_count == 1
        paths = enumerate_paths(tree)
        assert paths == [(("a", "b", "c"), 1, "t1")]

    def test_identical_actions_different_outcomes_share_chain(self):
        t1 = make_traj("t1", [("a", "o"), ("b", None)], 1)
        t2 = make_traj("t2", [("a", "o"), ("b", None)], 0)
        tree = build_tree("inst-fix-x", PROMPT, [t1, t2])
        a = find_action(tree, "a")
        b = find_action(tree, "b", under=a.node_id)
        leaves = [tree.nodes[c] for c in tree.nodes[b.node_id].children]
        assert [leaf.kind for leaf in leaves] == [LEAF, LEAF]
        assert sorted(leaf.outcome for leaf in leaves) == [0, 1]

    def test_prompt_mismatch_rejected(self, fixture_trajectories):
        with pytest.raises(InputError, match="prompt mismatch"):
            build_tree("inst-fix-x", "other prompt", fixture_trajectories)
        stray = make_traj("t", [("a", None)], 1, instance_id="B")
        with pytest.raises(InputError, match="^trajectory 't' belongs to 'B', not 'A'$"):
            build_tree("A", PROMPT, [stray])

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            build_tree("i", "p", [])

    def test_no_sibling_shares_merge_key(self, fixture_trajectories):
        tree = build_fixture_tree(fixture_trajectories)
        for node in tree.nodes.values():
            keys = [
                tree.nodes[c].action_key
                for c in node.children
                if tree.nodes[c].kind == ACTION
            ]
            assert len(keys) == len(set(keys))

    def test_merge_preserves_raw_text(self):
        # same canonical key, different raw text; first-seen raw is stored
        t1 = make_traj("t1", [("run  tests", None)], 1)
        t2 = make_traj("t2", [("run tests", None)], 0)
        tree = build_tree("inst-fix-x", PROMPT, [t1, t2])
        node = find_action(tree, "run tests")
        assert node.action_raw == "run  tests"

    def test_determinism(self, fixture_trajectories):
        a = tree_to_dict(build_fixture_tree(fixture_trajectories))
        b = tree_to_dict(build_fixture_tree(fixture_trajectories))
        assert a == b


class TestObservationMerging:
    def test_divergence_counted_and_first_kept(self):
        t1 = make_traj("t1", [("a", "obs-one"), ("b", None)], 1)
        t2 = make_traj("t2", [("a", "obs-two"), ("c", None)], 0)
        tree = build_tree("inst-fix-x", PROMPT, [t1, t2])
        assert tree.observation_divergences == 1
        assert find_action(tree, "a").observation == "obs-one"

    def test_none_observation_backfilled(self):
        t1 = make_traj("t1", [("a", None)], 0)  # final step, no observation
        t2 = make_traj("t2", [("a", "late-obs"), ("b", None)], 1)
        tree = build_tree("inst-fix-x", PROMPT, [t1, t2])
        assert tree.observation_divergences == 0
        assert find_action(tree, "a").observation == "late-obs"

    def test_strict_merge_splits_on_divergence(self):
        t1 = make_traj("t1", [("a", "obs-one"), ("b", None)], 1)
        t2 = make_traj("t2", [("a", "obs-two"), ("c", None)], 0)
        tree = build_tree("inst-fix-x", PROMPT, [t1, t2], strict_merge=True)
        nodes_a = [n for n in tree.nodes.values() if n.action_key == "a"]
        assert len(nodes_a) == 2


class TestParentIds:
    @pytest.mark.parametrize("strict_merge", [False, True])
    def test_parent_lists_child(self, strict_merge):
        corpus, _ = generate(SynthConfig(seed=3, instances=4, divergent_observations=True))
        ts = [t for t in corpus if t.instance_id == corpus[0].instance_id]
        tree = build_tree(ts[0].instance_id, ts[0].prompt, ts, strict_merge=strict_merge)
        assert tree.nodes[tree.root_id].parent_id is None
        for node in tree.nodes.values():
            if node.node_id != tree.root_id:
                assert node.node_id in tree.nodes[node.parent_id].children

    @given(synth_configs, st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ids_are_the_tree_order(self, cfg, divergent, strict_merge):
        # the root is node 0 and every other node's parent has a lower id, which
        # the sweeps over a tree (subtree_counts, path_totals) rely on
        corpus, _ = generate(cfg._replace(divergent_observations=divergent))
        groups, _ = ingest_trajectories(corpus)
        for instance_id, ts in groups.items():
            tree = build_tree(instance_id, ts[0].prompt, ts, strict_merge=strict_merge)
            parent, children = tree.parent, tree.children
            assert parent[0] == -1
            for i in range(1, len(parent)):
                assert 0 <= parent[i] < i and i in children[parent[i]]
            assert sum(map(len, children)) == len(parent) - 1

    def test_path_nodes_follow_children(self, fixture_trajectories):
        tree = build_fixture_tree(fixture_trajectories)
        parents = {c: n.node_id for n in tree.nodes.values() for c in n.children}
        for node in tree.nodes.values():
            if node.kind != ACTION:
                continue
            path = path_ids(tree, node.node_id)
            assert path[-1] == node.node_id
            assert [parents[nid] for nid in path] == [tree.root_id] + path[:-1]

    def test_parent_id_not_exported(self, fixture_trajectories):
        exported = tree_to_dict(build_fixture_tree(fixture_trajectories))
        assert all("parent_id" not in node for node in exported["nodes"])


class TestEnumeratePaths:
    def test_fixture_reconstruction(self, fixture_trajectories):
        tree = build_fixture_tree(fixture_trajectories)
        got = {(keys, outcome) for keys, outcome, _ in enumerate_paths(tree)}
        want = {(t.action_keys(), t.resolved) for t in fixture_trajectories}
        assert got == want

    def test_leaf_count_equals_trajectory_count(self, fixture_trajectories):
        tree = build_fixture_tree(fixture_trajectories)
        leaves = [n for n in tree.nodes.values() if n.kind == LEAF]
        assert len(leaves) == len(fixture_trajectories) == tree.path_count


class TestTreeStats:
    def test_single_successful_trajectory(self):
        t = make_traj("t1", [("ab", "cd"), ("ef", None)], 1)
        stats = emit_stats(None, [build_tree("inst-fix-x", PROMPT, [t])], [])
        assert stats["instance_count"] == 1
        assert stats["trajectory_count"] == 1
        assert stats["successful_count"] == 1
        assert stats["wrong_count"] == 0
        assert stats["avg_path_len"] == 2
        chars = len(PROMPT) + len("ab") + len("cd") + len("ef")
        assert stats["avg_char_len"] == chars
        assert stats["avg_token_len"] == round(chars / 4)

    def test_empty_input_all_zero(self):
        stats = emit_stats(None, [], [])
        assert stats["instance_count"] == 0
        assert stats["trajectory_count"] == 0
        assert stats["avg_path_len"] == 0
