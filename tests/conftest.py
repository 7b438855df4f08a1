import pytest
from hypothesis import strategies as st

from trajtree.model import Step, Trajectory
from trajtree.synth import SynthConfig
from trajtree.tree import path_ids

PROMPT = "Fix the failing unit test in repo X."

O_SEARCH = "grep results: 3 matches in handlers.py"
O_EDIT = "edit applied to handlers.py"
O_DELETE = "removed handlers.py"


synth_configs = st.builds(
    SynthConfig,
    seed=st.integers(0, 10_000),
    instances=st.integers(1, 8),
    branching=st.integers(1, 3),
    depth=st.integers(1, 6),
    trajectories_per_instance=st.integers(0, 8),
    planted_critical=st.integers(0, 2),
    loop_rate=st.floats(0, 0.4),
    outlier_rate=st.floats(0, 0.4),
    duplicate_rate=st.floats(0, 0.4),
)


def make_traj(trajectory_id, actions_obs, resolved, instance_id="inst-fix-x", prompt=PROMPT):
    steps = tuple(Step(action=a, observation=o) for a, o in actions_obs)
    return Trajectory(
        instance_id=instance_id,
        trajectory_id=trajectory_id,
        prompt=prompt,
        steps=steps,
        resolved=resolved,
    )


def prefix_scores(tree, successes, totals):
    """`mine_instance`'s counts at the root and every action node, keyed by
    the canonical action keys on its path, as `brute_force_scores` keys them."""
    return {
        tuple(tree.action_key[j] for j in path_ids(tree, i)): (successes[i], totals[i])
        for i, outcome in enumerate(tree.outcome) if outcome is None
    }


def prefix_pairs(tree, triples):
    """`mine_instance`'s triples as (parent's key prefix, chosen key,
    rejected key), as `brute_force_pairs` gives them."""
    key = tree.action_key
    return {(tuple(key[j] for j in path_ids(tree, p)), key[c], key[r]) for p, c, r in triples}


@pytest.fixture
def fixture_trajectories():
    """Three trajectories: scores search=1/3, edit=1/2, delete=0, test=1, submit=0.

    Exactly one critical pair: under edit, chosen=test (1) vs rejected=submit (0).
    The (edit=1/2, delete=0) sibling gap is exactly 1/2 and must NOT qualify.
    """
    t1 = make_traj(
        "t1",
        [("search", O_SEARCH), ("edit", O_EDIT), ("test", None)],
        resolved=1,
    )
    t2 = make_traj(
        "t2",
        [("search", O_SEARCH), ("edit", O_EDIT), ("submit", None)],
        resolved=0,
    )
    t3 = make_traj(
        "t3",
        [("search", O_SEARCH), ("delete", O_DELETE), ("submit", None)],
        resolved=0,
    )
    return [t1, t2, t3]
