"""End-to-end acceptance checks. Each test prints a PASS line on success."""

import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath

from trajtree.cli import main
from trajtree.emit import emit_sft, emit_stats
from trajtree.ingest import filter_loops, filter_outliers, group_by_instance, ingest_trajectories
from trajtree.losses import DpoInputs, TrajectoryLogProbs, dpo_loss, dpo_loss_grad, sft_loss
from trajtree.pipeline import StageConfig, mine_instance, process_instances
from trajtree.scoring import extract_critical_pairs, identify_critical_actions, score_nodes
from trajtree.synth import SynthConfig, brute_force_pairs, brute_force_scores, generate
from trajtree.tree import ACTION, LEAF, build_tree, enumerate_paths

from conftest import PROMPT, make_traj, prefix_pairs, prefix_scores


def _passed(name: str) -> None:
    print(f"PASS: {name}")


def test_criterion_1_oracle_equivalence():
    """`mine_instance`'s counts and triples match brute-force oracles on >= 200 instances."""
    start = time.monotonic()
    checked = 0
    rng = random.Random(20260826)
    for seed in range(40):
        cfg = SynthConfig(
            seed=seed,
            instances=6,
            branching=rng.randint(1, 3),
            depth=rng.randint(1, 6),
            trajectories_per_instance=rng.randint(1, 8),
            planted_critical=rng.randint(0, 2),
            loop_rate=rng.uniform(0, 0.3),
            outlier_rate=rng.uniform(0, 0.3),
            duplicate_rate=rng.uniform(0, 0.3),
        )
        corpus, _ = generate(cfg)
        groups, _ = ingest_trajectories(corpus)
        for instance_id, ts in groups.items():
            tree, successes, totals, triples = mine_instance(instance_id, ts, StageConfig())
            oracle_scores = brute_force_scores(ts)
            assert prefix_scores(tree, successes, totals) == oracle_scores
            oracle_pairs = brute_force_pairs(oracle_scores, Fraction(1, 2))
            assert prefix_pairs(tree, triples) == oracle_pairs
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 200, checked
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _passed(f"criterion 1: oracle equivalence on {checked} instances in {elapsed:.1f}s")


def test_criterion_2_fixture_reproduction(fixture_trajectories):
    """Exact fixture scores; exactly one pair; the 1/2 boundary is excluded."""
    tree = build_tree("inst-fix-x", PROMPT, fixture_trajectories)
    scores = score_nodes(tree)
    by_key = {}
    for node in tree.nodes.values():
        if node.kind == ACTION:
            by_key.setdefault(node.action_key, []).append(scores[node.node_id].value)
    assert by_key["test"] == [Fraction(1)]
    assert by_key["edit"] == [Fraction(1, 2)]
    assert by_key["delete"] == [Fraction(0)]
    assert by_key["search"] == [Fraction(1, 3)]
    assert sorted(by_key["submit"]) == [Fraction(0), Fraction(0)]
    triples = identify_critical_actions(tree, scores)
    pairs = extract_critical_pairs(tree, triples, scores)
    assert len(pairs) == 1
    assert pairs[0].chosen == "test" and pairs[0].rejected == "submit"
    parents = {tree.nodes[p].action_key for p, _, _ in triples}
    assert "search" not in parents  # edit(1/2) vs delete(0) sits exactly at 1/2
    _passed("criterion 2: fixture scores and single critical pair reproduced")


def test_criterion_3_loss_oracle():
    start = time.monotonic()
    rng = random.Random(99)
    ln2 = math.log(2)
    for _ in range(100):
        beta = rng.uniform(1e-3, 5.0)
        pc, pr = rng.uniform(-50, 0), rng.uniform(-50, 0)
        x = DpoInputs(policy_chosen=pc, policy_rejected=pr,
                      ref_chosen=pc, ref_rejected=pr, beta=beta)
        assert abs(dpo_loss(x) - ln2) < 1e-12
    # worked example: beta=0.1, chosen margin +0.5, rejected margin -1.0
    x = DpoInputs(policy_chosen=-2.0, policy_rejected=-3.0,
                  ref_chosen=-2.5, ref_rejected=-2.0, beta=0.1)
    with mpmath.workdps(60):
        expected = float(-mpmath.log(mpmath.sigmoid(mpmath.mpf("0.15"))))
    assert abs(dpo_loss(x) - expected) < 1e-12
    assert abs(dpo_loss(x) - 0.62095) < 1e-4
    # analytic gradient vs central differences, 1000 random inputs
    h = 1e-6
    fields = ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected")
    for _ in range(1000):
        vals = {f: rng.uniform(-50, 0) for f in fields}
        x = DpoInputs(beta=rng.uniform(1e-3, 5.0), **vals)
        grad = dpo_loss_grad(x)
        for f in fields:
            up = dpo_loss(x._replace(**{f: vals[f] + h}))
            down = dpo_loss(x._replace(**{f: vals[f] - h}))
            assert abs(getattr(grad, f) - (up - down) / (2 * h)) < 1e-6
    # stability at extreme arguments
    for sign in (1, -1):
        x = DpoInputs(policy_chosen=sign * 700.0, policy_rejected=0.0,
                      ref_chosen=0.0, ref_rejected=0.0, beta=1.0)
        assert math.isfinite(dpo_loss(x))
        grad = dpo_loss_grad(x)
        assert all(math.isfinite(getattr(grad, f)) for f in fields)
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"took {elapsed:.1f}s"
    _passed(f"criterion 3: loss oracle (ln2, worked example, gradients) in {elapsed:.1f}s")


def test_criterion_4_masking_invariance():
    rng = random.Random(4)
    for _ in range(100):
        actions = tuple(rng.uniform(-30, 0) for _ in range(rng.randint(1, 10)))
        base = sft_loss(TrajectoryLogProbs(actions))
        assert base == -math.fsum(actions)
        for _ in range(100):
            obs = tuple(rng.uniform(-1e6, 1e6) for _ in range(rng.randint(0, 6)))
            assert sft_loss(TrajectoryLogProbs(actions, obs)) == base
    _passed("criterion 4: SFT loss bit-identical under observation perturbation")


def test_criterion_5_conservation_and_reconstruction():
    for seed in range(10):
        corpus, _ = generate(SynthConfig(seed=seed, instances=8))
        groups, report = ingest_trajectories(corpus)
        assert (
            report.duplicates_removed + report.loops_removed
            + report.outliers_removed + report.retained
            == report.input_count
        )
        results = process_instances(groups, StageConfig())
        for instance_id, ts in groups.items():
            tree = results[instance_id].tree
            leaves = [n for n in tree.nodes.values() if n.kind == LEAF]
            assert len(leaves) == len(ts)
            got = {(keys, outcome) for keys, outcome, _ in enumerate_paths(tree)}
            want = {(t.action_keys(), t.resolved) for t in ts}
            assert got == want
    _passed("criterion 5: conservation and path reconstruction on synthetic corpora")


def test_criterion_6_filtration_rules():
    def chain(tid, actions, resolved=0):
        pairs = [(a, f"o{i}") for i, a in enumerate(actions)]
        return make_traj(tid, pairs, resolved)

    # three consecutive identical actions removed at the default threshold
    looped = chain("loop", ["a", "b", "b", "b"])
    kept, removed = filter_loops([looped])
    assert kept == [] and removed == 1
    # zero-overlap outlier removed at k=1
    groups = group_by_instance([chain("t1", ["a", "x"]), chain("t2", ["a", "y"]),
                                chain("t3", ["z"])])
    out, removed = filter_outliers(groups)
    assert removed == 1
    assert {t.trajectory_id for t in out["inst-fix-x"]} == {"t1", "t2"}
    # singleton instances exempt
    out, removed = filter_outliers(group_by_instance([chain("only", ["q"])]))
    assert removed == 0 and len(out["inst-fix-x"]) == 1
    # ingest idempotent on its own output
    corpus, _ = generate(SynthConfig(seed=66, instances=10, loop_rate=0.3,
                                     outlier_rate=0.3, duplicate_rate=0.3))
    groups, _ = ingest_trajectories(corpus)
    retained = [t for ts in groups.values() for t in ts]
    groups2, report2 = ingest_trajectories(retained)
    assert report2.retained == report2.input_count == len(retained)
    assert groups2 == groups
    _passed("criterion 6: loop/outlier filtration rules and ingest idempotence")


def test_criterion_7_determinism(tmp_path):
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--seed", "21", "--instances", "10",
                 "--out-dir", str(synth_dir)]) == 0
    corpus = synth_dir / "corpus.jsonl"
    outputs = []
    for i, jobs in enumerate(("1", "1", "8")):
        out = tmp_path / f"run{i}"
        assert main(["all", "--input", str(corpus), "--out-dir", str(out),
                     "--jobs", jobs]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]
    checks = []
    for jobs in ("1", "1", "8"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["selfcheck", "--seed", "21", "--jobs", jobs]) == 0
        checks.append(buf.getvalue())
    assert checks[0] == checks[1] == checks[2]
    _passed("criterion 7: byte-identical outputs across reruns and jobs 1 vs 8")


def test_criterion_8_emission_contracts():
    corpus, _ = generate(SynthConfig(seed=8, instances=10))
    groups, _ = ingest_trajectories(corpus)
    retained = [t for ts in groups.values() for t in ts]
    by_id = {t.trajectory_id: t for t in retained}
    examples, _ = emit_sft(retained)
    assert len(examples) == sum(1 for t in retained if t.resolved == 1)
    failures = {t.trajectory_id for t in retained if t.resolved == 0}
    for ex in examples:
        assert ex.trajectory_id not in failures
        source = by_id[ex.trajectory_id]
        assert ex.segments[0].role == "prompt" and not ex.segments[0].loss
        for seg in ex.segments:
            assert seg.loss == (seg.role == "action")
        rebuilt = "".join(s.content for s in ex.segments)
        want = source.prompt + "".join(
            step.action + (step.observation or "") for step in source.steps
        )
        assert rebuilt == want
    results = process_instances(groups, StageConfig())
    pairs = [p for r in results.values() for p in r.pairs]
    from trajtree.emit import emit_dpo

    dpo_examples = emit_dpo(pairs)
    assert len(dpo_examples) == len(pairs)
    for ex in dpo_examples:
        context_flat = "".join(s.content for s in ex.context)
        matched = False
        for t in groups[ex.instance_id]:
            prefix = t.prompt
            for step in t.steps:
                if context_flat == prefix:
                    matched = True
                    break
                prefix += step.action + (step.observation or "")
            if context_flat == prefix:
                matched = True
            if matched:
                break
        assert matched, "DPO context is not a verbatim retained-trajectory prefix"
    _passed("criterion 8: SFT/DPO emission contracts hold on a synthetic corpus")


def test_criterion_9_stats_schema(fixture_trajectories):
    groups, report = ingest_trajectories(fixture_trajectories)
    results = process_instances(groups, StageConfig())
    pairs = [p for r in results.values() for p in r.pairs]
    stats = emit_stats(report, [r.tree for r in results.values()], pairs)
    for field in ("instance_count", "trajectory_count", "successful_count",
                  "wrong_count", "avg_token_len", "avg_path_len",
                  "critical_pair_count"):
        assert field in stats, field
    assert stats["instance_count"] == 1
    assert stats["trajectory_count"] == 3
    assert stats["successful_count"] == 1
    assert stats["wrong_count"] == 2
    assert stats["critical_pair_count"] == 1
    assert stats["avg_path_len"] == 3
    chars = [
        len(t.prompt) + sum(len(s.action) + len(s.observation or "") for s in t.steps)
        for t in fixture_trajectories
    ]
    assert stats["avg_char_len"] == sum(chars) / 3
    assert stats["avg_token_len"] == round(sum(chars) / 3 / 4)
    _passed("criterion 9: statistics schema complete and exact on known fixture")
