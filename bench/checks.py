"""Output checks for the benchmark, made from outside on the CLI's files.

Nothing here imports trajtree: every check reads the files the CLI wrote
and compares them with the synth ground truth (`ground_truth.json`) or
with each other, so a defect in the program cannot hide itself by
agreeing with its own code.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

OUTPUTS = (
    "retained.jsonl",
    "ingest_report.json",
    "trees.jsonl",
    "scored_trees.jsonl",
    "pairs.jsonl",
    "sft.jsonl",
    "dpo.jsonl",
    "stats.json",
)

# ground_truth.json joins a canonical action prefix with this separator
PREFIX_JOIN = "\x1f"
SCORE_COLUMNS = ("successes", "total", "score")
_WS_RUN = re.compile(r"\s+")


class Mismatch(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def canon(action: str) -> str:
    """The default action canonicalization: trim and collapse whitespace runs."""
    return _WS_RUN.sub(" ", action.strip())


def digests(out: Path, names: tuple[str, ...] = OUTPUTS) -> dict[str, str]:
    """sha256 per output file; a missing file digests as 'missing'."""
    result = {}
    for name in names:
        path = out / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return result


def _lines(path: Path) -> list[dict[str, Any]]:
    data = path.read_bytes()
    expect(data == b"" or data.endswith(b"\n"), f"{path.name} does not end with a newline")
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def _doc(path: Path) -> dict[str, Any]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    expect(isinstance(doc, dict), f"{path.name} is not a JSON object")
    return doc


class _Outputs:
    """The files of one output directory, parsed once, plus the ground truth."""

    def __init__(self, out: Path, truth: dict[str, Any], input_count: int) -> None:
        self.out = out
        self.truth = truth["instances"]
        self.input_count = input_count

    @cached_property
    def retained(self) -> list[dict[str, Any]]:
        return _lines(self.out / "retained.jsonl")

    @cached_property
    def scored(self) -> list[dict[str, Any]]:
        return _lines(self.out / "scored_trees.jsonl")

    @cached_property
    def trees(self) -> list[dict[str, Any]]:
        return _lines(self.out / "trees.jsonl")

    @cached_property
    def pairs(self) -> list[dict[str, Any]]:
        return _lines(self.out / "pairs.jsonl")

    @cached_property
    def report(self) -> dict[str, Any]:
        return _doc(self.out / "ingest_report.json")


def _retained_ids(records: list[dict[str, Any]]) -> dict[str, list[str]]:
    ids: dict[str, list[str]] = {}
    for rec in records:
        ids.setdefault(rec["instance_id"], []).append(rec["trajectory_id"])
    return ids


def check_retained(o: _Outputs) -> None:
    got = _retained_ids(o.retained)
    expect(set(got) <= set(o.truth), f"retained.jsonl has unknown instances {sorted(set(got) - set(o.truth))[:3]}")
    for instance_id, rec in o.truth.items():
        expect(
            got.get(instance_id, []) == rec["retained"],
            f"retained.jsonl: {instance_id} retained ids differ from ground truth",
        )


def check_ingest_report(o: _Outputs) -> None:
    r = o.report
    removed = r["duplicates_removed"] + r["loops_removed"] + r["outliers_removed"]
    expect(removed + r["retained"] == r["input_count"], "ingest_report.json violates conservation")
    expect(r["input_count"] == o.input_count, "ingest_report.json input_count != corpus lines")
    expect(r["malformed_skipped"] == 0, "ingest_report.json skipped lines of a well-formed corpus")
    want = {k: len(v["retained"]) for k, v in o.truth.items() if v["retained"]}
    expect(r["per_instance_retained"] == want, "ingest_report.json per_instance_retained differs")
    expect(sum(want.values()) == r["retained"], "ingest_report.json retained differs from ground truth")
    expect("effective_config" in r, "ingest_report.json lacks effective_config")


def _node_prefixes(tree: dict[str, Any]) -> dict[int, tuple[str, ...]]:
    """Canonical action prefix of every node, walking down from the root."""
    nodes = {n["node_id"]: n for n in tree["nodes"]}
    prefixes = {tree["root_id"]: ()}
    stack = [tree["root_id"]]
    while stack:
        node = nodes[stack.pop()]
        prefix = prefixes[node["node_id"]]
        if node["kind"] == "action":
            prefix = prefix + (node["action_key"],)
            prefixes[node["node_id"]] = prefix
        for child in node["children"]:
            prefixes[child] = prefix
            stack.append(child)
    expect(len(prefixes) == len(nodes), f"{tree['instance_id']}: nodes unreachable from the root")
    return prefixes


def check_scored_trees(o: _Outputs) -> None:
    trees = o.scored
    want_order = [k for k, v in o.truth.items() if v["retained"]]
    expect([t["instance_id"] for t in trees] == want_order, "scored_trees.jsonl instance order differs")
    for tree in trees:
        truth_scores = {
            tuple(k.split(PREFIX_JOIN)) if k else (): tuple(v)
            for k, v in o.truth[tree["instance_id"]]["prefix_scores"].items()
        }
        prefixes = _node_prefixes(tree)
        got: dict[tuple[str, ...], tuple[int, int]] = {}
        for node in tree["nodes"]:
            s, n = node["successes"], node["total"]
            expect(node["score"] == f"{s}/{n}", f"{tree['instance_id']}: score column disagrees")
            if node["kind"] == "leaf":
                expect((s, n) == (node["outcome"], 1), f"{tree['instance_id']}: leaf score != outcome")
            else:
                got[prefixes[node["node_id"]]] = (s, n)
        expect(got == truth_scores, f"scored_trees.jsonl: {tree['instance_id']} scores differ from prefix_scores")


def check_trees(o: _Outputs) -> None:
    trees, scored = o.trees, o.scored
    expect(len(trees) == len(scored), "trees.jsonl and scored_trees.jsonl differ in length")
    for tree, stree in zip(trees, scored):
        plain = dict(stree, nodes=[
            {k: v for k, v in n.items() if k not in SCORE_COLUMNS} for n in stree["nodes"]
        ])
        expect(tree == plain, f"trees.jsonl: {tree.get('instance_id')} differs from its scored tree")


def _pair_key(pair: dict[str, Any]) -> tuple[tuple[str, ...], str, str]:
    prefix = tuple(canon(s["content"]) for s in pair["context"] if s["role"] == "action")
    return prefix, canon(pair["chosen"]), canon(pair["rejected"])


def check_pairs(o: _Outputs) -> None:
    pairs = o.pairs
    got: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
    for pair in pairs:
        roles = [s["role"] for s in pair["context"]]
        expect(
            roles == ["prompt"] + ["action", "observation"] * ((len(roles) - 1) // 2),
            "pairs.jsonl: context roles do not alternate",
        )
        for side in ("chosen", "rejected"):
            num, den = map(int, pair[f"score_{side}"].split("/"))
            expect(pair[f"score_{side}_decimal"] == num / den, "pairs.jsonl: decimal score disagrees")
        got.setdefault(pair["instance_id"], []).append(_pair_key(pair))
    expect(set(got) <= set(o.truth), "pairs.jsonl has unknown instances")
    for instance_id, rec in o.truth.items():
        keys = got.get(instance_id, [])
        expect(len(keys) == len(set(keys)), f"pairs.jsonl: {instance_id} repeats a pair")
        want = {(tuple(p), c, r) for p, c, r in rec["oracle_pairs"]}
        expect(set(keys) == want, f"pairs.jsonl: {instance_id} pairs differ from oracle_pairs")


def check_sft(o: _Outputs) -> None:
    want = []
    for t in o.retained:
        if t["resolved"] != 1:
            continue
        segments = [{"role": "prompt", "content": t["prompt"], "loss": False}]
        for step in t["steps"]:
            segments.append({"role": "action", "content": step["action"], "loss": True})
            if "observation" in step:
                segments.append({"role": "observation", "content": step["observation"], "loss": False})
        want.append({"instance_id": t["instance_id"], "trajectory_id": t["trajectory_id"], "segments": segments})
    expect(_lines(o.out / "sft.jsonl") == want, "sft.jsonl differs from the resolved retained trajectories")


def check_dpo(o: _Outputs) -> None:
    want = [{k: v for k, v in p.items() if k != "parent_node_id"} for p in o.pairs]
    expect(_lines(o.out / "dpo.jsonl") == want, "dpo.jsonl does not mirror pairs.jsonl")


def check_stats(o: _Outputs) -> None:
    stats = _doc(o.out / "stats.json")
    trees, retained = o.trees, o.retained
    chars = steps = 0
    for tree in trees:
        nodes = {n["node_id"]: n for n in tree["nodes"]}
        stack = [(tree["root_id"], len(tree["prompt"]), 0)]
        while stack:
            node_id, c, d = stack.pop()
            node = nodes[node_id]
            if node["kind"] == "leaf":
                chars, steps = chars + c, steps + d
                continue
            if node["kind"] == "action":
                c += len(node["action_raw"] or "") + len(node["observation"] or "")
                d += 1
            stack.extend((child, c, d) for child in node["children"])
    n = len(retained)
    successes = sum(t["resolved"] for t in retained)
    report = {k: v for k, v in o.report.items() if k != "effective_config"}
    want = {
        "instance_count": len(trees),
        "trajectory_count": n,
        "successful_count": successes,
        "wrong_count": n - successes,
        "avg_char_len": chars / n if n else 0.0,
        "avg_token_len": round((chars / n if n else 0.0) / 4),
        "avg_path_len": steps / n if n else 0.0,
        "critical_pair_count": len(o.pairs),
        "observation_divergences": sum(t["observation_divergences"] for t in trees),
        "ingest": report,
    }
    got = {k: v for k, v in stats.items() if k != "effective_config"}
    expect(got == want, "stats.json disagrees with the other outputs")
    expect("effective_config" in stats, "stats.json lacks effective_config")


FILE_CHECKS: dict[str, Callable[[_Outputs], None]] = {
    "retained.jsonl": check_retained,
    "ingest_report.json": check_ingest_report,
    "trees.jsonl": check_trees,
    "scored_trees.jsonl": check_scored_trees,
    "pairs.jsonl": check_pairs,
    "sft.jsonl": check_sft,
    "dpo.jsonl": check_dpo,
    "stats.json": check_stats,
}


def check_outputs(out: Path, truth: dict[str, Any], input_count: int) -> list[str]:
    """Every problem found in one `all` output directory; empty when all checks pass."""
    o = _Outputs(out, truth, input_count)
    problems = []
    for name, check in FILE_CHECKS.items():
        try:
            check(o)
        except Mismatch as exc:
            problems.append(str(exc))
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"{name}: unreadable ({type(exc).__name__}: {exc})")
    return problems


def compare_stages(staged: Path, reference: Path) -> list[str]:
    """Stage-composed outputs against `all` on the same corpus.

    Seven files must be byte-identical. stats.json is compared after
    dropping its `ingest` key: `trajtree stats` has no ingest report in
    scope, a known divergence from the README's byte-identity claim.
    """
    problems = []
    a, b = digests(staged), digests(reference)
    for name in OUTPUTS:
        if name != "stats.json" and a[name] != b[name]:
            problems.append(f"stages: {name} differs from `all`")
    try:
        sa, sb = _doc(staged / "stats.json"), _doc(reference / "stats.json")
        sa.pop("ingest", None)
        sb.pop("ingest", None)
        if sa != sb:
            problems.append("stages: stats.json differs from `all` beyond its ingest key")
    except (OSError, ValueError, Mismatch) as exc:
        problems.append(f"stages: stats.json unreadable ({exc})")
    return problems
