"""In-process replay of the CLI's stage sequence with per-layer spans.

The replay calls the same public functions the `cmd_*` functions in
`trajtree.cli` call, in the same order, and writes the same files; the
benchmark checks that they are byte-identical to the CLI's, so the
replay cannot drift from the program it measures. Spans and counters
live here, around the calls into each layer; nothing in trajtree is
instrumented.

Per-instance work (`tree.build`, `scoring.*`) runs one instance at a
time. `pipeline.process_s` is timed separately, as one
`process_instances` call at the workload's `jobs`, outside the replayed
stage sequence.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from trajtree import cli, emit, ingest, model, pipeline, scoring, synth, tree

# stage command -> the one file it writes; also the order in which `all` writes them
STAGE_OUTPUTS = {
    "tree": "trees.jsonl",
    "score": "scored_trees.jsonl",
    "pairs": "pairs.jsonl",
    "sft": "sft.jsonl",
    "dpo": "dpo.jsonl",
    "stats": "stats.json",
}


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out


class _Replay:
    """One replay of a workload's CLI commands into `out`, recording into `tracer`."""

    def __init__(self, tracer: Tracer, config: dict[str, Any], out: Path) -> None:
        self.t = tracer
        self.config = config
        self.out = out
        self.canon = model.CanonConfig(collapse_whitespace=bool(config["collapse_whitespace"]))
        self.stage_config = cli.stage_config(config)
        self.processed: dict[str, list[model.Trajectory]] | None = None

    def parse(self, path: Path) -> list[model.Trajectory]:
        with self.t.span("model.parse"), open(path, "rb") as fh:
            ts, _ = model.parse_trajectory_stream(fh, strict=not self.config["lenient"], canon=self.canon)
        self.t.count("model.parse_calls")
        return ts

    def write(self, name: str, render: Callable[[], str]) -> None:
        with self.t.span("cli.serialize"):
            text = render()
        with self.t.span("cli.write"):
            cli.atomic_write(self.out / name, text)
        self.t.count("cli.out_bytes", (self.out / name).stat().st_size)

    def group(self, ts: list[model.Trajectory]) -> dict[str, list[model.Trajectory]]:
        with self.t.span("ingest.group"):
            return ingest.group_by_instance(ts)

    def ingest(self, corpus: Path) -> tuple[dict[str, list[model.Trajectory]], ingest.IngestReport]:
        """`trajtree ingest`: the first half of `cmd_all`."""
        ts = self.parse(corpus)
        c = self.config
        report = ingest.IngestReport(input_count=len(ts))
        with self.t.span("ingest.dedup"):
            ts, report.duplicates_removed = ingest.deduplicate(ts, self.canon)
        with self.t.span("ingest.loops"):
            ts, report.loops_removed = ingest.filter_loops(ts, int(c["loop_threshold"]), self.canon)
        groups = self.group(ts)
        with self.t.span("ingest.outliers"):
            groups, report.outliers_removed = ingest.filter_outliers(
                groups, int(c["outlier_min_prefix"]), self.canon
            )
        report.per_instance_retained = {k: len(v) for k, v in groups.items()}
        report.retained = sum(report.per_instance_retained.values())
        self.t.count("ingest.in", report.input_count)
        self.t.count("ingest.retained", report.retained)
        retained = [t for ts in groups.values() for t in ts]
        self.write("retained.jsonl", lambda: "".join(model.serialize_trajectory(t) + "\n" for t in retained))
        doc = report.to_dict()
        doc["effective_config"] = cli.echo_config(c)
        self.write("ingest_report.json", lambda: cli.json_doc(doc))
        return groups, report

    def process(self, groups: dict[str, list[model.Trajectory]]) -> dict[str, pipeline.InstanceResult]:
        """`pipeline.process_instances`, one instance at a time, one span per layer."""
        if self.processed is None:
            self.processed = groups
        s = self.stage_config
        results = {}
        for instance_id, ts in groups.items():
            with self.t.span("tree.build"):
                tr = tree.build_tree(
                    instance_id, ts[0].prompt, ts, canon=s.canon, strict_merge=s.strict_merge
                )
            with self.t.span("scoring.score"):
                scores = scoring.score_nodes(tr)
            with self.t.span("scoring.identify"):
                triples = scoring.identify_critical_actions(
                    tr, scores, threshold=s.critical_threshold, pair_mode=s.pair_mode
                )
            with self.t.span("scoring.extract"):
                pairs = scoring.extract_critical_pairs(tr, triples, scores, canon=s.canon)
            self.t.count("tree.build_calls")
            self.t.count("tree.nodes", len(tr.nodes))
            self.t.count("scoring.triples", len(triples))
            self.t.count("scoring.pairs", len(pairs))
            results[instance_id] = pipeline.InstanceResult(tree=tr, scores=scores, pairs=pairs)
        return results

    def emit_file(self, name: str, results, retained, report) -> None:
        """Write one dataset file the way the `cmd_*` function that owns it does."""
        trees = [r.tree for r in results.values()]
        pairs = [p for r in results.values() for p in r.pairs]
        if name == "trees.jsonl":
            render = lambda: cli.jsonl([tree.tree_to_dict(t) for t in trees])
        elif name == "scored_trees.jsonl":
            render = lambda: cli.jsonl([scoring.scored_tree_to_dict(r.tree, r.scores) for r in results.values()])
        elif name == "pairs.jsonl":
            render = lambda: cli.jsonl([scoring.pair_to_dict(p) for p in pairs])
        elif name == "sft.jsonl":
            with self.t.span("emit.sft"):
                examples, _ = emit.emit_sft(retained)
            render = lambda: cli.jsonl([emit.sft_to_dict(e) for e in examples])
        elif name == "dpo.jsonl":
            with self.t.span("emit.dpo"):
                dpo = emit.emit_dpo(pairs)
            render = lambda: cli.jsonl([emit.dpo_to_dict(e) for e in dpo])
        elif name == "stats.json":
            with self.t.span("emit.stats"):
                stats = emit.emit_stats(report, trees, pairs)
            stats["effective_config"] = cli.echo_config(self.config)
            render = lambda: cli.json_doc(stats)
        else:
            raise ValueError(f"unknown dataset file {name!r}")
        self.write(name, render)

    def run_all(self, corpus: Path) -> None:
        """`trajtree all`."""
        groups, report = self.ingest(corpus)
        results = self.process(groups)
        retained = [t for ts in groups.values() for t in ts]
        for name in STAGE_OUTPUTS.values():
            self.emit_file(name, results, retained, report)

    def run_stages(self, corpus: Path) -> None:
        """`trajtree ingest`, then each stage command on `retained.jsonl`."""
        self.ingest(corpus)
        for command, name in STAGE_OUTPUTS.items():
            groups = self.group(self.parse(self.out / "retained.jsonl"))
            retained = [t for ts in groups.values() for t in ts]
            results = {} if command == "sft" else self.process(groups)
            self.emit_file(name, results, retained, None)


def replay(tracer: Tracer, config: dict[str, Any], corpus: Path, out: Path, staged: bool) -> float:
    """Replay the workload's commands; returns the traced wall time in seconds.

    Afterwards times one `process_instances` call at the configured
    `jobs` on the first instance groups the replay processed, recorded as
    the `pipeline.process` count (seconds), outside the traced wall.
    """
    r = _Replay(tracer, config, out)
    start = time.perf_counter()
    if staged:
        r.run_stages(corpus)
    else:
        r.run_all(corpus)
    wall = time.perf_counter() - start
    assert r.processed is not None
    start = time.perf_counter()
    pipeline.process_instances(r.processed, r.stage_config)
    tracer.count("pipeline.process_s", time.perf_counter() - start)
    return wall


def count_canonicalize_calls(run: Callable[[], Any]) -> int:
    """Calls to `canonicalize_action` made by `run()`, from every trajtree module."""
    original = model.canonicalize_action
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    patched = [
        mod for name, mod in list(sys.modules.items())
        if (name == "trajtree" or name.startswith("trajtree."))
        and getattr(mod, "canonicalize_action", None) is original
    ]
    for mod in patched:
        mod.canonicalize_action = counting
    try:
        run()
    finally:
        for mod in patched:
            mod.canonicalize_action = original
    return calls


def replay_synth(tracer: Tracer, synth_config: synth.SynthConfig) -> dict[str, bytes]:
    """The files `trajtree synth` writes, with `generate` inside a span."""
    with tracer.span("synth.generate"):
        corpus, truth = synth.generate(synth_config)
    return {
        "corpus.jsonl": "".join(model.serialize_trajectory(t) + "\n" for t in corpus).encode("utf-8"),
        "ground_truth.json": cli.json_doc(truth).encode("utf-8"),
    }
