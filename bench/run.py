#!/usr/bin/env python3
"""trajtree benchmark: seeded `synth` corpora driven through the CLI.

Run from the repository root:

    python3 bench/run.py                          # every workload, end-to-end metrics
    python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 1

With `--trace 0` each workload runs its CLI command(s) in a subprocess,
one at a time (a closed loop with one client), for `--seconds`, and
reports end-to-end metrics. With `--trace 1` it replays the same
commands in-process with per-layer spans (bench/tracing.py) and reports
per-layer metrics. Every output file is checked (bench/checks.py). The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SPAWN = Path(__file__).resolve().parent / "spawn.py"

MIN_CYCLES = 3  # measurement cycles per untraced run, however short --seconds is
MB = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int
    shape: dict[str, Any]  # SynthConfig fields besides seed and instances
    jobs: int
    staged: bool = False  # run `ingest` + the six stage commands instead of `all`
    synth_per_cycle: int = 1  # more synth samples where synth is short next to the operation


DEEP = {"trajectories_per_instance": 40, "depth": 30, "branching": 2}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep", 60, DEEP, jobs=1),
        Workload("wide", 40, {"trajectories_per_instance": 60, "depth": 12, "branching": 8}, jobs=2),
        Workload(
            "dirty",
            1200,
            {
                "trajectories_per_instance": 8,
                "depth": 8,
                "branching": 3,
                "duplicate_rate": 0.3,
                "loop_rate": 0.3,
                "outlier_rate": 0.2,
            },
            jobs=1,
        ),
        Workload("stages", 20, DEEP, jobs=1, staged=True, synth_per_cycle=3),
    )
}
STAGE_COMMANDS = ("tree", "score", "pairs", "sft", "dpo", "stats")

# metric name -> unit, for --trace 0 and --trace 1, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Sample:
    """One CLI operation: wall time from spawn to exit, child CPU and max RSS."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    ok: bool = True


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Bench:
    """One benchmark run of one workload inside a fresh work directory."""

    def __init__(self, workload: Workload, seed: int, seconds: float, scale: float, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.instances = max(1, round(workload.instances * scale))
        self.work = work
        self.tally = Tally()
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TRAJTREE_CONFIG")}
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(work))
        self.corpus = work / "synth" / "corpus.jsonl"
        self.op_digests: dict[str, str] | None = None  # output digests of the first operation
        self.start = time.perf_counter()

    # -- subprocess plumbing -------------------------------------------------

    def stderr_tail(self, lines: int = 20) -> str:
        """The end of what the CLI commands of this run wrote to stderr."""
        path = self.work / "stderr.txt"
        text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
        return "\n".join(text.splitlines()[-lines:])

    def cli(self, *args: str) -> Sample:
        """Run `trajtree <args>` to completion through bench/spawn.py and measure it."""
        with open(self.work / "stderr.txt", "ab") as err:
            done = subprocess.run(
                [sys.executable, "-I", str(SPAWN), sys.executable, "-m", "trajtree.cli", *args],
                env=self.env, cwd=self.work, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, check=False,
            )
        try:
            m = json.loads(done.stdout)
        except ValueError:
            return Sample(ok=False)
        return Sample(
            wall=m["wall_s"],
            cpu=m["cpu_s"],
            rss_mb=m["maxrss_kb"] * 1024 / MB,
            ok=done.returncode == 0 and m["returncode"] == 0,
        )

    def synth_args(self, out: Path) -> list[str]:
        args = ["synth", "--seed", str(self.seed), "--instances", str(self.instances)]
        for key, value in self.w.shape.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args + ["--out-dir", str(out)]

    def config_args(self) -> list[str]:
        return ["--jobs", str(self.w.jobs)]

    def run_op(self, out: Path) -> Sample:
        """The workload's command(s) into a fresh `out`; wall and CPU add up, RSS is the max."""
        shutil.rmtree(out, ignore_errors=True)
        if not self.w.staged:
            return self.cli("all", "--input", str(self.corpus), "--out-dir", str(out), *self.config_args())
        samples = [self.cli("ingest", "--input", str(self.corpus), "--out-dir", str(out), *self.config_args())]
        retained = str(out / "retained.jsonl")
        for command in STAGE_COMMANDS:
            samples.append(self.cli(command, "--input", retained, "--out-dir", str(out), *self.config_args()))
        return Sample(
            wall=sum(s.wall for s in samples),
            cpu=sum(s.cpu for s in samples),
            rss_mb=max(s.rss_mb for s in samples),
            ok=all(s.ok for s in samples),
        )

    # -- the pieces of one measurement cycle ---------------------------------

    def synth(self, first: bool) -> float:
        """`trajtree synth` for the workload; later calls must write the first call's bytes."""
        out = self.work / ("synth" if first else "synth_again")
        shutil.rmtree(out, ignore_errors=True)
        s = self.cli(*self.synth_args(out))
        problems = [] if s.ok else ["synth exited nonzero"]
        files = checks.digests(out, ("corpus.jsonl", "ground_truth.json"))
        if first:
            if not s.ok:
                fail(f"`trajtree {' '.join(self.synth_args(out))}` failed:\n{self.stderr_tail()}")
            self.synth_digests = files
            self.truth = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
            with open(self.corpus, "rb") as fh:
                self.input_count = sum(1 for _ in fh)
        elif files != self.synth_digests:
            problems.append("synth wrote different bytes for the same seed")
        self.tally.record(problems)
        return s.wall

    def setup(self) -> float:
        """`trajtree all` on an empty corpus: interpreter start, imports, config, empty writes."""
        empty = self.work / "empty.jsonl"
        empty.touch()
        out = self.work / "empty_out"
        shutil.rmtree(out, ignore_errors=True)
        s = self.cli("all", "--input", str(empty), "--out-dir", str(out))
        missing = [n for n in checks.OUTPUTS if not (out / n).exists()]
        self.tally.record(([] if s.ok else ["empty `all` exited nonzero"])
                          + [f"empty `all` wrote no {n}" for n in missing])
        return s.wall

    def check(self, out: Path, s: Sample) -> list[str]:
        if not s.ok:
            return [f"{self.w.name}: a command exited nonzero"]
        return [f"{self.w.name}: {p}" for p in checks.check_outputs(out, self.truth, self.input_count)]

    def reference(self) -> Path:
        """`all` on the corpus, checked against the ground truth, for `stages` to equal."""
        out = self.work / "reference"
        shutil.rmtree(out, ignore_errors=True)
        s = self.cli("all", "--input", str(self.corpus), "--out-dir", str(out), *self.config_args())
        self.tally.record(self.check(out, s))
        return out

    def checked_op(self, out: Path) -> Sample:
        """One operation, its files checked.

        The first operation of a run gets the full checks (`stages`: equality
        with the `all` reference); every operation must write the first
        one's bytes.
        """
        s = self.run_op(out)
        if not s.ok:
            self.tally.record(self.check(out, s))
            return s
        files = checks.digests(out)
        if self.op_digests is None:
            problems = checks.compare_stages(out, self.reference()) if self.w.staged else self.check(out, s)
            self.op_digests = files
        else:
            problems = [] if files == self.op_digests else [f"{self.w.name}: output bytes differ between runs"]
        self.tally.record(problems)
        return s

    # -- untraced run: end-to-end metrics ------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Closed loop of cycles (synth, empty `all`, the workload's operation) for --seconds.

        Interleaving spreads every metric's samples over the whole run, so
        a slow spell of the machine weighs on all of them alike.
        """
        self.setup()  # compiles the bytecode cache once, untimed
        synth_s, setup_s, samples = [], [], []
        last = time.perf_counter()
        while True:
            for _ in range(self.w.synth_per_cycle):
                synth_s.append(self.synth(first=not synth_s))
            setup_s.append(self.setup())
            samples.append(self.checked_op(self.work / "out"))
            now = time.perf_counter()
            # stop before a cycle that would end after --seconds
            if len(samples) >= MIN_CYCLES and now + (now - last) > self.start + self.seconds:
                break
            last = now
        wall = statistics.median(s.wall for s in samples)
        return {
            "wall_s": wall,
            "traj_per_s": self.input_count / wall,
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "cpu_s": statistics.median(s.cpu for s in samples),
            "synth_s": statistics.median(synth_s),
            "setup_s": statistics.median(setup_s),
        }

    # -- traced run: per-layer metrics ---------------------------------------

    def per_layer(self) -> dict[str, float]:
        """In-process replay with spans; its files must match the CLI's byte for byte."""
        sys.path.insert(0, str(SRC))
        os.environ.pop("TRAJTREE_CONFIG", None)
        import tracing
        from trajtree import cli
        from trajtree.synth import SynthConfig

        imported = Path(cli.__file__).resolve()
        if SRC not in imported.parents:
            fail(f"imported trajtree from {imported}, not from {SRC}")

        self.synth(first=True)
        tracer = tracing.Tracer()
        files = tracing.replay_synth(tracer, SynthConfig(seed=self.seed, instances=self.instances, **self.w.shape))
        generate_s = tracer.self_times()["synth.generate"]
        self.tally.record([] if all(
            (self.work / "synth" / name).read_bytes() == data for name, data in files.items()
        ) else ["synth replay wrote different bytes from `trajtree synth`"])

        cli_wall = self.checked_op(self.work / "cli_out").wall
        config = cli.load_config(None, {"jobs": self.w.jobs})
        out = self.work / "trace_out"
        runs: list[tuple[float, tracing.Tracer]] = []
        last = time.perf_counter()
        while True:
            shutil.rmtree(out, ignore_errors=True)
            tracer = tracing.Tracer()
            runs.append((tracing.replay(tracer, config, self.corpus, out, self.w.staged), tracer))
            self.tally.record([] if checks.digests(out) == self.op_digests else
                              [f"{self.w.name}: traced replay wrote different bytes from the CLI"])
            now = time.perf_counter()
            # one more replay (for the canonicalize count) follows, so stop a replay early
            if now + 2 * (now - last) > self.start + self.seconds:
                break
            last = now

        canon_out = self.work / "canon_out"
        canonicalize_calls = tracing.count_canonicalize_calls(
            lambda: tracing.replay(tracing.Tracer(), config, self.corpus, canon_out, self.w.staged)
        )

        def med(values) -> float:
            return statistics.median(list(values))

        self_times = [t.self_times() for _, t in runs]
        counts = runs[0][1].counts
        layer = {
            f"{name}_s": med(st.get(name, 0.0) for st in self_times)
            for name in (
                "model.parse", "ingest.dedup", "ingest.loops", "ingest.group", "ingest.outliers",
                "tree.build", "scoring.score", "scoring.identify", "scoring.extract",
                "emit.sft", "emit.dpo", "emit.stats", "cli.serialize", "cli.write",
            )
        }
        layer.update({
            "model.parse_calls": counts["model.parse_calls"],
            "model.canonicalize_calls": canonicalize_calls,
            "ingest.in": counts["ingest.in"],
            "ingest.retained_ratio": counts["ingest.retained"] / counts["ingest.in"],
            "tree.build_calls": counts["tree.build_calls"],
            "tree.nodes": counts["tree.nodes"],
            "scoring.triples": counts["scoring.triples"],
            "scoring.pair_yield": counts["scoring.pairs"] / max(counts["scoring.triples"], 1),
            "cli.out_mb": counts["cli.out_bytes"] / MB,
            "pipeline.process_s": med(t.counts["pipeline.process_s"] for _, t in runs),
            "synth.generate_s": generate_s,
            "trace.coverage": med(sum(st.values()) / w for st, (w, _) in zip(self_times, runs)),
            "trace.overhead_ratio": med(w for w, _ in runs) / cli_wall,
        })
        return {name: layer[name] for name in PER_LAYER_UNITS}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_workload(name: str, args: argparse.Namespace) -> tuple[Tally, dict[str, float]]:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        bench = Bench(WORKLOADS[name], args.seed, args.seconds, args.scale, work)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        for problem in bench.tally.problems[:20]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        if bench.tally.failed:
            print(bench.stderr_tail(), file=sys.stderr)
        return bench.tally, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every workload's instance count (the smoke test uses a tiny one)")
    args = parser.parse_args()
    if not (SRC / "trajtree" / "cli.py").is_file():
        fail(f"no trajtree sources at {SRC}; run from a full checkout of the repository")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = failed = 0
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        tally, values = run_workload(name, args)
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in values.items():
            print(f"{name:8} {metric:26} {value:14.6g} {units[metric]}")
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
        print(f"{name:8} {'failed_share':26} {tally.failed / tally.attempted:14.6g} ratio"
              f"  ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
