"""Command-line entry point for the trajectory-tree pipeline.

Subcommands cover each stage plus `all` (full pipeline) and `selfcheck`
(synthetic corpus vs. brute-force oracles). Exit codes: 0 success,
1 usage/config error, 2 invalid input data, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator

from .emit import emit_sft, emit_stats, sft_to_dict
from .errors import ConfigError, InputError, InvariantError
from .ingest import IngestReport, group_by_instance, ingest_trajectories
from .losses import DpoInputs, TrajectoryLogProbs, dpo_loss, dpo_loss_grad, sft_loss
from .model import CanonConfig, Trajectory, parse_trajectory_stream, serialize_trajectory
from .pipeline import InstanceResult, StageConfig, process_instances, selfcheck
from .scoring import CriticalPair, format_rational
from .synth import SynthConfig, generate
from .tree import tree_to_dict

CONFIG_ENV_VAR = "TRAJTREE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

_CONFIG_DEFAULTS: dict[str, Any] = {
    "collapse_whitespace": True,
    "loop_threshold": 3,
    "outlier_min_prefix": 1,
    "merge_mode": "action-only",  # action-only | strict
    "critical_threshold": "1/2",
    "pair_mode": "all-pairs",  # all-pairs | max-min
    "sft_reduction": "sum",
    "lenient": False,
    "jobs": 1,
    "seed": 0,
}


def load_config(path: str | None, overrides: dict[str, Any]) -> dict[str, Any]:
    config = dict(_CONFIG_DEFAULTS)
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    config.update({k: v for k, v in overrides.items() if v is not None})
    _validate_config(config)
    return config


def _validate_config(config: dict[str, Any]) -> None:
    if config["merge_mode"] not in ("action-only", "strict"):
        raise ConfigError(f"merge_mode must be action-only or strict: {config['merge_mode']!r}")
    if config["pair_mode"] not in ("all-pairs", "max-min"):
        raise ConfigError(f"pair_mode must be all-pairs or max-min: {config['pair_mode']!r}")
    if config["sft_reduction"] not in ("sum", "mean"):
        raise ConfigError(f"sft_reduction must be sum or mean: {config['sft_reduction']!r}")
    for key, minimum in (("loop_threshold", 2), ("outlier_min_prefix", 1), ("jobs", 1)):
        try:
            value = int(config[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key} must be an integer: {config[key]!r}") from exc
        if value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}")
    threshold = parse_threshold(config["critical_threshold"])
    if not (0 < threshold < 1):
        raise ConfigError(f"critical_threshold must be in (0, 1): {threshold}")


def parse_threshold(value: Any) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad critical_threshold {value!r}") from exc


def stage_config(config: dict[str, Any]) -> StageConfig:
    return StageConfig(
        canon=CanonConfig(collapse_whitespace=bool(config["collapse_whitespace"])),
        loop_threshold=int(config["loop_threshold"]),
        outlier_min_prefix=int(config["outlier_min_prefix"]),
        strict_merge=config["merge_mode"] == "strict",
        critical_threshold=parse_threshold(config["critical_threshold"]),
        pair_mode=config["pair_mode"],
    )


def echo_config(config: dict[str, Any]) -> dict[str, Any]:
    """Provenance copy of the effective config; jobs is accepted but has no
    effect, and must not change output bytes, so it is excluded."""
    return {k: v for k, v in config.items() if k != "jobs"}


def atomic_write(path: Path, text: str) -> None:
    """Write whole-file then rename, so failures never leave partial output.

    The file gets the mode a plain open() would give it (0o666 less the
    umask), not mkstemp's 0o600.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# one compact encoder for every JSON-lines file; json.dumps with keyword
# arguments would build a new encoder per record
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def jsonl(records: list[dict[str, Any]]) -> str:
    return "".join(_encode(r) + "\n" for r in records)


def json_doc(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


# command -> the files it writes, in write order; `all` writes every stage's files
COMMAND_OUTPUTS: dict[str, tuple[str, ...]] = {
    "ingest": ("retained.jsonl", "ingest_report.json"),
    "tree": ("trees.jsonl",),
    "score": ("scored_trees.jsonl",),
    "pairs": ("pairs.jsonl",),
    "sft": ("sft.jsonl",),
    "dpo": ("dpo.jsonl",),
    "stats": ("stats.json",),
}
COMMAND_OUTPUTS["all"] = tuple(name for row in COMMAND_OUTPUTS.values() for name in row)


def _load_groups(
    path: str, stage: StageConfig, lenient: bool, ingest: bool
) -> tuple[dict[str, list[Trajectory]], IngestReport | None]:
    """Parse the corpus, then clean it (ingest) or only group it (later stages)."""
    try:
        with open(path, "rb") as fh:
            ts, skipped = parse_trajectory_stream(fh, strict=not lenient, canon=stage.canon)
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from exc
    if not ingest:
        return group_by_instance(ts), None
    groups, report = ingest_trajectories(
        ts, stage.loop_threshold, stage.outlier_min_prefix, stage.canon
    )
    report.malformed_skipped = skipped
    return groups, report


@dataclass
class _Run:
    """One dataset command's state; trees, scores and pairs are built on first use."""

    config: dict[str, Any]
    stage: StageConfig
    groups: dict[str, list[Trajectory]]
    report: IngestReport | None
    sft_warnings: int = 0

    def retained(self) -> Iterator[Trajectory]:
        return (t for ts in self.groups.values() for t in ts)

    @cached_property
    def results(self) -> dict[str, InstanceResult]:
        return process_instances(self.groups, self.stage)

    @cached_property
    def pairs(self) -> list[CriticalPair]:
        return [p for r in self.results.values() for p in r.pairs]

    @cached_property
    def tree_parts(self) -> list[tuple[str, list[str]]]:
        """Per instance: its tree_to_dict record up to `"nodes":[`, and each node's JSON.

        trees.jsonl and scored_trees.jsonl are spliced from these, so each
        tree head and node is encoded once.
        """
        parts = []
        for r in self.results.values():
            record = tree_to_dict(r.tree)
            nodes = [_encode(node) for node in record["nodes"]]
            record["nodes"] = []
            parts.append((_encode(record)[: -len("]}")], nodes))
        return parts

    @cached_property
    def pair_parts(self) -> list[tuple[str, str, str, str]]:
        """Per pair: `{"instance_id":…`, `,"parent_node_id":N`, `,"context":[…]`
        and `,"chosen":…}` with its newline.

        A pairs.jsonl line joins all four; a dpo.jsonl line, the same
        record without parent_node_id, skips the second. Each distinct
        (instance, parent) context array is encoded once and shared.
        """
        parts = []
        for r in self.results.values():
            head = '{"instance_id":' + _encode(r.tree.instance_id)
            contexts: dict[int, str] = {}
            for p in r.pairs:
                context = contexts.get(p.parent_node_id)
                if context is None:
                    context = ',"context":' + _encode(
                        [{"role": s.role, "content": s.content} for s in p.context]
                    )
                    contexts[p.parent_node_id] = context
                # the encoder writes a finite float as its repr()
                tail = (
                    f',"chosen":{_encode(p.chosen)},"rejected":{_encode(p.rejected)}'
                    f',"score_chosen":"{format_rational(p.score_chosen)}"'
                    f',"score_rejected":"{format_rational(p.score_rejected)}"'
                    f',"score_chosen_decimal":{float(p.score_chosen)!r}'
                    f',"score_rejected_decimal":{float(p.score_rejected)!r}}}\n'
                )
                parts.append((head, f',"parent_node_id":{p.parent_node_id}', context, tail))
        return parts

    def with_config(self, doc: dict[str, Any]) -> str:
        doc["effective_config"] = echo_config(self.config)
        return json_doc(doc)


def _render_scored_trees(run: _Run) -> str:
    """Each node's trees.jsonl JSON with scored_tree_to_dict's columns spliced in."""
    lines = []
    for (head, nodes), r in zip(run.tree_parts, run.results.values()):
        scores = [r.scores[node_id] for node_id in sorted(r.tree.nodes)]
        scored = (
            f'{node[:-1]},"successes":{s.successes},"total":{s.total},'
            f'"score":"{s.successes}/{s.total}"}}'
            for node, s in zip(nodes, scores)
        )
        lines.append(head + ",".join(scored) + "]}\n")
    return "".join(lines)


def _render_sft(run: _Run) -> str:
    examples, run.sft_warnings = emit_sft(run.retained())
    return jsonl([sft_to_dict(e) for e in examples])


_RENDERERS: dict[str, Callable[[_Run], str]] = {
    "retained.jsonl": lambda run: "".join(serialize_trajectory(t) + "\n" for t in run.retained()),
    "ingest_report.json": lambda run: run.with_config(run.report.to_dict()),
    "trees.jsonl": lambda run: "".join(
        head + ",".join(nodes) + "]}\n" for head, nodes in run.tree_parts
    ),
    "scored_trees.jsonl": _render_scored_trees,
    "pairs.jsonl": lambda run: "".join(piece for part in run.pair_parts for piece in part),
    "sft.jsonl": _render_sft,
    "dpo.jsonl": lambda run: "".join(
        piece for head, _, context, tail in run.pair_parts for piece in (head, context, tail)
    ),
    "stats.json": lambda run: run.with_config(
        emit_stats(run.report, [r.tree for r in run.results.values()], run.pairs)
    ),
}


def cmd_pipeline(args, config) -> int:
    """Write the command's COMMAND_OUTPUTS row in order from one parse of the input.

    Only `ingest` and `all` clean the corpus; later stages take it as
    retained. The ingest files are written before any tree is built.
    """
    names = COMMAND_OUTPUTS[args.command]
    stage = stage_config(config)
    groups, report = _load_groups(
        args.input, stage, bool(config["lenient"]), ingest="retained.jsonl" in names
    )
    run = _Run(config, stage, groups, report)
    out = Path(args.out_dir)
    for name in names:
        atomic_write(out / name, _RENDERERS[name](run))
    if run.sft_warnings:
        print(f"warning: no successful trajectories in {args.input}", file=sys.stderr)
    return EXIT_OK


def _synth_config(args, config) -> SynthConfig:
    return SynthConfig(
        seed=args.seed if args.seed is not None else int(config["seed"]),
        instances=args.instances,
        branching=args.branching,
        depth=args.depth,
        trajectories_per_instance=args.trajectories_per_instance,
        planted_critical=args.planted_critical,
        loop_rate=args.loop_rate,
        outlier_rate=args.outlier_rate,
        duplicate_rate=args.duplicate_rate,
        divergent_observations=args.divergent_observations,
    )


def cmd_synth(args, config) -> int:
    synth_cfg = _synth_config(args, config)
    corpus, truth = generate(synth_cfg)
    out = Path(args.out_dir)
    atomic_write(out / "corpus.jsonl", "".join(serialize_trajectory(t) + "\n" for t in corpus))
    atomic_write(out / "ground_truth.json", json_doc(truth))
    return EXIT_OK


def cmd_selfcheck(args, config) -> int:
    synth_cfg = _synth_config(args, config)
    summary = selfcheck(synth_cfg)
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def _loss_record(obj: Any, default_reduction: str) -> dict[str, Any]:
    if not isinstance(obj, dict):
        raise InputError("loss record is not an object")
    kind = obj.get("kind")
    if kind == "sft":
        lp = TrajectoryLogProbs(
            action_logps=tuple(obj["action_logps"]),
            observation_logps=tuple(obj.get("observation_logps", ())),
        )
        loss = sft_loss(lp, reduction=obj.get("reduction", default_reduction))
        return {"kind": "sft", "loss": loss}
    if kind == "dpo":
        x = DpoInputs(
            policy_chosen=float(obj["policy_chosen"]),
            policy_rejected=float(obj["policy_rejected"]),
            ref_chosen=float(obj["ref_chosen"]),
            ref_rejected=float(obj["ref_rejected"]),
            beta=float(obj["beta"]),
        )
        grad = dpo_loss_grad(x)
        return {
            "kind": "dpo",
            "loss": dpo_loss(x),
            "grad": {
                "policy_chosen": grad.policy_chosen,
                "policy_rejected": grad.policy_rejected,
                "ref_chosen": grad.ref_chosen,
                "ref_rejected": grad.ref_rejected,
            },
        }
    raise InputError(f"loss record kind must be 'sft' or 'dpo', got {kind!r}")


def cmd_loss(args, config) -> int:
    lines_out = []
    try:
        with open(args.input, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")  # UnicodeDecodeError is a ValueError
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                    # allow_nan=False: a non-finite result is an error, never `Infinity`
                    lines_out.append(json.dumps(
                        _loss_record(obj, config["sft_reduction"]),
                        ensure_ascii=False, separators=(",", ":"), allow_nan=False,
                    ) + "\n")
                except (
                    InputError, KeyError, TypeError, ValueError, OverflowError, RecursionError
                ) as exc:
                    raise InputError(str(exc), line=line_no) from exc
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    text = "".join(lines_out)
    if args.output:
        atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajtree", description=__doc__)
    parser.add_argument("--config", help=f"config file path (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, needs_input=True, needs_out=True):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("--input", required=True, help="input corpus / records file")
        if needs_out:
            p.add_argument("--out-dir", required=True, help="output directory")
        for key, default in _CONFIG_DEFAULTS.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
            else:
                p.add_argument(flag, dest=key, type=type(default), default=None)
        return p

    for name in COMMAND_OUTPUTS:
        add(name, cmd_pipeline)

    loss = add("loss", cmd_loss, needs_out=False)
    loss.add_argument("--output", help="write results here instead of stdout")

    for name, func, needs_out in (("synth", cmd_synth, True), ("selfcheck", cmd_selfcheck, False)):
        p = add(name, func, needs_input=False, needs_out=needs_out)
        p.add_argument("--instances", type=int, default=20)
        p.add_argument("--branching", type=int, default=3)
        p.add_argument("--depth", type=int, default=6)
        p.add_argument("--trajectories-per-instance", type=int, default=6)
        p.add_argument("--planted-critical", type=int, default=1)
        p.add_argument("--loop-rate", type=float, default=0.1)
        p.add_argument("--outlier-rate", type=float, default=0.1)
        p.add_argument("--duplicate-rate", type=float, default=0.1)
        p.add_argument("--divergent-observations", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: getattr(args, k, None) for k in _CONFIG_DEFAULTS}
        config = load_config(args.config, overrides)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
