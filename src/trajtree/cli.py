"""Command-line entry point for the trajectory-tree pipeline.

Subcommands cover each stage plus `all` (full pipeline) and `selfcheck`
(synthetic corpus vs. brute-force oracles). Exit codes: 0 success,
1 usage/config error, 2 invalid input data, 3 internal invariant
violation.

A command loads only the modules it runs: the synthetic generator (and
with it hashlib) and the loss math are imported by the commands that
use them.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .emit import stats_from_totals
from .errors import ConfigError, InputError, InvariantError, TrajtreeError
from .ingest import (
    DEFAULT_LOOP_THRESHOLD, DEFAULT_OUTLIER_MIN_PREFIX, IngestReport, group_by_instance,
    ingest_trajectories,
)
from .model import (
    CanonConfig, Trajectory, _decode, _encode, _json_lines, _reason, _string, iter_trajectories,
    serialize_trajectory,
)
from .pipeline import StageConfig, SynthConfig, mine_instance, selfcheck
from .scoring import ALL_PAIRS, DEFAULT_THRESHOLD, MAX_MIN, format_ratio, format_rational
from .tree import TrajTree, path_ids, path_totals

CONFIG_ENV_VAR = "TRAJTREE_CONFIG"

_CONFIG_DEFAULTS: dict[str, Any] = {
    "collapse_whitespace": True,
    "loop_threshold": DEFAULT_LOOP_THRESHOLD,
    "outlier_min_prefix": DEFAULT_OUTLIER_MIN_PREFIX,
    "merge_mode": "action-only",  # action-only | strict
    "critical_threshold": format_rational(DEFAULT_THRESHOLD),
    "pair_mode": ALL_PAIRS,  # all-pairs | max-min
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
                loaded = _decode(fh.read())
        # ValueError: not UTF-8 or not JSON, a non-finite number, or an integer
        # too long to convert; RecursionError: nesting deeper than the decoder follows
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {_reason(exc)}") from exc
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
    if config["pair_mode"] not in (ALL_PAIRS, MAX_MIN):
        raise ConfigError(f"pair_mode must be {ALL_PAIRS} or {MAX_MIN}: {config['pair_mode']!r}")
    if config["sft_reduction"] not in ("sum", "mean"):
        raise ConfigError(f"sft_reduction must be sum or mean: {config['sft_reduction']!r}")
    for key in ("collapse_whitespace", "lenient"):
        if not isinstance(config[key], bool):
            raise ConfigError(f"{key} must be true or false: {config[key]!r}")
    integers = (("loop_threshold", 2), ("outlier_min_prefix", 1), ("jobs", 1), ("seed", None))
    for key, minimum in integers:
        value = config[key]
        # JSON integers only: 3.9, "3" and true are not
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer: {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}")
    threshold = parse_threshold(config["critical_threshold"])
    if not (0 < threshold < 1):
        raise ConfigError(f"critical_threshold must be in (0, 1): {threshold}")
    # equal thresholds echo the same bytes: "2/4", 0.5 and "1/2" as "1/2"
    config["critical_threshold"] = format_rational(threshold)


def parse_threshold(value: Any) -> Fraction:
    """The exact rational a threshold was written as: a JSON float such as 0.3
    is the decimal 3/10. Its terms must fit the 4,300 digits an int formats,
    and a larger exponent is refused before Fraction builds its power of ten."""
    text = repr(value) if isinstance(value, float) else value
    try:
        if isinstance(text, str) and abs(int(text.lower().partition("e")[2] or 0)) > 4300:
            raise ValueError("exponent out of range")
        threshold = Fraction(text)
        format_rational(threshold)  # ValueError past the digit limit
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad critical_threshold {value!r}") from exc
    return threshold


def stage_config(config: dict[str, Any]) -> StageConfig:
    return StageConfig(
        canon=CanonConfig(collapse_whitespace=config["collapse_whitespace"]),
        loop_threshold=config["loop_threshold"],
        outlier_min_prefix=config["outlier_min_prefix"],
        strict_merge=config["merge_mode"] == "strict",
        critical_threshold=parse_threshold(config["critical_threshold"]),
        pair_mode=config["pair_mode"],
    )


def echo_config(config: dict[str, Any]) -> dict[str, Any]:
    """Provenance copy of the effective config; jobs is accepted but has no
    effect, and must not change output bytes, so it is excluded."""
    return {k: v for k, v in config.items() if k != "jobs"}


@contextmanager
def output_files(out: Path, names: Iterable[str]) -> Iterator[dict[str, TextIO]]:
    """Open a temp file per name in `out`; rename them all onto their names
    (in order) when the block succeeds, or close and delete them all when it
    raises, so a failed command leaves no file of its output set behind.
    A name that is a directory fails the block before the first rename.
    (Only a failure among the renames themselves can leave the names
    renamed so far replaced.)

    Each file is created as a plain open() creates it, with mode 0o666 less
    the umask; a temp name that already exists fails the block and is left
    as it was.
    """
    out.mkdir(parents=True, exist_ok=True)
    temps: list[tuple[str, Path]] = []
    files: dict[str, TextIO] = {}
    try:
        for name in names:
            tmp = out / f".{name}.{os.urandom(8).hex()}"
            files[name] = open(tmp, "x", encoding="utf-8")
            temps.append((name, tmp))
        yield files
        for fh in files.values():
            fh.close()
        for name, _ in temps:  # os.replace would fail here, after the earlier renames
            if (out / name).is_dir() and not (out / name).is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name, tmp in temps:
            os.replace(tmp, out / name)
    except BaseException:
        for fh in files.values():
            with suppress(OSError):
                fh.close()
        for _, tmp in temps:
            with suppress(OSError):
                os.unlink(tmp)
        raise


def atomic_write(path: Path, text: str) -> None:
    """Write one whole file through `output_files`, so failures never leave partial output."""
    with output_files(path.parent, (path.name,)) as files:
        files[path.name].write(text)


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


class _Instance:
    """One instance's trajectories and, built on first use, its mined tree and
    the pieces every file's lines for it are spliced from. It is dropped
    before the next instance's tree is built."""

    def __init__(self, instance_id: str, ts: list[Trajectory], stage: StageConfig) -> None:
        self.instance_id, self.ts, self.stage = instance_id, ts, stage

    @cached_property
    def mined(self) -> tuple[TrajTree, list[int], list[int], list[tuple[int, int, int]]]:
        return mine_instance(self.instance_id, self.ts, self.stage)

    @cached_property
    def tree_parts(self) -> tuple[str, list[str]]:
        """The tree_to_dict record up to `"nodes":[`, and each node's JSON without
        its `}`, for trees.jsonl and scored_trees.jsonl, as the compact encoder
        writes them. A leaf, as build_tree makes it, has no text and no children."""
        tree = self.mined[0]
        bodies = []
        for node_id, (key, raw, text, children, outcome, tid) in enumerate(zip(
            tree.action_key, tree.action_raw, tree.observation, tree.children, tree.outcome,
            tree.trajectory_id,
        )):
            if key is not None:
                key_text = _string(key)  # the raw text's JSON too, when the raw text is the key
                kids = str(children[0]) if len(children) == 1 else ",".join(map(str, children))
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"action","action_key":{key_text}'
                    f',"action_raw":{key_text if raw == key else _string(raw)}'
                    f',"observation":{"null" if text is None else _string(text)}'
                    f',"children":[{kids}],"outcome":null,"trajectory_id":null'
                )
            elif outcome is not None:
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"leaf","action_key":null,"action_raw":null'
                    f',"observation":null,"children":[],"outcome":{outcome}'
                    f',"trajectory_id":{_string(tid)}'
                )
            else:
                bodies.append(
                    f'{{"node_id":{node_id},"kind":"root","action_key":null,"action_raw":null'
                    f',"observation":null,"children":[{",".join(map(str, children))}]'
                    ',"outcome":null,"trajectory_id":null'
                )
        head = (
            f'{{"instance_id":{_string(tree.instance_id)},"prompt":{_string(tree.prompt)}'
            f',"root_id":{tree.root_id},"path_count":{tree.path_count}'
            f',"trajectory_ids":[{",".join(map(_string, tree.trajectory_ids))}]'
            f',"observation_divergences":{tree.observation_divergences},"nodes":['
        )
        return head, bodies

    @cached_property
    def pair_parts(self) -> list[tuple[str, str, str, str]]:
        """Per pair: `{"instance_id":…`, `,"parent_node_id":N`, `,"context":[…]`
        (encoded once per parent) and `,"chosen":…}` with its newline. A
        pairs.jsonl line joins all four; a dpo.jsonl line skips the second."""
        tree, successes, totals, triples = self.mined
        head = '{"instance_id":' + _string(self.instance_id)
        contexts: dict[int, str] = {}
        # node id -> its raw action's JSON, and its score as "num/den" and as the
        # encoder writes float(Fraction(s, n)), which is s / n: repr(s / n)
        texts: dict[int, tuple[str, str, str]] = {}
        parts = []
        for parent_id, chosen, rejected in triples:
            if parent_id not in contexts:
                contexts[parent_id] = _context(tree, parent_id)
            for i in (chosen, rejected):
                if i not in texts:
                    s, n = successes[i], totals[i]
                    texts[i] = (_string(tree.action_raw[i]), format_ratio(s, n), repr(s / n))
            chosen_raw, chosen_ratio, chosen_decimal = texts[chosen]
            rejected_raw, rejected_ratio, rejected_decimal = texts[rejected]
            tail = (
                f',"chosen":{chosen_raw},"rejected":{rejected_raw}'
                f',"score_chosen":"{chosen_ratio}","score_rejected":"{rejected_ratio}"'
                f',"score_chosen_decimal":{chosen_decimal}'
                f',"score_rejected_decimal":{rejected_decimal}}}\n'
            )
            parts.append((head, f',"parent_node_id":{parent_id}', contexts[parent_id], tail))
        return parts


def _context(tree: TrajTree, parent_id: int) -> str:
    """`,"context":[…]` of the pairs below `parent_id`: the prompt, then each
    path node's action and observation, as the compact encoder writes them."""
    segments = "".join(
        f',{{"role":"action","content":{_string(tree.action_raw[node_id])}}}'
        f',{{"role":"observation","content":{_string(tree.observation[node_id])}}}'
        for node_id in path_ids(tree, parent_id)
    )
    return f',"context":[{{"role":"prompt","content":{_string(tree.prompt)}}}{segments}]'


class _Run:
    """One dataset command's whole-corpus state: the ingest report, and the
    counts stats.json and the sft warning are made from."""

    def __init__(self, config: dict[str, Any], report: IngestReport | None) -> None:
        self.config, self.report = config, report
        self.totals = [0, 0, 0, 0]  # every tree's path_totals, summed
        self.instances = self.pair_count = self.divergences = self.sft_examples = 0

    def summarize(self, inst: _Instance) -> None:
        tree, successes, totals, triples = inst.mined
        self.totals = [a + b for a, b in zip(self.totals, path_totals(tree, successes, totals))]
        self.pair_count += len(triples)
        self.divergences += tree.observation_divergences

    def with_config(self, doc: dict[str, Any]) -> str:
        doc["effective_config"] = echo_config(self.config)
        return json_doc(doc)


def _scored_tree_line(run: _Run, inst: _Instance) -> str:
    """Each node's trees.jsonl body with scored_tree_to_dict's columns appended,
    formatted once per distinct (successes, total) of the instance."""
    head, bodies = inst.tree_parts
    _, successes, totals, _ = inst.mined
    columns = {
        (s, n): f',"successes":{s},"total":{n},"score":"{s}/{n}"}}'
        for s, n in set(zip(successes, totals))
    }
    scored = map(add, bodies, map(columns.__getitem__, zip(successes, totals)))
    return head + ",".join(scored) + "]}\n"


def _sft_lines(run: _Run, inst: _Instance) -> str:
    """sft_to_dict's record for each resolved trajectory, formatted field by
    field; the prompt segment is encoded once, as group_by_instance gives an
    instance one prompt."""
    head = '{"instance_id":' + _string(inst.instance_id) + ',"trajectory_id":'
    prompt = (
        ',"segments":[{"role":"prompt","content":' + _string(inst.ts[0].prompt) + ',"loss":false}'
    )
    lines = []
    for t in inst.ts:
        if t.resolved != 1:
            continue
        lines.append(head + _string(t.trajectory_id) + prompt)
        for s in t.steps:
            lines.append(f',{{"role":"action","content":{_string(s.action)},"loss":true}}')
            if s.observation is not None:
                lines.append(
                    f',{{"role":"observation","content":{_string(s.observation)},"loss":false}}'
                )
        lines.append("]}\n")
        run.sft_examples += 1
    return "".join(lines)


# file -> its lines for one instance; each file is these, instance by instance
_LINES: dict[str, Callable[[_Run, _Instance], str]] = {
    "retained.jsonl": lambda run, inst: "".join(serialize_trajectory(t) + "\n" for t in inst.ts),
    "trees.jsonl": lambda run, inst: inst.tree_parts[0] + "},".join(inst.tree_parts[1]) + "}]}\n",
    "scored_trees.jsonl": _scored_tree_line,
    "pairs.jsonl": lambda run, inst: "".join(chain.from_iterable(inst.pair_parts)),
    "sft.jsonl": _sft_lines,
    "dpo.jsonl": lambda run, inst: "".join(
        piece for head, _, context, tail in inst.pair_parts for piece in (head, context, tail)
    ),
}

# file -> the whole-corpus document written after the last instance
_DOCS: dict[str, Callable[[_Run], str]] = {
    "ingest_report.json": lambda run: run.with_config(run.report.to_dict()),
    "stats.json": lambda run: run.with_config(stats_from_totals(
        run.report, run.totals, run.instances, run.pair_count, run.divergences
    )),
}


def _write_instance(run: _Run, files: dict[str, TextIO], inst: _Instance) -> None:
    for name, fh in files.items():
        if name in _LINES:
            fh.write(_LINES[name](run, inst))
    run.instances += 1
    if "stats.json" in files:
        run.summarize(inst)


class _Restart(Exception):
    """The streamed pass cannot show that it writes what the whole-corpus pass
    would: an instance id came back."""


def _runs(
    run: _Run, lines: Iterable[bytes], strict: bool, canon: CanonConfig, streamed: bool
) -> Iterator[list[Trajectory]]:
    """The corpus's trajectories as contiguous runs of one instance_id, each
    yielded as soon as the next begins, or (not `streamed`) as one run.

    Lenient skips are counted into the ingest report. Every ingest rule
    looks within one instance (the dedup key holds the instance_id), so a
    run cleans as it would in the whole corpus. While a run is written,
    only it and the line that ended it are alive.
    """
    written: set[str] = set()
    ts: list[Trajectory] = []
    for t in iter_trajectories(lines, strict, canon):
        if t is None:
            if run.report is not None:
                run.report.malformed_skipped += 1
            continue
        if streamed and ts and t.instance_id != ts[0].instance_id:
            written.add(ts[0].instance_id)
            yield ts
            ts = []
        if t.instance_id in written:
            raise _Restart  # instance order would differ
        ts.append(t)
    if ts:
        yield ts


def _corpus_lines(fh: Iterable[bytes], path: str) -> Iterator[bytes]:
    """`fh`'s lines; a failed read is an input error on the line being read,
    as a malformed line is."""
    line_no = 0
    try:
        for line_no, line in enumerate(fh, start=1):
            yield line
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}", line=line_no + 1) from exc


def _write(
    run: _Run, files: dict[str, TextIO], runs: Iterable[list[Trajectory]], stage: StageConfig
) -> None:
    """Clean (ingest) or group each run, and write its instances."""
    for ts in runs:
        if run.report is None:
            groups = group_by_instance(ts)
        else:
            groups, report = ingest_trajectories(
                ts, stage.loop_threshold, stage.outlier_min_prefix, stage.canon
            )
            run.report.add(report)
        for instance_id, group in groups.items():
            _write_instance(run, files, _Instance(instance_id, group, stage))


def cmd_pipeline(args, config) -> None:
    """Write the command's COMMAND_OUTPUTS row, one instance at a time.

    Only `ingest` and `all` clean the corpus; later stages take it as
    retained. Each contiguous run of one instance's lines is cleaned,
    and each instance's tree is built only if a file needs it and written
    to every file, before the next run is read. A malformed line or a
    failed read fails the pass that meets it. If an instance id comes back
    after another instance began, or a run fails, the files are dropped and
    the whole corpus is cleaned as one run, which gives the whole-corpus
    instance order and error. The files are committed together.
    """
    names = COMMAND_OUTPUTS[args.command]
    stage = stage_config(config)
    strict = not config["lenient"]
    try:
        fh = open(args.input, "rb")
    except OSError as exc:
        raise InputError(f"cannot read corpus {args.input}: {exc}") from exc

    def attempt(streamed: bool) -> _Run:
        fh.seek(0)
        run = _Run(config, IngestReport() if "retained.jsonl" in names else None)
        with output_files(Path(args.out_dir), names) as files:
            lines = _corpus_lines(fh, args.input)
            _write(run, files, _runs(run, lines, strict, stage.canon, streamed), stage)
            for name, doc in files.items():
                if name in _DOCS:
                    doc.write(_DOCS[name](run))
        return run

    with fh:
        if not fh.seekable():  # a pipe: read once, then seeked as a file is
            pipe, fh = fh, io.BytesIO()
            fh.writelines(_corpus_lines(pipe, args.input))
        try:
            run = attempt(streamed=True)
        # a malformed line or failed read met here is the corpus's first, as
        # no run before it failed: the whole-corpus pass would raise it too.
        # A prompt conflict later on outranks a run's error; the rerun raises it
        except (_Restart, InputError, InvariantError) as exc:
            if isinstance(exc, InputError) and exc.line is not None:
                raise
            run = attempt(streamed=False)
    if "sft.jsonl" in names and run.instances and not run.sft_examples:
        print(f"warning: no successful trajectories in {args.input}", file=sys.stderr)


# the synth/selfcheck flags and their defaults; seed is a config key
_SYNTH_FLAGS = {k: v for k, v in SynthConfig._field_defaults.items() if k != "seed"}


def _synth_config(args, config) -> SynthConfig:
    return SynthConfig(seed=config["seed"], **{name: getattr(args, name) for name in _SYNTH_FLAGS})


def cmd_synth(args, config) -> None:
    """Write each instance's corpus lines and its rendered ground-truth record
    as it is generated, in `iter_instances`' order, which is the order
    ground_truth.json lists the instances in."""
    from .synth import iter_instances, render_truth, truth_chunks

    synth_config = _synth_config(args, config)
    instances = iter_instances(synth_config)  # validates before the out dir is made
    with output_files(Path(args.out_dir), ("corpus.jsonl", "ground_truth.json")) as files:
        def entries() -> Iterator[str]:  # writes each instance's corpus lines
            for ts, truth in instances:
                files["corpus.jsonl"].write("".join(serialize_trajectory(t) + "\n" for t in ts))
                yield render_truth(truth)
        files["ground_truth.json"].writelines(truth_chunks(synth_config, entries()))


def cmd_selfcheck(args, config) -> None:
    synth_cfg = _synth_config(args, config)
    summary = selfcheck(synth_cfg)
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True))


def _number(value: Any, name: str, index: int | None = None) -> int | float:
    # json decodes a number to exactly int or float, and true to bool (an int
    # subclass); float() would also take true and " 1e1 "
    if type(value) not in (int, float):
        label = name if index is None else f"{name}[{index}]"
        raise InputError(f"{label} must be a JSON number, got {value!r}")
    return value


def _numbers(value: Any, name: str) -> tuple[int | float, ...]:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a JSON array, got {value!r}")
    return tuple(_number(v, name, i) for i, v in enumerate(value))


def cmd_loss(args, config) -> None:
    from .losses import DpoInputs, TrajectoryLogProbs, dpo_loss, dpo_loss_grad, sft_loss

    def loss_result(obj: Any) -> dict[str, Any]:
        """One record's result; every log-prob and beta must be a JSON number."""
        if not isinstance(obj, dict):
            raise InputError("loss record is not an object")
        kind = obj.get("kind")
        if kind == "sft":
            lp = TrajectoryLogProbs(
                action_logps=_numbers(obj["action_logps"], "action_logps"),
                observation_logps=_numbers(obj.get("observation_logps", []), "observation_logps"),
            )
            loss = sft_loss(lp, reduction=obj.get("reduction", config["sft_reduction"]))
            return {"kind": "sft", "loss": loss}
        if kind == "dpo":
            x = DpoInputs(**{name: float(_number(obj[name], name)) for name in DpoInputs._fields})
            return {"kind": "dpo", "loss": dpo_loss(x), "grad": dpo_loss_grad(x)._asdict()}
        raise InputError(f"loss record kind must be 'sft' or 'dpo', got {kind!r}")

    def loss_record(obj: Any) -> str:
        """One record's result line; each error the line loop does not catch reads as InputError."""
        try:
            # a non-finite result fails to encode (ValueError), never reads `Infinity`
            return _encode(loss_result(obj)) + "\n"
        except KeyError as exc:  # only a record's own fields are looked up
            raise InputError(f"missing field {exc.args[0]!r}") from exc
        # ConfigError: the record's own beta or reduction is invalid
        except (ConfigError, TypeError, OverflowError) as exc:
            raise InputError(str(exc)) from exc

    try:
        # numbers and lines read as in a corpus, each line's error raised with its number
        with open(args.input, "rb") as fh:
            text = "".join(_json_lines(fh, loss_record, strict=True))
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    if args.output:
        atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    subcommand: str | None = None  # set on a subcommand's parser until its options are added

    def parse_known_args(self, args=None, namespace=None):
        if self.subcommand is not None:  # so a command builds no other command's options
            _add_options(self, self.subcommand)
            self.subcommand = None
        return super().parse_known_args(args, namespace)

    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _add_options(p: _Parser, command: str) -> None:
    """`command`'s options: its input file, output directory, every config
    key, and the loss output file or the synth flags."""
    if command not in ("synth", "selfcheck"):
        p.add_argument("--input", required=True, help="input corpus / records file")
    if command not in ("loss", "selfcheck"):
        p.add_argument("--out-dir", required=True, help="output directory")
    for key, default in _CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(flag, dest=key, type=type(default), default=None)
    if command == "loss":
        p.add_argument("--output", help="write results here instead of stdout")
    for key, default in _SYNTH_FLAGS.items() if command in ("synth", "selfcheck") else ():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajtree", description=__doc__)
    parser.add_argument("--config", help=f"config file path (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = dict.fromkeys(COMMAND_OUTPUTS, cmd_pipeline)
    commands.update(loss=cmd_loss, synth=cmd_synth, selfcheck=cmd_selfcheck)
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.subcommand = name
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: getattr(args, k, None) for k in _CONFIG_DEFAULTS}
        config = load_config(args.config, overrides)
        args.func(args, config)
    # OSError: an out dir or output file that cannot be made or written
    except (TrajtreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, TrajtreeError) else ConfigError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
