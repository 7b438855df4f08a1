"""Command-line entry point for the trajectory-tree pipeline.

Subcommands cover each stage plus `all` (full pipeline) and `selfcheck`
(synthetic corpus vs. brute-force oracles). Exit codes: 0 success,
1 usage/config error, 2 invalid input data, 3 internal invariant
violation.

This module handles arguments, config and files; `trajtree.emit` renders
what the dataset commands write.

A command loads only the modules it runs: the synthetic-corpus subsystem
(`trajtree.synth`, and with it hashlib) and the loss math and loss-record
rules (`trajtree.losses`) are imported by the commands that use them.
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
from itertools import groupby, takewhile
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .emit import _DOCS, _Instance, _Run, _write_instance
from .errors import ConfigError, InputError, InvariantError, TrajtreeError
from .ingest import (
    DEFAULT_LOOP_THRESHOLD, DEFAULT_OUTLIER_MIN_PREFIX, IngestReport, group_by_instance,
    ingest_trajectories,
)
from .model import (
    CanonConfig, Trajectory, _decode, _encode, _json_lines, _reason, iter_trajectories,
    serialize_trajectory,
)
from .pipeline import StageConfig
from .scoring import ALL_PAIRS, DEFAULT_THRESHOLD, MAX_MIN, format_rational

CONFIG_ENV_VAR = "TRAJTREE_CONFIG"

_CONFIG_DEFAULTS: dict[str, Any] = {
    "collapse_whitespace": True,
    "loop_threshold": DEFAULT_LOOP_THRESHOLD,
    "outlier_min_prefix": DEFAULT_OUTLIER_MIN_PREFIX,
    "merge_mode": "action-only",
    "critical_threshold": format_rational(DEFAULT_THRESHOLD),
    "pair_mode": ALL_PAIRS,
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
    choices = {"merge_mode": ("action-only", "strict"), "pair_mode": (ALL_PAIRS, MAX_MIN),
               "sft_reduction": ("sum", "mean")}
    for key, allowed in choices.items():
        if config[key] not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(allowed)}: {config[key]!r}")
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
    """Open a temp file per name in `out`, making `out` and its missing
    parents; rename them all onto their names (in order) when the block
    succeeds. When it raises, close and delete them all, and remove each
    directory the block made while it is still empty, deepest first, so a
    failed command leaves no file and no directory that it made.
    A name that is a directory fails the block before the first rename.
    (Only a failure among the renames themselves can leave the names
    renamed so far replaced.)

    Each file is created as a plain open() creates it, with mode 0o666 less
    the umask; a temp name that already exists fails the block and is left
    as it was.
    """
    missing = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))  # deepest first
    files: dict[str, TextIO] = {}  # name -> its open temp file, whose .name is the temp path
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            files[name] = open(out / f".{name}.{os.urandom(8).hex()}", "x", encoding="utf-8")
        yield files
        for fh in files.values():
            fh.close()
        for name in files:  # os.replace would fail here, after the earlier renames
            if (out / name).is_dir() and not (out / name).is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name, fh in files.items():
            os.replace(fh.name, out / name)
    except BaseException:
        for fh in files.values():
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                os.unlink(fh.name)
        for directory in missing:
            with suppress(OSError):
                directory.rmdir()
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
    def parsed() -> Iterator[Trajectory]:
        for t in iter_trajectories(lines, strict, canon):
            if t is not None:
                yield t
            elif run.report is not None:
                run.report.malformed_skipped += 1

    written: set[str | bool] = set()  # each run's key: its instance id, or (not streamed) False
    for instance_id, ts in groupby(parsed(), lambda t: streamed and t.instance_id):
        if instance_id in written:
            raise _Restart  # instance order would differ
        written.add(instance_id)
        yield list(ts)


def _corpus_lines(fh: Iterable[bytes], path: str, kind: str = "corpus ") -> Iterator[bytes]:
    """`fh`'s lines; a failed read is an input error on the line being read,
    as a malformed line is. `kind` names the file before its path."""
    line_no = 0
    try:
        for line_no, line in enumerate(fh, start=1):
            yield line
    except OSError as exc:
        raise InputError(f"cannot read {kind}{path}: {exc}", line=line_no + 1) from exc


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
        run = _Run(IngestReport() if "retained.jsonl" in names else None)
        with output_files(Path(args.out_dir), names) as files:
            for ts in _runs(run, _corpus_lines(fh, args.input), strict, stage.canon, streamed):
                if run.report is None:  # a later stage takes each run as retained
                    groups = group_by_instance(ts)
                else:
                    groups, report = ingest_trajectories(
                        ts, stage.loop_threshold, stage.outlier_min_prefix, stage.canon
                    )
                    run.report.add(report)
                for instance_id, group in groups.items():
                    _write_instance(run, files, _Instance(instance_id, group, stage))
            for name, out in files.items():
                if name in _DOCS:
                    doc = _DOCS[name](run) | {"effective_config": echo_config(config)}
                    out.write(json_doc(doc))
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


def _synth_config(args, config):
    from .synth import SynthConfig

    # the synth/selfcheck flags are its fields; seed is a config key
    flags = {name: getattr(args, name) for name in SynthConfig._fields if name != "seed"}
    return SynthConfig(seed=config["seed"], **flags)


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
    from .synth import selfcheck

    summary = selfcheck(_synth_config(args, config))
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True))


def cmd_loss(args, config) -> None:
    from .losses import loss_result

    def loss_record(obj: Any) -> str:
        # a non-finite result fails to encode (ValueError), never reads `Infinity`
        return _encode(loss_result(obj, config["sft_reduction"])) + "\n"

    try:
        fh = open(args.input, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    with fh:
        # read as corpus lines are: a bad line or a failed read names its line
        results = _json_lines(_corpus_lines(fh, args.input, kind=""), loss_record, strict=True)
        if args.output:  # each result is written as it is made
            out = Path(args.output)
            with output_files(out.parent, (out.name,)) as files:
                files[out.name].writelines(results)
        else:  # stdout gets nothing unless every line is good
            sys.stdout.write("".join(results))


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
    if command in ("synth", "selfcheck"):
        from .synth import SynthConfig

        for key, default in SynthConfig._field_defaults.items():
            if key == "seed":  # a config key, added above
                continue
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
