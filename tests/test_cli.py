import argparse
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import sys
import tempfile
import threading
import tracemalloc
import weakref
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from trajtree import cli, emit, errors, ingest, model, pipeline, scoring
from trajtree.cli import COMMAND_OUTPUTS, atomic_write, jsonl, main
from trajtree.emit import dpo_to_dict, emit_dpo, emit_sft, emit_stats, sft_to_dict
from trajtree.errors import InputError
from trajtree.ingest import group_by_instance, ingest_trajectories
from trajtree.model import (
    CanonConfig, Step, Trajectory, parse_trajectory_stream, serialize_trajectory,
)
from trajtree.pipeline import StageConfig, process_instances
from trajtree.scoring import pair_to_dict, scored_tree_to_dict
from trajtree.synth import SynthConfig, generate
from trajtree.tree import build_tree, path_ids, tree_to_dict

from conftest import O_SEARCH, PROMPT, make_traj


@pytest.fixture
def corpus_path(tmp_path, fixture_trajectories):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(serialize_trajectory(t) + "\n" for t in fixture_trajectories),
        encoding="utf-8",
    )
    return path


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["ingest"]) == 1

    def test_invalid_input_data(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.jsonl"
        text = corpus_path.read_text().replace('"resolved":1', '"resolved":2')
        bad.write_text(text, encoding="utf-8")
        code = main(["score", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_each_error_class_exits_with_the_status_readme_lists(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = " ".join(readme.partition("Exit codes: ")[2].partition(".")[0].split())
        listed = {name: int(code) for code, name in re.findall(r"(\d) [^,(]*\(`(\w+)`", sentence)}
        assert listed == {"ConfigError": 1, "InputError": 2, "InvariantError": 3}
        for name, code in listed.items():
            assert getattr(errors, name).exit_code == code
        assert errors.TrajtreeError.exit_code == 1

    def test_a_new_error_class_exits_with_its_status(
        self, corpus_path, tmp_path, monkeypatch, capsys
    ):
        class QuotaError(errors.TrajtreeError):
            exit_code = 4

        class OracleError(errors.InvariantError):
            pass

        for error, code in ((QuotaError, 4), (OracleError, 3)):
            def fail(args, config):
                raise error("stopped")

            monkeypatch.setattr(cli, "cmd_pipeline", fail)
            argv = ["all", "--input", str(corpus_path), "--out-dir", str(tmp_path / "out")]
            assert main(argv) == code, error
            assert capsys.readouterr().err == "error: stopped\n"

    def test_bad_config_value(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cases = [
            (None, ["--loop-threshold", "1"], "loop_threshold must be >= 2"),
            ('{"loop_threshold": "x"}', [], "loop_threshold must be an integer: 'x'"),
            ('{"outlier_min_prefix": "x"}', [], "outlier_min_prefix must be an integer: 'x'"),
            ('{"jobs": "x"}', [], "jobs must be an integer: 'x'"),
            ('{"jobs": null}', [], "jobs must be an integer: None"),
            ('{"critical_threshold": Infinity}', [],
             f"cannot read config {cfg}: non-finite number Infinity"),
            # booleans must be JSON booleans, integers JSON integers (not booleans)
            ('{"lenient": "false"}', [], "lenient must be true or false: 'false'"),
            ('{"collapse_whitespace": "no"}', [],
             "collapse_whitespace must be true or false: 'no'"),
            ('{"collapse_whitespace": 1}', [], "collapse_whitespace must be true or false: 1"),
            ('{"loop_threshold": 3.9}', [], "loop_threshold must be an integer: 3.9"),
            ('{"loop_threshold": "4"}', [], "loop_threshold must be an integer: '4'"),
            ('{"outlier_min_prefix": true}', [], "outlier_min_prefix must be an integer: True"),
            ('{"jobs": true}', [], "jobs must be an integer: True"),
            ('{"seed": 1.5}', [], "seed must be an integer: 1.5"),
            ('{"seed": "1"}', [], "seed must be an integer: '1'"),
            ("[1]", [], "config file must hold a JSON object"),
            # a choice outside its set, a threshold outside the open unit interval
            (None, ["--merge-mode", "x"], "merge_mode must be action-only or strict: 'x'"),
            (None, ["--pair-mode", "y"], "pair_mode must be all-pairs or max-min: 'y'"),
            (None, ["--sft-reduction", "y"], "sft_reduction must be sum or mean: 'y'"),
            (None, ["--critical-threshold", "2"], "critical_threshold must be in (0, 1): 2"),
            (None, ["--critical-threshold", "0"], "critical_threshold must be in (0, 1): 0"),
        ]
        for config_text, flags, message in cases:
            config_args = []
            if config_text is not None:
                cfg.write_text(config_text, encoding="utf-8")
                config_args = ["--config", str(cfg)]
            code = main([
                *config_args,
                "ingest", "--input", str(corpus_path), "--out-dir", str(tmp_path / "o"),
                *flags,
            ])
            assert code == 1, (config_text, flags)
            assert capsys.readouterr().err == f"error: {message}\n", (config_text, flags)

    @pytest.mark.parametrize("threshold", ["1e-5000", "1e-100000"])
    def test_threshold_beyond_the_digit_limit_exits_1(
        self, threshold, corpus_path, tmp_path, capsys
    ):
        # the echoed "num/den" would need more digits than an int formats
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"critical_threshold": threshold}), encoding="utf-8")
        for how, config_args, flags in (
            ("flag", [], ["--critical-threshold", threshold]),
            ("file", ["--config", str(cfg)], []),
        ):
            out = tmp_path / how
            argv = ["all", "--input", str(corpus_path), "--out-dir", str(out), *flags]
            assert main([*config_args, *argv]) == 1, how
            assert capsys.readouterr().err == f"error: bad critical_threshold '{threshold}'\n", how
            assert not out.exists(), how

    def test_config_not_utf8_exits_1(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"jobs": 1, "seed": "\xff"}')
        code = main([
            "--config", str(cfg),
            "ingest", "--input", str(corpus_path), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot read config")

    @pytest.mark.parametrize("route, text", [
        ("flag", '{"a":' * 100_000),
        ("env", "[" * 100_000),
    ])
    def test_deeply_nested_config_exits_1(
        self, route, text, corpus_path, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "deep.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["all", "--input", str(corpus_path), "--out-dir", str(out)]
        if route == "flag":
            argv = ["--config", str(cfg), *argv]
        else:
            monkeypatch.setenv("TRAJTREE_CONFIG", str(cfg))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")
        assert not out.exists()

    def test_out_dir_is_a_file_exits_1(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["all", "--input", str(corpus_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_out_dir_under_a_file_exits_1(self, corpus_path, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert main(["all", "--input", str(corpus_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_config_key_in_file(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}', encoding="utf-8")
        code = main([
            "--config", str(cfg),
            "ingest", "--input", str(corpus_path), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_non_utf8_line_strict_exits_2(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(corpus_path.read_bytes() + b"\xff\xfe\n")
        code = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    def test_non_utf8_line_lenient_is_skipped(self, tmp_path, corpus_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe\n" + corpus_path.read_bytes())
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(bad), "--out-dir", str(out), "--lenient"]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["malformed_skipped"] == 1
        assert report["retained"] == 3

    @pytest.mark.parametrize("meta", [b"0", b"false", b'""', b"[]", b"[1]", b'"x"', b"1.5"])
    def test_non_object_meta_is_malformed(self, meta, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.jsonl"
        text = corpus_path.read_bytes()
        line = text.splitlines()[0].replace(b'"meta":{}', b'"meta":' + meta)
        bad.write_bytes(text + line + b"\n")
        argv = ["ingest", "--input", str(bad)]
        assert main([*argv, "--out-dir", str(tmp_path / "strict")]) == 2
        assert capsys.readouterr().err == "error: line 4: meta must be an object\n"
        out = tmp_path / "lenient"
        assert main([*argv, "--out-dir", str(out), "--lenient"]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["malformed_skipped"] == 1 and report["retained"] == 3

    # JSON the decoder cannot follow: nesting too deep, an integer too long to convert
    UNDECODABLE = (b"[" * 100000, b'{"x": ' + b"9" * 5000 + b"}")

    def test_deeply_nested_line_strict_exits_2(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.jsonl"
        for line in self.UNDECODABLE:
            bad.write_bytes(corpus_path.read_bytes() + line + b"\n")
            code = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == 2, line[:10]
            err = capsys.readouterr().err
            assert err.startswith("error: line 4: "), line[:10]
            # the message is the program's, not the interpreter's advice on its limit
            assert "set_int_max_str_digits" not in err, line[:10]
        assert err == "error: line 4: integer literal of 5000 digits is too long\n"

    def test_deeply_nested_line_lenient_is_skipped(self, tmp_path, corpus_path):
        bad = tmp_path / "bad.jsonl"
        for line in self.UNDECODABLE:
            bad.write_bytes(line + b"\n" + corpus_path.read_bytes())
            out = tmp_path / "o"
            assert main(["ingest", "--input", str(bad), "--out-dir", str(out), "--lenient"]) == 0
            report = json.loads((out / "ingest_report.json").read_text())
            assert report["malformed_skipped"] == 1, line[:10]
            assert report["retained"] == 3, line[:10]

    # numbers with no JSON form on output: NaN, infinities, a float literal that overflows
    NON_FINITE = (b"NaN", b"Infinity", b"-Infinity", b"1e400")

    def test_lone_surrogate_strict_exits_2(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.jsonl"
        text = corpus_path.read_bytes()
        for bad_text, message in (
            (text.replace(b'"test"', b'"a\\ud800"'), "step 2 action holds a lone surrogate"),
            (text.replace(O_SEARCH.encode(), b"\\ud800", 1),
             "step 0 observation holds a lone surrogate"),
            (text.replace(b'"meta":{}', b'"meta":{"x":"\\ud800"}', 1),
             "meta holds a lone surrogate"),
            *((text.replace(b'"meta":{}', b'"meta":{"x":%s}' % n, 1),
               f"non-finite number {n.decode()}") for n in self.NON_FINITE),
        ):
            bad.write_bytes(bad_text)
            code = main(["all", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == 2, bad_text[:60]
            assert capsys.readouterr().err == f"error: line 1: {message}\n", bad_text[:60]

    def test_lone_surrogate_lenient_is_skipped(self, tmp_path, corpus_path):
        bad = tmp_path / "bad.jsonl"
        valid = serialize_trajectory(make_traj("t0", [("search", None)], 1)).encode()
        for bad_line in (
            valid.replace(b'"action":"search"', b'"action":"a\\ud800"'),
            valid.replace(b'"action":"search"', b'"action":"search","observation":"\\ud800"'),
            valid.replace(b'"meta":{}', b'"meta":{"x":"\\ud800"}'),
            *(valid.replace(b'"meta":{}', b'"meta":{"x":%s}' % n) for n in self.NON_FINITE),
        ):
            bad.write_bytes(bad_line + b"\n" + corpus_path.read_bytes())
            out = tmp_path / "o"
            assert main(["all", "--input", str(bad), "--out-dir", str(out), "--lenient"]) == 0
            report = json.loads((out / "ingest_report.json").read_text())
            assert report["malformed_skipped"] == 1, bad_line
            assert report["retained"] == 3, bad_line
            retained = (out / "retained.jsonl").read_bytes()
            assert b"NaN" not in retained and b"Infinity" not in retained, bad_line

    def test_input_that_cannot_be_opened_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        reason = f"[Errno 2] No such file or directory: '{missing}'"
        out = tmp_path / "o"
        assert main(["all", "--input", str(missing), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot read corpus {missing}: {reason}\n"
        assert not out.exists()
        assert main(["loss", "--input", str(missing)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: cannot read {missing}: {reason}\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
    def test_corpus_that_fails_mid_read_exits_2(self, corpus_path, tmp_path, monkeypatch, capsys):
        # /proc/self/mem opens, but reading its first page fails with EIO; like a
        # malformed line, the failed line ends the pass that reads it
        original = cli._corpus_lines
        entered = []

        def counting(fh, path):
            entered.append(path)
            return original(fh, path)

        monkeypatch.setattr(cli, "_corpus_lines", counting)
        out = tmp_path / "o"
        assert main(["all", "--input", "/proc/self/mem", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: cannot read corpus /proc/self/mem: [Errno 5] Input/output error\n"
        )
        assert not out.exists()
        assert entered == ["/proc/self/mem"]

        def fails_on_line_3():
            yield from (b"a\n", b"b\n")
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        with pytest.raises(InputError) as failed:
            list(original(fails_on_line_3(), "c"))
        reason = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        assert failed.value.line == 3
        assert str(failed.value) == f"line 3: cannot read corpus c: {reason}"

        def full(run, inst):  # a failed write is still an output error, exit 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setitem(emit._LINES, "trees.jsonl", full)
        assert main(["all", "--input", str(corpus_path), "--out-dir", str(out)]) == 1
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    def test_blank_action_after_cached_actions(self, tmp_path, corpus_path, capsys):
        # the parse memoizes action keys; a blank action is still an error on
        # every line it appears, after its trajectory's first action hit the memo
        blank = json.dumps({
            "instance_id": "inst-fix-x", "trajectory_id": "t9", "prompt": PROMPT,
            "steps": [{"action": "search", "observation": O_SEARCH}, {"action": " \u3000\t\u2028"}],
            "resolved": 0,
        })
        lines = corpus_path.read_text(encoding="utf-8").splitlines()
        corpus = _write_corpus(tmp_path / "blank.jsonl", [*lines, blank] * 2)
        argv = ["ingest", "--input", str(corpus)]
        assert main([*argv, "--out-dir", str(tmp_path / "strict")]) == 2
        assert capsys.readouterr().err == "error: line 4: empty action after canonicalization\n"
        assert main([*argv, "--out-dir", str(tmp_path / "lenient"), "--lenient"]) == 0
        report = json.loads((tmp_path / "lenient" / "ingest_report.json").read_text())
        assert report["malformed_skipped"] == 2 and report["retained"] == 3

    def test_duplicate_trajectory_id_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            serialize_trajectory(make_traj("t", [("search", "ok"), (last, None)], resolved)) + "\n"
            for last, resolved in (("edit", 1), ("submit", 0))
        ), encoding="utf-8")
        for command in ("all", "tree"):
            out = tmp_path / command
            assert main([command, "--input", str(corpus), "--out-dir", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert "'t'" in err and "'inst-fix-x'" in err, command


COMMANDS = [*COMMAND_OUTPUTS, "loss", "synth", "selfcheck"]


def command_flags(command: str) -> list[str]:
    """Every flag `command --help` lists: its files, each config key, and the
    loss output file or the synth flags."""
    flags = [] if command in ("synth", "selfcheck") else ["--input"]
    flags += [] if command in ("loss", "selfcheck") else ["--out-dir"]
    for key, default in cli._CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag, "--no-" + flag[2:]] if isinstance(default, bool) else [flag]
    if command == "loss":
        flags.append("--output")
    if command in ("synth", "selfcheck"):
        flags += ["--" + name.replace("_", "-") for name in SynthConfig._fields if name != "seed"]
    return flags


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: trajtree {command} [-h]"), text
        listed = {word.strip("[],") for word in text.split() if word.strip("[").startswith("--")}
        assert listed == set(command_flags(command)) | {"--help"}, command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_option_exits_1(self, command, tmp_path, capsys):
        files = {"--input": str(tmp_path / "in.jsonl"), "--out-dir": str(tmp_path / "out")}
        argv = [command, *(a for flag in command_flags(command)[:2] if flag in files
                           for a in (flag, files[flag]))]
        assert main([*argv, "--no-such-flag"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --no-such-flag\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_command_adds_only_its_own_options(self):
        parser = cli.build_parser()
        args = parser.parse_args(["tree", "--input", "in", "--out-dir", "out", "--jobs", "2"])
        assert (args.input, args.out_dir, args.jobs) == ("in", "out", 2)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: len(p._actions) - 1 for name, p in sub.choices.items()}  # less -h
        assert options == {name: 12 if name == "tree" else 0 for name in COMMANDS}


class TestCommandOutputs:
    @pytest.mark.parametrize("command", sorted(COMMAND_OUTPUTS))
    def test_writes_exactly_its_row(self, command, corpus_path, tmp_path):
        out = tmp_path / "out"
        assert main([command, "--input", str(corpus_path), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(COMMAND_OUTPUTS[command])


class TestBooleanFlags:
    def test_no_collapse_whitespace_keeps_actions_apart(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            serialize_trajectory(make_traj(tid, [(action, "ok"), ("submit", None)], resolved))
            + "\n"
            for tid, action, resolved in (("t1", "a  b", 1), ("t2", "a b", 0))
        ), encoding="utf-8")

        def root_children(*flags):
            out = tmp_path / f"out{len(flags)}"
            assert main(["tree", "--input", str(corpus), "--out-dir", str(out), *flags]) == 0
            tree = json.loads((out / "trees.jsonl").read_text())
            return len(tree["nodes"][tree["root_id"]]["children"])

        assert root_children() == 1
        assert root_children("--no-collapse-whitespace") == 2

    def test_no_lenient_overrides_config_file(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lenient": true}', encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(corpus_path.read_text() + "not json\n", encoding="utf-8")
        args = ["--config", str(cfg), "ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")]
        assert main(args) == 0
        assert main([*args, "--no-lenient"]) == 2


class TestAll:
    def test_fixture_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--input", str(corpus_path), "--out-dir", str(out)]) == 0
        sft = [json.loads(l) for l in (out / "sft.jsonl").read_text().splitlines()]
        dpo = [json.loads(l) for l in (out / "dpo.jsonl").read_text().splitlines()]
        stats = json.loads((out / "stats.json").read_text())
        assert len(sft) == 1 and sft[0]["trajectory_id"] == "t1"
        assert len(dpo) == 1
        assert dpo[0]["chosen"] == "test" and dpo[0]["rejected"] == "submit"
        assert stats["critical_pair_count"] == 1
        assert stats["ingest"]["retained"] == 3

    def test_equal_thresholds_write_equal_bytes(self, corpus_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        outputs = []
        for threshold in ('"1/2"', '"2/4"', "0.5"):
            cfg.write_text(f'{{"critical_threshold": {threshold}}}', encoding="utf-8")
            out = tmp_path / f"out{len(outputs)}"
            argv = ["all", "--input", str(corpus_path), "--out-dir", str(out)]
            assert main(["--config", str(cfg), *argv]) == 0
            outputs.append(read_outputs(out))
        assert outputs[0] == outputs[1] == outputs[2]
        report = json.loads(outputs[0]["ingest_report.json"])
        assert report["effective_config"]["critical_threshold"] == "1/2"

    def test_float_threshold_in_config_is_its_decimal(self, tmp_path):
        # under a, x scores 8/10 and y 5/10: a gap of exactly 3/10, which the
        # binary value of 0.3 (just below 3/10) would call critical
        ts = [
            make_traj(f"{branch}{i}", [("a", "o"), (branch, "o"), (f"end{i}", None)],
                      int(i < wins), instance_id="i")
            for branch, wins in (("x", 8), ("y", 5))
            for i in range(10)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(serialize_trajectory(t) + "\n" for t in ts), encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"critical_threshold": 0.3}', encoding="utf-8")
        argv = ["all", "--input", str(corpus)]
        assert main([*argv, "--out-dir", str(tmp_path / "flag"), "--critical-threshold", "0.3"]) == 0
        assert main(["--config", str(cfg), *argv, "--out-dir", str(tmp_path / "file")]) == 0
        flag, file = read_outputs(tmp_path / "flag"), read_outputs(tmp_path / "file")
        assert flag == file
        pairs = [json.loads(line) for line in flag["pairs.jsonl"].splitlines()]
        assert pairs and not any({p["chosen"], p["rejected"]} == {"x", "y"} for p in pairs)
        report = json.loads(flag["ingest_report.json"])
        assert report["effective_config"]["critical_threshold"] == "3/10"

    def test_files_end_with_newline(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        main(["all", "--input", str(corpus_path), "--out-dir", str(out)])
        for name, data in read_outputs(out).items():
            assert data.endswith(b"\n"), name

    def test_all_matches_stage_composition(self, corpus_path, tmp_path):
        all_dir = tmp_path / "all"
        main(["all", "--input", str(corpus_path), "--out-dir", str(all_dir)])
        staged = tmp_path / "staged"
        main(["ingest", "--input", str(corpus_path), "--out-dir", str(staged)])
        retained = staged / "retained.jsonl"
        for cmd in ("tree", "score", "pairs", "sft", "dpo", "stats"):
            assert main([cmd, "--input", str(retained), "--out-dir", str(staged)]) == 0
        a, b = read_outputs(all_dir), read_outputs(staged)
        assert set(a) == set(b)
        for name in a:
            if name == "stats.json":
                # the staged stats run has no ingest report in scope
                sa = json.loads(a[name])
                sb = json.loads(b[name])
                sa.pop("ingest", None)
                sb.pop("ingest", None)
                assert sa == sb
            else:
                assert a[name] == b[name], name

    # sha256 of every `all` file on small deep- and wide-shaped synth corpora
    # (the shapes TestSynthFiles pins), recorded before the parse memo and the
    # spliced retained/sft lines; they pin the bytes every later speed-up must keep.
    # The divergent shape and the threshold-raw-lenient config were recorded
    # before the flat (per-node list) trees
    GOLDEN_SHAPES = {
        "deep": ["--seed", "1", "--instances", "4", "--trajectories-per-instance", "40",
                 "--depth", "30", "--branching", "2"],
        "wide": ["--seed", "1", "--instances", "3", "--trajectories-per-instance", "60",
                 "--depth", "12", "--branching", "8"],
        # every merge diverges on its observation: pins divergence counting and strict merge
        "divergent": ["--seed", "1", "--instances", "3", "--trajectories-per-instance", "40",
                      "--depth", "12", "--branching", "3", "--divergent-observations"],
    }
    GOLDEN_CONFIGS = {
        "default": [],
        "strict-max-min": ["--merge-mode", "strict", "--pair-mode", "max-min"],
        "threshold-raw-lenient": [
            "--critical-threshold", "0.3", "--no-collapse-whitespace", "--lenient",
        ],
    }
    GOLDEN = {
        ("deep", "default"): {
            "retained.jsonl": "b0a5424297e39403abeeaa5cf0ea017e58e9acf7a7e28c567c6ee4ab4e70c64e",
            "ingest_report.json": "4d1b917e32a59cfa509d9b6ceafcd19139206408d12cbd81e4560e17e6b17785",
            "trees.jsonl": "de51fef74ffe3127c9d2732df5fa8bb9b05717e9fac15183c203e3f8fdd971da",
            "scored_trees.jsonl": "8baa0d6489e22706e78238f30b4a0121f8232d3e7eccfecc42fa77ad76e2b2ca",
            "pairs.jsonl": "2ebbc2f437d9778474800dc65dacf0f1e2d51a0f761b68d6c85e83fb798cb5d3",
            "sft.jsonl": "5e28cdf2e2538abe35afe328e2f7856a1dc8b0f5d8d3e43f4435b0be41dc746b",
            "dpo.jsonl": "e741cb5ff637b90a59ea8ea676b6dff327c58e9ee7739c7df1bc0b70aabc639c",
            "stats.json": "f155a8131b5f4cac320363dcdf378e733e440c111893a136d6461466b8a06152",
        },
        ("deep", "strict-max-min"): {
            "retained.jsonl": "b0a5424297e39403abeeaa5cf0ea017e58e9acf7a7e28c567c6ee4ab4e70c64e",
            "ingest_report.json": "8a57e044a47425f0b3e97d9ffcf7da394e39649d7c294f2a42414f2037827e71",
            "trees.jsonl": "de51fef74ffe3127c9d2732df5fa8bb9b05717e9fac15183c203e3f8fdd971da",
            "scored_trees.jsonl": "8baa0d6489e22706e78238f30b4a0121f8232d3e7eccfecc42fa77ad76e2b2ca",
            "pairs.jsonl": "96e68d9a605071a462be0f791ea717560a60ebba39e04abd510ba2220fd675e9",
            "sft.jsonl": "5e28cdf2e2538abe35afe328e2f7856a1dc8b0f5d8d3e43f4435b0be41dc746b",
            "dpo.jsonl": "63fe0db205c8a64fb2564f902dbc233081388914ae1d764a9146abded4b40059",
            "stats.json": "3bd05a0db79ed77d1faa8e7a57635a6bc46ba56f996b325653b4a5095699a7e4",
        },
        ("wide", "default"): {
            "retained.jsonl": "41a1e9648f3d36271b1c66506ff00b31ac1442b83396ac5c891752881ce7cf32",
            "ingest_report.json": "d6c0d9106e1bcacb60ad7538fbd94d91a9cc3029d260ed4065e03077c0d72174",
            "trees.jsonl": "7e507b488a79d238959549ed9774361b52c7b7e2e395fd1121d84099ae5f2b6f",
            "scored_trees.jsonl": "105170f24b6c75a708908e65c224eb0f7197a3c47ed9fb70fe998a6aa20245c3",
            "pairs.jsonl": "738c8b8581ce48ce575e7cf9169880635a001c2f12ff643a6dd6a9f868d98504",
            "sft.jsonl": "28716cca5d8d13ef03efa4daa216d2ba808bec2f303b0091ed1dd7fecd8b83be",
            "dpo.jsonl": "fcda6e85879a8ebfb85682b97232a20da86871456660332dfd3708293c0e9515",
            "stats.json": "6e6d93b59b8ca9fba6e423dd4796ae796f3c2a5bc239c36ddc0371833184d0e2",
        },
        ("wide", "strict-max-min"): {
            "retained.jsonl": "41a1e9648f3d36271b1c66506ff00b31ac1442b83396ac5c891752881ce7cf32",
            "ingest_report.json": "c56ff56536f2dffa7bae951efad3e6f31b8c4bdafb7b1a84a34fe1a65fd1e87b",
            "trees.jsonl": "bb718bf4c116731710dc0bb6d7271f06ba30c0821ee0e875e333c02580c93e23",
            "scored_trees.jsonl": "97855b0c9173578a3bdcd70bd5324ec58c638ccfd24d1a66da6f447833513be4",
            "pairs.jsonl": "7b0192c6dbe69f989848f4a189f66850eea66ba1abb43a6961676d3b904691bd",
            "sft.jsonl": "28716cca5d8d13ef03efa4daa216d2ba808bec2f303b0091ed1dd7fecd8b83be",
            "dpo.jsonl": "cede95b08c71b0ad3f0d8c49b2bfdfe695f5813e0cd24d38b47b7d9cc6c700a8",
            "stats.json": "57587fdae80cc8ff4a70c4eef2dba502b715b5262428db6fd1448565abf29710",
        },
        ("deep", "threshold-raw-lenient"): {
            "retained.jsonl": "b0a5424297e39403abeeaa5cf0ea017e58e9acf7a7e28c567c6ee4ab4e70c64e",
            "ingest_report.json": "368972d4ff6bafda4614e37e9c94811779a8cd928aca213d1b9cc2b1e97284dc",
            "trees.jsonl": "de51fef74ffe3127c9d2732df5fa8bb9b05717e9fac15183c203e3f8fdd971da",
            "scored_trees.jsonl": "8baa0d6489e22706e78238f30b4a0121f8232d3e7eccfecc42fa77ad76e2b2ca",
            "pairs.jsonl": "563aa37a18c866c4c5f16d64363bf45cf8cad1e817365fa4e40ace6fb721491b",
            "sft.jsonl": "5e28cdf2e2538abe35afe328e2f7856a1dc8b0f5d8d3e43f4435b0be41dc746b",
            "dpo.jsonl": "63ae6b7bbfe8e803d27d7a59954a0e3766e804f9caeb6a5881b560355f25c2e5",
            "stats.json": "3a7914af8b0cff35b8b9ce001c99500dd8b3bc55fdcb4c731e9fe6aa4e5ea155",
        },
        ("wide", "threshold-raw-lenient"): {
            "retained.jsonl": "41a1e9648f3d36271b1c66506ff00b31ac1442b83396ac5c891752881ce7cf32",
            "ingest_report.json": "997de0ee103c50d4228d194bfd8a628e12f55867903291f5bc4e74ee572bb4bf",
            "trees.jsonl": "7e507b488a79d238959549ed9774361b52c7b7e2e395fd1121d84099ae5f2b6f",
            "scored_trees.jsonl": "105170f24b6c75a708908e65c224eb0f7197a3c47ed9fb70fe998a6aa20245c3",
            "pairs.jsonl": "0caa8348f4512573081529fe28f44c9dbeca7f8d20e5f53a07fd4dd3af8df415",
            "sft.jsonl": "28716cca5d8d13ef03efa4daa216d2ba808bec2f303b0091ed1dd7fecd8b83be",
            "dpo.jsonl": "2c5e93cf2738112caa07600994b47c7201b5048dfdc9e57c7e71c0d2a48d9205",
            "stats.json": "9c4f9bd8fd15d33221274657043a036529674a28d25682bddefe39050645198e",
        },
        ("divergent", "default"): {
            "retained.jsonl": "802af0f3020b515f9d2e20f3a99e938c7cd6fcf6874915dfa00dc6d194a29de4",
            "ingest_report.json": "8ef01ad0b2a36a68b87491d820f2f9a65c47040b11d171306b6c0e4c0029dd5e",
            "trees.jsonl": "ae3c3fd256b507d8a869927f7b4338b295c8432cce0201b932264b156937df7d",
            "scored_trees.jsonl": "e67de8b6ba41088d375cd076bd6ad000047da2d564dacd7ea6d49a44c6162dc1",
            "pairs.jsonl": "c378c8ddd8b59e43f1472046458c6249065388360cf32ed3f2aa2697a6bc2380",
            "sft.jsonl": "3f15dfdbbe2c30c1a785d45e159ef86e7724cf48e75131e2de20e82b17cd3080",
            "dpo.jsonl": "3a353726dcccbc73ae62e42cbedd997da9654346af1464ed43b8de9ea7ab9134",
            "stats.json": "dd179eb9a4fffea5c2897cd35e54cb089d56fdaa5a833dd188d663ab5b59328a",
        },
        ("divergent", "strict-max-min"): {
            "retained.jsonl": "802af0f3020b515f9d2e20f3a99e938c7cd6fcf6874915dfa00dc6d194a29de4",
            "ingest_report.json": "7cfca8a9d9c9dba6e47ea19aefe6a209a7d852255872af30d64bd3319c40e90f",
            "trees.jsonl": "a10b4430ea4b1093fec54854f49f125c7b5b92036da37e59598d48c1b9cd8072",
            "scored_trees.jsonl": "a27d1bf6ccc11bdb1a481f9087edc23ca0dfd6d733360c37f5b9b814b5597e19",
            "pairs.jsonl": "2bfd440db03f74b3f999edefd01d34877d25a24a1201c1f9cc28fae08866a51c",
            "sft.jsonl": "3f15dfdbbe2c30c1a785d45e159ef86e7724cf48e75131e2de20e82b17cd3080",
            "dpo.jsonl": "bd6e0e68c1cf76f0c37634e912af9d415b71e4ffaa294cfda28c448b5ef57b78",
            "stats.json": "6f592a9b0db9857c24148371d60f181a9ebc0910f1a693ba5db6ec61681ffbd0",
        },
        ("divergent", "threshold-raw-lenient"): {
            "retained.jsonl": "802af0f3020b515f9d2e20f3a99e938c7cd6fcf6874915dfa00dc6d194a29de4",
            "ingest_report.json": "07f052978f1b6071aea4d7c25d49510655cd26f2d3600ed64e2eeb0b7728d0d2",
            "trees.jsonl": "ae3c3fd256b507d8a869927f7b4338b295c8432cce0201b932264b156937df7d",
            "scored_trees.jsonl": "e67de8b6ba41088d375cd076bd6ad000047da2d564dacd7ea6d49a44c6162dc1",
            "pairs.jsonl": "84b8743c89c7fe8c70d53bc6fbbd56d712eae59a6a3a630ad2b234be41d4a838",
            "sft.jsonl": "3f15dfdbbe2c30c1a785d45e159ef86e7724cf48e75131e2de20e82b17cd3080",
            "dpo.jsonl": "64a88c3e362c12cf530c420edeccaa888665f964a32047a0741626c73eba354b",
            "stats.json": "f64fec0478cab9ca3f18d5db835502c381f0343e35a7bbe37388cef03f439662",
        },
    }

    @pytest.mark.parametrize("shape", GOLDEN_SHAPES)
    def test_golden_digests(self, shape, tmp_path):
        synth_dir = tmp_path / "synth"
        assert main(["synth", *self.GOLDEN_SHAPES[shape], "--out-dir", str(synth_dir)]) == 0
        for config, flags in self.GOLDEN_CONFIGS.items():
            out = tmp_path / config
            argv = ["all", "--input", str(synth_dir / "corpus.jsonl"), "--out-dir", str(out)]
            assert main([*argv, *flags]) == 0
            got = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in COMMAND_OUTPUTS["all"]
            }
            assert got == self.GOLDEN[shape, config], config

    def test_byte_identical_across_runs_and_jobs(self, corpus_path, tmp_path):
        outputs = []
        for i, jobs in enumerate(("1", "1", "8")):
            out = tmp_path / f"run{i}"
            assert main([
                "all", "--input", str(corpus_path), "--out-dir", str(out),
                "--jobs", jobs,
            ]) == 0
            outputs.append(read_outputs(out))
        assert outputs[0] == outputs[1] == outputs[2]


# text the JSON encoder must escape or pass through: quotes, backslashes,
# control characters, line/paragraph separators, non-BMP and non-ASCII
awkward_text = st.text(
    alphabet=st.sampled_from(
        'a /}{,:"\\\n\t\x00\x1f\x7f\u2028\u2029\u00e9\u4e2d\U0001f600'
    ),
    max_size=5,
)


@st.composite
def awkward_corpora(draw):
    actions = draw(st.lists(awkward_text.filter(str.strip), min_size=2, max_size=4, unique=True))
    observations = draw(st.lists(awkward_text, min_size=1, max_size=3))
    ts = []
    for i in range(draw(st.integers(1, 2))):
        instance_id, prompt = draw(awkward_text) + f"#{i}", draw(awkward_text)
        for j in range(draw(st.integers(1, 8))):
            steps = draw(st.lists(
                st.tuples(st.sampled_from(actions), st.sampled_from(observations)),
                min_size=1, max_size=4,
            ))
            if draw(st.booleans()):
                steps[-1] = (steps[-1][0], None)
            ts.append(make_traj(
                draw(awkward_text) + f"#{j}", steps, draw(st.integers(0, 1)),
                instance_id=instance_id, prompt=prompt,
            ))
    return ts


def corpus_line_reference(t: Trajectory) -> str:
    """serialize_trajectory's line as a record dict through json.dumps."""
    steps = []
    for step in t.steps:
        record = {"action": step.action}
        if step.observation is not None:
            record["observation"] = step.observation
        steps.append(record)
    obj = {
        "instance_id": t.instance_id,
        "trajectory_id": t.trajectory_id,
        "prompt": t.prompt,
        "steps": steps,
        "resolved": t.resolved,
        "meta": t.meta,
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


any_text = st.text() | awkward_text
# any JSON value, with awkward strings as text and keys
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | awkward_text, inner, max_size=3),
    max_leaves=10,
)


class TestSplicedRenderers:
    """The dataset files, spliced per instance from shared encodings, equal the
    dict exports' bytes."""

    @given(awkward_corpora(), st.sampled_from(["1/4", "1/2", "2/3"]))
    # raw actions that differ from their keys under both configs (" a"), under
    # collapse_whitespace only ("b  c"), and under neither ("d")
    @example([
        make_traj("t0", [(" a", "x"), ("b  c", None)], 1, instance_id="i"),
        make_traj("t1", [("a", "y"), ("b c", "z")], 0, instance_id="i"),
        make_traj("t2", [("a", "x"), ("d", None)], 1, instance_id="i"),
    ], "1/4")
    @settings(max_examples=150, deadline=None)
    def test_match_dict_exports(self, ts, threshold):
        groups = group_by_instance(ts)
        grouped = [t for group in groups.values() for t in group]
        for strict_merge, pair_mode, collapse_whitespace in itertools.product(
            (False, True), ("all-pairs", "max-min"), (True, False)
        ):
            stage = StageConfig(
                canon=CanonConfig(collapse_whitespace=collapse_whitespace),
                strict_merge=strict_merge,
                critical_threshold=Fraction(threshold),
                pair_mode=pair_mode,
            )
            results = process_instances(groups, stage).values()
            pairs = [p for r in results for p in r.pairs]
            expected = {
                "trees.jsonl": jsonl([tree_to_dict(r.tree) for r in results]),
                "scored_trees.jsonl": jsonl(
                    [scored_tree_to_dict(r.tree, r.scores) for r in results]
                ),
                "pairs.jsonl": jsonl([pair_to_dict(p) for p in pairs]),
                "dpo.jsonl": jsonl([dpo_to_dict(e) for e in emit_dpo(pairs)]),
                "retained.jsonl": "".join(corpus_line_reference(t) + "\n" for t in grouped),
                "sft.jsonl": jsonl([sft_to_dict(e) for e in emit_sft(grouped)[0]]),
            }
            # as the CLI does: every file's lines from one _Instance per instance
            run = emit._Run(None)
            got = dict.fromkeys(expected, "")
            for instance_id, instance_ts in groups.items():
                inst = emit._Instance(instance_id, instance_ts, stage)
                lines = {name: emit._LINES[name](run, inst) for name in expected}
                for name in expected:
                    got[name] += lines[name]
                # each dpo.jsonl line is its pairs.jsonl line less parent_node_id,
                # and the trees.jsonl line the scored_trees.jsonl line less each
                # node's successes, total and score
                dpo = [{k: v for k, v in json.loads(line).items() if k != "parent_node_id"}
                       for line in lines["pairs.jsonl"].split("\n")[:-1]]
                scored = json.loads(lines["scored_trees.jsonl"])
                for node in scored["nodes"]:
                    del node["successes"], node["total"], node["score"]
                config = (instance_id, strict_merge, pair_mode, collapse_whitespace)
                assert jsonl(dpo) == lines["dpo.jsonl"], config
                assert jsonl([scored]) == lines["trees.jsonl"], config
            for name, text in expected.items():
                assert got[name] == text, (name, strict_merge, pair_mode, collapse_whitespace)

    @given(
        st.dictionaries(st.text(max_size=6) | awkward_text, json_values, max_size=4),
        st.lists(st.tuples(any_text, any_text), max_size=3),
        st.tuples(any_text, st.none() | any_text),
        any_text,
        st.integers(0, 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_corpus_line_matches_dict_export(self, meta, body, last, text, resolved):
        steps = tuple(Step(a, o) for a, o in body) + (Step(*last),)
        if any(not step.action.strip() for step in steps):  # no corpus line holds a blank action
            with pytest.raises(InputError, match="empty action after canonicalization"):
                Trajectory(text + "#i", text + "#t", text, steps, resolved, meta)
            return
        try:
            json.dumps(meta, allow_nan=False)
        except ValueError:  # NaN or an infinity, which no corpus line holds
            with pytest.raises(InputError, match="^meta has no JSON form: "):
                Trajectory(text + "#i", text + "#t", text, steps, resolved, meta)
            return
        t = Trajectory(text + "#i", text + "#t", text, steps, resolved, meta)
        assert serialize_trajectory(t) == corpus_line_reference(t)

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"")
        out = tmp_path / "out"
        assert main(["all", "--input", str(corpus), "--out-dir", str(out)]) == 0
        for name in ("trees.jsonl", "scored_trees.jsonl", "pairs.jsonl", "dpo.jsonl"):
            assert (out / name).read_bytes() == b"", name

    def test_all_encodes_each_context_once(self, tmp_path, monkeypatch):
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--seed", "5", "--instances", "30", "--out-dir", str(synth_dir)]) == 0
        original = emit._context
        contexts = 0

        def counting(*args):
            nonlocal contexts
            contexts += 1
            return original(*args)

        monkeypatch.setattr(emit, "_context", counting)
        out = tmp_path / "out"
        assert main(["all", "--input", str(synth_dir / "corpus.jsonl"), "--out-dir", str(out)]) == 0
        pairs = [json.loads(line) for line in (out / "pairs.jsonl").read_text().splitlines()]
        parents = {(p["instance_id"], p["parent_node_id"]) for p in pairs}
        assert contexts == len(parents) < len(pairs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_jsonl_never_writes_a_non_finite_number(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonl([{"x": [value]}])


class TestSynthAndSelfcheck:
    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "7", "--out-dir", str(out)]) == 0
        assert read_outputs(a) == read_outputs(b)

    def test_truth_record_is_written_before_the_next_instance_is_generated(
        self, tmp_path, monkeypatch
    ):
        from trajtree import synth

        original_files, original_generate = cli.output_files, synth._generate_instance
        written: list[str] = []  # the pieces that reached ground_truth.json, in order
        generated: list[tuple[int, int]] = []  # per generated instance: (index, pieces by then)

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                written.append(text)
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        @contextmanager
        def recording(out, names):
            with original_files(out, names) as files:
                yield {**files, "ground_truth.json": Recording(files["ground_truth.json"])}

        def generating(config, index):
            generated.append((index, len(written)))
            return original_generate(config, index)

        monkeypatch.setattr(cli, "output_files", recording)
        monkeypatch.setattr(synth, "_generate_instance", generating)
        for flags in (
            ["--instances", "4"], ["--instances", "10001", "--trajectories-per-instance", "0"],
        ):
            written.clear()
            generated.clear()
            out = tmp_path / flags[1]
            assert main(["synth", *flags, "--out-dir", str(out)]) == 0
            names = sorted(f"inst{i:04d}" for i in range(int(flags[1])))
            # the k-th instance generated is the k-th name in sorted order, and
            # the config and the k records before it have been written by then
            assert [f"inst{index:04d}" for index, _ in generated] == names
            assert [count for _, count in generated] == list(range(1, len(names) + 1))
            assert [piece.split('"', 2)[1] for piece in written[1:-1]] == names
            assert "".join(written) == (out / "ground_truth.json").read_text(encoding="utf-8")

    def test_synth_flags_default_to_synth_config(self):
        args = cli.build_parser().parse_args(["synth", "--out-dir", "o"])
        config = cli.load_config(None, {})
        assert cli._synth_config(args, config) == SynthConfig()

    def test_stage_flags_default_to_stage_config(self, monkeypatch):
        # `all` runs with the config defaults; selfcheck and synth's ground
        # truth with StageConfig(), and the library with the stage constants
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        defaults = StageConfig()
        assert cli.stage_config(cli.load_config(None, {})) == defaults
        assert ingest.DEFAULT_LOOP_THRESHOLD == defaults.loop_threshold
        assert ingest.DEFAULT_OUTLIER_MIN_PREFIX == defaults.outlier_min_prefix
        assert scoring.DEFAULT_THRESHOLD == defaults.critical_threshold

    def test_selfcheck_deterministic_across_jobs(self, tmp_path):
        lines = []
        for jobs in ("1", "1", "8"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["selfcheck", "--seed", "7", "--jobs", jobs]) == 0
            lines.append(buf.getvalue())
        assert lines[0] == lines[1] == lines[2]
        assert json.loads(lines[0])["status"] == "ok"

    def test_synth_then_all_runs_clean(self, tmp_path):
        synth_dir = tmp_path / "synth"
        main(["synth", "--seed", "3", "--instances", "6", "--out-dir", str(synth_dir)])
        out = tmp_path / "out"
        code = main(["all", "--input", str(synth_dir / "corpus.jsonl"), "--out-dir", str(out)])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["trajectory_count"] == stats["ingest"]["retained"]


@pytest.fixture
def canonicalize_calls(monkeypatch) -> list[int]:
    """One counter of the `canonicalize_action` calls from every trajtree module."""
    original = model.canonicalize_action
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("trajtree") and getattr(mod, "canonicalize_action", None) is original:
            monkeypatch.setattr(mod, "canonicalize_action", counting)
    return calls


class TestCanonicalizeOnce:
    def test_all_canonicalizes_each_step_at_most_once(self, tmp_path, canonicalize_calls):
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--seed", "5", "--instances", "30", "--out-dir", str(synth_dir)]) == 0
        corpus = synth_dir / "corpus.jsonl"
        steps = sum(len(json.loads(line)["steps"]) for line in corpus.read_text().splitlines())
        for flags in ([], ["--merge-mode", "strict", "--pair-mode", "max-min"]):
            canonicalize_calls[0] = 0
            out = tmp_path / f"out{len(flags)}"
            assert main(["all", "--input", str(corpus), "--out-dir", str(out), *flags]) == 0
            assert json.loads((out / "stats.json").read_text())["critical_pair_count"] > 0
            assert 0 < canonicalize_calls[0] <= steps, flags

    def test_synth_canonicalizes_each_step_once(self, tmp_path, canonicalize_calls):
        deep = ["--instances", "4", "--trajectories-per-instance", "40", "--depth", "30",
                "--branching", "2"]
        for flags in (["--instances", "30"], deep):
            canonicalize_calls[0] = 0
            out = tmp_path / str(len(flags))
            assert main(["synth", "--seed", "5", *flags, "--out-dir", str(out)]) == 0
            lines = (out / "corpus.jsonl").read_text().splitlines()
            steps = [step["action"] for line in lines for step in json.loads(line)["steps"]]
            assert 0 < canonicalize_calls[0] == len(steps), flags


def path_lengths(tree) -> list[tuple[int, int, int]]:
    """(char length, step count, outcome) per root-to-leaf path, walked leaf by leaf."""
    out = []
    for leaf, outcome in enumerate(tree.outcome):
        if outcome is not None:
            ids = path_ids(tree, tree.parent[leaf])
            chars = sum(len(tree.action_raw[i]) + len(tree.observation[i] or "") for i in ids)
            out.append((len(tree.prompt) + chars, len(ids), outcome))
    return out


class TestStatsSums:
    @given(
        st.integers(0, 2**32), st.integers(0, 6), st.integers(0, 10), st.integers(1, 8),
        st.integers(1, 4), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_stats_json_equals_tree_stats(self, seed, instances, tpi, depth, branching, divergent):
        cfg = SynthConfig(
            seed=seed, instances=instances, trajectories_per_instance=tpi, depth=depth,
            branching=branching, divergent_observations=divergent,
        )
        corpus, _ = generate(cfg)
        groups, _ = ingest_trajectories(corpus)
        trees = [build_tree(name, ts[0].prompt, ts) for name, ts in groups.items()]
        # the statistics as made from one (chars, steps, outcome) per path
        paths = [p for tree in trees for p in path_lengths(tree)]
        n = len(paths)
        successful = sum(1 for _, _, outcome in paths if outcome == 1)
        avg_chars = sum(chars for chars, _, _ in paths) / n if n else 0.0
        want = {
            "instance_count": len(trees),
            "trajectory_count": n,
            "successful_count": successful,
            "wrong_count": n - successful,
            "avg_char_len": avg_chars,
            "avg_token_len": round(avg_chars / 4),
            "avg_path_len": sum(steps for _, steps, _ in paths) / n if n else 0.0,
            "critical_pair_count": 0,
            "observation_divergences": sum(tree.observation_divergences for tree in trees),
        }
        assert emit_stats(None, trees, []) == want
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "corpus.jsonl")
            path.write_text("".join(serialize_trajectory(t) + "\n" for t in corpus), "utf-8")
            assert main(["all", "--input", str(path), "--out-dir", tmp]) == 0
            stats = json.loads(Path(tmp, "stats.json").read_text(encoding="utf-8"))
        assert {key: stats[key] for key in want if key != "critical_pair_count"} == {
            key: value for key, value in want.items() if key != "critical_pair_count"
        }


class TestLossCommand:
    def test_sft_and_dpo_records(self, tmp_path, capsys):
        records = [
            {"kind": "sft", "action_logps": [-0.5, -1.5], "observation_logps": [-9.0]},
            {"kind": "dpo", "policy_chosen": -2.0, "policy_rejected": -3.0,
             "ref_chosen": -2.0, "ref_rejected": -3.0, "beta": 0.1},
        ]
        path = tmp_path / "loss_in.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["loss", "--input", str(path)]) == 0
        out_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out_lines[0]["loss"] == 2.0
        assert abs(out_lines[1]["loss"] - 0.6931471805599453) < 1e-12
        assert "grad" in out_lines[1]

    def test_bad_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        good = '{"kind": "sft", "action_logps": [-1.0]}\n'
        dpo = '{"kind": "dpo", "policy_chosen": -1, "policy_rejected": -2, "ref_chosen": -1,'
        for bad in (
            '{"kind": "nope"}\n',
            "[1]\n",
            dpo + ' "ref_rejected": -2, "beta": 0}\n',
            dpo + ' "ref_rejected": -2, "beta": -0.5}\n',
            '{"kind": "sft", "action_logps": [-1.0], "reduction": "max"}\n',
        ):
            path.write_text(good + bad, encoding="utf-8")
            assert main(["loss", "--input", str(path)]) == 2, bad
            assert "line 2" in capsys.readouterr().err, bad

    def test_unparseable_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        good = b'{"kind": "sft", "action_logps": [-1.0]}\n'
        huge = b"1" + b"0" * 400  # an int too large for float()
        overflow = (
            b'{"kind": "dpo", "policy_chosen": ' + huge + b', "policy_rejected": -1,'
            b' "ref_chosen": -1, "ref_rejected": -1, "beta": 0.1}\n'
        )
        for bad in (b"\xff\xfe\n", b"[" * 100000 + b"\n", overflow):
            path.write_bytes(good + bad)
            assert main(["loss", "--input", str(path)]) == 2, bad[:8]
            assert "line 2" in capsys.readouterr().err, bad[:8]

    def test_too_long_integer_exits_2_with_its_length(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        path.write_text('{"kind": "sft", "action_logps": [-' + "1" * 5000 + "]}\n", encoding="utf-8")
        assert main(["loss", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: integer literal of 5000 digits is too long\n"

    def test_non_finite_sft_logp_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        for value in ("NaN", "Infinity", "-Infinity"):
            path.write_text(f'{{"kind": "sft", "action_logps": [{value}]}}\n', encoding="utf-8")
            assert main(["loss", "--input", str(path)]) == 2, value
            captured = capsys.readouterr()
            assert captured.out == "" and "line 1" in captured.err, value

    def test_overflowing_dpo_margin_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        for sign in (1, -1):
            path.write_text(json.dumps({
                "kind": "dpo", "policy_chosen": -sign * 1e308, "policy_rejected": sign * 1e308,
                "ref_chosen": sign * 1e308, "ref_rejected": -sign * 1e308, "beta": 1,
            }) + "\n", encoding="utf-8")
            assert main(["loss", "--input", str(path)]) == 2, sign
            captured = capsys.readouterr()
            assert captured.out == "" and "line 1" in captured.err, sign

    DPO = {"kind": "dpo", "policy_chosen": -1, "policy_rejected": -2,
           "ref_chosen": -1, "ref_rejected": -2, "beta": 0.1}

    @pytest.mark.parametrize("record, message", [
        ({**DPO, "policy_chosen": " 1e1 "}, "policy_chosen must be a JSON number, got ' 1e1 '"),
        ({**DPO, "beta": "0.5"}, "beta must be a JSON number, got '0.5'"),
        ({**DPO, "policy_chosen": True}, "policy_chosen must be a JSON number, got True"),
        ({**DPO, "ref_rejected": None}, "ref_rejected must be a JSON number, got None"),
        ({"kind": "sft", "action_logps": [False, -1]},
         "action_logps[0] must be a JSON number, got False"),
        ({"kind": "sft", "action_logps": [-1, "-2"]},
         "action_logps[1] must be a JSON number, got '-2'"),
        ({"kind": "sft", "action_logps": {}}, "action_logps must be a JSON array, got {}"),
        ({"kind": "sft", "action_logps": "-1"}, "action_logps must be a JSON array, got '-1'"),
        ({"kind": "sft", "action_logps": [-1], "observation_logps": "abc"},
         "observation_logps must be a JSON array, got 'abc'"),
        ({"kind": "sft", "action_logps": [-1], "observation_logps": {"a": 1}},
         "observation_logps must be a JSON array, got {'a': 1}"),
        ({"kind": "sft", "action_logps": [-1], "observation_logps": [-1, [2]]},
         "observation_logps[1] must be a JSON number, got [2]"),
        ({"kind": "sft"}, "missing field 'action_logps'"),
        ({k: v for k, v in DPO.items() if k != "ref_rejected"}, "missing field 'ref_rejected'"),
    ])
    def test_non_number_exits_2_naming_its_line(self, tmp_path, capsys, record, message):
        path = tmp_path / "loss_in.jsonl"
        good = '{"kind": "sft", "action_logps": [-1.0]}\n'
        path.write_text(good + json.dumps(record) + "\n", encoding="utf-8")
        assert main(["loss", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: {message}\n"

    def test_integers_and_empty_observations_are_numbers(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        path.write_text(
            json.dumps({**self.DPO, "beta": 1}) + "\n"
            + '{"kind": "sft", "action_logps": [-1, -2.5], "observation_logps": []}\n',
            encoding="utf-8",
        )
        assert main(["loss", "--input", str(path)]) == 0
        dpo, sft = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert dpo["loss"] == pytest.approx(math.log(2))
        assert sft == {"kind": "sft", "loss": 3.5}

    def test_output_file(self, tmp_path):
        path = tmp_path / "loss_in.jsonl"
        path.write_text('{"kind": "sft", "action_logps": [-1.0]}\n', encoding="utf-8")
        out = tmp_path / "loss_out.jsonl"
        assert main(["loss", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["loss"] == 1.0

    def test_output_peak_memory_does_not_grow_with_the_records(self, tmp_path):
        # --output writes each result as it is made; nothing holds them all
        dpo = json.dumps(self.DPO) + "\n"

        def peak(records: int) -> int:
            path = tmp_path / f"in{records}.jsonl"
            path.write_text(dpo * records, encoding="utf-8")
            argv = ["loss", "--input", str(path), "--output", str(tmp_path / f"out{records}")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # the first run imports trajtree.losses
        small, large = peak(2_000), peak(20_000)
        assert large <= 2 * small, (small, large)
        assert len((tmp_path / "out20000").read_text(encoding="utf-8").splitlines()) == 20_000

    def test_bad_last_line_with_output_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "loss_in.jsonl"
        path.write_text('{"kind": "sft", "action_logps": [-1.0]}\n' * 3 + "not json\n",
                        encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["loss", "--input", str(path), "--output", str(out / "loss.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: Expecting value: line 1 column 1 (char 0)\n"
        assert list(out.iterdir()) == []

    def test_failed_read_names_its_line_and_failed_write_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "loss_in.jsonl"
        path.write_text('{"kind": "sft", "action_logps": [-1.0]}\n' * 4, encoding="utf-8")
        out = tmp_path / "o"
        original = cli._corpus_lines

        def fails_on_line_3(fh, *args, **kwargs):
            def lines():
                yield from itertools.islice(fh, 2)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return original(lines(), *args, **kwargs)

        monkeypatch.setattr(cli, "_corpus_lines", fails_on_line_3)
        reason = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        for output in ([], ["--output", str(out / "loss.jsonl")]):
            assert main(["loss", "--input", str(path), *output]) == 2
            captured = capsys.readouterr()
            assert captured.out == "", output
            assert captured.err == f"error: line 3: cannot read {path}: {reason}\n", output
        assert not out.exists()
        monkeypatch.undo()

        class Full:  # a disk that fills on the first write
            def writelines(self, lines):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        @contextmanager
        def full(out_dir, names):
            yield {name: Full() for name in names}

        monkeypatch.setattr(cli, "output_files", full)
        assert main(["loss", "--input", str(path), "--output", str(out / "loss.jsonl")]) == 1
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("number, message", [
    ("NaN", "non-finite number NaN"),
    ("-Infinity", "non-finite number -Infinity"),
    ("1e400", "non-finite number 1e400"),
    ("9" * 5000, "integer literal of 5000 digits is too long"),
], ids=["nan", "minus_infinity", "1e400", "5000_digits"])
def test_every_json_input_reads_numbers_one_way(number, message, corpus_path, tmp_path, capsys):
    # a corpus line, a loss record and a config file fail on the number itself,
    # with the same words
    line = corpus_path.read_text(encoding="utf-8").replace(
        '"meta":{}', '"meta":{"x":' + number + "}", 1
    )
    corpus, records = tmp_path / "corpus.jsonl", tmp_path / "loss.jsonl"
    cfg = tmp_path / "cfg.json"
    corpus.write_text(line, encoding="utf-8")
    records.write_text('{"kind": "sft", "action_logps": [' + number + "]}\n", encoding="utf-8")
    cfg.write_text('{"seed": ' + number + "}", encoding="utf-8")
    for argv, code, err in (
        (["all", "--input", str(corpus), "--out-dir", str(tmp_path / "o")], 2, "line 1: "),
        (["loss", "--input", str(records)], 2, "line 1: "),
        (["--config", str(cfg), "all", "--input", str(corpus_path), "--out-dir",
          str(tmp_path / "o")], 1, f"cannot read config {cfg}: "),
    ):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {err}{message}\n", argv
    assert not (tmp_path / "o").exists()


BOM = b"\xef\xbb\xbf"  # a UTF-8 byte-order mark, as some editors start a file
BOM_MESSAGE = "text starts with a UTF-8 byte-order mark (BOM); save the file without one"


class TestByteOrderMark:
    """A file that starts with a byte-order mark fails with a message that
    names it, and no Python codec, under the input's own exit status."""

    def test_config(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(BOM + b'{"seed": 1}')
        out = tmp_path / "o"
        argv = ["--config", str(cfg), "all", "--input", str(corpus_path), "--out-dir", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot read config {cfg}: {BOM_MESSAGE}\n"
        assert not out.exists()

    def test_corpus(self, corpus_path, tmp_path, capsys):
        corpus = tmp_path / "bom.jsonl"
        corpus.write_bytes(BOM + corpus_path.read_bytes())
        out = tmp_path / "o"
        assert main(["all", "--input", str(corpus), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 1: {BOM_MESSAGE}\n"
        assert not out.exists()
        # lenient: the marked first line is one malformed line, skipped
        assert main(["all", "--lenient", "--input", str(corpus), "--out-dir", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["malformed_skipped"] == 1
        assert report["input_count"] == len(corpus_path.read_text(encoding="utf-8").splitlines()) - 1

    def test_loss(self, tmp_path, capsys):
        records = tmp_path / "loss.jsonl"
        records.write_bytes(BOM + b'{"kind": "sft", "action_logps": [-1.0]}\n')
        assert main(["loss", "--input", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: {BOM_MESSAGE}\n"


@pytest.mark.parametrize(
    "fault", [b"\xff\xfe", b"[" * 100000, BOM + b"{}", b"\x1c", "\u3000".encode()],
    ids=["not_utf8", "too_deep", "bom", "x1c", "u3000"],
)
def test_corpus_and_loss_lines_fail_alike(fault, tmp_path, capsys):
    # both files are read by one line loop: a blank first line (only space, tab,
    # CR and LF) is skipped but counted, and the same faulty second line fails
    # with the same words
    path = tmp_path / "in.jsonl"
    path.write_bytes(b" \t\r\n" + fault + b"\n")
    errs = []
    for argv in (["all", "--input", str(path), "--out-dir", str(tmp_path / "o")],
                 ["loss", "--input", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: line 2: ")
    if fault.startswith(BOM):
        assert errs[0] == f"error: line 2: {BOM_MESSAGE}\n"
    if fault in (b"\x1c", "\u3000".encode()):  # whitespace to str.strip, not to JSON
        assert errs[0] == "error: line 2: Expecting value: line 1 column 1 (char 0)\n"
    # lenient: the faulty line is counted as skipped, the blank one is not
    out = tmp_path / "lenient"
    assert main(["all", "--lenient", "--input", str(path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    assert report["malformed_skipped"] == 1 and report["input_count"] == 0


def json_bytes(documents):
    """JSON lines of `documents`, NaN and Infinity included as Python writes them."""
    return st.lists(documents, min_size=1, max_size=3).map(
        lambda docs: "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")
    )


def hostile_bytes(documents, big_number_templates):
    """Any bytes; JSON lines of `documents`; nesting past the decoder's depth
    limit; a template with its N a 5,000-digit integer; and JSON lines made
    non-UTF-8."""
    return st.one_of(
        st.binary(max_size=80),
        json_bytes(documents),
        st.builds(
            lambda opener, depth: opener * depth,
            st.sampled_from([b"[", b'{"a":', b'{"a":[']), st.integers(1, 100_000),
        ),
        st.builds(
            lambda template, sign: template.replace(b"N", sign + b"7" * 5_000),
            st.sampled_from(big_number_templates), st.sampled_from([b"", b"-"]),
        ),
        st.builds(
            lambda doc, junk: doc[:-2] + b"\xff" + junk + doc[-2:],
            json_bytes(documents), st.binary(max_size=3),
        ),
    )


config_documents = st.dictionaries(
    st.sampled_from(sorted(cli._CONFIG_DEFAULTS)) | st.text(max_size=4),
    json_values | st.sampled_from(["1/2", "0.3", "1e-5000", "strict", "max-min", "mean"]),
    max_size=4,
)
corpus_documents = json_values | st.fixed_dictionaries(
    {
        "instance_id": st.sampled_from(["a", "b"]) | json_values,
        "trajectory_id": st.text(max_size=3) | json_values,
        "prompt": st.just("p") | json_values,
        "steps": json_values | st.lists(st.fixed_dictionaries(
            {"action": st.text(max_size=4) | json_values},
            optional={"observation": st.text(max_size=4) | json_values},
        ), max_size=3),
        "resolved": st.sampled_from([0, 1]) | json_values,
    },
    optional={"meta": json_values},
)
_logps = st.lists(st.floats() | st.integers(), max_size=3) | json_values
_number_or_any = st.floats() | st.integers() | json_values
loss_documents = json_values | st.fixed_dictionaries(
    {"kind": st.sampled_from(["sft", "dpo", "other"])},
    optional=dict(
        action_logps=_logps, observation_logps=_logps, policy_chosen=_number_or_any,
        policy_rejected=_number_or_any, ref_chosen=_number_or_any, ref_rejected=_number_or_any,
        beta=_number_or_any, reduction=st.sampled_from(["sum", "mean", "max"]) | json_values,
    ),
)

# two trajectories under one instance, for tests that cannot take the corpus_path fixture
CORPUS_TEXT = "".join(
    serialize_trajectory(make_traj(tid, [("search", "o"), ("edit", "o"), (last, None)], resolved)) + "\n"
    for tid, last, resolved in (("t1", "test", 1), ("t2", "submit", 0))
)


def check_fuzzed_run(argv: list[str], tmp: Path, outputs: list[Path]) -> None:
    """`main(argv)` exits 0 having added exactly the `outputs` files to `tmp`,
    or exits 1 or 2 with an `error:` line having added no file."""
    inputs = sorted(tmp.rglob("*"))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().startswith("error: ")
    files = sorted(p for p in tmp.rglob("*") if p.is_file())
    assert files == sorted(inputs + (outputs if code == 0 else []))


class TestFuzzedInputs:
    """Any bytes as the corpus, the --config file or the loss input end with
    exit 0, 1 or 2, an `error:` line on failure, no traceback and no output
    files."""

    @given(
        hostile_bytes(corpus_documents, [
            b'{"instance_id": "a", "trajectory_id": "t", "prompt": "p",'
            b' "steps": [{"action": "x"}], "resolved": N}',
        ]),
        st.sampled_from(["all", "ingest", "tree", "stats"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_corpus(self, data, command, lenient):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp, "corpus.jsonl"), Path(tmp, "out")
            corpus.write_bytes(data)
            argv = [command, "--input", str(corpus), "--out-dir", str(out)]
            outputs = [out / name for name in COMMAND_OUTPUTS[command]]
            check_fuzzed_run(argv + ["--lenient"] * lenient, Path(tmp), outputs)

    @given(hostile_bytes(config_documents, [b'{"seed": N}', b'{"jobs": N}', b'{"critical_threshold": N}']))
    @settings(max_examples=80, deadline=None)
    def test_any_config_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, cfg, out = Path(tmp, "corpus.jsonl"), Path(tmp, "cfg.json"), Path(tmp, "out")
            corpus.write_text(CORPUS_TEXT, encoding="utf-8")
            cfg.write_bytes(data)
            argv = ["--config", str(cfg), "all", "--input", str(corpus), "--out-dir", str(out)]
            check_fuzzed_run(argv, Path(tmp), [out / name for name in COMMAND_OUTPUTS["all"]])

    @given(hostile_bytes(loss_documents, [
        b'{"kind": "sft", "action_logps": [N]}',
        b'{"kind": "dpo", "policy_chosen": N, "policy_rejected": -2, "ref_chosen": -1,'
        b' "ref_rejected": -2, "beta": 0.1}',
    ]))
    @settings(max_examples=80, deadline=None)
    def test_any_loss_input(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            records, output = Path(tmp, "loss_in.jsonl"), Path(tmp, "loss_out.jsonl")
            records.write_bytes(data)
            argv = ["loss", "--input", str(records), "--output", str(output)]
            check_fuzzed_run(argv, Path(tmp), [output])


class TestNoPartialOutput:
    def test_failed_run_leaves_no_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["all", "--input", str(bad), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_failure_mid_stream_commits_no_file(self, tmp_path):
        # instance a is valid; instance b, after it, repeats trajectory id t
        lines = [
            make_traj(tid, [("search", "ok"), (last, None)], resolved, instance_id=instance_id)
            for instance_id, tid, last, resolved in (
                ("a", "t1", "edit", 1), ("a", "t2", "submit", 0),
                ("b", "t", "edit", 1), ("b", "t", "submit", 0),
            )
        ]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(serialize_trajectory(t) + "\n" for t in lines), encoding="utf-8")
        good = tmp_path / "good.jsonl"
        good.write_text("".join(serialize_trajectory(t) + "\n" for t in lines[:2]), encoding="utf-8")
        fresh, kept = tmp_path / "fresh", tmp_path / "kept"
        assert main(["all", "--input", str(good), "--out-dir", str(kept)]) == 0
        before = read_outputs(kept)
        assert sorted(before) == sorted(COMMAND_OUTPUTS["all"])
        for out in (fresh, kept):
            assert main(["all", "--input", str(bad), "--out-dir", str(out)]) == 2
        assert not fresh.exists()
        assert read_outputs(kept) == before

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        loss_in = tmp_path / "loss_in.jsonl"
        loss_in.write_text('{"kind": "sft", "action_logps": [-1.0]}\nnot json\n', encoding="utf-8")
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("ours\n", encoding="utf-8")
        for argv in (
            ["all", "--input", str(bad), "--out-dir", str(kept)],
            ["all", "--input", str(bad), "--out-dir", str(kept / "new" / "deeper")],
            ["loss", "--input", str(loss_in), "--output", str(kept / "made" / "l.jsonl")],
        ):
            assert main(argv) == 2, argv
            assert [p.name for p in kept.iterdir()] == ["notes.txt"], argv
            assert (kept / "notes.txt").read_text(encoding="utf-8") == "ours\n"
        # a directory it made that is no longer empty stays
        with pytest.raises(RuntimeError):
            with cli.output_files(kept / "new" / "deeper", ("x.jsonl",)):
                (kept / "new" / "other.txt").write_text("theirs\n", encoding="utf-8")
                raise RuntimeError
        assert [p.name for p in (kept / "new").iterdir()] == ["other.txt"]

    @pytest.mark.parametrize(
        "command, target", [("all", "stats.json"), ("synth", "ground_truth.json")]
    )
    def test_directory_target_commits_no_file(self, command, target, corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        source = ["--instances", "2"] if command == "synth" else ["--input", str(corpus_path)]
        assert main([command, *source, "--out-dir", str(out)]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [target]
        assert list((out / target).iterdir()) == []

    def test_temp_name_collision_keeps_the_existing_file(
        self, corpus_path, tmp_path, monkeypatch, capsys
    ):
        # every temp name gets the same suffix; trees.jsonl's is taken, after
        # retained.jsonl's temp file was made
        monkeypatch.setattr(os, "urandom", lambda n: b"\x00" * n)
        out = tmp_path / "out"
        taken = out / f".trees.jsonl.{bytes(8).hex()}"
        out.mkdir()
        taken.write_text("not ours\n", encoding="utf-8")
        assert main(["all", "--input", str(corpus_path), "--out-dir", str(out)]) == 1
        assert "File exists" in capsys.readouterr().err
        assert list(out.iterdir()) == [taken]
        assert taken.read_text(encoding="utf-8") == "not ours\n"


class TestStreaming:
    def test_one_tree_alive_at_a_time(self, tmp_path, monkeypatch):
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--seed", "5", "--instances", "8", "--out-dir", str(synth_dir)]) == 0
        original = pipeline.build_tree
        trees: list[weakref.ref] = []
        alive: list[int] = []

        def tracking(*args, **kwargs):
            tree = original(*args, **kwargs)
            trees.append(weakref.ref(tree))
            gc.collect()
            alive.append(sum(ref() is not None for ref in trees))
            return tree

        monkeypatch.setattr(pipeline, "build_tree", tracking)
        out = tmp_path / "out"
        assert main(["all", "--input", str(synth_dir / "corpus.jsonl"), "--out-dir", str(out)]) == 0
        assert len(alive) == len((out / "trees.jsonl").read_text().splitlines()) > 1
        assert max(alive) == 1


    def test_only_the_current_instance_is_alive(self, tmp_path, monkeypatch):
        self.check_only_the_current_instance_is_alive(tmp_path, monkeypatch, piped=False)

    def test_only_the_current_instance_is_alive_through_a_fifo(self, tmp_path, monkeypatch):
        # a pipe is read once into memory as bytes, then streamed as a file is
        self.check_only_the_current_instance_is_alive(tmp_path, monkeypatch, piped=True)

    @staticmethod
    def check_only_the_current_instance_is_alive(tmp_path, monkeypatch, piped):
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--seed", "5", "--instances", "8", "--out-dir", str(synth_dir)]) == 0
        corpus = synth_dir / "corpus.jsonl"
        parsed: list[weakref.ref] = []
        original_parse, original_build = model._parse_record, pipeline.build_tree

        def parsing(*args, **kwargs):
            t = original_parse(*args, **kwargs)
            parsed.append(weakref.ref(t))
            return t

        next_first: dict[str, str] = {}  # instance -> the next instance's first trajectory id
        lines = [json.loads(line) for line in corpus.read_text().splitlines()]
        for prev, cur in zip(lines, lines[1:]):
            if prev["instance_id"] != cur["instance_id"]:
                next_first[prev["instance_id"]] = cur["trajectory_id"]
        others: list[set[str]] = []

        def building(instance_id, *args, **kwargs):
            gc.collect()
            alive = [t for t in (ref() for ref in parsed) if t is not None]
            assert any(t.instance_id == instance_id for t in alive)
            others.append({t.trajectory_id for t in alive if t.instance_id != instance_id})
            # the line that ended the previous run may be alive, nothing else
            assert others[-1] <= {next_first.get(instance_id)}, (instance_id, others[-1])
            return original_build(instance_id, *args, **kwargs)

        monkeypatch.setattr(model, "_parse_record", parsing)
        monkeypatch.setattr(pipeline, "build_tree", building)
        out = tmp_path / "out"
        with _piped(corpus) if piped else nullcontext(corpus) as source:
            assert main(["all", "--input", str(source), "--out-dir", str(out)]) == 0
        assert len(others) == len((out / "trees.jsonl").read_text().splitlines()) == 8


@contextmanager
def _piped(corpus: Path) -> Iterator[Path]:
    """A FIFO beside `corpus` that a thread writes `corpus`'s bytes to, once;
    the block must read them all."""
    fifo = corpus.with_suffix(".fifo")
    if not fifo.exists():
        os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),), daemon=True)
    writer.start()
    yield fifo
    writer.join(timeout=10)
    assert not writer.is_alive()


def _file_then_fifo(corpus: Path) -> Iterator[Path]:
    """`corpus`, then a FIFO that gives its bytes (see `_piped`)."""
    yield corpus
    with _piped(corpus) as fifo:
        yield fifo


def _write_corpus(path: Path, records: list) -> Path:
    """One line per record: a Trajectory is serialized, a string written as is."""
    path.write_text("".join(
        (r if isinstance(r, str) else serialize_trajectory(r)) + "\n" for r in records
    ), encoding="utf-8")
    return path


def _traj(instance_id, trajectory_id, actions, resolved=0):
    steps = [(a, "ok") for a in actions[:-1]] + [(actions[-1], None)]
    return make_traj(trajectory_id, steps, resolved, instance_id=instance_id)


def _interleaved(tmp_path: Path) -> Path:
    """A/a1 (a loop), B/b1, A/a2, B/b2, A/a3: ingest drops a1, so B comes first."""
    return _write_corpus(tmp_path / "interleaved.jsonl", [
        _traj("A", "a1", ["x", "x", "x"]),
        _traj("B", "b1", ["look", "fix"], 1),
        _traj("A", "a2", ["look", "fix"], 1),
        _traj("B", "b2", ["look", "quit"]),
        _traj("A", "a3", ["look", "quit"]),
    ])


# a small corpus that every ingest rule drops lines from, two instances wholly,
# and the malformed lines a lenient run skips
_DIRTY = [serialize_trajectory(t) for t in generate(SynthConfig(
    seed=0, instances=5, trajectories_per_instance=6, depth=5, planted_critical=0,
    loop_rate=0.25, duplicate_rate=0.25, outlier_rate=0.25,
))[0]]
_MALFORMED = ["not json", "[1]", '{"instance_id": "A"}']


def _regrouped(lines: list[str]) -> list[str]:
    """`lines` stably regrouped by instance, in the order ingest lists the
    instances; wholly dropped instances, then malformed lines, go last."""
    parsed = [parse_trajectory_stream([line], strict=False)[0] for line in lines]
    ts = [t for one in parsed for t in one]
    order = dict.fromkeys([*ingest_trajectories(ts)[0], *(t.instance_id for t in ts)])
    rank = {name: i for i, name in enumerate(order)}
    ranks = [rank[one[0].instance_id] if one else len(rank) for one in parsed]
    return [line for _, line in sorted(zip(ranks, lines), key=lambda pair: pair[0])]


class TestStreamedFallback:
    def test_interleaved_corpus_keeps_instance_order(self, tmp_path):
        corpus = _interleaved(tmp_path)
        with open(corpus, "rb") as fh:
            groups, _ = ingest_trajectories(parse_trajectory_stream(fh)[0])
        assert list(groups) == ["B", "A"]
        out = tmp_path / "out"
        assert main(["all", "--input", str(corpus), "--out-dir", str(out)]) == 0
        for name in ("retained.jsonl", "trees.jsonl"):
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            order = list(dict.fromkeys(json.loads(line)["instance_id"] for line in lines))
            assert order == list(groups), name
        retained = (out / "retained.jsonl").read_text(encoding="utf-8")
        assert retained == "".join(
            serialize_trajectory(t) + "\n" for ts in groups.values() for t in ts
        )

    def test_unseekable_input_reads_once(self, tmp_path):
        corpus = _interleaved(tmp_path)
        with _piped(corpus) as fifo:
            assert main(["all", "--input", str(fifo), "--out-dir", str(tmp_path / "fifo")]) == 0
        assert main(["all", "--input", str(corpus), "--out-dir", str(tmp_path / "file")]) == 0
        assert read_outputs(tmp_path / "fifo") == read_outputs(tmp_path / "file")

    def test_malformed_last_line_outranks_an_earlier_failing_instance(self, tmp_path, capsys):
        # instance A repeats trajectory id t; the last line is not JSON
        corpus = _write_corpus(tmp_path / "corpus.jsonl", [
            make_traj("t", [("search", "ok"), ("edit", None)], 1, instance_id="A"),
            make_traj("t", [("search", "ok"), ("submit", None)], 0, instance_id="A"),
            make_traj("u", [("search", None)], 1, instance_id="B"),
            "not json",
        ])
        for command in ("all", "tree"):
            out, errs = tmp_path / command, []
            for source in _file_then_fifo(corpus):
                argv = [command, "--input", str(source), "--out-dir", str(out)]
                assert main(argv) == 2, argv
                errs.append(capsys.readouterr().err)
                assert not out.exists(), argv
            assert "line 4" in errs[0] and errs[1] == errs[0], command

    def test_prompt_conflict_outranks_an_earlier_duplicate_id(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "corpus.jsonl", [
            make_traj("t", [("search", "ok"), ("edit", None)], 1, instance_id="A"),
            make_traj("t", [("search", "ok"), ("submit", None)], 0, instance_id="A"),
            make_traj("u1", [("search", None)], 1, instance_id="B", prompt="one"),
            make_traj("u2", [("edit", None)], 0, instance_id="B", prompt="two"),
        ])
        for command in ("all", "tree"):
            out, errs = tmp_path / command, []
            for source in _file_then_fifo(corpus):
                argv = [command, "--input", str(source), "--out-dir", str(out)]
                assert main(argv) == 2, argv
                errs.append(capsys.readouterr().err)
                assert not out.exists(), argv
            assert "conflicting prompts" in errs[0] and "'B'" in errs[0], command
            assert errs[1] == errs[0], command

    def test_malformed_last_line_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        corpus = _write_corpus(tmp_path / "corpus.jsonl", [
            _traj("A", "a1", ["look", "fix"], 1),
            _traj("A", "a2", ["look", "quit"]),
            _traj("B", "b1", ["look"], 1),
            "not json",
        ])
        original, calls = model._parse_record, 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "_parse_record", counting)
        for command in ("all", "tree"):
            for source in _file_then_fifo(corpus):
                calls, out = 0, tmp_path / command
                argv = [command, "--input", str(source), "--out-dir", str(out)]
                assert main(argv) == 2, argv
                assert calls == 3, argv
                assert capsys.readouterr().err == (
                    "error: line 4: Expecting value: line 1 column 1 (char 0)\n"
                ), argv
                assert not out.exists(), argv
        for source in _file_then_fifo(corpus):
            calls, out = 0, tmp_path / "lenient" / source.suffix[1:]
            assert main(["all", "--input", str(source), "--out-dir", str(out), "--lenient"]) == 0
            assert calls == 3, source
            report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
            assert report["malformed_skipped"] == 1 and report["retained"] == 3, source

    def test_lenient_report_matches_ingest_pipeline(self, tmp_path):
        records = [
            "not json",
            _traj("A", "a1", ["look", "fix"], 1),
            _traj("A", "a2", ["look", "fix"], 1),  # a duplicate
            "[1]",
            _traj("A", "a3", ["look", "y", "y", "y"]),  # a loop
            _traj("A", "a4", ["away"]),  # an outlier
            _traj("A", "a5", ["look", "quit"]),
            '{"instance_id": "A"}',
            _traj("B", "b1", ["z", "z", "z"]),  # a loop: B retains nothing
            "\x00",
            _traj("C", "c1", ["look"], 1),
            _traj("C", "c2", ["look", "more"]),
            "{",
        ]
        # one more A line at the end sends the streamed pass to the whole-corpus run
        for name, extra in (("runs", []), ("back", [_traj("A", "a6", ["look", "more"])])):
            corpus = _write_corpus(tmp_path / f"{name}.jsonl", records + extra)
            with open(corpus, "rb") as fh:
                ts, skipped = parse_trajectory_stream(fh, strict=False)
            _, expected = ingest_trajectories(ts)
            expected.malformed_skipped = skipped
            assert expected.malformed_skipped == 5 and expected.loops_removed == 2
            fifo = tmp_path / f"{name}.fifo"
            os.mkfifo(fifo)
            for command, source in itertools.product(("ingest", "all"), (corpus, fifo)):
                out = tmp_path / name / command / source.suffix
                writer = threading.Thread(
                    target=fifo.write_bytes, args=(corpus.read_bytes(),), daemon=True
                )
                if source == fifo:  # a FIFO is read once, into memory, then streamed
                    writer.start()
                argv = [command, "--input", str(source), "--out-dir", str(out), "--lenient"]
                assert main(argv) == 0
                if source == fifo:
                    writer.join(timeout=10)
                    assert not writer.is_alive()
                report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
                assert report.pop("effective_config")["lenient"] is True
                assert report == expected.to_dict(), out
                assert list(report["per_instance_retained"]) == ["A", "C"], out

    @given(st.permutations(_DIRTY + _MALFORMED), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_rerun_writes_what_the_streamed_pass_writes(self, lines, lenient):
        # a shuffled corpus goes to the whole-corpus rerun; its lines regrouped
        # by instance stream in one pass, and must give the same result
        if not lenient:
            lines = [line for line in lines if line not in _MALFORMED]
        original, passes, results = cli._runs, [], []

        def recording(*args):
            passes.append(args[-1])
            return original(*args)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_runs", recording)
            corpus = Path(tmp, "corpus.jsonl")
            for name, ordered in (("shuffled", lines), ("regrouped", _regrouped(lines))):
                _write_corpus(corpus, ordered)
                argv = ["all", "--input", str(corpus), "--out-dir", str(Path(tmp, name))]
                err, passes[:] = io.StringIO(), []
                with redirect_stderr(err):
                    code = main(argv + ["--lenient"] * lenient)
                results.append((code, err.getvalue(), read_outputs(Path(tmp, name))))
            assert passes == [True]  # the regrouped corpus needed no rerun
        assert results[0] == results[1]


class TestOutputMode:
    def test_files_follow_the_umask(self, tmp_path):
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["synth", "--instances", "2", "--out-dir", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == {"corpus.jsonl": 0o644, "ground_truth.json": 0o644}

    def test_no_command_reads_or_sets_the_umask(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, changes it for every thread of the process
        def umask(mask):
            raise AssertionError("os.umask called")

        synth_dir, out = tmp_path / "synth", tmp_path / "out"
        old = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", umask)
            assert main(["synth", "--instances", "2", "--out-dir", str(synth_dir)]) == 0
            corpus = synth_dir / "corpus.jsonl"
            assert main(["all", "--input", str(corpus), "--out-dir", str(out)]) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        written = [*synth_dir.iterdir(), *out.iterdir()]
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in written}
        names = ["corpus.jsonl", "ground_truth.json", *COMMAND_OUTPUTS["all"]]
        assert modes == dict.fromkeys(names, 0o644)

    def test_restrictive_umask_respected(self, tmp_path):
        path = tmp_path / "f.txt"
        old = os.umask(0o077)
        try:
            atomic_write(path, "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
