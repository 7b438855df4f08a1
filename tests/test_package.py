"""The package's import paths and the modules each command loads."""

import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import trajtree
from trajtree.cli import COMMAND_OUTPUTS, main
from trajtree.model import serialize_trajectory

import test_synth

SRC = Path(trajtree.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

# the library's public names, each imported from the module that defines it
# (the package root re-exports none of them)
PUBLIC = {name: module for module, names in {
    "emit": ("DpoExample", "MaskedSegment", "SftExample", "emit_dpo", "emit_sft", "emit_stats"),
    "errors": ("ConfigError", "InputError", "InvariantError", "TrajtreeError"),
    "ingest": (
        "IngestReport", "deduplicate", "filter_loops", "filter_outliers", "group_by_instance",
        "ingest_trajectories",
    ),
    "losses": (
        "DpoGrad", "DpoInputs", "TrajectoryLogProbs", "dpo_loss", "dpo_loss_grad", "sft_loss",
    ),
    "model": (
        "CanonConfig", "Step", "Trajectory", "canonicalize_action", "parse_trajectory_stream",
        "serialize_trajectory",
    ),
    "scoring": (
        "CriticalPair", "NodeScore", "Segment", "extract_critical_pairs",
        "identify_critical_actions", "score_nodes",
    ),
    "synth": ("SynthConfig", "brute_force_pairs", "brute_force_scores", "generate", "selfcheck"),
    "tree": ("TrajTree", "TreeNode", "build_tree", "enumerate_paths"),
}.items() for name in names}


def run_fresh(script: str, *args: str, cwd: Path | None = None) -> str:
    """stdout of `script` run in a new interpreter that imports trajtree from SRC."""
    env = {k: v for k, v in os.environ.items() if k != "TRAJTREE_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return done.stdout


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        loaded = json.loads(run_fresh(
            "import json, sys, trajtree; print(json.dumps(sorted(sys.modules)))"
        ))
        assert "trajtree" in loaded
        assert [name for name in loaded if name.startswith("trajtree.")] == []

    def test_oracles_load_no_hashlib(self):
        # only generating a corpus hashes anything
        loaded = json.loads(run_fresh(
            "import json, sys\n"
            "from trajtree.synth import brute_force_pairs, brute_force_scores\n"
            "print(json.dumps(sorted(sys.modules)))"
        ))
        assert "trajtree.synth" in loaded
        assert "hashlib" not in loaded and "_hashlib" not in loaded

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_its_defining_modules_object(self, name):
        module = importlib.import_module(f"trajtree.{PUBLIC[name]}")
        assert getattr(module, name).__module__ == module.__name__

    @pytest.mark.parametrize("script", ["tracing.py", "run.py"])
    def test_every_name_the_benchmark_reads_exists(self, script):
        # each `from trajtree[.module] import name`, and each attribute read on
        # a trajtree module bound by such an import
        tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
        modules: dict[str, object] = {}  # local name -> the trajtree module it binds
        read: list[tuple[object, str]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trajtree"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    # a submodule (`from trajtree import cli`) is bound on its
                    # package only once something has imported it
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        value = getattr(source, alias.name, None)
                    if isinstance(value, type(trajtree)):
                        modules[alias.asname or alias.name] = value
                    read.append((source, alias.name))
        assert modules or read, script
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    read.append((modules[node.value.id], node.attr))
        missing = [
            f"{module.__name__}.{name}" for module, name in read if not hasattr(module, name)
        ]
        assert missing == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            trajtree.frobnicate
        with pytest.raises(ImportError):
            exec("from trajtree import frobnicate", {})
        assert not hasattr(trajtree, "frobnicate")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's one example of the import paths, on a small synth corpus
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert example, "no python block under '## Library use'"
    assert main(["synth", "--seed", "1", "--instances", "3", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)  # the example opens corpus.jsonl
    namespace: dict = {}
    exec(compile(example[1], "README.md", "exec"), namespace)
    assert isinstance(namespace["triples"], list)


def test_every_imported_name_is_used():
    # an import bound in a module, trajtree's or a test's, and read nowhere in it
    unused = []
    for path in sorted([*(SRC / "trajtree").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []


def test_emit_is_the_one_render_layer():
    # cli.py handles arguments, config and files: it defines no renderer and
    # reads none of the pieces a dataset file is spliced from; emit's per-instance
    # lines and whole-corpus documents name every output file once
    from trajtree import emit

    def module_names(path: Path) -> set[str]:
        names = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        return names

    renderers = {
        "_Instance", "_context", "_Run", "_scored_tree_line", "_sft_lines", "_LINES", "_DOCS",
        "_write_instance",
    }
    cli_path = SRC / "trajtree" / "cli.py"
    assert renderers <= module_names(SRC / "trajtree" / "emit.py")
    assert module_names(cli_path).isdisjoint(module_names(SRC / "trajtree" / "emit.py"))
    read = set()
    for node in ast.walk(ast.parse(cli_path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    pieces = {"_string", "path_ids", "path_totals", "format_ratio", "mine_instance"}
    assert read.isdisjoint(pieces), sorted(read & pieces)
    assert set(emit._LINES).isdisjoint(emit._DOCS)
    assert sorted([*emit._LINES, *emit._DOCS]) == sorted(COMMAND_OUTPUTS["all"])


def test_every_module_level_name_is_read():
    # a def, class or constant of a trajtree module that no module of src/,
    # tests/ or bench/ reads: as a name, an attribute or an imported alias
    read: set[str] = set()
    for path in [*(SRC / "trajtree").glob("*.py"), *Path(__file__).parent.glob("*.py"),
                 *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    dead = []
    for path in sorted((SRC / "trajtree").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{path.name}:{node.lineno} {name}" for name in defined
                if name not in read and not (name.startswith("__") and name.endswith("__"))
            ]
    assert dead == []


def imports(path: Path) -> Iterator[tuple[str, str]]:
    """(module, name bound) for each import anywhere in `path`, module-level
    or inside a function; relative imports resolve within trajtree."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(["trajtree"] * bool(node.level) + [node.module or ""]).strip(".")
            for alias in node.names:
                # `from trajtree import synth` imports the module trajtree.synth
                is_module = module == "trajtree" and (SRC / module / f"{alias.name}.py").is_file()
                yield f"{module}.{alias.name}" if is_module else module, alias.asname or alias.name


def test_pipeline_imports_nothing_from_synth():
    # the synthetic-corpus subsystem builds on the stage code, never the reverse
    found = [
        f"{module} as {name}" for module, name in imports(SRC / "trajtree" / "pipeline.py")
        if module == "trajtree.synth" or module.startswith("trajtree.synth.")
    ]
    assert found == []


def test_oracles_read_no_tree_ingest_pipeline_or_scoring_name():
    # the oracles share synth.py with the harness that mines through the tree
    # code; they read none of it, so they check it independently. Functions of
    # synth.py that they call are held to the same rule.
    path = SRC / "trajtree" / "synth.py"
    banned = {
        name for module, name in imports(path)
        if module in ("trajtree.tree", "trajtree.ingest", "trajtree.pipeline")
        or (module == "trajtree.scoring" and name != "DEFAULT_THRESHOLD")
    }
    assert {"enumerate_paths", "ingest_trajectories", "mine_instance"} <= banned
    functions = {
        node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    todo = ["brute_force_scores", "brute_force_pairs", "_intended_retained"]
    checked, found = set(), []
    while todo:
        name = todo.pop()
        checked.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in banned:
                    found.append(f"{name}:{node.lineno} {node.id}")
                elif node.id in functions and node.id not in checked:
                    todo.append(node.id)
    assert found == []


def test_only_model_touches_the_key_cache():
    # Trajectory._keys, the one cache of canonical keys, is read and written
    # by model.py alone; every other module asks Trajectory.action_keys
    touched = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "trajtree").glob("*.py")) if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_keys"
    ]
    assert touched == []


def test_one_json_reader_and_no_umask_or_tempfile():
    # model._decode is the one JSON reader, so every input reads numbers one
    # way; output files are made by a plain exclusive open, which neither
    # reads nor sets the process-wide umask
    banned = {("json", "load"), ("json", "loads"), ("os", "umask"), ("os", "fchmod")}
    found = []
    for path in sorted((SRC / "trajtree").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [(alias.name, "") for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {module}.{name}".rstrip(".") for module, name in names
                if (module, name) in banned or module == "tempfile"
            ]
    assert found == []


def test_decode_is_called_only_by_the_line_loop_config_and_meta():
    # every JSON-lines input (corpus and loss records) is read by the one line
    # loop, model._json_lines; the config file and meta's read-back check are
    # the only other text decoded
    def callers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from callers(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and "_decode" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)
            ):
                yield scope
            yield from callers(child, scope)

    found = {
        caller for path in sorted((SRC / "trajtree").glob("*.py"))
        for caller in callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {"model._json_lines", "model.Trajectory.__init__", "cli.load_config"}


def test_no_encoder_is_built_per_call():
    # a JSONEncoder built inside a function is built on every call; model._encode
    # is the encode of one built at import
    built = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "trajtree").glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and "JSONEncoder" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )
    ]
    assert built == []


# each command of argv[1] (a JSON list of argvs) on json's pure-Python scanner
# and encoder, as on an interpreter built without the _json accelerator
PURE_PYTHON_JSON = """
import sys
sys.modules["_json"] = None
import json
from trajtree.cli import main
assert json.encoder.c_make_encoder is None and json.scanner.c_make_scanner is None
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_commands_write_the_same_bytes_without_the_json_accelerator(tmp_path, monkeypatch, capsys):
    commands = [
        ["synth", "--seed", "3", "--instances", "8", "--divergent-observations", "--out-dir", "s"],
        ["all", "--input", "s/corpus.jsonl", "--out-dir", "a"],
        ["loss", "--input", "loss_in.jsonl"],
    ]
    records = (
        '{"kind": "sft", "action_logps": [-0.5, -1.5], "observation_logps": [-9.0]}\n'
        '{"kind": "dpo", "policy_chosen": -2.0, "policy_rejected": -3.0,'
        ' "ref_chosen": -2.5, "ref_rejected": -3.0, "beta": 0.1}\n'
    )
    accelerated, pure = tmp_path / "accelerated", tmp_path / "pure"
    for cwd in (accelerated, pure):
        cwd.mkdir()
        (cwd / "loss_in.jsonl").write_text(records, encoding="utf-8")

    monkeypatch.delenv("TRAJTREE_CONFIG", raising=False)
    monkeypatch.chdir(accelerated)
    assert [main(argv) for argv in commands] == [0, 0, 0]
    stdout = run_fresh(PURE_PYTHON_JSON, json.dumps(commands), cwd=pure)
    assert stdout == capsys.readouterr().out != ""

    def files(root: Path) -> dict[str, bytes]:
        return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}

    written = files(pure)
    assert written == files(accelerated)
    assert set(written) == {
        "loss_in.jsonl", "s/corpus.jsonl", "s/ground_truth.json",
        *(f"a/{name}" for name in COMMAND_OUTPUTS["all"]),
    }


# loaded only by `synth`/`selfcheck` (hashlib with it) and `loss`
HEAVY = ("hashlib", "_hashlib", "trajtree.synth", "trajtree.losses")
# loaded by no command: dataclasses imports inspect, and with it ast, dis and tokenize
NEVER = ("dataclasses", "inspect")

MODULES_AFTER = """
import json, sys
from trajtree.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestCommandModules:
    @pytest.fixture
    def corpus(self, tmp_path, fixture_trajectories):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(serialize_trajectory(t) + "\n" for t in fixture_trajectories), encoding="utf-8"
        )
        return path

    def modules_after(self, *argv: str, cwd: Path) -> set[str]:
        # the last line: `loss` and `selfcheck` print their results before it
        code, loaded = json.loads(run_fresh(MODULES_AFTER, *argv, cwd=cwd).splitlines()[-1])
        assert code == 0, argv
        assert set(loaded).isdisjoint(NEVER), sorted(set(loaded).intersection(NEVER))
        return set(loaded)

    def test_all_as_a_module_imports_no_dataclasses_or_inspect(self, corpus, tmp_path):
        # what `python -X importtime -m trajtree.cli all` reports, one module a line
        env = {k: v for k, v in os.environ.items() if k != "TRAJTREE_CONFIG"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "trajtree.cli", "all",
             "--input", str(corpus), "--out-dir", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        imported = {
            line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"trajtree.model", "trajtree.emit", "argparse"} <= imported
        assert imported.isdisjoint(NEVER), sorted(imported.intersection(NEVER))
        assert (tmp_path / "out" / "stats.json").exists()

    @pytest.mark.parametrize("command", ["all", "ingest", "tree", "stats"])
    def test_dataset_commands_load_no_hashing_synth_or_losses(self, command, corpus, tmp_path):
        out = tmp_path / "out"
        loaded = self.modules_after(
            command, "--input", str(corpus), "--out-dir", str(out), cwd=tmp_path
        )
        assert "trajtree.cli" in loaded
        assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))
        assert (out / "trees.jsonl").exists() == (command in ("all", "tree"))

    def test_loss_loads_losses_but_no_hashing_or_synth(self, tmp_path):
        records = tmp_path / "loss_in.jsonl"
        records.write_text('{"kind": "sft", "action_logps": [-1.0]}\n', encoding="utf-8")
        loaded = self.modules_after("loss", "--input", str(records), cwd=tmp_path)
        assert "trajtree.losses" in loaded
        assert loaded.isdisjoint(("hashlib", "_hashlib", "trajtree.synth"))

    def test_selfcheck_loads_the_oracles_but_no_losses(self, tmp_path):
        loaded = self.modules_after("selfcheck", "--instances", "2", cwd=tmp_path)
        assert {"hashlib", "trajtree.synth"} <= loaded
        assert "trajtree.losses" not in loaded

    def test_synth_loads_hashlib_and_writes_the_pinned_bytes(self, tmp_path):
        flags, digests = test_synth.TestSynthFiles.GOLDEN["deep"]
        out = tmp_path / "synth"
        loaded = self.modules_after("synth", *flags, "--out-dir", str(out), cwd=tmp_path)
        assert {"hashlib", "trajtree.synth"} <= loaded
        assert "trajtree.losses" not in loaded
        assert tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("corpus.jsonl", "ground_truth.json")
        ) == digests
