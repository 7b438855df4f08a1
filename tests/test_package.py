"""The lazy package API and the modules each command loads."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajtree
from trajtree import model
from trajtree.model import serialize_trajectory

import test_synth

SRC = Path(trajtree.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"


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

    def test_submodule_attribute_loads_it(self):
        # a fresh interpreter, so no earlier import has bound the attribute
        loaded = json.loads(run_fresh(
            "import json, sys, trajtree\n"
            "assert trajtree.synth.generate is trajtree.generate\n"
            "assert callable(trajtree.cli.main)\n"
            "assert {'synth', 'cli', 'losses'} <= set(dir(trajtree))\n"
            "print(json.dumps(sorted(sys.modules)))"
        ))
        assert {"trajtree.synth", "trajtree.cli"} <= set(loaded)
        assert "trajtree.losses" not in loaded

    def test_oracles_load_no_hashlib(self):
        # only generating a corpus hashes anything
        loaded = json.loads(run_fresh(
            "import json, sys\n"
            "from trajtree import brute_force_pairs, brute_force_scores\n"
            "print(json.dumps(sorted(sys.modules)))"
        ))
        assert "trajtree.synth" in loaded
        assert "hashlib" not in loaded and "_hashlib" not in loaded

    @pytest.mark.parametrize("name", trajtree.__all__)
    def test_name_is_its_defining_modules_object(self, name):
        module = importlib.import_module(f"trajtree.{trajtree._EXPORTS[name]}")
        assert getattr(trajtree, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__

    def test_synth_config_is_one_class(self):
        from trajtree.pipeline import SynthConfig
        from trajtree.synth import SynthConfig as FromSynth

        assert trajtree.SynthConfig is SynthConfig is FromSynth

    def test_star_import(self):
        namespace: dict = {}
        exec("from trajtree import *", namespace)
        assert {name: namespace[name] for name in trajtree.__all__} == {
            name: getattr(trajtree, name) for name in trajtree.__all__
        }

    def test_dir_lists_all(self):
        assert set(trajtree.__all__) <= set(dir(trajtree))
        assert "__version__" in dir(trajtree)

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

    def test_sys_modules_patching_reaches_the_package(self, monkeypatch):
        # the loop TestCanonicalizeOnce uses to count canonicalize_action calls
        original = model.canonicalize_action
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("trajtree") and getattr(mod, "canonicalize_action", None) is original:
                monkeypatch.setattr(mod, "canonicalize_action", counting)
        assert trajtree.canonicalize_action("a  b") == "a b"
        assert model.canonicalize_action("c") == "c"
        assert calls == 2


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


def test_every_module_level_name_is_read():
    # a def, class or constant of a trajtree module that no module of src/,
    # tests/ or bench/ reads: as a name, an attribute, an imported alias, or
    # an identifier string (the _MODULES table, getattr)
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
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    read.add(node.value)
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
