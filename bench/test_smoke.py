"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Every workload the benchmark defines (those BENCHMARK.json gates and
those run by hand) must print every metric BENCHMARK.json names, the
output checks must pass on the program's files and fail when one byte of
any output file is corrupted, and the benchmark must refuse to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from run import STAGE_COMMANDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k in want and not trace)
    printed = {line.split()[1] for line in done.stdout.splitlines()[:-1]}
    assert printed == set(want) | {"failed_share"}


@pytest.fixture(scope="module")
def program_outputs(tmp_path_factory):
    """A small synth corpus run through `all` and through the stage commands."""
    tmp = tmp_path_factory.mktemp("outputs")
    env = {k: v for k, v in os.environ.items() if k != "TRAJTREE_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")

    def trajtree(*args):
        subprocess.run([sys.executable, "-m", "trajtree.cli", *map(str, args)], env=env, check=True)

    trajtree("synth", "--seed", 3, "--instances", 12, "--out-dir", tmp / "synth")
    corpus = tmp / "synth" / "corpus.jsonl"
    trajtree("all", "--input", corpus, "--out-dir", tmp / "all")
    trajtree("ingest", "--input", corpus, "--out-dir", tmp / "staged")
    for command in STAGE_COMMANDS:
        trajtree(command, "--input", tmp / "staged" / "retained.jsonl", "--out-dir", tmp / "staged")
    truth = json.loads((tmp / "synth" / "ground_truth.json").read_text(encoding="utf-8"))
    input_count = len(corpus.read_bytes().splitlines())
    return tmp, truth, input_count


def test_checks_pass_on_the_program_outputs(program_outputs):
    tmp, truth, input_count = program_outputs
    assert checks.check_outputs(tmp / "all", truth, input_count) == []
    assert checks.compare_stages(tmp / "staged", tmp / "all") == []


def corrupt_first_digit(path: Path) -> None:
    """Change the first ASCII digit of the file, keeping it valid JSON."""
    data = bytearray(path.read_bytes())
    i = next(i for i, b in enumerate(data) if 0x30 <= b <= 0x39)
    data[i] = 0x30 + (data[i] - 0x30 + 1) % 10
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", checks.OUTPUTS)
def test_one_corrupt_byte_fails_the_checks(program_outputs, name, tmp_path):
    tmp, truth, input_count = program_outputs
    for run in ("all", "staged"):
        shutil.copytree(tmp / run, tmp_path / run)
    corrupt_first_digit(tmp_path / "all" / name)
    assert checks.check_outputs(tmp_path / "all", truth, input_count) != []
    assert checks.digests(tmp_path / "all") != checks.digests(tmp / "all")
    corrupt_first_digit(tmp_path / "staged" / name)
    assert checks.compare_stages(tmp_path / "staged", tmp / "all") != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
