"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from families import FAMILIES, patterns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric_and_fails_nothing(trace, kind):
    proc = run_bench(ROOT, "--workload", "all", "--smoke", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for r in results:
        assert r["correct"] is True, proc.stderr
        assert r["attempted"] > 0
        assert r["failed"] / r["attempted"] == 0
        assert {name: m["unit"] for name, m in r["metrics"].items()} == declared
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in r["metrics"].values()), r["metrics"]
    for name in declared:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", sorted(FAMILIES))
def test_inputs_are_a_function_of_the_seed(workload):
    def make(seed):
        rng = random.Random(seed)
        symbols, sigma = FAMILIES[workload](rng, 500)
        return symbols, sigma, patterns(rng, symbols, 50)

    assert make(7) == make(7)
    symbols, sigma, pats = make(7)
    assert len(symbols) == 500
    for pattern, end in pats[::2]:
        assert tuple(symbols[end - len(pattern) : end]) == pattern
    if workload in ("code", "random"):
        assert make(8)[0] != symbols


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "code", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
