"""Smoke test of the benchmark: every workload at toy size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Each workload runs three times: seed 1 traced twice (counts and the final
loss must repeat exactly), seed 2 untraced (the inputs must change).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATABLE = ("raster.records", "raster.tiles", "raster.pairs",
              "raster.useful_pair_frac", "raster.records_per_tile_max",
              "gradients.live_gaussian_frac")


def run_bench(script: Path, workload: str, seed: int, trace: int,
              work_dir: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--toy", "--work-dir", str(work_dir)],
        capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """(env, result, trace file) for seed 1 traced twice and seed 2."""
    out = {}
    for key, seed, trace in (("a", 1, 1), ("b", 1, 1), ("c", 2, 0)):
        work = tmp_path_factory.mktemp(f"{request.param}-{key}")
        proc = run_bench(BENCH / "run.py", request.param, seed, trace, work)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        record = json.loads(
            (work / f"{request.param}-seed{seed}-trace{trace}.json").read_text())
        out[key] = (json.loads(lines[-2])["env"], json.loads(lines[-1]), record)
    return out


def test_every_metric_emitted_with_unit(runs):
    for key, section in (("a", "per_layer"), ("c", "end_to_end")):
        _, result, _ = runs[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
            assert math.isfinite(m["value"])


def test_end_to_end_metrics_nonzero(runs):
    _, result, _ = runs["c"]
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def test_counts_and_loss_repeat_for_one_seed(runs):
    (_, a, rec_a), (_, b, rec_b) = runs["a"], runs["b"]
    for name, m in a["metrics"].items():
        if name in REPEATABLE or ".calls" in name:
            assert m["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["raster.records"]["value"] > 0
    assert rec_a["end_to_end"]["loss_final"] == \
        rec_b["end_to_end"]["loss_final"] > 0


def test_another_seed_changes_inputs(runs):
    assert runs["a"][0]["input_sha256"] == runs["b"][0]["input_sha256"]
    assert runs["a"][0]["input_sha256"] != runs["c"][0]["input_sha256"]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark, it exits nonzero and
    prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / BENCH.name / "run.py", WORKLOADS[0], 1, 0,
                     tmp_path / "work")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
