"""Tests of the benchmark itself: output contract, exact counts, bare tree.

Run from the root of a checkout (not part of the repository's tier-1
suite, whose test path is ``tests/``)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

#: Counts a later change may cite: they must repeat exactly per seed.
PINNED = (
    "ops.conv.flops",
    "ops.conv.bytes",
    "engine.actions",
    "ckpt.forward_steps",
    "meter.ledger_peak_bytes",
)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "train_mlp_deep", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert '"blas_threads": 1' in proc.stdout


@pytest.fixture(scope="module")
def traced_twice():
    """Two short traced runs of every workload with one seed."""
    runs = {}
    for name in workloads.WORKLOADS:
        for _ in range(2):
            checks = workloads.Checks()
            metrics, _ = workloads.run_workload(name, 7, 0.5, True, checks)
            assert checks.failed == 0, checks.failures
            runs.setdefault(name, []).append({k: v for k, (v, _) in metrics.items()})
    return runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(traced_twice, name):
    first, second = traced_twice[name]
    assert {k: first[k] for k in PINNED} == {k: second[k] for k in PINNED}


def test_counts_place_work_on_the_named_layers(traced_twice):
    counts = {name: runs[0] for name, runs in traced_twice.items()}
    revolve, store_all = counts["train_resnet_revolve"], counts["train_resnet_store_all"]
    mlp, plan = counts["train_mlp_deep"], counts["plan_resnet152"]
    # 28 layer forwards per step of the 12-step chain under Revolve c=2.
    assert revolve["ckpt.forward_steps"] == 28
    assert store_all["ckpt.forward_steps"] == 12
    assert store_all["engine.actions"] == 0
    assert revolve["ops.conv.flops"] > store_all["ops.conv.flops"] > 0
    assert revolve["meter.ledger_peak_bytes"] < store_all["meter.ledger_peak_bytes"]
    assert mlp["engine.actions"] == 657 and mlp["ops.conv.flops"] == 0
    assert plan["ops.conv.flops"] == 0 and plan["ckpt.plan.hetero.ms"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "plan_resnet152", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
