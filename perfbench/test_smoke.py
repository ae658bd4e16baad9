"""Smoke test of the benchmark at tiny sizes, with no timing assertion.

Runs every workload of BENCHMARK.json end to end, untraced and traced, and
checks the result line against the metric names and units the file
declares. Run from the root of the tree:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENVIRONMENT_KEYS = (
    "python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "commit", "source_sha256", "seed",
)


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parsed(workload: str, trace: int, seed: int = 3):
    out = run(workload, trace, seed)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["command"]) <= 32 and SPEC["command"][1].startswith("perfbench/")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_declared_metrics_match_the_code():
    sys.path.insert(0, str(BENCH))
    import layers
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.per_layer_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end(workload, trace):
    detail, result = parsed(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    for key in ENVIRONMENT_KEYS:
        assert key in detail["environment"]
    if trace:
        assert all(check["ok"] for check in detail["identities"].values())
        assert (ROOT / detail["spans_file"]).is_file()


def test_a_training_run_whose_pool_boundary_is_not_seen_fails(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads as wl

    ledger = wl.Ledger()
    # The boundary is never installed, as if run_training stopped calling
    # training.build_training_pool by that name.
    run = wl.Run(wl.tiny(wl.WORKLOADS["desk"]), 3, tmp_path, ledger, wl.PoolBoundary())
    run.synth()
    assert run.train() is None
    assert ledger.by_kind["op.training_run"] == [1, 1]


def test_outputs_are_bit_identical_across_runs():
    first, _ = parsed("desk", 0, seed=5)
    second, _ = parsed("desk", 0, seed=5)
    assert first["digests"] == second["digests"]


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
