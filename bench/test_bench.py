"""Smoke test of the benchmark at reduced sizes.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from launcher import Launcher  # noqa: E402
from run import END_TO_END  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# end-to-end metrics each workload prints beyond the gated ones in BENCHMARK.json
REPORTED = {
    "cli_pipeline": {"events_per_s": "1/s", "cli_simulate_s": "s", "cli_estimate_s": "s", "cli_fit_s": "s"},
    "in_process": {"replicate_fits_wall_s": "s", "events_per_s": "1/s", "op_p50_ms": "ms",
                   "op_p90_ms": "ms", "model_tables_wall_s": "s", "points_per_s": "1/s",
                   "sojourn_fit_s": "s"},
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_the_benchmark():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_and_checks_pass(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        for name, unit in {**END_TO_END, **REPORTED[workload], "failed_ratio": "ratio"}.items():
            assert any(line.startswith(f"e2e {name} = ") and f" {unit} (n=" in line for line in lines), name
        for name in END_TO_END:
            assert result["metrics"][name]["value"] > 0
    else:
        assert "check ok   layer self times sum to traced wall" in lines
        if workload == "cli_pipeline":
            assert result["metrics"]["core.quad_calls"]["value"] == 0
    assert not any(line.startswith("check FAIL") for line in lines)


def _pass_outputs(workload: str, seed: int, tmp_path: Path) -> dict[str, bytes]:
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    wl = workloads.WORKLOADS[workload](seed, workloads.SMOKE, Launcher(ROOT / "src"), work)
    return wl.run_pass(in_process=True).outputs


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_changes_the_inputs(workload, tmp_path):
    first = _pass_outputs(workload, 1, tmp_path)
    assert _pass_outputs(workload, 1, tmp_path) == first
    assert _pass_outputs(workload, 2, tmp_path) != first


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _run("--workload", "in_process", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
