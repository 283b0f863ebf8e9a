"""Self-test of the benchmark at tiny size.

Runs every workload in both modes and checks that each metric
BENCHMARK.json names is printed with its unit and that no operation
failed.  Run from the repository root:

    python3 -m pytest perfbench
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# printed for every workload by the untraced run; "n/a" where the stage is bypassed
SHOWN = {"run_s": "s", "generate_s": "s", "simulate_s": "s", "analyze_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB", "compiled_cnots_mean": "CNOTs",
         "fail_frac": "ratio"}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float), metric["name"]
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    if trace:
        for metric in expected:
            assert table[metric["name"]][1] == metric["unit"], metric["name"]
        return
    for name, unit in SHOWN.items():
        words = table[name]
        assert words[0] == "n/a" or words[1] == unit, (name, words)
    assert float(table["fail_frac"][0]) == 0.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
