"""Tests of the benchmark itself, in smoke mode (a handful of ops per run).

Run from the repository root:

    python3 -m pytest -q perfbench/test_benchmark.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [
    "statevec.gate_calls.H", "statevec.gate_calls.CX", "statevec.gate_calls.CCX",
    "statevec.gate_calls.CZ", "statevec.gate_amplitudes",
    "statevec.gate_bytes_computed", "ghz_erasure.programs_built",
    "ghz_erasure.program_apply_calls", "graph_code.decode_calls",
]


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    assert set(result["metrics"]) == {spec["name"] for spec in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_repeats(workload):
    context, result = parse(run_bench(workload, trace=0))
    check_metrics(result, SPEC["end_to_end"])
    assert context["error_rate"] == 0
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0

    traced = [parse(run_bench(workload, trace=1)) for _ in range(2)]
    for trace_context, trace_result in traced:
        check_metrics(trace_result, SPEC["per_layer"])
        assert trace_context["error_rate"] == 0
        assert trace_context["outputs_sha256"] == context["outputs_sha256"]
        assert (ROOT / trace_context["spans_file"]).is_file()
    first, second = (r["metrics"] for _c, r in traced)
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
