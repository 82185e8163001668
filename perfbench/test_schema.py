"""Schema smoke test of the benchmark at toy budgets.

    python3 -m pytest -q perfbench/test_schema.py

Runs every workload, untraced and traced, for one second on the toy budget
and checks the result line against BENCHMARK.json: its keys, the metric
names and units, and that every operation passed its output check. No
timing is asserted. A last case checks that the benchmark exits non-zero
without a result where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def run(cwd, workload, trace):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--profile", "toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == EXPECTED[trace]
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    assert proc.stdout.startswith("fingerprint {")


def test_refuses_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(tmp, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
