"""Smoke test of the benchmark: every workload once at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that both modes emit exactly the metrics of ``BENCHMARK.json`` with
their units, that ``map.json`` covers every per-layer metric, and that the
benchmark refuses to run outside a checkout of the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "map.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    out = run(ROOT, "--workload", "all", "--seed", "7", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert set(result["metrics"]) == set(WORKLOADS)
    for workload, metrics in result["metrics"].items():
        got = {name: m["unit"] for name, m in metrics.items()}
        assert got == want, workload
        for name, m in metrics.items():
            assert isinstance(m["value"], (int, float)), (workload, name)
    if trace == 0:
        for workload, metrics in result["metrics"].items():
            assert all(m["value"] > 0 for m in metrics.values()), workload


def test_map_covers_every_metric_and_workload():
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    mapped = [name for layer in MAP["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for layer in MAP["layers"]:
        assert set(layer["moves"]) <= end_to_end, layer["layer"]
        assert set(layer["on"]) | set(layer["no_change_on"]) <= set(WORKLOADS)
    assert set(MAP["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
              "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
