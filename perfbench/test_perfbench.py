"""Self-test of the benchmark: every workload at smoke size, the metric
contract of BENCHMARK.json, the correctness gate and the refusal to run
outside a checkout.

    python3 -m pytest -q perfbench/test_perfbench.py
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7  # not the default seed
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", SEED, "--seconds", 0.3,
                 "--min-ops", 3, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_contract_matches_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_end_to_end(workload):
    lines, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    assert any(line.split() == ["failed_share", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_traced(workload):
    lines, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.PER_LAYER}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert any(line.split() == ["failed_share", "0", "ratio"] for line in lines)


def test_wrong_expected_verdict_is_a_counted_failure():
    proc = bench("--workload", "desk-crosscheck", "--seed", SEED, "--seconds", 0.3,
                 "--min-ops", 5, "--inject-wrong", 2)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 5
    assert "FAILED op 2" in proc.stderr


def test_operations_owed_at_the_wall_time_cap_are_failures(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Corpus
    monkeypatch.setattr(run, "MAX_WALL_S", 0.0)
    done = run.sweep(Corpus(WORKLOADS["desk-crosscheck"], SEED), None, 10.0,
                     min_ops=5)
    assert done.times == [] and done.attempted == 5 and done.failed == 5


def test_same_seed_same_verdicts():
    digests = []
    for _ in range(2):
        # --seconds 0 makes the run exactly --min-ops operations long
        proc = bench("--workload", "planted-rejects", "--seed", SEED,
                     "--seconds", 0, "--min-ops", 8)
        digests.append([line for line in proc.stdout.splitlines()
                        if "verdict digest" in line])
    assert digests[0] == digests[1] and digests[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *CONTRACT["command"][1:],
                           "--workload", "desk-crosscheck", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
