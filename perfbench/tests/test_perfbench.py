"""Self-test of the benchmark: every workload at a tiny size, the metric
names and units it prints, and the output checks tripping on corrupted
outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert f"{m['name']} " in proc.stdout
        assert any(line.startswith(f"{m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        assert any(line.startswith("failed_frac 0 ratio") for line in lines)
        assert any(line.startswith("request_s_tail ") for line in lines)


def test_other_seed_gives_other_inputs_and_same_seed_the_same():
    one = workloads.make_requests("closed_form", 7, "full")
    assert one == workloads.make_requests("closed_form", 7, "full")
    assert one != workloads.make_requests("closed_form", 8, "full")
    assert sorted(map(str, workloads.make_requests("gauss_norms", 1,
                                                    "full"))) == \
        sorted(map(str, workloads.make_requests("gauss_norms", 2, "full")))
    assert len(workloads.make_requests("gauss_norms", 1, "full")) == 4271


def test_gate_trips_on_corrupted_distribution():
    req = {"tower": (2, 1, 2, 6), "a": 0, "punctured": False}
    rc, stdout, stderr = workloads.execute("enumerate", req)
    assert workloads.check_code_output(req, rc, stdout, stderr) == []
    doc = json.loads(stdout)
    doc["weights"][0]["count"] += 1
    bad = json.dumps(doc)
    assert workloads.check_code_output(req, rc, bad, stderr)
    assert workloads.check_code_output(req, 1, stdout, "boom")
    asked_other = dict(req, a=1)
    assert workloads.check_code_output(asked_other, rc, stdout, stderr)

    req = {"tower": (2, 1, 3, 9), "a": 1, "punctured": False}
    dist = workloads.execute("closed_form", req)
    assert workloads.check_predicted(req, dist) == []
    (w1, c1), (w2, c2) = [(w, c) for w, c in dist.counts.items() if w][:2]
    dist.counts[w1], dist.counts[w2] = c1 - 1, c2 + 1  # total kept
    assert workloads.check_predicted(req, dist)


def test_gate_trips_on_corrupted_csv_row():
    req = {"budget": workloads.SWEEP_BUDGET["tiny"]}
    reference = workloads.load_reference_csv(req["budget"])
    result = workloads.execute("sweep", req)
    assert workloads.check("sweep", req, result, reference)[2] == []
    rows = reference.splitlines(keepends=True)
    rows[5] = rows[5].replace(",true", ",false", 1)
    assert rows[5] != reference.splitlines(keepends=True)[5]
    rc, _, err = result
    problems = workloads.check("sweep", req, (rc, "".join(rows), err),
                               reference)[2]
    assert problems and "line 6" in problems[0]


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
