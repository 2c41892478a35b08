"""Smoke-size self-test of the benchmark.

    python3 -m pytest -q perfbench/test_bench.py

Runs a few cheap jobs of every workload through the real measuring
processes and checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit, that work counts repeat exactly, and that a
wrong answer raises ``fail_ratio`` above zero.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke_jobs(workload):
    jobs = workloads.make_jobs(workload, seed=7)
    if workload == "adjoint-columns":
        return [j for j in jobs if j[1:3] in (["A", 3], ["A", 2])]
    if workload == "weight-queries":
        return [j for j in jobs if j[1:3] not in (["A", 5], ["D", 5])][:12]
    return jobs[:12]


def measure(workload, trace):
    jobs = smoke_jobs(workload)
    setups, reps = run.collect(jobs, workloads.systems_of(jobs), 0, trace)
    return jobs, setups, reps


def units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    jobs, setups, reps = measure(workload, trace=0)
    report, result = run.summarize(jobs, setups, reps, 0, workloads.Checker())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(jobs) * len(reps)
    assert report["fail_ratio"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(report["machine"]) == {"backend", "python", "nproc", "cpu"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    runs = [measure(workload, trace=1) for _ in range(2)]
    results = [run.summarize(*r[:3], 1, workloads.Checker())[1] for r in runs]
    for result in results:
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units("per_layer")
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"} for r in results
    ]
    assert counts[0] == counts[1]


def corrupt(out):
    if isinstance(out, int):
        return out + 1
    if isinstance(out, list):
        return out[:-1]
    if "stdout" in out:
        return dict(out, stdout=out["stdout"] + "\n")
    if "ranks" in out:
        return dict(out, ranks=[[v, r + 1] for v, r in out["ranks"]])
    return dict(out, vertices=out["vertices"][1:])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_answer_raises_fail_ratio(workload):
    jobs, setups, reps = measure(workload, trace=0)
    reps[0]["outputs"][0] = corrupt(reps[0]["outputs"][0])
    report, result = run.summarize(jobs, setups, reps, 0, workloads.Checker())
    assert report["fail_ratio"] > 0
    assert result["failed"] == 1 and not result["correct"]


def test_seeded_jobs():
    for workload in workloads.WORKLOADS:
        assert workloads.make_jobs(workload, 3) == workloads.make_jobs(workload, 3)
    for workload in ("weight-queries", "cli-session"):
        assert len(workloads.make_jobs(workload, 3)) >= 100
        assert workloads.make_jobs(workload, 3) != workloads.make_jobs(workload, 4)
