#!/usr/bin/env python3
"""gkmfactor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its ``src`` directory.  Workloads: ``adjoint-columns``,
``weight-queries``, ``cli-session`` (see ``workloads.py`` and
``NOTES.md``).

Each repetition runs the workload's whole job list in a fresh
interpreter (``worker.py``), so module caches start cold as they do for
every CLI invocation, and stay shared within the repetition as in a
library session.  Repetitions run one after another, never two at a
time, while another one would end less than half a repetition after
``--seconds``; there is always at least one.  Set-up is also timed in a few interpreters that only set
up.  Every output is checked outside the timed region.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, each the median
over repetitions; with ``--trace 1`` the per-module metrics of traced
repetitions (``tracing.py``), which alternate with untraced ones so
that ``trace.overhead_s`` is traced minus untraced ``wall_s``.  The line
before it is the full report: the machine, the repetitions, and the
figures that are not gated (``job_p90_s`` on workloads with at least
100 jobs, ``fail_ratio``, and ``probe_s``, the time of a fixed loop run
before each repetition, which shows how fast the machine itself was).  ``compare.py`` reads these reports.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_SAMPLES = 9
# Every run must end within 180 s; stop starting repetitions well before.
RUN_LIMIT_S = 150


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine(backend):
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def probe():
    """Seconds for a fixed pure-Python loop: how fast the machine ran
    at that moment.  Reported, never gated."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t


def spawn(spec, deadline):
    # Byte code is cached, as for an installed package, so set-up times
    # imports rather than compilation, whatever the caller's environment.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), stdout=subprocess.PIPE, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def collect(jobs, systems, seconds, trace):
    """Set-up samples and repetitions: alternating untraced and traced
    ones when tracing, untraced ones otherwise."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = {"jobs": jobs, "systems": systems, "src": str(SRC), "setup_only": False}
    setups = []
    if not trace:
        setup = dict(spec, jobs=[], setup_only=True, trace=False)
        spawn(setup, deadline)  # fills the byte-code cache; not counted
        setups = [spawn(setup, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            probe_s = probe()
            reps.append(dict(spawn(dict(spec, trace=traced), deadline), probe_s=probe_s))
        cycle = time.monotonic() - t
        elapsed = time.monotonic() - start
        if elapsed + cycle / 2 > seconds or time.monotonic() + cycle > deadline:
            return setups, reps


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summarize(jobs, setups, reps, trace, checker):
    """Report and result line from the collected repetitions."""
    med = statistics.median
    attempted = failed = 0
    for rep in reps:
        for job, out in zip(jobs, rep["outputs"], strict=True):
            attempted += 1
            reason = checker(job, out)
            if reason is not None:
                failed += 1
                print(f"wrong output of {json.dumps(job)[:120]}: {reason}", file=sys.stderr)
    plain = [r for r in reps if not r["traced"]]
    report = {
        "machine": machine(reps[0]["backend"]),
        "jobs": len(jobs),
        "repetitions": len(plain),
        "fail_ratio": failed / attempted,
        "probe_s": med([r["probe_s"] for r in reps]),
    }
    correct = failed == 0
    if trace:
        traced = [r for r in reps if r["traced"]]
        counts = [{k: v for k, (v, unit) in r["trace"].items() if unit != "s"} for r in traced]
        if any(c != counts[0] for c in counts):
            print("work counts differ between traced repetitions", file=sys.stderr)
            correct = False
        metrics = {
            name: {"value": med([r["trace"][name][0] for r in traced]), "unit": unit}
            for name, (_, unit) in traced[0]["trace"].items()
        }
        overhead = med([r["wall_s"] for r in traced]) - med([r["wall_s"] for r in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": med(setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "wall_s": {"value": med([r["wall_s"] for r in plain]), "unit": "s"},
            "job_p50_s": {"value": med([med(r["latencies"]) for r in plain]), "unit": "s"},
            "job_max_s": {"value": med([max(r["latencies"]) for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": med([r["peak_rss_mb"] for r in plain]), "unit": "MiB"},
        }
        report["repetition_wall_s"] = [r["wall_s"] for r in plain]
        report["job_p90_s"] = (
            {"value": med([p90(r["latencies"]) for r in plain]), "unit": "s"}
            if len(jobs) >= 100 else None
        )
        report["setup_samples"] = len(setups) + len(plain)
    report["metrics"] = metrics
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkmfactor" / "__init__.py").is_file():
        print(f"error: no gkmfactor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    jobs = workloads.make_jobs(args.workload, args.seed)
    setups, reps = collect(jobs, workloads.systems_of(jobs), args.seconds, args.trace)
    report, result = summarize(jobs, setups, reps, args.trace, workloads.Checker())
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **report}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
