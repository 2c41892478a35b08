"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, never two at a time,
and sends it a JSON document on stdin:

* ``jobs``: the job list (see ``workloads.py`` for the job kinds);
* ``systems``: the ``[type, rank]`` pairs built during set-up;
* ``src``: the directory ``gkmfactor`` must be imported from;
* ``trace``: wrap the package's public calls (see ``tracing.py``);
* ``setup_only``: stop after set-up.

It answers with one JSON document on stdout.  Set-up time covers
``import gkmfactor`` (with ``gkmfactor.cli``) and ``rootsystem.build``
of the workload's systems.
Each job is timed on its own; ``wall_s`` is the time to finish the whole
job list.  Results are kept as returned and encoded only after the
clock has stopped, and encoding only reads them.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_job(job, systems, gk):
    kind = job[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = gk.cli.run(job[1], out)
        return code, out.getvalue(), err.getvalue()
    if kind == "import":
        return gk.import_graph(job[1])
    rs = systems[f"{job[1]}{job[2]}"]
    if kind == "column":
        return gk.stalk_ranks(gk.Truncation(rs, tuple(job[3])))
    if kind == "mult":
        return gk.weight_multiplicity(tuple(job[3]), tuple(job[4]), rs, q_graded=job[5])
    if kind == "tensor":
        return gk.tensor_weight_dim(tuple(job[3]), tuple(job[4]), tuple(job[5]), rs)
    if kind == "table":
        return gk.weights.freudenthal_weight_table(tuple(job[3]), rs)
    raise ValueError(f"unknown job kind {kind!r}")


def encode(job, result):
    """JSON form of a job's result; reads the result and never mutates it
    (``stalk_ranks`` hands out its cached ``ColumnResult`` by reference)."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    kind = job[0]
    if kind == "cli":
        code, stdout, stderr = result
        return {"exit": code, "stdout": stdout, "stderr": stderr}
    if kind == "import":
        return {
            "type": result.rs.type_label,
            "rank": result.rs.rank,
            "coweight": list(result.lam),
            "vertices": [list(v) for v in result.vertices],
            "edges": [{"u": e.u, "v": e.v, "label": list(e.label)} for e in result.edges],
        }
    if kind == "column":
        return {
            "ranks": sorted([list(v), r] for v, r in result.ranks.items()),
            "profiles": sorted([list(v), list(p)] for v, p in result.profiles.items()),
        }
    if kind == "mult" and job[5]:
        return list(result.coeffs)
    if kind == "table":
        return sorted([list(v), m] for v, m in result.items())
    return result


def main():
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import gkmfactor as gk
    from gkmfactor import cli, rootsystem, weights  # noqa: F401  (binds gk.cli, gk.weights)

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    systems = {f"{t}{l}": rootsystem.build(t, l) for t, l in spec["systems"]}
    setup_s = time.perf_counter() - t0

    if not gk.__file__.startswith(spec["src"]):
        raise SystemExit(f"gkmfactor imported from {gk.__file__}, not from {spec['src']}")
    if spec["setup_only"]:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return

    results, latencies = [], []
    start = time.perf_counter()
    for job in spec["jobs"]:
        t = time.perf_counter()
        try:
            result = run_job(job, systems, gk)
        except Exception as exc:  # a failed job is counted, the session goes on
            result = exc
        latencies.append(time.perf_counter() - t)
        results.append(result)
    wall_s = time.perf_counter() - start
    trace = tracer.snapshot() if tracer else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    json.dump(
        {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latencies": latencies,
            "peak_rss_mb": peak_rss_mb,
            "backend": gk.kernels.BACKEND,
            "traced": tracer is not None,
            "trace": trace,
            "outputs": [encode(job, r) for job, r in zip(spec["jobs"], results)],
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
