"""Command line behavior: determinism, exact JSON, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from gkmfactor import cli
from gkmfactor import rootsystem as rsys
from gkmfactor.cli import run

COMMANDS = [
    ["roots", "--type", "A", "--rank", "1"],
    ["roots", "--type", "E", "--rank", "6", "--json"],
    ["mult", "--type", "A", "--rank", "2", "--highest", "theta", "--weight", "zero", "--q"],
    ["tensor-dim", "--type", "A", "--rank", "2", "--lambda", "theta", "--mu", "theta", "--weight", "zero", "--json"],
    ["graph", "--type", "A", "--rank", "2", "--coweight", "theta", "--format", "dot"],
    ["graph", "--type", "A", "--rank", "2", "--coweight", "theta", "--format", "json"],
    ["stalks", "--type", "A", "--rank", "2", "--coweight", "theta", "--json"],
    ["mmatrix", "--type", "A", "--rank", "2", "--coweight", "theta", "--json"],
    [
        "transition", "--type", "A", "--rank", "2", "--lambda", "omega1",
        "--mu", "omega1*", "--weight", "zero", "--json",
    ],
    ["eta", "--series", "all", "--max-rank", "8", "--json"],
    ["eta", "--series", "all", "--max-rank", "6", "--csv"],
    ["eta", "--type", "E", "--rank", "7"],
]


def capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + "-".join(a[1:4]))
def test_commands_deterministic(argv):
    code1, out1 = capture(argv)
    code2, out2 = capture(argv)
    assert code1 == 0
    assert code1 == code2
    assert out1.encode() == out2.encode()
    assert out1


def walk_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into JSON: {obj}")
    if isinstance(obj, dict):
        for v in obj.values():
            walk_no_floats(v)
    if isinstance(obj, list):
        for v in obj:
            walk_no_floats(v)


@pytest.mark.parametrize(
    "argv",
    [a for a in COMMANDS if "--json" in a],
    ids=lambda a: a[0],
)
def test_json_outputs_exact(argv):
    _, out = capture(argv)
    payload = json.loads(out)
    walk_no_floats(payload)


def test_rationals_serialized_as_strings():
    _, out = capture(["eta", "--series", "all", "--max-rank", "4", "--json"])
    payload = json.loads(out)
    etas = [r["eta"] for r in payload["records"]]
    assert "1/3" in etas
    assert all(isinstance(e, (str, int)) for e in etas)


def test_exit_codes():
    assert capture(["roots", "--type", "A", "--rank", "0"])[0] == 2  # unsupported rank
    assert run(["nonsense"], out=io.StringIO()) == 2
    code, _ = capture(["mult", "--type", "A", "--rank", "2", "--highest=-1,0,1", "--weight", "zero"])
    assert code == 1  # non-dominant highest coweight
    code, _ = capture(["eta", "--type", "A"])
    assert code == 2  # missing rank


def test_oversized_refusal_mentions_estimate(capsys):
    code, _ = capture(["stalks", "--type", "E", "--rank", "6", "--coweight", "theta"])
    assert code == 1
    err = capsys.readouterr().err
    assert "estimated" in err and "cells" in err


@pytest.fixture
def no_graph(monkeypatch):
    from gkmfactor import momentgraph, stalks

    def no_graph(tr):
        raise AssertionError("a graph was built")

    for module in (cli, momentgraph, stalks):
        monkeypatch.setattr(module, "build_graph", no_graph)


def test_oversized_refusal_builds_no_graph(no_graph, capsys):
    code, out = capture(["stalks", "--type", "E", "--rank", "6", "--coweight", "theta"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: refusing: estimated ") and "cells at degree bound 12" in err


def test_default_ceiling_refuses_d5_adjoint_column(no_graph, capsys):
    # 52,767 estimated cells: such a column ran for minutes, so the
    # default ceiling refuses it up front.
    code, out = capture(["stalks", "--type", "D", "--rank", "5", "--coweight", "theta"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: refusing: estimated 52767 coefficient cells at degree bound 8")
    assert "exceeds --max-cells 20000" in err


@pytest.mark.parametrize("argv", [
    ["stalks", "--type", "A", "--rank", "2", "--coweight", "theta"],
    ["eta", "--type", "A", "--rank", "2", "--mode", "stalk"],
], ids=lambda a: a[0])
@pytest.mark.parametrize("cap", ["-1", "0", "many"])
def test_max_cells_below_one_is_refused_by_the_parser(no_graph, capsys, argv, cap):
    # A cap below one is outside the option's input, not a cap every
    # column exceeds.  mmatrix and transition declare the option as
    # stalks does.
    code, out = capture(argv + ["--max-cells", cap])
    assert code == 2 and out == ""
    assert f"argument --max-cells: '{cap}' is not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eta", "--type", "A", "--rank", "2", "--csv"], "--csv needs --series all"),
    (["eta", "--series", "all", "--csv", "--json"], "--csv and --json exclude each other"),
    (["eta", "--series", "all", "--type", "D", "--rank", "4"],
     "--type and --rank do not go with --series all"),
    (["eta", "--series", "all", "--type", "D"], "--type and --rank do not go with --series all"),
    (["eta", "--series", "all", "--rank", "4"], "--type and --rank do not go with --series all"),
], ids=["csv-without-series", "csv-and-json", "series-and-system", "series-and-type",
        "series-and-rank"])
def test_eta_refuses_flags_it_would_ignore(capsys, argv, message):
    # A flag the request would not honour is refused, not ignored.
    assert capture(argv) == (2, "")
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stalks", "--type", "A", "--rank", "2", "--coweight", "theta"],
    ["mmatrix", "--type", "A", "--rank", "2", "--coweight", "theta"],
    ["transition", "--type", "A", "--rank", "2", "--lambda", "omega1", "--mu", "omega1*",
     "--weight", "zero"],
], ids=lambda a: a[0])
def test_degree_bound_option_removed(argv):
    # The degree bound comes from the truncation alone.
    assert capture(argv)[0] == 0
    assert capture(argv + ["--degree-bound", "5"])[0] == 2


def test_verify_suites_pass():
    # adjoint-ranks reuses the in-process stalk cache, so the whole set
    # stays fast inside one test session.
    for suite in ["sl3", "eta-tables", "properties", "adjoint-ranks"]:
        code, out = capture(["verify", "--suite", suite])
        assert code == 0, out
        assert "FAIL" not in out


def test_roots_text_content():
    _, out = capture(["roots", "--type", "A", "--rank", "1"])
    assert "rank=1" in out and "|Phi|=2" in out


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gkmfactor.cli", "eta", "--type", "E", "--rank", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/18" in proc.stdout


def test_threads_option_removed():
    # The series picks its pool from the mode and the machine alone.
    argv = ["eta", "--series", "all", "--max-rank", "3", "--csv"]
    assert capture(["--threads", "2"] + argv) == (2, "")
    assert capture(argv)[0] == 0


@pytest.fixture
def pool_requests(monkeypatch):
    """Worker counts asked of ProcessPoolExecutor, which is replaced by
    an in-process map, so no worker is ever started."""
    import concurrent.futures

    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return requested


@pytest.mark.parametrize(
    "mode,cpus,workers",
    # --max-rank 2 gives 5 series rows: A1, A2, E6, E7, E8.
    [("stalk", 4, [4]), ("stalk", 64, [5]), ("stalk", 1, []), ("stalk", None, []),
     ("analytic", 64, [])],
)
def test_eta_series_pool_size(monkeypatch, pool_requests, mode, cpus, workers):
    # Only stalk rows pay for worker processes: one per CPU, at most one
    # per row.  The rows themselves are analytic here, to keep this fast.
    from gkmfactor import efficiency

    analytic = efficiency.adjoint_record
    monkeypatch.setattr(efficiency, "adjoint_record", lambda t, r, **kw: analytic(t, r))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert capture(["eta", "--series", "all", "--max-rank", "2", "--mode", mode])[0] == 0
    assert pool_requests == workers


def test_eta_series_pooled_output_matches_sequential(monkeypatch, pool_requests):
    argv = ["eta", "--series", "all", "--max-rank", "2", "--mode", "stalk", "--csv"]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = capture(argv)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert capture(argv) == pooled
    assert pool_requests == [4]


@pytest.mark.parametrize("exc", [AssertionError("invariant broken"), MemoryError()])
def test_internal_error_exits_1_without_traceback(monkeypatch, capsys, exc):
    def broken(args, out):
        raise exc

    monkeypatch.setattr(cli, "cmd_roots", broken)
    code, out = capture(["roots", "--type", "A", "--rank", "1"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


# Coordinate vectors with a leading minus after each coweight option.
# A dominant coweight never leads with a minus in these realizations, so
# the --highest, --lambda and --coweight cases end in exit 1 with a
# message, which must not depend on the form either.
NEGATIVE_VECTOR_COMMANDS = [
    ["mult", "--type", "A", "--rank", "2", "--highest", "theta", "--weight", "-1,0,1", "--q"],
    ["mult", "--type", "A", "--rank", "2", "--highest", "-1,0,1", "--weight", "zero"],
    ["stalks", "--type", "A", "--rank", "2", "--coweight", "theta", "--vertex", "-1,1,0", "--json"],
    ["graph", "--type", "A", "--rank", "1", "--coweight", "-1,1", "--format", "json"],
    [
        "tensor-dim", "--type", "A", "--rank", "2", "--lambda", "theta",
        "--mu", "theta", "--weight", "-1,-1,2", "--json",
    ],
    [
        "tensor-dim", "--type", "A", "--rank", "2", "--lambda", "theta",
        "--mu", "-1,0,1", "--weight", "zero",
    ],
    [
        "transition", "--type", "A", "--rank", "2", "--lambda", "-1,0,1",
        "--mu", "omega1*", "--weight", "zero", "--json",
    ],
    [
        "transition", "--type", "A", "--rank", "2", "--lambda", "omega1",
        "--mu", "omega1*", "--weight", "-1,1,0", "--json",
    ],
]
COORDINATE_OPTIONS = {"--weight", "--vertex", "--coweight", "--highest", "--lambda", "--mu"}


def equals_form(argv):
    """``argv`` with every negative coordinate vector attached by ``=``."""
    joined = []
    for tok in argv:
        if joined and joined[-1] in COORDINATE_OPTIONS and tok.startswith("-"):
            joined[-1] = f"{joined[-1]}={tok}"
        else:
            joined.append(tok)
    return joined


OFF_LATTICE = "0,0,0,0,0,0,0,1"


@pytest.mark.parametrize("argv", [
    ["stalks", "--type", "E", "--rank", "6", "--coweight", OFF_LATTICE],
    ["graph", "--type", "E", "--rank", "6", "--coweight", OFF_LATTICE, "--format", "json"],
    ["tensor-dim", "--type", "E", "--rank", "6", "--lambda", OFF_LATTICE, "--mu", "zero",
     "--weight", OFF_LATTICE],
    ["mult", "--type", "E", "--rank", "6", "--highest", "theta", "--weight", OFF_LATTICE],
], ids=lambda a: a[0])
def test_e_vector_off_the_coweight_lattice_refused(argv, capsys):
    # It pairs to 1/4 with alpha1; a one-vertex "truncation", a tensor
    # dimension of 1 or a failed Kostant assertion would all be wrong.
    code, out = capture(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == (
        "error: [0, 0, 0, 0, 0, 0, 0, 1] pairs to 1/4 with the simple root alpha1 = "
        "[1, -1, -1, -1, -1, -1, -1, 1], so it is not in the coweight lattice of E6\n"
    )


@pytest.mark.parametrize("argv,estimate", [
    (["stalks", "--type", "A", "--rank", "12", "--coweight", "6," + "0," * 11 + "-6"],
     "estimated at least 33681169130918400 coefficient cells at degree bound 73"),
    (["mmatrix", "--type", "A", "--rank", "10", "--coweight", "5," + "0," * 9 + "-5"],
     "estimated at least 23085355577856 coefficient cells at degree bound 51"),
    (["transition", "--type", "E", "--rank", "6", "--lambda", "omega4", "--mu", "omega4",
      "--weight", "zero"],
     "estimated at least 3579856896 coefficient cells at degree bound 43"),
], ids=["stalks-A12", "mmatrix-A10", "transition-E6"])
def test_huge_vertex_set_refused_without_enumerating_it(no_graph, argv, estimate, capsys):
    # Millions of vertices: the estimate stops counting at the 256th.
    start = time.perf_counter()
    code, out = capture(argv)
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: refusing: " + estimate)
    assert err.endswith("exceeds --max-cells 20000\n")


def test_graph_refuses_a_large_truncation_before_building_it(no_graph, capsys):
    # E6 omega4 has 1,063 vertices and 26,028 edges, and its JSON export
    # is 22 MB.  The vertices are counted only until the ceiling is passed.
    start = time.perf_counter()
    code, out = capture(
        ["graph", "--type", "E", "--rank", "6", "--coweight", "omega4", "--format", "json"]
    )
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: refusing: the E6 truncation at [0, 0, 2, 2, 2, -2, -2, 2] has more than "
        f"{cli.MAX_GRAPH_VERTICES} vertices; graph supports at most {cli.MAX_GRAPH_VERTICES}\n"
    )


@pytest.mark.parametrize("rank,coweight", [("1", "1000,-1000"), ("6", "3,0,0,0,0,0,-3")])
def test_graph_refuses_many_vertices_on_few_roots(no_graph, rank, coweight, capsys):
    # A1 1000theta (2,001 vertices) is one root string, so its graph is
    # complete: a ceiling on pair tests times roots admitted it.  A6
    # 3theta has 3,067 vertices.
    code, out = capture(["graph", "--type", "A", "--rank", rank, "--coweight", coweight,
                         "--format", "json"])
    assert code == 1 and out == ""
    assert f"has more than {cli.MAX_GRAPH_VERTICES} vertices" in capsys.readouterr().err


def test_graph_ceiling_is_inclusive(monkeypatch, capsys):
    # D5 theta has 41 vertices.
    argv = ["graph", "--type", "D", "--rank", "5", "--coweight", "theta", "--format", "dot"]
    monkeypatch.setattr(cli, "MAX_GRAPH_VERTICES", 41)
    code, out = capture(argv)
    assert code == 0 and out.count(" -- ") > 0
    monkeypatch.setattr(cli, "MAX_GRAPH_VERTICES", 40)
    assert capture(argv) == (1, "")
    assert "has more than 40 vertices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", NEGATIVE_VECTOR_COMMANDS,
    ids=lambda a: a[0] + [t for t in equals_form(a) if "=" in t][0],
)
def test_negative_vector_space_form_matches_equals_form(argv, capsys):
    # ``--weight -1,0,1`` must not be read as an unknown flag (exit 2).
    joined = equals_form(argv)
    assert joined != argv
    spaced = capture(argv) + (capsys.readouterr().err,)
    assert spaced == capture(joined) + (capsys.readouterr().err,)
    code, out, err = spaced
    assert code in (0, 1)
    assert out if code == 0 else "must be dominant" in err


def test_eta_series_rejects_max_rank_before_any_worker(monkeypatch, pool_requests, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, out = capture(["eta", "--series", "all", "--max-rank", "0", "--mode", "stalk"])
    assert code == 2 and out == ""
    assert pool_requests == []
    assert "argument --max-rank: '0' is not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--series", "all", "--max-rank", "-3"], "argument --max-rank: '-3' is not a positive integer"),
    (["--series", "all", "--max-rank", "two"], "argument --max-rank: 'two' is not a positive integer"),
    (["--type", "A", "--rank", "2", "--max-rank", "3"], "error: --max-rank needs --series all"),
    (["--type", "A", "--rank", "2", "--max-rank", "2"], "error: --max-rank needs --series all"),
], ids=["negative", "not-a-number", "without-series", "without-series-same-rank"])
@pytest.mark.parametrize("mode", ["analytic", "stalk"])
def test_eta_refuses_a_max_rank_it_cannot_honour(monkeypatch, pool_requests, capsys, argv,
                                                 message, mode):
    # A usage error (exit 2) before any row, never a silent single row.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert capture(["eta", *argv, "--mode", mode]) == (2, "")
    assert message in capsys.readouterr().err
    assert pool_requests == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["roots", "--type", "A", "--rank", "200"], "A200 has 40200 roots"),
        (["roots", "--type", "D", "--rank", "23"], "D23 has 1012 roots"),
        (["mult", "--type", "A", "--rank", "32", "--highest", "theta", "--weight", "zero"],
         "A32 has 1056 roots"),
        (["eta", "--type", "D", "--rank", "40"], "D40 has 3120 roots"),
        (["mult", "--type", "E", "--rank", "8", "--highest", "theta", "--weight", "zero"],
         "walks 696729600 orbit points"),
    ],
    ids=["roots-A200", "roots-D23", "mult-A32", "eta-D40", "mult-E8"],
)
def test_oversized_root_system_refused(argv, message, capsys):
    # The reflection closure of A200 would never finish; the refusal
    # comes from the closed-form root count.  E8 builds, but the Kostant
    # sum would walk its whole Weyl group; that refusal comes from the
    # closed-form group order.
    start = time.perf_counter()
    code, out = capture(argv)
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def tensor_argv(t, rank, lam, mu):
    return ["tensor-dim", "--type", t, "--rank", rank, "--lambda", lam, "--mu", mu,
            "--weight", "zero"]


def mult_argv(rank, highest):
    return ["mult", "--type", "A", "--rank", rank, "--highest", highest, "--weight", "zero"]


FREUDENTHAL_REFUSAL = (
    r"error: refusing: the weight tables of \[.*\] and \[.*\] take an estimated \d+ or more "
    r"Freudenthal steps; tensor-dim supports at most 1000000\n"
)


@pytest.mark.parametrize("argv,message", [
    # Unguarded, each of these runs for 8 s to over a minute.
    (tensor_argv("A", "1", "10000,-10000", "1,-1"), FREUDENTHAL_REFUSAL),
    (tensor_argv("A", "1", "3000,-3000", "1,-1"), FREUDENTHAL_REFUSAL),
    (tensor_argv("A", "2", "200,0,-200", "theta"), FREUDENTHAL_REFUSAL),
    (mult_argv("2", "1000,0,-1000"),
     r"error: refusing: the Kostant sum for \[1000, 0, -1000\] at \[0, 0, 0\] is estimated "
     r"at 6015012003 partition cells; mult supports at most 20000000\n"),
    (mult_argv("2", "300,0,-300"), r"error: refusing: .* estimated at 163353603 partition cells"),
], ids=["tensor-A1-10000theta", "tensor-A1-3000theta", "tensor-A2-200theta",
        "mult-A2-1000theta", "mult-A2-300theta"])
def test_oversized_weight_query_refused_up_front(monkeypatch, argv, message, capsys):
    def no_query(*args, **kwargs):
        raise AssertionError("the query ran")

    monkeypatch.setattr(cli, "tensor_weight_dim", no_query)
    monkeypatch.setattr(cli, "weight_multiplicity", no_query)
    start = time.perf_counter()
    code, out = capture(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert re.match(message, capsys.readouterr().err)


def test_tensor_dim_refuses_many_weights(capsys):
    # E8 omega4's weights are many and the slowest to enumerate; their
    # count stops once past the ceiling.
    start = time.perf_counter()
    code, out = capture(tensor_argv("E", "8", "omega4", "zero"))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert re.fullmatch(FREUDENTHAL_REFUSAL, capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    tensor_argv("A", "1", "1000,-1000", "1,-1"),
    tensor_argv("E", "6", "omega4", "omega4"),
    mult_argv("2", "100,0,-100"),
], ids=["tensor-A1-1000theta", "tensor-E6-omega4", "mult-A2-100theta"])
def test_weight_queries_below_the_ceilings_run(argv):
    assert capture(argv)[0] == 0


def per_weight_steps(rs, lam, mu):
    """The Freudenthal step estimate counted one weight at a time."""
    heights = [rsys.height_key(rs, a) for a in rs.positive_roots]
    steps = 0
    for top in (lam, mu):
        top_height = rsys.height_key(rs, top)
        for w in rsys.iter_weights(rs, top):
            steps += rs.rank
            if rsys.is_dominant(rs, w):
                steps += sum((top_height - rsys.height_key(rs, w)) // h for h in heights)
    return steps


@pytest.mark.parametrize("t,rank,lam,mu", [
    ("A", 2, "theta", "theta"),
    ("A", 3, "omega1", "3,1,0,-4"),
    ("D", 4, "2,0,0,0", "theta"),
    ("E", 6, "omega4", "theta"),
    ("E", 7, "theta", "omega7"),
])
def test_tensor_steps_match_a_per_weight_count(t, rank, lam, mu):
    rs = rsys.build(t, rank)
    lam, mu = rsys.resolve_coweight(rs, lam), rsys.resolve_coweight(rs, mu)
    totals = list(cli._tensor_steps(rs, lam, mu))
    assert totals == sorted(totals)
    assert totals[-1] == per_weight_steps(rs, lam, mu)


@pytest.mark.parametrize("mu,nu", [("omega1", "zero"), ("omega1*", "5,0,-5")])
def test_transition_at_a_non_weight_exits_1(mu, nu, capsys):
    code, out = capture(["transition", "--type", "A", "--rank", "2", "--lambda", "omega1",
                         "--mu", mu, "--weight", nu])
    assert code == 1 and out == ""
    assert "is not a weight of the tensor product" in capsys.readouterr().err


def test_oversized_root_system_refused_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "gkmfactor.cli", "roots", "--type", "A", "--rank", "200"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "40200 roots" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("max_rank,message", [("23", "D23 with 1012 roots"),
                                              ("1000000000", "roots; at most 1000")])
def test_eta_series_refuses_oversized_max_rank_before_any_build(
    monkeypatch, pool_requests, capsys, max_rank, message
):
    def no_build(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(rsys, "build", no_build)
    for mode in ("analytic", "stalk"):
        start = time.perf_counter()
        code, out = capture(["eta", "--series", "all", "--max-rank", max_rank, "--mode", mode])
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert message in capsys.readouterr().err
    assert pool_requests == []


def test_parser_built_once_per_process():
    # Importing the module builds no parser; the first request builds it
    # and every later one reuses it, a usage error among them.
    script = "\n".join([
        "import argparse, io",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    init(self, *args, **kwargs)",
        "    if self.prog == 'gkmfactor':",
        "        built.append(self)",
        "argparse.ArgumentParser.__init__ = counting",
        "from gkmfactor import cli",
        "counts = [len(built)]",
        "for argv in (['roots', '--type', 'A', '--rank', '1'], ['nonsense'],",
        "             ['eta', '--type', 'E', '--rank', '6']):",
        "    cli.run(argv, out=io.StringIO())",
        "    counts.append(len(built))",
        "print(counts)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1, 1, 1]\n"


def test_command_replaced_after_a_request_is_the_one_that_runs(monkeypatch):
    argv = ["tensor-dim", "--type", "A", "--rank", "1", "--lambda", "theta", "--mu", "theta",
            "--weight", "zero"]
    assert capture(argv) == (0, "tensor weight dimension: 3\n")
    seen = []

    def replaced(args, out):
        seen.append(args.lam)
        return 0

    monkeypatch.setattr(cli, "cmd_tensor_dim", replaced)
    assert capture(argv) == (0, "")
    assert seen == ["theta"]


def test_usage_error_after_reuse_exits_2(capsys):
    # No value of an earlier request carries over to a later one.
    assert capture(["eta", "--type", "E", "--rank", "7"])[0] == 0
    assert capture(["eta", "--type", "A"]) == (2, "")
    assert capture(["roots", "--type", "A", "--rank", "1", "--bogus"]) == (2, "")
    err = capsys.readouterr().err
    assert "eta needs either --series all or both --type and --rank" in err
    assert "unrecognized arguments: --bogus" in err
    assert capture(["roots", "--type", "A", "--rank", "1"])[0] == 0
