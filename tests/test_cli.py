"""Command line behavior: determinism, exact JSON, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from gkmfactor import cli
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


def test_threads_flag_accepted():
    code, out = capture(["--threads", "2", "eta", "--series", "all", "--max-rank", "3", "--csv"])
    assert code == 0
    _, seq = capture(["eta", "--series", "all", "--max-rank", "3", "--csv"])
    assert out == seq


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

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return requested


@pytest.mark.parametrize(
    "threads,cpus,workers",
    # --max-rank 2 gives 5 series rows: A1, A2, E6, E7, E8.
    [(100000, 4, [4]), (100000, 64, [5]), (3, 64, [3]), (100000, None, [])],
)
def test_eta_series_worker_count_capped(monkeypatch, pool_requests, threads, cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ["eta", "--series", "all", "--max-rank", "2", "--csv"]
    code, out = capture(["--threads", str(threads)] + argv)
    assert code == 0
    assert pool_requests == workers
    assert out == capture(argv)[1]


def test_eta_series_env_thread_count_capped(monkeypatch, pool_requests):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("GKMFACTOR_THREADS", "100000")
    assert capture(["eta", "--series", "all", "--max-rank", "2"])[0] == 0
    assert pool_requests == [2]


def test_bad_threads_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GKMFACTOR_THREADS", "abc")
    code, out = capture(["roots", "--type", "A", "--rank", "1"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid int value: 'abc'" in err


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
