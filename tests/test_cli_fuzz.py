"""CLI fuzzing: every generated call ends in a documented exit code.

Coweights are names (``zero``, ``theta``, ``omega<k>``, ``omega<k>*``)
or coordinate vectors with entries in {-1, 0, 1}, some of the wrong
length, passed as ``--opt value`` or ``--opt=value``.  Each call must
exit 0, 1 or 2 with no traceback and no failed assertion on stderr,
within 10 s; the whole run takes under 30 s.

``mult`` on E6 is left out (its Kostant sum walks the 51,840-element
Weyl group, seconds per call).
The commands with a cell ceiling get a small one, so a column that runs
finishes in seconds; ``graph`` refuses a large truncation by itself.
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfactor.cli import run

SYSTEMS = {("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("D", 4): 4, ("E", 6): 8}


def coweights(t, rank):
    """Names and {-1, 0, 1} vectors; a vector sorted in decreasing order
    is dominant in type A, so some columns do run."""
    dim = SYSTEMS[(t, rank)]
    names = st.sampled_from(
        ["zero", "theta"] + [f"omega{k}{d}" for k in range(1, rank + 2) for d in ("", "*")]
    )
    vectors = st.sampled_from([dim, dim - 1, dim + 1]).flatmap(
        lambda n: st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)
    )
    return st.one_of(
        names,
        vectors.map(lambda v: ",".join(map(str, v))),
        vectors.map(lambda v: ",".join(map(str, sorted(v, reverse=True)))),
    )


@st.composite
def calls(draw):
    """``(command, [(option, value), ...], flags)`` for one system."""
    t, rank = draw(st.sampled_from(sorted(SYSTEMS)))
    cw = coweights(t, rank)
    commands = ["roots", "graph", "stalks", "mmatrix", "transition", "tensor-dim", "eta"]
    command = draw(st.sampled_from(commands + ([] if t == "E" else ["mult"])))
    opts = [("--type", t), ("--rank", str(rank))]
    cells = [("--max-cells", draw(st.sampled_from(["6000", "1"])))]
    json = draw(st.sampled_from([[], ["--json"]]))
    if command == "roots":
        return command, opts, json
    if command == "graph":
        fmt = draw(st.sampled_from(["dot", "json"]))
        return command, opts + [("--coweight", draw(cw)), ("--format", fmt)], []
    if command == "stalks":
        vertex = draw(st.one_of(st.just([]), cw.map(lambda v: [("--vertex", v)])))
        return command, opts + [("--coweight", draw(cw))] + vertex + cells, json
    if command == "mmatrix":
        return command, opts + [("--coweight", draw(cw))] + cells, json
    if command == "mult":
        q = draw(st.sampled_from([[], ["--q"]]))
        return command, opts + [("--highest", draw(cw)), ("--weight", draw(cw))], q + json
    triple = [("--lambda", draw(cw)), ("--mu", draw(cw)), ("--weight", draw(cw))]
    if command == "tensor-dim":
        return command, opts + triple, json
    if command == "transition":
        euler = ("--euler", draw(st.sampled_from(["unit", "symbolic"])))
        return command, opts + triple + [euler] + cells, json
    mode = ("--mode", draw(st.sampled_from(["analytic", "stalk"])))
    if draw(st.booleans()):
        return command, opts + [mode] + cells, json
    # The analytic series starts no worker process.
    series = [("--series", "all"), ("--max-rank", draw(st.sampled_from(["0", "1", "3"])))]
    return command, series, json + draw(st.sampled_from([[], ["--csv"]]))


def argv_of(command, opts, flags, joined):
    argv = [command]
    for (opt, value), join in zip(opts, joined):
        argv += [f"{opt}={value}"] if join else [opt, value]
    return argv + flags


@settings(max_examples=200)
@given(calls(), st.lists(st.booleans(), min_size=8, max_size=8))
def fuzz_cli(call, joined):
    argv = argv_of(*call, joined)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=io.StringIO())
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "AssertionError" not in err.getvalue(), (argv, err.getvalue())


def test_cli_fuzz():
    start = time.perf_counter()
    fuzz_cli()
    assert time.perf_counter() - start < 30
