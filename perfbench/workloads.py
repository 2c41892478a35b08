"""Seeded job lists and independent output checks for the workloads.

Every workload is a closed loop with one client: the next job starts
when the previous one has returned.  A job is one top-level public call
or one ``cli.run`` invocation, written as a JSON list:

* ``["column", type, rank, lam]``: ``stalk_ranks`` of a truncation;
* ``["mult", type, rank, lam, nu, q_graded]``: ``weight_multiplicity``;
* ``["tensor", type, rank, lam, mu, nu]``: ``tensor_weight_dim``;
* ``["table", type, rank, lam]``: ``freudenthal_weight_table``;
* ``["cli", argv]``: ``cli.run(argv)`` with output captured in memory;
* ``["import", text]``: ``import_graph`` of a JSON graph export.

The seed chooses only inputs, never the mix: each workload has a fixed
number of jobs of every kind and system, so the cost of a run barely
depends on the seed.  Jobs are generated here, in the benchmark's
process; the measured process receives only the generated inputs.

Negative coordinates go to the CLI as ``--weight=-1,0,1``: the plain
``--weight -1,0,1`` form is read by argparse as a flag and exits 2, a
known CLI defect.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from gkmfactor import cli, momentgraph, stalks, weights
from gkmfactor import rootsystem as rsys

WORKLOADS = ("adjoint-columns", "weight-queries", "cli-session")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Small representations queried by weight-queries, by coweight name.
SMALL_REPS = ("theta", "omega1", "2omega1", "omega2")

# adjoint-columns: cold stalk columns, none slower than about 2 s, so a
# run times the whole list several times.  The D4 adjoint column is left
# out: one cold D4 column takes 15-22 s, so a run could time it once.
COLUMNS = (
    ("A", 3, "theta"), ("A", 4, "theta"), ("A", 2, "2theta"),
    ("A", 3, "2omega1"), ("A", 4, "2omega1"), ("A", 4, "omega2"),
)

# weight-queries: per system, (plain = q-graded multiplicity jobs,
# tensor jobs, table jobs).  With 200 jobs, the median falls inside the
# A4/D4 Kostant queries and the 90th percentile below the eight A5/D5
# queries, so neither sits on the edge between two cost classes.
WEIGHT_MIX = {
    ("A", 3): (5, 6, 6),
    ("A", 4): (30, 6, 6),
    ("D", 4): (31, 6, 6),
    ("A", 5): (2, 6, 6),
    ("D", 5): (2, 6, 6),
}

# The sl3 zero-weight transition block, checked by value in every session.
SL3_BLOCK = [
    "transition", "--type", "A", "--rank", "2", "--lambda", "omega1",
    "--mu", "omega1*", "--weight=0,0,0", "--json",
]

ROOT_SYSTEMS = (
    [("A", l) for l in range(1, 9)] + [("D", l) for l in range(3, 9)]
    + [("E", l) for l in (6, 7, 8)]
)


def _coords(v):
    return ",".join(str(x) for x in v)


def coweight(rs, name):
    """``resolve_coweight``, plus doubled names such as ``2theta``."""
    if name.startswith("2"):
        return tuple(2 * x for x in rsys.resolve_coweight(rs, name[1:]))
    return rsys.resolve_coweight(rs, name)


def _draw(rng, items, count):
    """``count`` items, each as often as any other up to one, in seeded order."""
    out = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def adjoint_jobs():
    return [["column", t, l, list(coweight(rsys.build(t, l), name))] for t, l, name in COLUMNS]


def weight_jobs(rng):
    jobs = []
    for (t, l), (mults, tensors, tables) in WEIGHT_MIX.items():
        rs = rsys.build(t, l)
        lams = [coweight(rs, name) for name in SMALL_REPS]
        for q in (False, True):
            for i in range(mults):
                lam = lams[i % len(lams)]
                nu = rng.choice(rsys.dominant_weights_of(rs, lam))
                jobs.append(["mult", t, l, list(lam), list(nu), q])
        for i in range(tensors):
            lam, mu = lams[i % len(lams)], rng.choice(lams)
            total = tuple(a + b for a, b in zip(lam, mu))
            nu = rng.choice(rsys.dominant_weights_of(rs, total))
            jobs.append(["tensor", t, l, list(lam), list(mu), list(nu)])
        for i in range(tables):
            jobs.append(["table", t, l, list(lams[i % len(lams)])])
    rng.shuffle(jobs)
    return jobs


def _cli(*argv):
    """Text and JSON variants of one request."""
    return [list(argv), list(argv) + ["--json"]]


def graph_exports():
    """JSON exports of the graphs the session imports."""
    out = []
    for t, l in (("E", 6), ("D", 5)):
        rs = rsys.build(t, l)
        g = momentgraph.build_graph(momentgraph.Truncation(rs, rs.highest_root))
        out.append(momentgraph.export_graph(g, "json"))
    return out


def cli_strata():
    """(items, count) per request kind; an item is a list of argv variants.

    Column-cache hits (``stalks --vertex``) are the largest kind, so the
    session's median latency falls among them.
    """
    a2 = rsys.build("A", 2)
    a3 = rsys.build("A", 3)
    roots = [_cli("roots", "--type", t, "--rank", str(l)) for t, l in ROOT_SYSTEMS]
    graphs = [
        [["graph", "--type", t, "--rank", str(l), "--coweight", "theta", "--format", f]]
        for t, l in (("E", 6), ("D", 5)) for f in ("dot", "json")
    ]
    transitions = []
    for lam, mu, total in (("omega1", "omega1*", "theta"), ("theta", "theta", "2theta")):
        for nu in rsys.weights_of(a2, coweight(a2, total)):
            argv = ["transition", "--type", "A", "--rank", "2", "--lambda", lam,
                    "--mu", mu, f"--weight={_coords(nu)}"]
            transitions.append([SL3_BLOCK] if argv + ["--json"] == SL3_BLOCK else _cli(*argv))
    mmatrix = [
        [v] for c in ("theta", _coords(coweight(a2, "2theta")))
        for v in _cli("mmatrix", "--type", "A", "--rank", "2", f"--coweight={c}")
    ]
    stalks = []
    for rs, lam in ((a2, a2.highest_root), (a3, a3.highest_root), (a2, coweight(a2, "2theta"))):
        for v in rsys.weights_of(rs, lam):
            stalks.append(_cli("stalks", "--type", "A", "--rank", str(rs.rank),
                               f"--coweight={_coords(lam)}", f"--vertex={_coords(v)}"))
    eta = [[["eta", "--series", "all"] + f] for f in ([], ["--json"], ["--csv"])]
    verify = [[["verify", "--suite", s]] for s in ("sl3", "eta-tables", "properties")]
    return [
        (roots, 2 * len(roots)),
        (graphs, 8),
        (transitions, len(transitions)),
        (mmatrix, len(mmatrix)),
        (stalks, 40),
        (eta, 6),
        (verify, 6),
    ]


def cli_jobs(rng):
    jobs = []
    for items, count in cli_strata():
        jobs += [["cli", rng.choice(item)] for item in _draw(rng, items, count)]
    jobs += [["import", text] for text in _draw(rng, graph_exports(), 4)]
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload, seed):
    rng = random.Random(seed)
    if workload == "adjoint-columns":
        return adjoint_jobs()
    if workload == "weight-queries":
        return weight_jobs(rng)
    if workload == "cli-session":
        return cli_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def systems_of(jobs):
    """``[type, rank]`` of the systems named by the jobs, built during set-up."""
    found = set()
    for job in jobs:
        if job[0] == "cli":
            argv = job[1]
            if "--type" in argv:
                found.add((argv[argv.index("--type") + 1], int(argv[argv.index("--rank") + 1])))
        elif job[0] != "import":
            found.add((job[1], job[2]))
    return sorted([t, l] for t, l in found)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def column_key(t, l, lam):
    return f"{t}{l} {_coords(lam)}"


def weyl_dimension(rs, lam):
    """Weyl's dimension formula; independent of both multiplicity routes."""
    two_rho = rs.two_rho
    dim = Fraction(1)
    for a in rs.positive_roots:
        num = sum((2 * x + r) * y for x, r, y in zip(lam, two_rho, a))
        dim *= Fraction(num, sum(r * y for r, y in zip(two_rho, a)))
    return dim


class Checker:
    """Compares job outputs with references computed by another route.

    References are computed once per run and cached here; nothing is
    cached inside the measured process.
    """

    def __init__(self):
        self.expected = json.loads(EXPECTED_PATH.read_text())
        self._systems = {}
        self._tables = {}
        self._kostant = {}

    def _rs(self, t, l):
        if (t, l) not in self._systems:
            self._systems[(t, l)] = rsys.build(t, l)
        return self._systems[(t, l)]

    def table(self, t, l, lam):
        """Freudenthal table, itself checked against Weyl's dimension formula."""
        key = (t, l, tuple(lam))
        if key not in self._tables:
            rs = self._rs(t, l)
            table = weights.freudenthal_weight_table(tuple(lam), rs)
            if sum(table.values()) != weyl_dimension(rs, lam):
                raise AssertionError(f"reference table of {key} fails Weyl's dimension formula")
            self._tables[key] = table
        return self._tables[key]

    def kostant(self, t, l, lam, v):
        key = (t, l, tuple(lam), tuple(v))
        if key not in self._kostant:
            self._kostant[key] = weights.weight_multiplicity(tuple(lam), tuple(v), self._rs(t, l))
        return self._kostant[key]

    def __call__(self, job, out):
        """None when the output is right, else the reason it is wrong."""
        if isinstance(out, dict) and "error" in out:
            return out["error"]
        return getattr(self, "_" + job[0])(job, out)

    def _mult(self, job, out):
        _, t, l, lam, nu, q = job
        want = self.table(t, l, lam).get(tuple(nu), 0)
        if q:
            if any(not isinstance(c, int) or c < 0 for c in out):
                return f"q-graded coefficients {out} are not non-negative integers"
            got = sum(out)
        else:
            got = out
        if got != want:
            return f"multiplicity {got}, Freudenthal gives {want}"
        return None

    def _tensor(self, job, out):
        _, t, l, lam, mu, nu = job
        ta, tb = self.table(t, l, lam), self.table(t, l, mu)
        want = sum(m * tb.get(tuple(n - s for n, s in zip(nu, sigma)), 0) for sigma, m in ta.items())
        return None if out == want else f"tensor dimension {out}, expected {want}"

    def _table(self, job, out):
        _, t, l, lam = job
        got = {tuple(v): m for v, m in out}
        if got != self.table(t, l, lam):
            return "weight table differs from the reference Freudenthal table"
        return None

    def _column(self, job, out):
        _, t, l, lam = job
        rs = self._rs(t, l)
        ranks = {tuple(v): r for v, r in out["ranks"]}
        if set(ranks) != set(rsys.weights_of(rs, tuple(lam))):
            return "vertex set differs from the weights of the truncation coweight"
        if tuple(lam) == rs.highest_root and ranks[rsys.zero_vec(rs)] != rs.rank:
            return f"adjoint origin rank {ranks[rsys.zero_vec(rs)]}, Cartan rank {rs.rank}"
        for v, r in sorted(ranks.items()):
            if r != self.kostant(t, l, lam, v):
                return f"stalk rank {r} at {v}, weight multiplicity {self.kostant(t, l, lam, v)}"
        want = self.expected["profiles"][column_key(t, l, lam)]
        if digest(json.dumps(out["profiles"])) != want:
            return "generator profiles differ from the recorded ones"
        return None

    def _import(self, job, out):
        src = json.loads(job[1])
        for key in ("type", "rank", "coweight", "vertices", "edges"):
            if out[key] != src[key]:
                return f"imported graph differs from the export in {key!r}"
        return None

    def _cli(self, job, out):
        argv = job[1]
        want = self.expected["cli"].get(" ".join(argv))
        if want is None:
            return "no recorded output for this request"
        if out["exit"] != want["exit"]:
            return f"exit code {out['exit']}, recorded {want['exit']}: {out['stderr'].strip()}"
        if digest(out["stdout"]) != want["sha256"]:
            return "output differs from the recorded bytes"
        return self._cli_values(argv, out["stdout"])

    @staticmethod
    def _cli_values(argv, text):
        """Value checks that do not rest on the recorded bytes."""
        if argv[0] == "verify":
            lines = text.splitlines()
            n = len(lines) - 1
            if n < 1 or any(not x.startswith("PASS ") for x in lines[:-1]):
                return "a verify check did not pass"
            if lines[-1] != f"{n}/{n} checks passed":
                return f"verify summary {lines[-1]!r}"
        if argv == SL3_BLOCK and json.loads(text)["C_block"] != [[2, 2, 2], [1, 1, 1]]:
            return "sl3 zero-weight block is not [[2,2,2],[1,1,1]]"
        if argv[0] == "eta" and "--json" in argv:
            bounds = {r["system"]: Fraction(r["bound"]) for r in json.loads(text)["records"]}
            e = [bounds["E6"], bounds["E7"], bounds["E8"]]
            if e != [Fraction(1, 18), Fraction(1, 25), Fraction(1, 38)] or not e[0] > e[1] > e[2]:
                return f"E-series eta bounds {e}"
        return None


def record():
    """Outputs of every request the CLI session can draw, and the generator
    profiles of the adjoint columns, as digests."""
    expected = {"cli": {}, "profiles": {}}
    for items, _ in cli_strata():
        for item in items:
            for argv in item:
                out = io.StringIO()
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(argv, out)
                expected["cli"][" ".join(argv)] = {"exit": code, "sha256": digest(out.getvalue())}
    for _, t, l, lam in adjoint_jobs():
        result = stalks.stalk_ranks(momentgraph.Truncation(rsys.build(t, l), tuple(lam)))
        profiles = sorted([list(v), list(p)] for v, p in result.profiles.items())
        expected["profiles"][column_key(t, l, lam)] = digest(json.dumps(profiles))
    return expected
