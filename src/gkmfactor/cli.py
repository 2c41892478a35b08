"""Command line interface.

Output is deterministic byte for byte: every container is built in a
fixed order and every number is exact (integers, or rationals rendered
as ``p/q`` strings in JSON).  Exit codes: 0 success, 1 computation
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import rootsystem as rsys
from .efficiency import DEFAULT_CELL_CAP, adjoint_record, series_report
from .momentgraph import Truncation, build_graph, export_graph
from .stalks import estimated_cells, multiplicity_matrix, stalk_ranks
from .suites import SUITES, run_suite
from .transition import transition_bundle
from .weights import MAX_WEYL_ORDER, tensor_weight_dim, weight_multiplicity


def _exact(value):
    """Render ints as ints and rationals as exact strings for JSON."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"refusing to serialize {type(value).__name__} (floats are banned)")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _rs(args):
    return rsys.build(args.type, args.rank)


def _guard_cells(tr, args):
    """Refuse before any graph is built when a column would be too large.

    A dominant class below ``tr.lam`` has a subset of its vertices and a
    degree bound no larger, so guarding ``tr`` guards every class under it.
    """
    cap = args.max_cells
    cells, bound, exact = estimated_cells(tr, cap)
    if cells > cap:
        raise SystemSizeError(
            f"refusing: estimated {'' if exact else 'at least '}{cells} "
            f"coefficient cells at degree bound {bound} for the "
            f"{tr.rs.type_label}{tr.rs.rank} truncation at {list(tr.lam)} "
            f"exceeds --max-cells {cap}"
        )


# The most vertices ``graph`` accepts.  What still grows with them is the
# edge count, up to V(V-1)/2 when the weights form one root string, and
# the V^2 ``order`` field of the JSON export.  At the ceiling, A1
# 249theta (499 vertices, 124,251 edges) exports 15.7 MB of JSON in
# 3-4 s; E8 theta, D5 2theta and A2 12theta take 0.6-1.0 s.  E6 omega4
# (1,063 vertices, 22 MB of JSON) is refused (2-vCPU VM, Python 3.11.7).
MAX_GRAPH_VERTICES = 500


def _guard_graph(tr):
    """Refuse before building a graph with too many vertices; they are
    counted one Weyl orbit at a time, only until the ceiling is passed."""
    count = 0
    for mu in rsys.iter_dominant_weights(tr.rs, tr.lam):
        count += rsys.orbit_size(tr.rs, mu)
        if count > MAX_GRAPH_VERTICES:
            raise SystemSizeError(
                f"refusing: the {tr.rs.type_label}{tr.rs.rank} truncation at "
                f"{list(tr.lam)} has more than {MAX_GRAPH_VERTICES} vertices; "
                f"graph supports at most {MAX_GRAPH_VERTICES}"
            )


class SystemSizeError(RuntimeError):
    pass


# The most estimated steps ``tensor-dim`` accepts for its two Freudenthal
# tables.  A weight counts 5 * rank steps (its orbit's reflections), and
# each dominant weight mu adds how far every alpha-string above it can
# climb, ht(lam - mu) // ht(alpha).  A step took 1-2.5 us: E7 omega4
# with theta (0.87 million steps) took 0.8 s (0.2 s since each orbit
# point is walked once) and A1 1000theta (0.51 million) 0.8 s; A2
# 200theta (9.6 million) took 13.5 s, A1 2000theta (2.0 million) 4.7 s
# and E6 5theta (3.4 million) 3.5 s.  The count walks only the dominant
# weights and takes each orbit's size from rootsystem.orbit_size,
# stopping once past the ceiling: 8 ms for E7 omega4 with theta and
# under 1 ms to refuse E8 omega4 (2-vCPU VM, Python 3.11.7).
MAX_FREUDENTHAL_STEPS = 1_000_000

# The most partition cells ``mult`` accepts: positive roots times the
# lattice points below lam - nu times the height of lam - nu plus one,
# which bounds the Kostant memo.  A cell takes 0.04-0.12 us: D5 5theta
# at zero (18.8 million cells) takes 2.2 s and A3 30theta (16 million)
# 0.7 s; A2 300theta (163 million) took 9.3 s, E6 3theta (67 million)
# 6.9 s and D5 8theta (240 million) 19 s.  The Weyl orbit walk comes on
# top, bounded by weights.MAX_WEYL_ORDER: 2-3 s on E6 and A7 (2-vCPU VM,
# Python 3.11.7).
MAX_KOSTANT_CELLS = 20_000_000


def _tensor_steps(rs, lam, mu):
    """Running totals of the estimated Freudenthal steps of the weight
    tables of ``lam`` and ``mu``, one total per dominant weight: its
    whole orbit counted at once through :func:`rootsystem.orbit_size`."""
    heights = [rsys.height_key(rs, a) for a in rs.positive_roots]
    steps = 0
    for top in (lam, mu):
        top_height = rsys.height_key(rs, top)
        for w in rsys.iter_dominant_weights(rs, top):
            steps += 5 * rs.rank * rsys.orbit_size(rs, w)
            steps += sum((top_height - rsys.height_key(rs, w)) // h for h in heights)
            yield steps


def _guard_tensor(rs, lam, mu):
    """Refuse before either weight table is built when the two together
    take more than :data:`MAX_FREUDENTHAL_STEPS`; the steps are counted
    only until the ceiling is passed."""
    for steps in _tensor_steps(rs, lam, mu):
        if steps > MAX_FREUDENTHAL_STEPS:
            raise SystemSizeError(
                f"refusing: the weight tables of {list(lam)} and {list(mu)} take an "
                f"estimated {steps} or more Freudenthal steps; tensor-dim supports "
                f"at most {MAX_FREUDENTHAL_STEPS}"
            )


def _guard_kostant(rs, lam, nu):
    """Refuse before the Kostant sum when its partition memo could exceed
    :data:`MAX_KOSTANT_CELLS`.  Every argument of the sum is below
    ``lam - nu`` (nu taken dominant), so its lattice points bound them all."""
    order = rsys.weyl_group_order(rs.type_label, rs.rank)
    if order > MAX_WEYL_ORDER or not rsys.is_dominant(rs, lam):
        return  # weight_multiplicity refuses it
    nu = rsys.dominant_representative(rs, nu)
    c = rsys.simple_coefficients(rs, tuple(a - b for a, b in zip(lam, nu)))
    if c is None or min(c) < 0:
        return  # every term is zero
    cells = len(rs.positive_roots) * math.prod(x + 1 for x in c) * (sum(c) + 1)
    if cells > MAX_KOSTANT_CELLS:
        raise SystemSizeError(
            f"refusing: the Kostant sum for {list(lam)} at {list(nu)} is estimated at "
            f"{cells} partition cells; mult supports at most {MAX_KOSTANT_CELLS}"
        )


def cmd_roots(args, out):
    rs = _rs(args)
    if args.json:
        payload = {
            "type": rs.type_label,
            "rank": rs.rank,
            "num_roots": rs.num_roots,
            "highest_root": list(rs.highest_root),
            "cartan_matrix": [list(row) for row in rs.cartan_matrix],
        }
        out.write(_dump(payload))
    else:
        out.write(f"type {rs.type_label}{rs.rank}: rank={rs.rank}, |Phi|={rs.num_roots}\n")
        out.write(f"highest root: {list(rs.highest_root)}\n")
        out.write("cartan matrix:\n")
        for row in rs.cartan_matrix:
            out.write("  " + " ".join(f"{c:3d}" for c in row) + "\n")
    return 0


def cmd_mult(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.highest)
    nu = rsys.resolve_coweight(rs, args.weight)
    _guard_kostant(rs, lam, nu)
    if args.q:
        poly = weight_multiplicity(lam, nu, rs, q_graded=True)
        if args.json:
            out.write(_dump({
                "highest": list(lam),
                "weight": list(nu),
                "q_coefficients": list(poly.coeffs),
                "at_one": poly.at_one(),
            }))
        else:
            out.write(f"graded multiplicity: {poly} (at q=1: {poly.at_one()})\n")
    else:
        m = weight_multiplicity(lam, nu, rs)
        if args.json:
            out.write(_dump({"highest": list(lam), "weight": list(nu), "multiplicity": m}))
        else:
            out.write(f"multiplicity: {m}\n")
    return 0


def cmd_tensor_dim(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.lam)
    mu = rsys.resolve_coweight(rs, args.mu)
    nu = rsys.resolve_coweight(rs, args.weight)
    _guard_tensor(rs, lam, mu)
    dim = tensor_weight_dim(lam, mu, nu, rs)
    if args.json:
        out.write(_dump({
            "lambda": list(lam), "mu": list(mu), "weight": list(nu), "dimension": dim,
        }))
    else:
        out.write(f"tensor weight dimension: {dim}\n")
    return 0


def cmd_graph(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.coweight)
    tr = Truncation(rs, lam)
    _guard_graph(tr)
    g = build_graph(tr)
    out.write(export_graph(g, args.format))
    return 0


def cmd_stalks(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.coweight)
    tr = Truncation(rs, lam)
    _guard_cells(tr, args)
    result = stalk_ranks(tr)
    if args.vertex:
        v = rsys.resolve_coweight(rs, args.vertex)
        if v not in result.ranks:
            raise ValueError(f"{list(v)} is not a fixed point of this truncation")
        vertices = [v]
    else:
        vertices = list(result.graph.vertices)
    if args.json:
        payload = {
            "type": rs.type_label,
            "rank": rs.rank,
            "coweight": list(lam),
            "degree_bound": result.degree_bound,
            "stalks": [
                {
                    "vertex": list(v),
                    "rank": result.ranks[tuple(v)],
                    "generator_degrees": list(result.profiles[tuple(v)]),
                }
                for v in vertices
            ],
        }
        out.write(_dump(payload))
    else:
        out.write(f"degree bound {result.degree_bound}\n")
        for v in vertices:
            prof = ",".join(str(d) for d in result.profiles[tuple(v)])
            out.write(f"{list(v)}: rank {result.ranks[tuple(v)]} (degrees {prof})\n")
    return 0


def cmd_mmatrix(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.coweight)
    tr = Truncation(rs, lam)
    _guard_cells(tr, args)
    m = multiplicity_matrix(tr)
    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "coweight": list(lam),
        "rows": [list(v) for v in m.row_coweights],
        "cols": [list(v) for v in m.col_coweights],
        "entries": [list(row) for row in m.entries],
    }
    if args.json:
        out.write(_dump(payload))
    else:
        out.write("rows (dominant classes): " + "; ".join(str(list(v)) for v in m.row_coweights) + "\n")
        for v, row in zip(m.row_coweights, m.entries):
            out.write(f"{list(v)}: {list(row)}\n")
    return 0


def cmd_transition(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.lam)
    mu = rsys.resolve_coweight(rs, args.mu)
    nu = rsys.resolve_coweight(rs, args.weight)
    total = tuple(a + b for a, b in zip(lam, mu))
    _guard_cells(Truncation(rs, total), args)
    bundle = transition_bundle(rs, lam, mu, nu, euler=args.euler)
    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "lambda": list(lam),
        "mu": list(mu),
        "weight": list(nu),
        "rows": [list(v) for v in bundle.row_classes],
        "P": [1] * len(bundle.row_classes),
        "M_block": [list(row) for row in bundle.m_block],
        "A_block": {
            "rows": [list(nu)],
            "pairs": [f"{list(s)}#{i}|{list(t)}#{j}" for s, i, t, j in bundle.pairs],
            "entries": [list(bundle.a_row)],
        },
        "Q": "unit" if bundle.q_factors is None else [
            " * ".join("(" + ",".join(map(str, f)) + ")" for f in fs) or "1"
            for fs in bundle.q_factors
        ],
        "C_block": [list(row) for row in bundle.c_block],
        "checks": {c.name: {"ok": c.ok, "detail": c.detail} for c in bundle.checks},
        "rank_C": bundle.c_rank(),
        "rank_M": bundle.m_rank(),
    }
    if args.json:
        out.write(_dump(payload))
    else:
        out.write(f"rows: {[list(v) for v in bundle.row_classes]}\n")
        out.write(f"M block: {[list(r) for r in bundle.m_block]}\n")
        out.write(f"A row: {[list(bundle.a_row)]}\n")
        out.write(f"C block: {[[str(x) for x in row] for row in bundle.c_block]}\n")
        for c in bundle.checks:
            out.write(f"check {c.name}: {'ok' if c.ok else 'FAIL'} ({c.detail})\n")
    return 0 if all(c.ok for c in bundle.checks) else 1


def cmd_eta(args, out):
    if args.series:
        report = series_report(args.max_rank, mode=args.mode, cell_cap=args.max_cells)
        header = ["system", "roots", "geometric", "combinatorial", "eta", "bound", "source"]
        if args.json:
            payload = {
                "records": [
                    {
                        "system": f"{r.type_label}{r.rank}",
                        "num_roots": r.num_roots,
                        "geometric_rank": r.geometric_rank,
                        "combinatorial_dim": r.combinatorial_dim,
                        "eta": _exact(r.eta),
                        "bound": _exact(r.bound),
                        "source": r.numerator_source,
                    }
                    for r in report.records
                ],
                "a_strictly_decreasing": report.a_strictly_decreasing,
                "d_strictly_decreasing": report.d_strictly_decreasing,
                "e_strictly_decreasing": report.e_strictly_decreasing,
            }
            out.write(_dump(payload))
        elif args.csv:
            out.write(",".join(header) + "\n")
            for r in report.records:
                out.write(",".join(str(x) for x in r.row()) + "\n")
        else:
            for r in report.records:
                out.write(
                    f"{r.type_label}{r.rank}: eta={r.eta} bound={r.bound} ({r.numerator_source})\n"
                )
            out.write(
                "strictly decreasing: "
                f"A={report.a_strictly_decreasing} D={report.d_strictly_decreasing} "
                f"E={report.e_strictly_decreasing}\n"
            )
        return 0 if report.ok else 1
    record = adjoint_record(args.type, args.rank, mode=args.mode, cell_cap=args.max_cells)
    if args.json:
        out.write(_dump({
            "system": f"{record.type_label}{record.rank}",
            "eta": _exact(record.eta),
            "bound": _exact(record.bound),
            "geometric_rank": record.geometric_rank,
            "combinatorial_dim": record.combinatorial_dim,
            "source": record.numerator_source,
        }))
    else:
        out.write(
            f"{record.type_label}{record.rank}: eta={record.eta} bound={record.bound} "
            f"({record.numerator_source})\n"
        )
    return 0


def cmd_verify(args, out):
    checks = run_suite(args.suite)
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        out.write(f"{status} {c.name}: expected={c.expected} actual={c.actual}\n")
        failed += 0 if c.ok else 1
    out.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`run` in the process, so it must not be modified.

    It holds no functions: :func:`run` looks up ``cmd_<command>`` in this
    module when it dispatches, so a replaced command function takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="gkmfactor",
        description=(
            "exact moment graphs, canonical-sheaf stalk ranks, transition "
            "blocks and efficiency bounds for simply-laced root systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_rank(p):
        p.add_argument("--type", required=True, choices=["A", "D", "E"])
        p.add_argument("--rank", required=True, type=int)

    def add_cells(p):
        p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP,
                       help="refuse systems whose estimated coefficient cells exceed this")

    p = sub.add_parser("roots", help="root datum summary")
    add_type_rank(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mult", help="weight multiplicity (plain or graded)")
    add_type_rank(p)
    p.add_argument("--highest", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--q", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tensor-dim", help="tensor-product weight space dimension")
    add_type_rank(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("graph", help="moment graph of a truncation")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--format", required=True, choices=["dot", "json"])

    p = sub.add_parser("stalks", help="canonical-sheaf stalk ranks")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--json", action="store_true")
    add_cells(p)

    p = sub.add_parser("mmatrix", help="multiplicity matrix of a truncation")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--json", action="store_true")
    add_cells(p)

    p = sub.add_parser("transition", help="one weight block of the factored transition matrix")
    add_type_rank(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--euler", default="unit", choices=["unit", "symbolic"])
    p.add_argument("--json", action="store_true")
    add_cells(p)

    p = sub.add_parser("eta", help="geometric efficiency and universal bounds")
    p.add_argument("--series", choices=["all"], default=None)
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--type", choices=["A", "D", "E"])
    p.add_argument("--rank", type=int)
    p.add_argument("--mode", default="analytic", choices=["analytic", "stalk"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))

    return parser


# Options that take a coweight, which may be a coordinate vector.
_COORDINATE_OPTIONS = frozenset(
    {"--weight", "--vertex", "--coweight", "--highest", "--lambda", "--mu"}
)
_NEGATIVE_VECTOR = re.compile(r"-\d+(,-?\d+)*")


def _attach_negative_vectors(argv) -> list:
    """Rewrite ``--weight -1,0,1`` as ``--weight=-1,0,1``.

    argparse reads a separate value with a leading minus as an option, so
    a coordinate vector such as ``-1,0,1`` is attached to its option.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _COORDINATE_OPTIONS and _NEGATIVE_VECTOR.fullmatch(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_vectors(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "eta" and not args.series and (args.type is None or args.rank is None):
        sys.stderr.write("error: eta needs either --series all or both --type and --rank\n")
        return 2
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, out)
    except rsys.UnsupportedRootSystem as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, KeyError, SystemSizeError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (AssertionError, MemoryError) as exc:
        # A broken internal invariant or an exhausted heap.
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
