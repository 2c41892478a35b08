"""Command line interface.

Output is deterministic byte for byte: every container is built in a
fixed order and every number is exact (integers, or rationals rendered
as ``p/q`` strings in JSON).  Exit codes: 0 success, 1 computation
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import rootsystem as rsys
from .efficiency import (
    DEFAULT_CELL_CAP,
    adjoint_record,
    eta_graph,
    eta_rep,
    series_report,
)
from .momentgraph import Truncation, build_graph, export_graph
from .stalks import (
    default_degree_bound,
    estimated_cells,
    multiplicity_matrix,
    stalk_ranks,
)
from .suites import SUITES, run_suite
from .transition import transition_bundle
from .weights import tensor_weight_dim, weight_multiplicity


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


def _guard_cells(graphs, args):
    cap = args.max_cells
    for g in graphs:
        cells, bound = estimated_cells(g, getattr(args, "degree_bound", None))
        if cells > cap:
            raise SystemSizeError(
                f"refusing: estimated {cells} coefficient cells at degree bound "
                f"{bound} for {g!r} exceeds --max-cells {cap}"
            )


class SystemSizeError(RuntimeError):
    pass


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
    g = build_graph(Truncation(rs, lam))
    out.write(export_graph(g, args.format))
    return 0


def cmd_stalks(args, out):
    rs = _rs(args)
    lam = rsys.resolve_coweight(rs, args.coweight)
    g = build_graph(Truncation(rs, lam))
    _guard_cells([g], args)
    result = stalk_ranks(Truncation(rs, lam), D=args.degree_bound)
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
    g = build_graph(Truncation(rs, lam))
    _guard_cells([g], args)
    m = multiplicity_matrix(Truncation(rs, lam), D=args.degree_bound)
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
    graphs = [build_graph(Truncation(rs, v)) for v in
              {a for a in Truncation(rs, total).vertex_set() if rsys.is_dominant(rs, a)}]
    _guard_cells(graphs, args)
    bundle = transition_bundle(rs, lam, mu, nu, D=args.degree_bound, euler=args.euler)
    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "lambda": list(lam),
        "mu": list(mu),
        "weight": list(nu),
        "rows": [list(v) for v in bundle.row_classes],
        "P": [_exact(x) for x in bundle.p_diag],
        "M_block": [list(row) for row in bundle.m_block],
        "A_block": {
            "rows": [list(v) for v in bundle.spec_index],
            "pairs": bundle.a.pairs.labels(),
            "entries": [list(row) for row in bundle.a.entries],
        },
        "Q": "unit" if bundle.q.is_unit else bundle.q.entry_strings(),
        "C_block": [[_exact(x) for x in row] for row in bundle.c_block],
        "checks": {c.name: {"ok": c.ok, "detail": c.detail} for c in bundle.checks},
        "rank_C": bundle.c_rank(),
        "rank_M": bundle.m_rank(),
    }
    if args.json:
        out.write(_dump(payload))
    else:
        out.write(f"rows: {[list(v) for v in bundle.row_classes]}\n")
        out.write(f"M block: {[list(r) for r in bundle.m_block]}\n")
        out.write(f"A row: {[list(r) for r in bundle.a.entries]}\n")
        out.write(f"C block: {[[str(_exact(x)) for x in row] for row in bundle.c_block]}\n")
        for c in bundle.checks:
            out.write(f"check {c.name}: {'ok' if c.ok else 'FAIL'} ({c.detail})\n")
    return 0 if all(c.ok for c in bundle.checks) else 1


def cmd_eta(args, out):
    if args.series:
        report = _eta_series(args)
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
                out.write(
                    ",".join(
                        str(x)
                        for x in [
                            f"{r.type_label}{r.rank}",
                            r.num_roots,
                            r.geometric_rank,
                            r.combinatorial_dim,
                            r.eta,
                            r.bound,
                            r.numerator_source,
                        ]
                    )
                    + "\n"
                )
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


def _eta_series(args):
    specs = [("A", l) for l in range(1, args.max_rank + 1)]
    specs += [("D", l) for l in range(3, args.max_rank + 1)]
    specs += [("E", 6), ("E", 7), ("E", 8)]
    # More workers than cores or rows only adds processes.
    workers = min(args.threads, os.cpu_count() or 1, len(specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(
                    _series_worker,
                    [(t, r, args.mode, args.max_cells) for t, r in specs],
                )
            )
        return series_report(args.max_rank, rows=rows)
    return series_report(args.max_rank, mode=args.mode, cell_cap=args.max_cells)


def _series_worker(spec):
    t, r, mode, cap = spec
    return adjoint_record(t, r, mode=mode, cell_cap=cap)


def cmd_verify(args, out):
    checks = run_suite(args.suite)
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        out.write(f"{status} {c.name}: expected={c.expected} actual={c.actual}\n")
        failed += 0 if c.ok else 1
    out.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmfactor",
        description=(
            "exact moment graphs, canonical-sheaf stalk ranks, transition "
            "blocks and efficiency bounds for simply-laced root systems"
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        # A string default goes through type=int, so a bad value exits 2.
        default=os.environ.get("GKMFACTOR_THREADS", "1"),
        help="worker processes for the eta series report (other commands run sequentially)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_rank(p):
        p.add_argument("--type", required=True, choices=["A", "D", "E"])
        p.add_argument("--rank", required=True, type=int)

    def add_cells(p):
        p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP,
                       help="refuse systems whose estimated coefficient cells exceed this")
        p.add_argument("--degree-bound", type=int, default=None)

    p = sub.add_parser("roots", help="root datum summary")
    add_type_rank(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("mult", help="weight multiplicity (plain or graded)")
    add_type_rank(p)
    p.add_argument("--highest", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--q", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("tensor-dim", help="tensor-product weight space dimension")
    add_type_rank(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tensor_dim)

    p = sub.add_parser("graph", help="moment graph of a truncation")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("stalks", help="canonical-sheaf stalk ranks")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--json", action="store_true")
    add_cells(p)
    p.set_defaults(func=cmd_stalks)

    p = sub.add_parser("mmatrix", help="multiplicity matrix of a truncation")
    add_type_rank(p)
    p.add_argument("--coweight", required=True)
    p.add_argument("--json", action="store_true")
    add_cells(p)
    p.set_defaults(func=cmd_mmatrix)

    p = sub.add_parser("transition", help="one weight block of the factored transition matrix")
    add_type_rank(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--euler", default="unit", choices=["unit", "symbolic"])
    p.add_argument("--json", action="store_true")
    add_cells(p)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("eta", help="geometric efficiency and universal bounds")
    p.add_argument("--series", choices=["all"], default=None)
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--type", choices=["A", "D", "E"])
    p.add_argument("--rank", type=int)
    p.add_argument("--mode", default="analytic", choices=["analytic", "stalk"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.set_defaults(func=cmd_verify)

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
    try:
        return args.func(args, out)
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
