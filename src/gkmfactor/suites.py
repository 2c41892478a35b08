"""Named verification suites behind the ``verify`` subcommand.

Each suite returns a list of checks with expected and actual values
rendered as strings; the CLI prints one line per check and exits
nonzero if any fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import rootsystem as rsys
from .efficiency import eta_bound
from .momentgraph import Truncation, build_graph, gkm_violations
from .stalks import multiplicity_matrix, stalk_ranks
from .transition import transition_bundle
from .weights import weight_multiplicity


@dataclass
class Check:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _check(name, expected, actual) -> Check:
    return Check(name, str(expected), str(actual))


def suite_sl3() -> list[Check]:
    """The rank-2 type A worked pipeline: collision row, multiplicity
    column, composed zero-weight block."""
    rs = rsys.build("A", 2)
    lam = rsys.fundamental_coweight(rs, 1)
    mu = rsys.dual_coweight(rs, lam)
    zero = rsys.zero_vec(rs)
    bundle = transition_bundle(rs, lam, mu, zero)
    checks = [
        _check("collision-row", [1, 1, 1], list(bundle.a_row)),
        _check(
            "multiplicity-column",
            [2, 1],
            [bundle.m_block[i][0] for i in range(len(bundle.row_classes))],
        ),
        _check(
            "composed-block",
            [[2, 2, 2], [1, 1, 1]],
            [list(row) for row in bundle.c_block],
        ),
        _check("row-classes", [rs.highest_root, zero], list(bundle.row_classes)),
        _check("block-rank", 1, bundle.c_rank()),
        _check("audit", True, all(c.ok for c in bundle.checks)),
    ]
    return checks


def suite_adjoint_ranks() -> list[Check]:
    """Origin stalk rank of the adjoint truncation equals the Cartan rank."""
    checks = []
    for t, r in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)):
        rs = rsys.build(t, r)
        column = stalk_ranks(Truncation(rs, rs.highest_root))
        checks.append(
            _check(f"adjoint-origin-rank-{t}{r}", r, column.ranks[rsys.zero_vec(rs)])
        )
    return checks


def suite_eta_tables() -> list[Check]:
    checks = []
    for l, expected in [(6, "1/18"), (7, "1/25"), (8, "1/38")]:
        checks.append(_check(f"eta-bound-E{l}", expected, eta_bound("E", l)))
    for l in range(1, 9):
        checks.append(_check(f"eta-bound-A{l}", Fraction(1, 2 * l + 1), eta_bound("A", l)))
    for l in range(3, 9):
        checks.append(_check(f"eta-bound-D{l}", Fraction(1, 3 * l - 2), eta_bound("D", l)))
    e_bounds = [eta_bound("E", l) for l in (6, 7, 8)]
    checks.append(
        _check("eta-e-series-strictly-decreasing", True, e_bounds[0] > e_bounds[1] > e_bounds[2])
    )
    checks.append(
        _check("eta-a6-exceeds-e6", True, eta_bound("A", 6) > eta_bound("E", 6))
    )
    return checks


def suite_properties() -> list[Check]:
    """Fast structural properties on small systems: GKM independence,
    unitriangularity, rank bounds, the graded-multiplicity identity."""
    checks = []
    for t, r in [("A", 1), ("A", 2), ("A", 3)]:
        rs = rsys.build(t, r)
        g = build_graph(Truncation(rs, rs.highest_root))
        checks.append(_check(f"gkm-independence-{t}{r}", [], gkm_violations(g)))
    for t, r in [("A", 1), ("A", 2)]:
        rs = rsys.build(t, r)
        m = multiplicity_matrix(Truncation(rs, rs.highest_root))
        checks.append(
            _check(f"multiplicity-unitriangular-{t}{r}", [], m.unitriangular_violations(rs))
        )
        column = stalk_ranks(Truncation(rs, rs.highest_root))
        mismatches = [
            v
            for v in column.ranks
            if column.ranks[v] != weight_multiplicity(rs.highest_root, v, rs)
        ]
        checks.append(_check(f"graded-multiplicity-identity-{t}{r}", [], mismatches))
    rs = rsys.build("A", 2)
    bundle = transition_bundle(rs, rs.highest_root, rs.highest_root, rsys.zero_vec(rs))
    checks.append(
        _check("rank-composition-bound", True, bundle.c_rank() <= min(bundle.m_rank(), rs.rank))
    )
    checks.append(_check("bundle-audit", True, all(c.ok for c in bundle.checks)))
    return checks


SUITES = {
    "sl3": suite_sl3,
    "adjoint-ranks": suite_adjoint_ranks,
    "eta-tables": suite_eta_tables,
    "properties": suite_properties,
}


def run_suite(name: str) -> list[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
