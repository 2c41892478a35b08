"""Acceptance suite: every exit criterion, pinned at its stated tolerance.

All equalities are exact (integers and rationals); the per-criterion
summary is printed by the terminal hook in conftest.  The D5 adjoint
column and the E6 stalk computation, a stretch target, are marked
``expensive`` and deselected by default (run with ``pytest -m
expensive``).
"""

import dataclasses
import io
import random
import time
from fractions import Fraction

import pytest

from gkmfactor import rootsystem as rsys
from gkmfactor.cli import run as cli_run
from gkmfactor.efficiency import eta_bound
from gkmfactor.momentgraph import Truncation, build_graph, gkm_violations
from gkmfactor.stalks import multiplicity_matrix, run_column, stalk_ranks
from gkmfactor.transition import transition_bundle, verify_bundle
from gkmfactor.weights import tensor_weight_dim, weight_multiplicity


def test_criterion_1_sl3_pipeline():
    started = time.perf_counter()
    rs = rsys.build("A", 2)
    lam = rsys.resolve_coweight(rs, "omega1")
    mu = rsys.resolve_coweight(rs, "omega1*")
    zero = rsys.zero_vec(rs)
    bundle = transition_bundle(rs, lam, mu, zero)
    assert bundle.a_row == (1, 1, 1)
    assert bundle.row_classes == (rs.highest_root, zero)
    assert bundle.m_block == ((2,), (1,))
    assert bundle.c_block == ((2, 2, 2), (1, 1, 1))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_criterion_2_adjoint_stalk_rank(t, l):
    rs = rsys.build(t, l)
    started = time.perf_counter()
    column = stalk_ranks(Truncation(rs, rs.highest_root))
    elapsed = time.perf_counter() - started
    assert column.ranks[rsys.zero_vec(rs)] == l
    assert elapsed < 30.0, f"{t}{l} took {elapsed:.1f}s"


@pytest.mark.expensive
def test_criterion_2_d5_adjoint_stalk_ranks():
    # One cold column of 41 vertices whose origin has 40 upward edges;
    # about a minute and 0.7 GiB in one process.
    rs = rsys.build("D", 5)
    theta = rs.highest_root
    column = stalk_ranks(Truncation(rs, theta))
    assert column.ranks[rsys.zero_vec(rs)] == 5
    for v, rank in column.ranks.items():
        assert rank == weight_multiplicity(theta, v, rs), v


@pytest.mark.expensive
def test_criterion_2_stretch_e6_adjoint_stalk():
    # Stretch target: exact value 6.  The per-degree section bases of
    # the 73-vertex, 7-variable system are far beyond desk scale for
    # this engine; expect a very long run if selected explicitly.
    rs = rsys.build("E", 6)
    column = stalk_ranks(Truncation(rs, rs.highest_root))
    assert column.ranks[rsys.zero_vec(rs)] == 6


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3)])
def test_criterion_3_graded_multiplicity_identity(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    column = stalk_ranks(Truncation(rs, theta))
    for beta, rank in column.ranks.items():
        poly = weight_multiplicity(theta, beta, rs, q_graded=True)
        assert poly.at_one() == rank, (t, l, beta)


CONSTRUCTIBLE = (
    [("A", l) for l in range(1, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8)]
)


def test_criterion_4_tensor_zero_weight_dimensions():
    started = time.perf_counter()
    for t, l in CONSTRUCTIBLE:
        rs = rsys.build(t, l)
        theta = rs.highest_root
        dim = tensor_weight_dim(theta, theta, rsys.zero_vec(rs), rs)
        assert dim == l * l + rs.num_roots, (t, l)
        if (t, l) == ("E", 6):
            assert dim == 108
    assert time.perf_counter() - started < 60.0


def test_criterion_5_efficiency_tables():
    assert eta_bound("E", 6) == Fraction(1, 18)
    assert eta_bound("E", 7) == Fraction(1, 25)
    assert eta_bound("E", 8) == Fraction(1, 38)
    for l in range(1, 9):
        assert eta_bound("A", l) == Fraction(1, 2 * l + 1)
    for l in range(3, 9):
        assert eta_bound("D", l) == Fraction(1, 3 * l - 2)
    assert eta_bound("E", 6) > eta_bound("E", 7) > eta_bound("E", 8)
    assert eta_bound("A", 6) == Fraction(1, 13) > eta_bound("E", 6)


def _adjoint_cases():
    return [("A", 1), ("A", 2), ("A", 3)]


def test_criterion_6_multiplicity_matrix_structure():
    for t, l in _adjoint_cases():
        rs = rsys.build(t, l)
        m = multiplicity_matrix(Truncation(rs, rs.highest_root))
        assert m.unitriangular_violations(rs) == []
        for row in m.entries:
            assert all(isinstance(x, int) and x >= 0 for x in row)


def test_criterion_6_rank_bounds():
    # Adjoint-square bundles; rank 3 and above need recursions over the
    # doubled-adjoint truncation whose cost grows steeply, so the
    # default suite pins the bound on the ranks the worked example
    # covers.
    for t, l in [("A", 1), ("A", 2)]:
        rs = rsys.build(t, l)
        theta = rs.highest_root
        bundle = transition_bundle(rs, theta, theta, rsys.zero_vec(rs))
        assert bundle.c_rank() <= bundle.m_rank()
        assert bundle.c_rank() <= l
        assert all(c.ok for c in bundle.checks)


def test_criterion_6_monomial_columns_on_random_bundles():
    rs = rsys.build("A", 1)
    theta = rs.highest_root
    base = transition_bundle(rs, theta, theta, rsys.zero_vec(rs))
    rng = random.Random(2026)
    for _ in range(25):
        m_block = tuple(
            (rng.choice([0, 0, 1, 1, 2]),) for _ in base.row_classes
        )
        c = tuple(tuple(m * a for a in base.a_row) for (m,) in m_block)
        patched = dataclasses.replace(base, m_block=m_block, c_block=c)
        checks = {c.name: c for c in verify_bundle(patched)}
        assert checks["condition-a-monomial"].ok
        assert checks["support"].ok
        assert checks["column-sparsity"].ok


def test_criterion_6_stability_and_order_invariance():
    for t, l in _adjoint_cases():
        rs = rsys.build(t, l)
        tr = Truncation(rs, rs.highest_root)
        g = build_graph(tr)
        base = stalk_ranks(tr)
        again = run_column(g, base.degree_bound + 1)
        assert base.ranks == again.ranks
        for seed in range(5):
            ext = g.linear_extension(random.Random(seed))
            res = run_column(g, base.degree_bound, extension=ext)
            assert res.ranks == base.ranks


def test_criterion_6_gkm_independence_everywhere():
    cases = _adjoint_cases() + [("D", 4)]
    for t, l in cases:
        rs = rsys.build(t, l)
        g = build_graph(Truncation(rs, rs.highest_root))
        assert gkm_violations(g) == []
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, tuple(2 * x for x in rs.highest_root)))
    assert gkm_violations(g) == []


DETERMINISM_COMMANDS = [
    ["roots", "--type", "D", "--rank", "4", "--json"],
    ["graph", "--type", "A", "--rank", "2", "--coweight", "theta", "--format", "json"],
    ["stalks", "--type", "A", "--rank", "2", "--coweight", "theta", "--json"],
    ["mmatrix", "--type", "A", "--rank", "2", "--coweight", "theta", "--json"],
    [
        "transition", "--type", "A", "--rank", "2", "--lambda", "omega1",
        "--mu", "omega1*", "--weight", "zero", "--json",
    ],
    ["eta", "--series", "all", "--max-rank", "8", "--json"],
    ["verify", "--suite", "sl3"],
]


def test_criterion_7_cli_determinism():
    for argv in DETERMINISM_COMMANDS:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_run(argv, out=buf)
            assert code == 0, argv
            outs.append(buf.getvalue().encode())
        assert outs[0] == outs[1], argv
