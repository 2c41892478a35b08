"""Canonical-sheaf recursion: hand-checked cases, the graded
multiplicity identity at every vertex, order invariance, stability.

The graded multiplicity at 1 pins the expected stalk rank at every
vertex of every truncation, so the recursion is oracle-checked in full,
not just at the worked values.
"""

import random
from dataclasses import FrozenInstanceError
from math import comb

import pytest

from gkmfactor import kernels
from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import Truncation, build_graph
from gkmfactor.stalks import (
    DegreeBoundError,
    default_degree_bound,
    estimated_cells,
    multiplicity_matrix,
    run_column,
    stalk_rank_at,
    stalk_ranks,
)
from gkmfactor.weights import weight_multiplicity
from sections_oracle import free_stalk_assignment, section_space


def adjoint_graph(t, l):
    rs = rsys.build(t, l)
    return rs, build_graph(Truncation(rs, rs.highest_root))


def test_sections_over_single_top_vertex():
    rs, g = adjoint_graph("A", 1)
    top = rs.highest_root
    secs = section_space(g, [top], free_stalk_assignment([top]), 3)
    for d in range(4):
        assert secs.dimension(d) == comb(d + 1, 1)
    assert secs.verify_congruences()


def test_sections_a1_pair():
    rs, g = adjoint_graph("A", 1)
    upper = [rs.highest_root, tuple(-x for x in rs.highest_root)]
    secs = section_space(g, upper, free_stalk_assignment(upper), 4)
    assert [secs.dimension(d) for d in range(5)] == [1, 3, 5, 7, 9]
    assert secs.verify_congruences()


def test_sections_disconnected_dims_add():
    # Synthetic two-vertex graph with no edges: the section space is the
    # direct product, so dimensions add.
    from gkmfactor.momentgraph import MomentGraph

    rs = rsys.build("A", 1)
    theta = rs.highest_root
    g = MomentGraph(rs, theta, [theta, (0, 0)], [])
    upper = [theta, (0, 0)]
    secs = section_space(g, upper, free_stalk_assignment(upper), 3)
    assert [secs.dimension(d) for d in range(4)] == [2 * comb(d + 1, 1) for d in range(4)]


def test_sections_theta_with_both_simples():
    # {theta, alpha1, alpha2} is upward closed in the A2 adjoint graph;
    # the two simple-root vertices are not adjacent but both meet theta.
    rs, g = adjoint_graph("A", 2)
    a1, a2 = rs.simple_roots
    for e in g.edges:
        assert {g.vertices[e.u], g.vertices[e.v]} != {a1, a2}
    upper = [rs.highest_root, a1, a2]
    secs = section_space(g, upper, free_stalk_assignment(upper), 2)
    assert secs.dimension(0) == 1
    assert secs.verify_congruences()


def test_section_space_validates_upper_set():
    rs, g = adjoint_graph("A", 1)
    with pytest.raises(ValueError):
        section_space(g, [(0, 0)], free_stalk_assignment([(0, 0)]), 2)
    with pytest.raises(ValueError):
        section_space(g, [rs.highest_root], {}, 2)


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3)])
def test_adjoint_origin_rank_is_cartan_rank(t, l):
    rs = rsys.build(t, l)
    assert stalk_rank_at(Truncation(rs, rs.highest_root), rsys.zero_vec(rs)) == l


def test_a2_adjoint_values():
    rs = rsys.build("A", 2)
    col = stalk_ranks(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    assert col.ranks[zero] == 2
    assert col.profiles[zero] == (0, 1)
    for v in rs.roots:
        assert col.ranks[v] == 1
        assert col.profiles[v] == (0,)


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_graded_identity_every_vertex(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    col = stalk_ranks(Truncation(rs, theta))
    for v, rank in col.ranks.items():
        poly = weight_multiplicity(theta, v, rs, q_graded=True)
        assert poly.at_one() == rank


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_generator_profile_shape_matches_graded_oracle(t, l):
    # Beyond the rank identity: the multiset of generator degrees agrees
    # with the multiset of q-powers up to one uniform shift per vertex
    # (the grading offset of the ambient cell).
    rs = rsys.build(t, l)
    theta = rs.highest_root
    col = stalk_ranks(Truncation(rs, theta))
    for v, profile in col.profiles.items():
        poly = weight_multiplicity(theta, v, rs, q_graded=True)
        powers = []
        for k, c in enumerate(poly.coeffs):
            powers.extend([k] * c)
        assert len(powers) == len(profile)
        prof = sorted(profile)
        shift = powers[0] - prof[0]
        assert [p + shift for p in prof] == powers, (v, profile, poly.coeffs)


@pytest.mark.parametrize("t,l,scale", [("A", 1, 2), ("A", 2, 2), ("A", 1, 3)])
def test_graded_identity_deeper_truncations(t, l, scale):
    rs = rsys.build(t, l)
    lam = tuple(scale * x for x in rs.highest_root)
    col = stalk_ranks(Truncation(rs, lam))
    for v, profile in col.profiles.items():
        poly = weight_multiplicity(lam, v, rs, q_graded=True)
        assert poly.at_one() == len(profile)
        powers = []
        for k, c in enumerate(poly.coeffs):
            powers.extend([k] * c)
        prof = sorted(profile)
        shift = powers[0] - prof[0]
        assert [p + shift for p in prof] == powers


def test_minuscule_truncation_all_smooth():
    # The D4 vector-coweight truncation is a smooth quadric: every stalk
    # has rank one and the identity with multiplicities still holds.
    rs = rsys.build("D", 4)
    w1 = rsys.fundamental_coweight(rs, 1)
    col = stalk_ranks(Truncation(rs, w1))
    assert sorted(col.ranks.values()) == [1] * 8
    for v, rank in col.ranks.items():
        assert rank == weight_multiplicity(w1, v, rs)


def test_interior_multigenerator_stalk():
    # In the doubled-adjoint truncation of A2 the highest-root vertex is
    # singular with rank 2; downstream ranks still match multiplicities.
    rs = rsys.build("A", 2)
    lam = tuple(2 * x for x in rs.highest_root)
    col = stalk_ranks(Truncation(rs, lam))
    assert col.ranks[rs.highest_root] == 2
    assert col.ranks[rsys.zero_vec(rs)] == weight_multiplicity(lam, rsys.zero_vec(rs), rs)


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3)])
def test_order_extension_invariance(t, l):
    rs = rsys.build(t, l)
    g = build_graph(Truncation(rs, rs.highest_root))
    base = stalk_ranks(Truncation(rs, rs.highest_root))
    for seed in range(5):
        ext = g.linear_extension(random.Random(seed))
        res = run_column(g, base.degree_bound, extension=ext)
        assert res.ranks == base.ranks
        assert res.profiles == base.profiles


def test_degree_bound_stability():
    rs = rsys.build("A", 2)
    tr = Truncation(rs, rs.highest_root)
    d0 = stalk_ranks(tr)
    d1 = stalk_ranks(tr, D=d0.degree_bound + 1)
    assert d0.ranks == d1.ranks


def test_explicit_insufficient_bound_raises():
    rs = rsys.build("A", 2)
    with pytest.raises(DegreeBoundError):
        stalk_ranks(Truncation(rs, rs.highest_root), D=2)


def test_level_inverting_extension_rejected():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    ext = g.linear_extension()
    bad = [ext[2], ext[0], ext[1]] + ext[3:]
    with pytest.raises(ValueError):
        run_column(g, 3, extension=bad)
    with pytest.raises(ValueError):
        run_column(g, 3, extension=list(reversed(ext)))


def test_default_bound_values():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    assert default_degree_bound(g) == 3
    cells, bound = estimated_cells(g)
    assert bound == 3
    assert cells == len(g.vertices) * comb(3 + 2, 2)


def test_stalk_rank_at_rejects_foreign_vertex():
    rs = rsys.build("A", 1)
    with pytest.raises(ValueError):
        stalk_rank_at(Truncation(rs, rs.highest_root), (5, -5))


def test_multiplicity_matrix_a2():
    rs = rsys.build("A", 2)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    theta = rs.highest_root
    assert m.column_at(zero) == {theta: 2, zero: 1}
    assert m.unitriangular_violations(rs) == []
    assert m.row_sum(theta) == rs.num_roots + rs.rank
    assert m.row_sum(zero) == 1


def test_multiplicity_matrix_a1():
    rs = rsys.build("A", 1)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    theta = rs.highest_root
    assert m.entry(theta, zero) == 1
    assert m.entry(theta, theta) == 1
    assert m.entry(zero, zero) == 1
    assert m.entry(zero, theta) == 0


def test_total_sheaf_sparsity_bound():
    rs = rsys.build("A", 2)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    for j, v in enumerate(m.col_coweights):
        col = [m.entries[i][j] for i in range(len(m.row_coweights))]
        assert sum(1 for x in col if x) <= sum(col)


def test_row_sum_is_adjoint_dimension():
    for t, l in [("A", 2), ("A", 3), ("D", 4)]:
        rs = rsys.build(t, l)
        m = multiplicity_matrix(Truncation(rs, rs.highest_root))
        assert m.row_sum(rs.highest_root) == rs.num_roots + rs.rank


def test_section_dims_match_public_path():
    # The incremental engine's final section dimensions agree with the
    # standalone solver over the same upper set.
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    col = stalk_ranks(Truncation(rs, rs.highest_root))
    upper = [v for v in g.vertices if any(v)]
    secs = section_space(g, upper, free_stalk_assignment(upper), col.degree_bound)
    assert tuple(secs.dimension(d) for d in range(col.degree_bound + 1)) == col.section_dims


def test_cached_column_is_read_only():
    # stalk_ranks hands the cached result to every caller, so a caller's
    # write must fail instead of corrupting later lookups.
    rs = rsys.build("A", 2)
    tr = Truncation(rs, rs.highest_root)
    zero = rsys.zero_vec(rs)
    col = stalk_ranks(tr)
    with pytest.raises(TypeError):
        col.ranks[zero] = 99
    with pytest.raises(TypeError):
        col.profiles[zero] = (0,)
    with pytest.raises(FrozenInstanceError):
        col.ranks = {}
    assert stalk_ranks(tr) is col
    assert multiplicity_matrix(tr).column_at(zero) == {rs.highest_root: 2, zero: 1}


def _coweight(rs, name):
    if name.startswith("2"):
        return tuple(2 * x for x in rsys.resolve_coweight(rs, name[1:]))
    return rsys.resolve_coweight(rs, name)


# Degree bound, section_dims, vertex count and every generator profile
# other than (0,) of the benchmark's adjoint-columns truncations.  The
# values were recorded from an engine that assembled each new section as
# a full nested combination, so they check the x-first extension step
# against an independent route.
GOLDEN_COLUMNS = {
    ("A", 3, "theta"): (4, (1, 6, 21, 55, 119), 13, {(0, 0, 0, 0): (0, 1, 2)}),
    ("A", 4, "theta"): (5, (1, 7, 28, 84, 209, 454), 21, {(0, 0, 0, 0, 0): (0, 1, 2, 3)}),
    ("A", 2, "2theta"): (5, (1, 5, 16, 38, 76, 134), 19, {
        (-1, 0, 1): (0, 1), (-1, 1, 0): (0, 1), (0, -1, 1): (0, 1),
        (0, 0, 0): (0, 1, 2), (0, 1, -1): (0, 1), (1, -1, 0): (0, 1),
        (1, 0, -1): (0, 1),
    }),
    ("A", 3, "2omega1"): (4, (1, 5, 16, 40, 85), 10, {}),
    ("A", 4, "2omega1"): (5, (1, 6, 22, 62, 148, 313), 15, {}),
    ("A", 4, "omega2"): (4, (1, 6, 22, 62, 147), 10, {}),
}


@pytest.mark.parametrize("t,l,name", sorted(GOLDEN_COLUMNS), ids=lambda x: str(x))
def test_engine_golden_columns(t, l, name):
    bound, dims, count, special = GOLDEN_COLUMNS[(t, l, name)]
    rs = rsys.build(t, l)
    col = stalk_ranks(Truncation(rs, _coweight(rs, name)))
    assert col.degree_bound == bound
    assert col.section_dims == dims
    assert len(col.profiles) == count
    assert set(col.profiles) == set(col.graph.vertices)
    for v, profile in col.profiles.items():
        assert profile == special.get(v, (0,)), v
        assert col.ranks[v] == len(profile)


@pytest.mark.parametrize("t,l,name", [("A", 3, "theta"), ("A", 2, "2theta")])
def test_golden_columns_under_random_extensions(t, l, name):
    # The x-first extension step must not depend on the default order.
    rs = rsys.build(t, l)
    tr = Truncation(rs, _coweight(rs, name))
    base = stalk_ranks(tr)
    for seed in (101, 202):
        ext = base.graph.linear_extension(random.Random(seed))
        assert ext != list(base.order)
        res = run_column(base.graph, base.degree_bound, extension=ext)
        assert res.ranks == base.ranks
        assert res.profiles == base.profiles
        assert res.section_dims == base.section_dims


def test_extension_rejects_kernel_vector_on_two_old_sections(monkeypatch):
    # With the x slots first, a kernel vector that combines two old
    # sections means F(x) -> M_x was not onto; the step must not go on.
    rs, g = adjoint_graph("A", 2)
    monkeypatch.setattr(kernels, "nullspace_of_rows", lambda rows, ncols: [{ncols - 2: 1, ncols - 1: 1}])
    with pytest.raises(AssertionError, match="two old sections"):
        run_column(g, 3)
