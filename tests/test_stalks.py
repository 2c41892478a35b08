"""Canonical-sheaf recursion: hand-checked cases, the graded
multiplicity identity at every vertex, order invariance, stability.

The graded multiplicity at 1 pins the expected stalk rank at every
vertex of every truncation, so the recursion is oracle-checked in full,
not just at the worked values.
"""

import functools
import hashlib
import json
import random
import re
from math import comb

import pytest

from gkmfactor import kernels, stalks, weights
from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import (
    MomentGraph,
    Truncation,
    build_graph,
    export_graph,
    gkm_violations,
    import_graph,
)
from gkmfactor.stalks import (
    DegreeBoundError,
    default_degree_bound,
    estimated_cells,
    multiplicity_matrix,
    run_column,
    stalk_ranks,
)
from gkmfactor.weights import weight_multiplicity
import nvar_oracle
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
    assert stalk_ranks(Truncation(rs, rs.highest_root)).ranks[rsys.zero_vec(rs)] == l


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
    d1 = run_column(build_graph(tr), d0.degree_bound + 1)
    assert d0.ranks == d1.ranks


def test_explicit_insufficient_bound_raises():
    rs = rsys.build("A", 2)
    with pytest.raises(DegreeBoundError):
        run_column(build_graph(Truncation(rs, rs.highest_root)), 2)


@pytest.mark.parametrize("D", [0, 1])
def test_bound_below_two_raises(D):
    rs = rsys.build("A", 1)
    with pytest.raises(DegreeBoundError, match="no degree to run"):
        run_column(build_graph(Truncation(rs, rs.highest_root)), D)


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
    tr = Truncation(rs, rs.highest_root)
    assert default_degree_bound(tr) == 3
    cells, bound, exact = estimated_cells(tr, 0)
    assert bound == 3 and exact
    assert cells == len(build_graph(tr).vertices) * comb(3 + 2, 2)


def test_estimate_stops_counting_past_the_ceiling(monkeypatch):
    # A12 6theta has millions of vertices; the estimate stops at the
    # 256th, whose cells already exceed the ceiling.
    counted = []
    weights = rsys.iter_weights

    def counting(rs, lam):
        for w in weights(rs, lam):
            counted.append(w)
            yield w

    monkeypatch.setattr(rsys, "iter_weights", counting)
    rs = rsys.build("A", 12)
    tr = Truncation(rs, (6,) + (0,) * 11 + (-6,))
    cells, bound, exact = estimated_cells(tr, 20_000)
    assert len(counted) == 256 and not exact
    assert cells == 256 * comb(bound + 12, 12) > 20_000
    # E8 theta, the largest eta series row, has 241 vertices: at most
    # 256 are always counted in full, past the ceiling too.
    rs = rsys.build("E", 8)
    assert estimated_cells(Truncation(rs, rs.highest_root), 20_000) == (241 * comb(38, 8), 30, True)


def test_cached_column_builds_no_graph(monkeypatch):
    built = []
    build = stalks.build_graph
    monkeypatch.setattr(stalks, "build_graph", lambda tr: built.append(tr) or build(tr))
    monkeypatch.setattr(stalks, "_COLUMN_CACHE", {})
    rs = rsys.build("A", 2)
    tr = Truncation(rs, rs.highest_root)
    col = stalk_ranks(tr)
    assert stalk_ranks(tr) is col
    assert built == [tr]


def test_cold_multiplicity_matrix_builds_one_graph_per_class(monkeypatch):
    built = []
    build = stalks.build_graph
    monkeypatch.setattr(stalks, "build_graph", lambda tr: built.append(tr.lam) or build(tr))
    monkeypatch.setattr(stalks, "_COLUMN_CACHE", {})
    rs = rsys.build("A", 2)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    assert sorted(built) == sorted(m.row_coweights)


def test_default_bound_is_the_cache_key():
    # The column is cached per truncation, at the default bound only.
    rs = rsys.build("A", 3)
    tr = Truncation(rs, rs.highest_root)
    col = stalk_ranks(tr)
    assert col.degree_bound == default_degree_bound(tr)
    assert stalk_ranks(Truncation(rsys.build("A", 3), rs.highest_root)) is col


def test_multiplicity_matrix_a2():
    rs = rsys.build("A", 2)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    theta = rs.highest_root
    assert m.column_at(zero) == {theta: 2, zero: 1}
    assert m.unitriangular_violations(rs) == []
    rows = dict(zip(m.row_coweights, m.entries))
    assert sum(rows[theta]) == rs.num_roots + rs.rank
    assert sum(rows[zero]) == 1


def test_multiplicity_matrix_a1():
    rs = rsys.build("A", 1)
    m = multiplicity_matrix(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    theta = rs.highest_root
    assert m.row_coweights == (zero, theta)
    assert m.col_coweights == (tuple(-x for x in theta), zero, theta)
    assert m.entries == ((0, 1, 0), (1, 1, 1))


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
        top = m.entries[m.row_coweights.index(rs.highest_root)]
        assert sum(top) == rs.num_roots + rs.rank


def test_section_dims_match_public_path():
    # The incremental engine's final section dimensions agree with the
    # standalone solver over the same upper set.
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    col = stalk_ranks(Truncation(rs, rs.highest_root))
    upper = [v for v in g.vertices if any(v)]
    secs = section_space(g, upper, free_stalk_assignment(upper), col.degree_bound)
    assert tuple(secs.dimension(d) for d in range(col.degree_bound - 1)) == col.section_dims


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
    with pytest.raises(AttributeError, match="can't set attribute"):
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
# against an independent route.  The dims cover degrees 0..D, those of a
# run at D + 2; stalk_ranks runs degrees 0..D - 2, a prefix of them.
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


@functools.cache
def _longer_column(t, l, name):
    """The column run at its degree bound plus two: degrees 0..D."""
    tr = _truncation(t, l, name)
    return run_column(build_graph(tr), default_degree_bound(tr) + 2)


@pytest.mark.parametrize("t,l,name", sorted(GOLDEN_COLUMNS), ids=lambda x: str(x))
def test_engine_golden_columns(t, l, name):
    bound, dims, count, special = GOLDEN_COLUMNS[(t, l, name)]
    rs = rsys.build(t, l)
    col = stalk_ranks(Truncation(rs, _coweight(rs, name)))
    assert col.degree_bound == bound
    assert col.section_dims == dims[: bound - 1]
    assert _longer_column(t, l, name).section_dims == dims
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


@pytest.mark.parametrize("t,l,name", [("A", 3, "2omega1"), ("A", 4, "omega2")])
def test_section_dims_match_oracle_on_smooth_columns(t, l, name):
    # Every stalk of these columns is free of rank one, so the engine's
    # dims (its dim M_d bookkeeping and its pruned ker phi generators)
    # must equal the from-scratch solve over the final upper set.
    rs = rsys.build(t, l)
    col = stalk_ranks(Truncation(rs, _coweight(rs, name)))
    assert set(col.profiles.values()) == {(0,)}
    upper = col.order[1:]
    secs = section_space(col.graph, upper, free_stalk_assignment(upper), col.degree_bound)
    assert tuple(secs.dimension(d) for d in range(col.degree_bound - 1)) == col.section_dims


def test_extension_rejects_kernel_vector_on_two_old_sections(monkeypatch):
    # With the x slots first, a kernel vector that combines two old
    # section generators means F(x) -> M_x was not onto; the step must
    # not go on.  The fake kernel fires in the first extension solve of
    # a degree with at least two old generators, the last two columns.
    rs, g = adjoint_graph("A", 2)
    col = stalk_ranks(Truncation(rs, rs.highest_root))
    D = col.degree_bound
    # x-slot count of each extension solve in call order: every vertex
    # but the top and the last one processed, degrees 0..D - 2, with
    # d - t + 1 monomials of x and y per generator of degree t.
    nxs = [
        sum(d - t + 1 for t in col.profiles[x] if d >= t)
        for x in reversed(col.order[1:-1])
        for d in range(D - 1)
    ]
    real = kernels.nullspace_of_rows
    old_columns = []

    def fake(rows, ncols):
        old_columns.append(ncols - nxs[len(old_columns)])
        if old_columns[-1] >= 2:
            return [{ncols - 2: 1, ncols - 1: 1}]
        return real(rows, ncols)

    monkeypatch.setattr(kernels, "nullspace_of_rows", fake)
    with pytest.raises(AssertionError, match="two old sections"):
        run_column(g, D)
    assert len(old_columns) > 1 and old_columns[-1] >= 2


# sha256 over every extension system of a column in the truncation's own
# variables, run on the n-variable oracle: each ``(rows, ncols)``
# handed to ``kernels.nullspace_of_rows`` and each kernel vector it
# returns, in call order, with a system's rows and every row's entries
# sorted.  Any change to a generator's pivot row or to an x slot's image
# fails here.  With ``2theta`` the ``2omega1`` digests pin the extension of
# an old generator rescaled by a coefficient above one.  Re-recorded when
# each system kept only the rows at M_d's pivot slots; ``KERNEL_DIGESTS``,
# recorded before that, checks that the kernels did not change.
EXTENSION_DIGESTS = {
    ("A", 2, "theta"):
        "a5cd940d8ad6167692fc83a439ebe631cc6c641f4498666d5b17d922e0df98dd",
    ("A", 2, "2theta"):
        "ad9b2b9dd0398a45cca891239fdb430140050234b965053027ab6e7d581aff89",
    ("A", 3, "theta"):
        "031360ea8dd7a28b87f32cd6e5b84f28fb3d8110afa5c216d3be5d9a15e4e1d8",
    ("A", 3, "2omega1"):
        "6d0f5f597307a2f894725c99de72dca0d29186ba19c9a2d2e80b9b90852e26d1",
    ("A", 4, "2omega1"):
        "6883374a49a6ce63604ccc58de449e5a969d744d4fa61b55153f0f9a6813ab07",
}


# sha256 over the kernel vectors of every extension system of a column:
# each system's ``ncols`` and the vectors ``kernels.nullspace_of_rows``
# returns for it, in call order.  Unlike ``EXTENSION_DIGESTS`` these do
# not hash the systems' rows, so they pin the kernels, and with them the
# new sections, across a change to which rows a system keeps.  Recorded
# while every system still had one row per boundary slot any image
# touches.
KERNEL_DIGESTS = {
    ("A", 2, "theta"):
        "d2d34c7691acf853dee36f76700145ceffbea314191fe660db550a5c5680d490",
    ("A", 2, "2theta"):
        "78c9d37d416522e36efc93e12cb972ba2ba5de93e3f558addfe232f3cd3c9177",
    ("A", 3, "theta"):
        "7e165b29eaa36f4e7cd32d4f31e837a100101be57b42c85a5015644080e68909",
    ("A", 3, "2omega1"):
        "afb8dea7a584bb28e0d93f0b4def12b698dce7ebafdc2bcaca4d7f1602bb35e4",
    ("A", 4, "2omega1"):
        "529bd72a64b66139512dc4bc812e4a8e90309bf0a446d78ae1f58b2249e0bce8",
}


def _truncation(t, l, name):
    rs = rsys.build(t, l)
    return Truncation(rs, _coweight(rs, name))


def _digests(run):
    """(extension digest, kernel digest) of the extension systems that
    ``run()`` hands to ``kernels.nullspace_of_rows``."""
    real = kernels.nullspace_of_rows
    systems, kernel_vectors = hashlib.sha256(), hashlib.sha256()

    def digest(rows, ncols):
        rows = list(rows)
        kern = real(rows, ncols)
        vectors = repr([sorted(v.items()) for v in kern]).encode()
        system = sorted(tuple(sorted(r.items())) for r in rows)
        systems.update(repr((ncols, system)).encode())
        systems.update(vectors)
        kernel_vectors.update(repr(ncols).encode())
        kernel_vectors.update(vectors)
        return kern

    kernels.nullspace_of_rows = digest
    try:
        run()
    finally:
        kernels.nullspace_of_rows = real
    return systems.hexdigest(), kernel_vectors.hexdigest()


@functools.cache
def _column_digests(t, l, name):
    """Digests of one column's extension systems in the truncation's own
    variables, on the n-variable oracle."""
    tr = _truncation(t, l, name)
    return _digests(lambda: nvar_oracle.run_column(build_graph(tr), default_degree_bound(tr)))


@pytest.mark.parametrize("t,l,name", sorted(EXTENSION_DIGESTS), ids=lambda x: str(x))
def test_extension_systems_digest(t, l, name):
    assert _column_digests(t, l, name)[0] == EXTENSION_DIGESTS[(t, l, name)]


@pytest.mark.parametrize("t,l,name", sorted(KERNEL_DIGESTS), ids=lambda x: str(x))
def test_extension_kernels_digest(t, l, name):
    assert _column_digests(t, l, name)[1] == KERNEL_DIGESTS[(t, l, name)]


# The extension digest of ``EXTENSION_DIGESTS`` over the two-variable
# systems: the five columns above and the benchmark's six adjoint-columns
# truncations.  Recorded from the n-variable engine on the projected
# graph, ``run_column(stalks._plane_graph(build_graph(tr)), D)``, before
# the engine was specialized to two variables, so the two-variable
# engine must build and solve the very systems the n-variable one
# builds over the same subtorus; the oracle is held to them too.  The
# oracle runs degrees 0..D and the engine 0..D - 2, so the engine is
# run at D + 2.
PLANE_DIGESTS = {
    ("A", 2, "theta"):
        "11c431f6e6c93ff36b77cf3cb10f81b7b779cf75eb0c9a226c91da78e6c4149d",
    ("A", 2, "2theta"):
        "279d254571c434a5e3c0f16706444de69b07602e5ebdd96dc10c3b76cbefe01e",
    ("A", 3, "theta"):
        "957e6c57d95535da770e3db673e53fa0da44bb728dbad4caa2cb39726723a700",
    ("A", 3, "2omega1"):
        "8d13e7c73a2aad761221039408c2956203c2484fd00db919079a2a01c3886f6f",
    ("A", 4, "2omega1"):
        "2e72a35e491b94a50578634a5af1a9d75bbb3fba58f83d3772b99a66a3b772c1",
    ("A", 4, "theta"):
        "da1871b855ef069844ea723d76ae87d82d70c1b53daa0c9c89259d2f6e405402",
    ("A", 4, "omega2"):
        "e92ddd3440bc1e6b0cb78f9d63e305ce7bf62a6a64fb5d7f2ab6f21b31f3a33c",
}


@pytest.mark.parametrize("route", ["engine", "oracle"])
@pytest.mark.parametrize("t,l,name", sorted(PLANE_DIGESTS), ids=lambda x: str(x))
def test_plane_systems_digest(t, l, name, route):
    tr = _truncation(t, l, name)
    g, D = build_graph(tr), default_degree_bound(tr)
    if route == "engine":
        systems, _ = _digests(lambda: run_column(g, D + 2))
    else:
        systems, _ = _digests(lambda: nvar_oracle.run_column(stalks._plane_graph(g), D))
    assert systems == PLANE_DIGESTS[(t, l, name)]


# The rank-2 subtorus (see the stalks module docstring) against the
# n-variable oracle on the truncation's own graph: every column above,
# plus D4 theta.
SUBTORUS_COLUMNS = sorted({*GOLDEN_COLUMNS, *EXTENSION_DIGESTS, ("D", 4, "theta")})


@functools.cache
def _n_variable_column(t, l, name):
    tr = _truncation(t, l, name)
    return nvar_oracle.run_column(build_graph(tr), default_degree_bound(tr))


@pytest.mark.parametrize("t,l,name", SUBTORUS_COLUMNS, ids=lambda x: str(x))
def test_subtorus_column_matches_the_n_variable_route(t, l, name):
    rs = rsys.build(t, l)
    tr = Truncation(rs, _coweight(rs, name))
    col = stalk_ranks(tr)
    oracle = _n_variable_column(t, l, name)
    assert col.graph == oracle.graph and col.graph.num_vars == rs.rank + 1
    assert col.order == oracle.order
    assert col.profiles == oracle.profiles
    assert col.ranks == oracle.ranks
    assert col.section_dims == oracle.section_dims[: col.degree_bound - 1]


@pytest.mark.parametrize("t,l,name", SUBTORUS_COLUMNS, ids=lambda x: str(x))
def test_degrees_past_the_bound_minus_two_change_nothing(t, l, name):
    # No generator sits above D - 2 and degree d reads only degrees <= d
    # (see the stalks module docstring): the two degrees more that a run
    # at D + 2 takes add no generator and leave the lower dims as they are.
    col = stalk_ranks(_truncation(t, l, name))
    longer = _longer_column(t, l, name)
    assert col.profiles == longer.profiles
    assert col.ranks == longer.ranks
    assert len(col.section_dims) == col.degree_bound - 1
    assert col.section_dims == longer.section_dims[: col.degree_bound - 1]


@pytest.mark.parametrize("vertex,delta", [((0, 0, 0), 1), ((0, 0, 0), -1), ((1, 0, -1), 1)])
def test_certificate_names_a_vertex_off_its_multiplicity(monkeypatch, vertex, delta):
    # One multiplicity off by one: the profiles are right, so only the
    # certificate can refuse the column, and it names that vertex alone.
    rs, g = adjoint_graph("A", 2)
    real = weights.freudenthal_weight_table

    def off_by_one(lam, rs):
        table = real(lam, rs)
        table[vertex] += delta
        return table

    assert run_column(g, 3).ranks[vertex] == real(g.lam, rs)[vertex]
    monkeypatch.setattr(weights, "freudenthal_weight_table", off_by_one)
    with pytest.raises(DegreeBoundError, match=re.escape(f"at vertices {[vertex]} ")):
        run_column(g, 3)


def test_graph_with_a_coweight_that_is_not_dominant_is_refused_up_front(monkeypatch):
    # The A2 adjoint graph with the lowest root as its top: no weight
    # table exists for it, so nothing may be eliminated.
    rs, g = adjoint_graph("A", 2)
    lowest = tuple(-x for x in rs.highest_root)
    flipped = MomentGraph(rs, lowest, g.vertices, g.edges)
    assert flipped.linear_extension()[-1] == lowest

    def untouchable(*args):
        raise AssertionError("reached an elimination")

    monkeypatch.setattr(kernels, "nullspace_of_rows", untouchable)
    monkeypatch.setattr(kernels, "IntRREF", untouchable)
    with pytest.raises(ValueError, match="must be dominant"):
        run_column(flipped, 3)


@pytest.mark.parametrize("t,l,scale", [("A", 4, 1), ("D", 4, 1), ("A", 3, 2)])
def test_subtorus_profiles_pass_the_q_certificate(t, l, scale):
    # The convention of test_generator_profile_shape_matches_graded_oracle:
    # the generator degrees are the q-powers up to one shift per vertex.
    rs = rsys.build(t, l)
    lam = tuple(scale * x for x in rs.highest_root)
    col = stalk_ranks(Truncation(rs, lam))
    assert len(col.profiles) == len(col.graph.vertices)
    for v, profile in col.profiles.items():
        graded = weight_multiplicity(lam, v, rs, q_graded=True)
        powers = [k for k, c in enumerate(graded.coeffs) for _ in range(c)]
        prof = sorted(profile)
        shift = powers[0] - prof[0]
        assert [p + shift for p in prof] == powers, (v, profile, graded.coeffs)


def _column_over(monkeypatch, tr, projections):
    """A cold stalk_ranks column whose candidate projections are
    ``projections``; returns the column and the plane graph it ran on."""
    planes = []
    real = stalks._plane_graph
    monkeypatch.setattr(stalks, "_COLUMN_CACHE", {})
    monkeypatch.setattr(stalks, "_projections", lambda n: iter(projections))
    monkeypatch.setattr(stalks, "_plane_graph", lambda g: planes.append(real(g)) or planes[-1])
    col = stalk_ranks(tr)
    (plane,) = planes
    assert plane.num_vars == 2
    return col, plane


def test_two_projections_give_the_same_profiles(monkeypatch):
    rs = rsys.build("A", 3)
    tr = Truncation(rs, tuple(2 * x for x in rs.highest_root))
    cols, labels = [], []
    for seed in (1, 2):
        rng = random.Random(seed)
        candidates = ([[rng.randint(-50, 50) for _ in range(4)] for _ in range(2)]
                      for _ in range(1000))
        col, plane = _column_over(monkeypatch, tr, candidates)
        cols.append(col)
        labels.append([e.label for e in plane.edges])
    assert labels[0] != labels[1]
    assert cols[0].profiles == cols[1].profiles
    assert cols[0].section_dims == cols[1].section_dims
    zero = rsys.zero_vec(rs)
    assert cols[0].ranks[zero] == weight_multiplicity(tr.lam, zero, rs) > 1


def test_degenerate_projections_are_never_used(monkeypatch):
    rs = rsys.build("A", 2)
    tr = Truncation(rs, rs.highest_root)
    g = build_graph(tr)
    # Dropping delta makes gamma + delta and gamma - delta equal at the
    # origin; keeping delta alone sends every label with k = 0 to zero.
    proportional = [[1, 0, 0], [0, 1, 0]]
    zero = [[0, 0, 1], [0, 0, 2]]
    good = [[3, -7, 11], [-5, 2, 13]]
    assert gkm_violations(g._projected(proportional))
    assert any(not any(e.label) for e in g._projected(zero).edges)
    assert not gkm_violations(g._projected(good))
    col, plane = _column_over(monkeypatch, tr, [zero, proportional, good])
    assert plane.edges == g._projected(good).edges
    assert col.profiles == _n_variable_column("A", 2, "theta").profiles
    with pytest.raises(StopIteration):
        _column_over(monkeypatch, tr, [zero, proportional])


def _tampered_a2_graph(edit):
    """The A2 adjoint graph through its JSON export, with ``edit``
    applied to the exported edge list before the import."""
    rs = rsys.build("A", 2)
    payload = json.loads(export_graph(build_graph(Truncation(rs, rs.highest_root)), "json"))
    edit(payload["edges"])
    return import_graph(json.dumps(payload))


def _zero_label(edges):
    edges[0]["label"] = [0, 0, 0]


def _proportional_labels(edges):
    # A second edge at the first edge's lower end gets twice its label.
    u = edges[0]["u"]
    other = next(e for e in edges[1:] if u in (e["u"], e["v"]))
    other["label"] = [2 * c for c in edges[0]["label"]]


@pytest.mark.parametrize(
    "edit,message",
    [(_zero_label, "zero label"), (_proportional_labels, "proportional labels")],
    ids=["zero", "proportional"],
)
def test_graph_no_projection_can_fix_is_refused_up_front(monkeypatch, edit, message):
    # No projection separates these labels, so the search for one would
    # never end; run_column must refuse before projecting or eliminating.
    g = _tampered_a2_graph(edit)

    def untouchable(*args):
        raise AssertionError("reached past the label check")

    monkeypatch.setattr(stalks, "_projections", untouchable)
    monkeypatch.setattr(kernels, "IntRREF", untouchable)
    with pytest.raises(ValueError, match=message):
        run_column(g, 3)


def test_section_dims_lift_is_that_of_a_free_module():
    # b generators in degree k: b(d - k + 1) over Z[x, y] and
    # b C(d - k + n - 1, n - 1) over n variables.
    plane = tuple(2 * (d + 1) + (d - 1 if d >= 2 else 0) for d in range(6))
    assert stalks._lift_section_dims(plane, 2) == plane
    assert stalks._lift_section_dims(plane, 4) == tuple(
        2 * comb(d + 3, 3) + (comb(d + 1, 3) if d >= 2 else 0) for d in range(6)
    )
    with pytest.raises(AssertionError, match="free module"):
        stalks._lift_section_dims((1, 1, 1), 3)


def test_column_cache_is_emptied_past_its_ceiling(monkeypatch):
    # A miss empties a cache that holds more than MAX_CACHED_COLUMNS
    # columns before its column runs; a hit leaves it as it is.
    monkeypatch.setattr(stalks, "MAX_CACHED_COLUMNS", 2)
    monkeypatch.setattr(stalks, "_COLUMN_CACHE", {})
    rs = rsys.build("A", 1)
    trs = [Truncation(rs, (k, -k)) for k in range(1, 5)]
    cols = [stalk_ranks(tr) for tr in trs[:3]]
    assert len(stalks._COLUMN_CACHE) == 3
    assert stalk_ranks(trs[0]) is cols[0]
    assert len(stalks._COLUMN_CACHE) == 3
    col = stalk_ranks(trs[3])
    assert list(stalks._COLUMN_CACHE.values()) == [col]
    assert stalk_ranks(trs[0]).profiles == cols[0].profiles
