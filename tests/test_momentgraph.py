"""Moment graph construction against a brute-force edge-rule oracle
and against the direct constructions of ``graph_oracle``."""

import itertools
import json

import pytest

from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import (
    Edge,
    MomentGraph,
    Truncation,
    build_graph,
    export_graph,
    gkm_violations,
    import_graph,
    proportional_labels,
)
from gkmfactor.poly import primitive_form
from gkmfactor.weights import freudenthal_weight_table
from graph_oracle import freudenthal_table, membership_weights, pair_edges


def incident_labels(g, v):
    return [g.edges[k].label for k in g.adjacency[g.vindex[v]]]


def brute_edges(rs, vertices):
    """Independent enumeration of the edge rule: unordered pairs whose
    difference is a nonzero integer multiple of a (co)root."""
    out = set()
    vs = sorted(vertices)
    for i, mu in enumerate(vs):
        for nu in vs[i + 1:]:
            diff = tuple(a - b for a, b in zip(nu, mu))
            for alpha in rs.positive_roots:
                for n in range(-12, 13):
                    if n and diff == tuple(n * a for a in alpha):
                        out.add((mu, nu, alpha, n))
    return out


def test_a1_adjoint_by_hand():
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    alpha = rs.highest_root
    zero = (0, 0)
    assert set(g.vertices) == {alpha, tuple(-x for x in alpha), zero}
    assert len(g.edges) == 3
    labels_at_zero = sorted(incident_labels(g, zero))
    # alpha - delta and alpha + delta in (simple coefficient, delta) coords
    assert labels_at_zero == [(1, -1), (1, 1)]
    root_edge = [e for e in g.edges if zero not in (g.vertices[e.u], g.vertices[e.v])]
    assert len(root_edge) == 1
    assert root_edge[0].label == (1, 0)


def test_trivial_truncation():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rsys.zero_vec(rs)))
    assert len(g.vertices) == 1
    assert g.edges == ()


def test_non_dominant_rejected():
    rs = rsys.build("A", 2)
    with pytest.raises(ValueError):
        Truncation(rs, tuple(-x for x in rs.highest_root))


def test_truncation_off_the_coweight_lattice_rejected():
    # Dominant, but it pairs to 1/4 with alpha1 of E6.
    rs = rsys.build("E", 6)
    with pytest.raises(ValueError, match="not in the coweight lattice of E6"):
        Truncation(rs, (0, 0, 0, 0, 0, 0, 0, 1))


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_adjoint_vertex_count(t, l):
    rs = rsys.build(t, l)
    g = build_graph(Truncation(rs, rs.highest_root))
    assert len(g.vertices) == rs.num_roots + 1


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3)])
def test_edges_match_brute_enumeration(t, l):
    rs = rsys.build(t, l)
    g = build_graph(Truncation(rs, rs.highest_root))
    expected = brute_edges(rs, g.vertices)
    assert len(g.edges) == len(expected)
    got = {
        tuple(sorted((g.vertices[e.u], g.vertices[e.v]))) for e in g.edges
    }
    assert got == {tuple(sorted((mu, nu))) for mu, nu, _, _ in expected}


def test_a2_origin_valency_and_edge_count():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    assert len(incident_labels(g, zero)) == 6
    # 6 edges at the origin plus 9 among the root vertices by enumeration.
    assert len(g.edges) == 15


def test_edge_label_symmetry():
    # k = n + <alpha, mu> computed from either endpoint agrees.
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    for e in g.edges:
        mu, nu = g.vertices[e.u], g.vertices[e.v]
        alpha_coeffs, k = e.label[:-1], e.label[-1]
        alpha = tuple(
            sum(c * a[i] for c, a in zip(alpha_coeffs, rs.simple_roots))
            for i in range(rs.ambient_dim)
        )
        diff = tuple(a - b for a, b in zip(nu, mu))
        first = next(i for i, c in enumerate(alpha) if c)
        n = diff[first] // alpha[first]
        assert diff == tuple(n * a for a in alpha)
        assert k == n + rsys.pairing(rs, mu, alpha)
        assert k == -n + rsys.pairing(rs, nu, alpha)


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_gkm_independence(t, l):
    rs = rsys.build(t, l)
    g = build_graph(Truncation(rs, rs.highest_root))
    assert gkm_violations(g) == []


def test_labels_at_origin_need_delta():
    # Finite parts at the origin come in proportional pairs; the delta
    # coefficient separates them.
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    finite = [primitive_form(label[:-1]) for label in incident_labels(g, zero)]
    assert len(set(finite)) == len(finite) // 2


def test_order_sanity():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    for v in g.vertices:
        if v != zero:
            assert g.level(zero) < g.level(v)
        assert g.level(v) <= g.level(rs.highest_root)


def test_every_edge_is_oriented_by_the_order():
    for t, l in [("A", 2), ("A", 3), ("D", 4)]:
        rs = rsys.build(t, l)
        g = build_graph(Truncation(rs, rs.highest_root))
        for e in g.edges:
            u, v = g.vertices[e.u], g.vertices[e.v]
            assert g.level(u) != g.level(v)


def test_linear_extension_respects_levels():
    import random

    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    ext = g.linear_extension(random.Random(4))
    assert ext[-1] == rs.highest_root
    pos = {v: i for i, v in enumerate(ext)}
    for u in g.vertices:
        for v in g.vertices:
            if g.level(u) < g.level(v):
                assert pos[u] < pos[v]


def test_json_round_trip():
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    text = export_graph(g, "json")
    assert import_graph(text) == g
    payload = json.loads(text)
    assert len(payload["vertices"]) == 3
    assert len(payload["edges"]) == 3
    assert all(set(e) == {"u", "v", "label"} for e in payload["edges"])


def test_dot_export_counts():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    dot = export_graph(g, "dot")
    assert dot.count(" -- ") == 15
    assert dot.count("[label=") == 15 + 7
    single = build_graph(Truncation(rs, rsys.zero_vec(rs)))
    sdot = export_graph(single, "dot")
    assert sdot.count(" -- ") == 0
    assert sdot.count("[label=") == 1


def test_unknown_format_rejected():
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    with pytest.raises(ValueError):
        export_graph(g, "gml")


def test_gkm_violations_order():
    # Five labels at vertex 0 in three proportionality classes, and one
    # proportional pair at vertex 1: the triples come by vertex, then by
    # the first label's position, then by the second's.
    rs = rsys.build("A", 2)
    vs = rsys.weights_of(rs, rs.highest_root)[:6]
    labels = [(1, 1, 0), (0, 1, 1), (2, 2, 0), (0, -1, -1), (-1, -1, 0)]
    edges = [Edge(0, j, l) for j, l in enumerate(labels, 1)]
    edges += [Edge(1, 2, (1, 0, 0)), Edge(1, 3, (-2, 0, 0))]
    adjacency = {i: [k for k, e in enumerate(edges) if i in (e.u, e.v)] for i in range(6)}
    assert proportional_labels(vs, adjacency, [e.label for e in edges]) == [
        (vs[0], (1, 1, 0), (2, 2, 0)),
        (vs[0], (1, 1, 0), (-1, -1, 0)),
        (vs[0], (0, 1, 1), (0, -1, -1)),
        (vs[0], (2, 2, 0), (-1, -1, 0)),
        (vs[1], (1, 0, 0), (-2, 0, 0)),
    ]


def _sums_of_two(t, r):
    """(type, rank, coweight) for every dominant coweight of ``t r`` that is
    a sum of at most two integral fundamental coweights or theta and has
    at most 150 weights; theta = omega2 on D4, D5 and E6 counts once."""
    rs = rsys.build(t, r)
    gens = [rs.highest_root]
    for i in range(1, r + 1):
        try:
            gens.append(rsys.fundamental_coweight(rs, i))
        except ValueError:
            pass
    lams = {rsys.zero_vec(rs)} | set(gens)
    lams |= {tuple(map(sum, zip(a, b))) for a, b in itertools.combinations_with_replacement(gens, 2)}
    return [
        (t, r, lam) for lam in sorted(lams)
        if sum(1 for _ in itertools.islice(rsys.iter_weights(rs, lam), 151)) <= 150
    ]


def _assert_matches_oracles(rs, lam):
    weights = membership_weights(rs, lam)
    assert rsys.weights_of(rs, lam) == weights
    assert rsys.dominant_weights_of(rs, lam) == [v for v in weights if rsys.is_dominant(rs, v)]
    assert list(freudenthal_weight_table(lam, rs).items()) == list(freudenthal_table(rs, lam).items())
    g = build_graph(Truncation(rs, lam))
    assert g.vertices == tuple(rsys.total_order_extension(weights, rs))
    assert list(g.edges) == pair_edges(rs, g.vertices)


ORACLE_CASES = [
    case
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]
    for case in _sums_of_two(t, r)
]


@pytest.mark.parametrize("t,r,lam", ORACLE_CASES, ids=lambda x: str(x).replace(" ", ""))
def test_structured_walks_match_oracles(t, r, lam):
    _assert_matches_oracles(rsys.build(t, r), lam)


@pytest.mark.expensive
@pytest.mark.parametrize("t,r,times", [("E", 7, 1), ("E", 8, 1), ("A", 5, 2), ("D", 5, 2)])
def test_structured_walks_match_oracles_on_large_truncations(t, r, times):
    # The pair scan takes 1-6 s on each of these.
    rs = rsys.build(t, r)
    _assert_matches_oracles(rs, tuple(times * x for x in rs.highest_root))
