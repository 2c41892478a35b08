"""Moment graph construction against a brute-force edge-rule oracle."""

import json

import pytest

from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import (
    Truncation,
    build_graph,
    export_graph,
    gkm_violations,
    import_graph,
)
from gkmfactor.poly import primitive_form


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
    labels_at_zero = sorted(
        e.label for e in g.incident_edges(zero)
    )
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
    assert len(g.incident_edges(zero)) == 6
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
    finite = [primitive_form(e.label[:-1]) for e in g.incident_edges(zero)]
    assert len(set(finite)) == len(finite) // 2


def test_order_sanity():
    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    zero = rsys.zero_vec(rs)
    for v in g.vertices:
        if v != zero:
            assert g.order_leq(zero, v) and not g.order_leq(v, zero)
        assert g.order_leq(v, rs.highest_root)


def test_every_edge_is_oriented_by_the_order():
    for t, l in [("A", 2), ("A", 3), ("D", 4)]:
        rs = rsys.build(t, l)
        g = build_graph(Truncation(rs, rs.highest_root))
        for e in g.edges:
            u, v = g.vertices[e.u], g.vertices[e.v]
            assert g.order_leq(u, v) != g.order_leq(v, u) or u == v


def test_linear_extension_respects_levels():
    import random

    rs = rsys.build("A", 2)
    g = build_graph(Truncation(rs, rs.highest_root))
    ext = g.linear_extension(random.Random(4))
    assert ext[-1] == rs.highest_root
    pos = {v: i for i, v in enumerate(ext)}
    for u in g.vertices:
        for v in g.vertices:
            if g.order_leq(u, v) and u != v:
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
