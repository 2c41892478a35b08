"""GKM moment graphs of truncated affine Grassmannians.

Vertices are the torus-fixed points of a truncation: the weight set of
the irreducible with highest coweight ``lam``.  Two vertices ``mu, nu``
are joined when ``nu - mu = n * alpha`` for a positive root ``alpha``
(coroots are identified with roots) and a nonzero integer ``n``; the
edge label is the affine character ``alpha + k*delta`` with
``k = n + <alpha, mu>``, the unique affine reflection datum carrying one
endpoint to the other.  Labels are stored as integer coefficient
vectors over (simple roots..., delta), which keeps every downstream
congruence computation integral.

Labels at the origin of an adjoint truncation come in pairs
``gamma + delta, gamma - delta``; without the loop direction delta they
would be proportional and the GKM independence of incident labels would
fail.  Independence is asserted for every constructed graph.

The recursion order on vertices grades each fixed point by the
dimension of its attracting cell,
``d(nu) = sum over positive roots of chi(<beta, nu>)`` with
``chi(m) = m`` for positive values, ``-m - 1`` for negative ones and
``0`` at zero.  Vertices joined by an edge always sit on distinct
levels (an affine reflection strictly changes the cell dimension), so
every edge is oriented by the order; the origin is the unique minimum
of an adjoint truncation and the truncation coweight the unique
maximum.  Stalk computations use linear extensions of this order, and
rank invariance across extensions is part of the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import rootsystem as rsys
from .poly import forms_proportional, primitive_form
from .rootsystem import RootSystem, Vec


@dataclass(frozen=True)
class Truncation:
    """A root system together with a dominant cutoff coweight."""

    rs: RootSystem
    lam: Vec

    def __post_init__(self):
        if not rsys.is_dominant(self.rs, self.lam):
            raise ValueError("truncation coweight must be dominant")

    def vertex_set(self) -> list[Vec]:
        return rsys.weights_of(self.rs, self.lam)


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    label: tuple[int, ...]


class MomentGraph:
    """Immutable labeled graph with the recursion order; see module doc."""

    def __init__(self, rs: RootSystem, lam: Vec, vertices, edges):
        self.rs = rs
        self.lam = tuple(lam)
        self.vertices: tuple[Vec, ...] = tuple(tuple(v) for v in vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.edges: tuple[Edge, ...] = tuple(edges)
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.vertices))}
        for k, e in enumerate(self.edges):
            adj[e.u].append(k)
            adj[e.v].append(k)
        self.adjacency = adj
        self._level = {
            i: self._level_key(v) for i, v in enumerate(self.vertices)
        }

    def _level_key(self, v: Vec):
        if v == self.lam:
            return (1, 0)
        d = 0
        for beta in self.rs.positive_roots:
            p = rsys.pairing(self.rs, v, beta)
            if p > 0:
                d += p
            elif p < 0:
                d += -p - 1
        return (0, d)

    @property
    def num_vars(self) -> int:
        """Label coordinates: rank-many finite directions plus delta."""
        return self.rs.rank + 1

    def level(self, v: Vec):
        return self._level[self.vindex[v]]

    def order_leq(self, u: Vec, v: Vec) -> bool:
        if u == v:
            return True
        return self._level[self.vindex[u]] < self._level[self.vindex[v]]

    def linear_extension(self, rng=None) -> list[Vec]:
        """Vertices in ascending order.  Default tie-break is
        lexicographic; passing a ``random.Random`` shuffles within level
        classes, producing a uniformly random linear extension."""
        if rng is None:
            return sorted(self.vertices, key=lambda v: (self._level[self.vindex[v]], v))
        jitter = {v: rng.random() for v in self.vertices}
        return sorted(
            self.vertices,
            key=lambda v: (self._level[self.vindex[v]], jitter[v]),
        )

    def incident_edges(self, x: Vec) -> list[Edge]:
        return [self.edges[k] for k in self.adjacency[self.vindex[x]]]

    def __eq__(self, other):
        if not isinstance(other, MomentGraph):
            return NotImplemented
        return (
            self.rs.type_label == other.rs.type_label
            and self.rs.rank == other.rs.rank
            and self.lam == other.lam
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return (
            f"MomentGraph({self.rs.type_label}{self.rs.rank}, lam={self.lam}, "
            f"{len(self.vertices)} vertices, {len(self.edges)} edges)"
        )


def _edge_datum(rs: RootSystem, mu: Vec, nu: Vec):
    """The (positive root, n) with nu - mu = n*root, or None."""
    diff = tuple(a - b for a, b in zip(nu, mu))
    for alpha in rs.positive_roots:
        k = next(i for i, c in enumerate(alpha) if c)
        if diff[k] % alpha[k]:
            continue
        n = diff[k] // alpha[k]
        if n and all(d == n * a for d, a in zip(diff, alpha)):
            return alpha, n
    return None


def build_graph(tr: Truncation) -> MomentGraph:
    """Construct the moment graph of a truncation.

    Vertices follow the deterministic total order; the GKM independence
    of incident labels is asserted before returning.
    """
    rs = tr.rs
    vertices = rsys.total_order_extension(tr.vertex_set(), rs)
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            datum = _edge_datum(rs, vertices[i], vertices[j])
            if datum is None:
                continue
            alpha, n = datum
            k = n + rsys.pairing(rs, vertices[i], alpha)
            label = tuple(rs.root_simple_coeffs[alpha]) + (int(k),)
            edges.append(Edge(i, j, label))
    g = MomentGraph(rs, tr.lam, vertices, edges)
    bad = gkm_violations(g)
    if bad:
        v, a, b = bad[0]
        raise AssertionError(f"proportional labels {a} and {b} at vertex {v}")
    for e in g.edges:
        if g._level[e.u] == g._level[e.v]:
            raise AssertionError(
                f"edge {g.vertices[e.u]} -- {g.vertices[e.v]} joins equal levels; "
                "the cell-dimension grading should orient every edge"
            )
    return g


def gkm_violations(g: MomentGraph) -> list:
    """Pairs of proportional labels at a common vertex (empty when GKM holds)."""
    out = []
    for i, v in enumerate(g.vertices):
        labels = [g.edges[k].label for k in g.adjacency[i]]
        prims = [primitive_form(l) for l in labels]
        for a in range(len(prims)):
            for b in range(a + 1, len(prims)):
                if forms_proportional(prims[a], prims[b]):
                    out.append((v, labels[a], labels[b]))
    return out


def export_graph(g: MomentGraph, fmt: str) -> str:
    """Serialize to ``dot`` or ``json``.

    The JSON payload round-trips losslessly through
    :func:`import_graph`; the order field lists every strictly related
    vertex index pair.
    """
    if fmt == "json":
        order_pairs = [
            [i, j]
            for i in range(len(g.vertices))
            for j in range(len(g.vertices))
            if i != j and g._level[i] < g._level[j]
        ]
        payload = {
            "type": g.rs.type_label,
            "rank": g.rs.rank,
            "coweight": list(g.lam),
            "vertices": [list(v) for v in g.vertices],
            "edges": [
                {"u": e.u, "v": e.v, "label": list(e.label)} for e in g.edges
            ],
            "order": order_pairs,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "dot":
        lines = ["graph moment_graph {"]
        for i, v in enumerate(g.vertices):
            coords = ",".join(str(x) for x in v)
            lines.append(f'  n{i} [label="({coords})"];')
        for e in g.edges:
            coords = ",".join(str(x) for x in e.label)
            lines.append(f'  n{e.u} -- n{e.v} [label="({coords})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (need dot or json)")


def import_graph(text: str) -> MomentGraph:
    """Rebuild a moment graph from its JSON export."""
    payload = json.loads(text)
    rs = rsys.build(payload["type"], payload["rank"])
    vertices = [tuple(v) for v in payload["vertices"]]
    edges = [
        Edge(e["u"], e["v"], tuple(e["label"])) for e in payload["edges"]
    ]
    return MomentGraph(rs, tuple(payload["coweight"]), vertices, edges)
