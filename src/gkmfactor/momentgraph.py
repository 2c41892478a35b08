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

The weight set is saturated: each alpha-string through a weight is
unbroken (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, §21.3).  So the neighbours of ``mu`` along ``alpha`` are the
run of ``mu + n*alpha`` that stays in the set, and edges are found by
walking root strings through a vertex index, not by testing pairs.

Labels at the origin of an adjoint truncation come in pairs
``gamma + delta, gamma - delta``; without the loop direction delta they
would be proportional and the GKM independence of incident labels would
fail.  Independence is asserted for every constructed graph: two labels
are proportional exactly when their primitive forms are equal, so the
labels at a vertex are grouped by primitive form.

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

import copy
import json
from typing import NamedTuple

from . import rootsystem as rsys
from .poly import primitive_form
from .rootsystem import RootSystem, Vec


class Truncation(NamedTuple("Truncation", [("rs", RootSystem), ("lam", Vec)])):
    """A root system together with a dominant cutoff coweight."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, lam: Vec):
        rsys.check_coweight(rs, lam)
        if not rsys.is_dominant(rs, lam):
            raise ValueError("truncation coweight must be dominant")
        return super().__new__(cls, rs, lam)

    def vertex_set(self) -> list[Vec]:
        return rsys.weights_of(self.rs, self.lam)


class Edge(NamedTuple):
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
        self._num_vars = rs.rank + 1
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
        """Label coordinates: rank-many finite directions plus delta, or
        the rows of the projection of a :meth:`_projected` graph."""
        return self._num_vars

    def _projected(self, P) -> MomentGraph:
        """This graph with every label ``l`` replaced by ``P l``, over
        ``len(P)`` variables.  Vertices, adjacency and levels are shared
        with this graph, which is left as it is."""
        g = copy.copy(self)
        g.edges = tuple(
            Edge(e.u, e.v, tuple(sum(p * c for p, c in zip(row, e.label)) for row in P))
            for e in self.edges
        )
        g._num_vars = len(P)
        return g

    def level(self, v: Vec):
        return self._level[self.vindex[v]]

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


def build_graph(tr: Truncation) -> MomentGraph:
    """Construct the moment graph of a truncation.

    Vertices follow the deterministic total order; the GKM independence
    of incident labels is asserted before returning.
    """
    rs = tr.rs
    vertices = rsys.total_order_extension(tr.vertex_set(), rs)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, mu in enumerate(vertices):
        # mu + n alpha (n > 0) sits higher in the order, so each edge is
        # found once, from its lower endpoint.
        for alpha in rs.positive_roots:
            nu = tuple(x + a for x, a in zip(mu, alpha))
            n = 1
            while nu in index:
                k = n + rsys.pairing(rs, mu, alpha)
                edges.append(Edge(i, index[nu], rs.root_simple_coeffs[alpha] + (k,)))
                nu = tuple(x + a for x, a in zip(nu, alpha))
                n += 1
    edges.sort(key=lambda e: (e.u, e.v))
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
    """Pairs of proportional labels at a common vertex (empty when GKM
    holds), in the order of their positions around the vertex."""
    edge_prims = [primitive_form(e.label) for e in g.edges]
    out = []
    for i, v in enumerate(g.vertices):
        prims = [edge_prims[k] for k in g.adjacency[i]]
        if len(set(prims)) == len(prims):
            continue
        labels = [g.edges[k].label for k in g.adjacency[i]]
        group: dict[tuple[int, ...], list[int]] = {}
        for b, p in enumerate(prims):
            group.setdefault(p, []).append(b)
        for a, p in enumerate(prims):
            out.extend((v, labels[a], labels[b]) for b in group[p] if b > a)
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
