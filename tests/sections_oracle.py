"""Standalone section spaces over explicit free stalks.

An independent route to the section dimensions of the stalk engine:
one global congruence system per degree, solved from scratch, where
``stalks.run_column`` extends its section bases one vertex at a time.
It covers the hand-checkable case of free stalks with coordinate-wise
restriction along every edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from gkmfactor import kernels
from gkmfactor.momentgraph import MomentGraph
from gkmfactor.poly import monomials, reduced_monomials, reducer_for
from gkmfactor.rootsystem import Vec
from gkmfactor.stalks import _Layout


@dataclass
class GradedSectionSpace:
    """Per-degree bases of edge-compatible tuples over an upper set."""

    graph: MomentGraph
    vertices: tuple[Vec, ...]
    stalk_degrees: dict
    degree_bound: int
    layouts: list
    bases: list

    def dimension(self, d: int) -> int:
        return len(self.bases[d])

    def internal_edges(self):
        vs = set(self.vertices)
        for e in self.graph.edges:
            u, v = self.graph.vertices[e.u], self.graph.vertices[e.v]
            if u in vs and v in vs:
                yield e, u, v

    def verify_congruences(self) -> bool:
        """Re-check every basis element against every internal edge."""
        n = self.graph.num_vars
        for d in range(self.degree_bound + 1):
            layout = self.layouts[d]
            for vec in self.bases[d]:
                for e, u, v in self.internal_edges():
                    red = reducer_for(e.label, n)
                    diff: dict = {}
                    for key, sign in ((u, 1), (v, -1)):
                        for j, t in enumerate(self.stalk_degrees[key]):
                            block = layout.lookup.get((key, j))
                            if block is None:
                                continue
                            offset, monos, _ = block
                            for i, exp in enumerate(monos):
                                c = vec.get(offset + i)
                                if c:
                                    diff[(j, exp)] = diff.get((j, exp), 0) + sign * c
                    by_gen: dict = {}
                    for (j, exp), c in diff.items():
                        by_gen.setdefault(j, {})[exp] = c
                    for p in by_gen.values():
                        if red.reduce_poly(p):
                            return False
        return True


def free_stalk_assignment(vertices, degrees=(0,)) -> dict:
    return {tuple(v): tuple(degrees) for v in vertices}


def section_space(g: MomentGraph, upper, stalks: dict, D: int) -> GradedSectionSpace:
    """Sections of a free-stalk assignment over an upward-closed set.

    Congruences are imposed generator-wise, which requires equal
    generator degree lists across every internal edge (the general
    constructed maps live in the recursion engine).  Raises if ``upper``
    is not upward closed or a vertex has no stalk.
    """
    upper = [tuple(v) for v in upper]
    uset = set(upper)
    for v in upper:
        for w in g.vertices:
            if w != v and g.order_leq(v, w) and w not in uset:
                raise ValueError(f"upper set is not upward closed: missing {w}")
        if v not in stalks:
            raise ValueError(f"vertex {v} has no assigned stalk")
    n = g.num_vars
    layouts = []
    bases = []
    internal = []
    for e in g.edges:
        u, v = g.vertices[e.u], g.vertices[e.v]
        if u in uset and v in uset:
            if tuple(stalks[u]) != tuple(stalks[v]):
                raise ValueError(
                    "generator-wise congruences need matching degree lists "
                    f"across the edge {u} -- {v}"
                )
            internal.append((e, u, v))
    ordered = sorted(upper, key=lambda v: (g.level(v), v), reverse=True)
    for d in range(D + 1):
        layout = _Layout()
        for v in ordered:
            for j, t in enumerate(stalks[v]):
                if d >= t:
                    layout.add_block(v, j, monomials(n, d - t))
        rows: dict = {}
        for e, u, v in internal:
            red = reducer_for(e.label, n)
            for j, t in enumerate(stalks[u]):
                if d < t:
                    continue
                rindex = {m: i for i, m in enumerate(reduced_monomials(n, d - t, red.pivot))}
                for key, sign in ((u, 1), (v, -1)):
                    block = layout.lookup[(key, j)]
                    offset, monos, _ = block
                    for i, exp in enumerate(monos):
                        for rexp, c in red.reduce_monomial(exp).items():
                            rkey = (id(e), j, rindex[rexp])
                            row = rows.setdefault(rkey, {})
                            w = row.get(offset + i, 0) + sign * c
                            if w:
                                row[offset + i] = w
                            elif offset + i in row:
                                del row[offset + i]
        kern = kernels.nullspace_of_rows(rows.values(), layout.total)
        layouts.append(layout)
        bases.append(kern)
    return GradedSectionSpace(
        graph=g,
        vertices=tuple(ordered),
        stalk_degrees={v: tuple(stalks[v]) for v in upper},
        degree_bound=D,
        layouts=layouts,
        bases=bases,
    )
