"""Standalone section spaces over explicit free stalks.

An independent route to the section dimensions of the stalk engine:
one global congruence system per degree, solved from scratch into a
vector-space basis.  ``stalks.run_column`` instead carries module
generators one vertex at a time, keeps only the ``ker phi`` vectors
that the leading-slot pruning does not discard, and counts
``dim Gamma_d`` as the running sum of ``dim F(x)_d - dim M_d``; this
module shares only the elimination kernel with it, and takes its slot
layout from the n-variable oracle (``nvar_oracle._Layout``).
It covers the hand-checkable case of free stalks with coordinate-wise
restriction along every edge, such as the all-smooth columns whose
stalks are all free of rank one.
"""

from __future__ import annotations

from dataclasses import dataclass

from gkmfactor import kernels
from gkmfactor.momentgraph import MomentGraph
from gkmfactor.rootsystem import Vec
from nvar_oracle import _Layout, label_vars, monomials, reduced_monomials, reducer_for


def reduce_poly(red, p: dict) -> dict:
    """Scaled image of a homogeneous polynomial ``p`` in S/(L), summed
    from the images of its monomials under the reducer ``red``."""
    out: dict = {}
    for exp, coef in p.items():
        for m, c in red.reduce_monomial(exp).items():
            out[m] = out.get(m, 0) + coef * c
    return {m: c for m, c in out.items() if c}


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
        n = label_vars(self.graph)
        for d in range(self.degree_bound + 1):
            layout = self.layouts[d]
            for vec in self.bases[d]:
                for e, u, v in self.internal_edges():
                    red = reducer_for(e.label, n)
                    diff: dict = {}
                    for key, sign in ((u, 1), (v, -1)):
                        for j, t in enumerate(self.stalk_degrees[key]):
                            index = layout.lookup.get((key, j))
                            if index is None:
                                continue
                            for exp, slot in index.items():
                                c = vec.get(slot)
                                if c:
                                    diff[(j, exp)] = diff.get((j, exp), 0) + sign * c
                    by_gen: dict = {}
                    for (j, exp), c in diff.items():
                        by_gen.setdefault(j, {})[exp] = c
                    for p in by_gen.values():
                        if reduce_poly(red, p):
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
            if g.level(v) < g.level(w) and w not in uset:
                raise ValueError(f"upper set is not upward closed: missing {w}")
        if v not in stalks:
            raise ValueError(f"vertex {v} has no assigned stalk")
    n = label_vars(g)
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
                    for exp, slot in layout.lookup[(key, j)].items():
                        for rexp, c in red.reduce_monomial(exp).items():
                            rkey = (id(e), j, rindex[rexp])
                            row = rows.setdefault(rkey, {})
                            w = row.get(slot, 0) + sign * c
                            if w:
                                row[slot] = w
                            elif slot in row:
                                del row[slot]
        kern = kernels.nullspace_of_rows(rows.values(), len(layout.info))
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
