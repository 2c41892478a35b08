"""Canonical-sheaf stalk ranks on moment graphs.

The canonical (Braden-MacPherson style) sheaf on a truncation's moment
graph is built top down along a linear extension of the graph order:

* the top vertex carries a free rank-one module generated in degree 0;
* at each later vertex ``x`` the space of compatible sections over the
  already-processed part is restricted to the edges running from ``x``
  upward, each component reduced modulo its edge label, giving the
  module of compatible boundary values;
* the stalk at ``x`` is the free module on a minimal generating system
  of that boundary module, and the number of generators (the fiber
  dimension at the maximal graded ideal, by graded Nakayama) is the
  stalk rank.

Everything is computed degree by degree in exact integer arithmetic on
the kernel backend.  The per-degree section bases are maintained
incrementally: processing a vertex solves only the congruences along
its own upward edges against the current basis, so the expensive global
elimination is never redone from scratch.

Each vertex step is the fibre product
``Gamma(I + {x}) = Gamma(I) x_{M_x} F(x)`` (Braden-MacPherson, *From
moment graphs to intersection cohomology*, Math. Ann. 2001; Fiebig,
*Sheaves on moment graphs and a localization of Verma flags*, Adv. Math.
2008).  Its kernel is solved with the slots of the new stalk ``F(x)``
ordered before the old sections.  Because ``F(x) -> M_x`` is onto, every
pivot lands on an ``x`` slot, so each new basis vector is either one old
section, scaled by a positive integer and extended by a component at
``x``, or a section supported at ``x`` alone.  Old section vectors are
shared between steps and never mutated; the nested dicts are only
shallow-copied or, for a coefficient other than one, rescaled.

Degree bounds.  Generator degrees of a stalk are bounded by half the
complex dimension of the truncation (stalk cohomology sits strictly
below the dimension), so the default bound is
``min(longest level chain + 2, (dim - 1)//2 + 2)`` with
``dim = <2 rho, lam>``.  A computation whose generator profile touches
the last two degrees is rejected (and automatically retried with a
larger bound when the bound was defaulted), so reported ranks are
always stability-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from types import MappingProxyType

from . import kernels
from . import rootsystem as rsys
from .momentgraph import MomentGraph, Truncation, build_graph
from .poly import (
    monomials,
    poly_mul,
    reduced_monomials,
    reducer_for,
)
from .rootsystem import Vec


class DegreeBoundError(ValueError):
    """Generator profile not stable below the degree bound; raise it."""


class RecursionOrderError(ValueError):
    """A vertex was reached with no processed neighbor above it."""


@dataclass
class Stalk:
    """Free graded module at a vertex: generator degrees plus, for each
    upward edge, the boundary components of each generator."""

    degrees: tuple[int, ...]
    edge_maps: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.degrees)


class _Layout:
    """Contiguous slot blocks, one per (key, generator) pair and degree."""

    __slots__ = ("lookup", "info", "total")

    def __init__(self):
        self.lookup = {}
        self.info = []
        self.total = 0

    def add_block(self, key, gen_idx, monos):
        index = {m: self.total + i for i, m in enumerate(monos)}
        block = (self.total, monos, index)
        self.lookup[(key, gen_idx)] = block
        for m in monos:
            self.info.append((key, gen_idx, m))
        self.total += len(monos)
        return block


@dataclass(frozen=True)
class ColumnResult:
    """Stalk data for one truncation column.

    Immutable, since :func:`stalk_ranks` hands cached results to every
    caller: ``ranks`` and ``profiles`` are read-only mapping views.
    """

    graph: MomentGraph
    degree_bound: int
    order: tuple[Vec, ...]
    ranks: MappingProxyType
    profiles: MappingProxyType
    section_dims: tuple[int, ...]

    def rank_at(self, v: Vec) -> int:
        return self.ranks[v]


def default_degree_bound(g: MomentGraph) -> int:
    chain = len({g.level(v) for v in g.vertices})
    dim = sum(rsys.pairing(g.rs, g.lam, a) for a in g.rs.positive_roots)
    cap = (dim - 1) // 2 + 2 if dim >= 1 else 2
    return max(2, min(chain + 2, cap))


def estimated_cells(g: MomentGraph, D: int | None = None) -> tuple[int, int]:
    """Peak per-degree coefficient slot count and the bound it assumes;
    the guard used for refusing oversized runs."""
    if D is None:
        D = default_degree_bound(g)
    n = g.num_vars
    return len(g.vertices) * comb(D + n - 1, n - 1), D


def _project_basis(vec, layout, ydict, reducers, blayout):
    """Boundary value of one flat section vector: per upward edge the
    upper components reduced modulo the edge label."""
    polys: dict = {}
    info = layout.info
    for slot, c in vec.items():
        key, j, exp = info[slot]
        if key in ydict:
            polys.setdefault((key, j), {})[exp] = c
    out: dict = {}
    for (y, j), poly_dict in polys.items():
        pos = ydict[y]
        red = reducers[pos].reduce_poly(poly_dict)
        if not red:
            continue
        block = blayout.lookup.get((pos, j))
        if block is None:
            continue
        index = block[2]
        for exp, c in red.items():
            slot = index[exp]
            w = out.get(slot, 0) + c
            if w:
                out[slot] = w
            elif slot in out:
                del out[slot]
    return out


def _project_nested(vec, ydict, reducers, blayout):
    """Boundary value of a nested section vector {vertex: {(gen, exp): c}}.

    Only the components at the upper neighbors are read, which keeps the
    cost proportional to the local valency rather than the full support.
    """
    out: dict = {}
    for y, pos in ydict.items():
        sub = vec.get(y)
        if not sub:
            continue
        polys: dict = {}
        for (j, exp), c in sub.items():
            polys.setdefault(j, {})[exp] = c
        red = reducers[pos]
        for j, poly_dict in polys.items():
            rp = red.reduce_poly(poly_dict)
            if not rp:
                continue
            block = blayout.lookup.get((pos, j))
            if block is None:
                continue
            index = block[2]
            for exp, c in rp.items():
                slot = index[exp]
                w = out.get(slot, 0) + c
                if w:
                    out[slot] = w
                elif slot in out:
                    del out[slot]
    return out


def _mult_var(row, var, prev_layout, cur_layout, reducers):
    """Multiply a boundary vector by a polynomial variable, component-wise
    in each edge's quotient ring."""
    out: dict = {}
    info = prev_layout.info
    for slot, c in row.items():
        pos, j, exp = info[slot]
        vf = reducers[pos].variable_form(var)
        index = cur_layout.lookup[(pos, j)][2]
        for ev, cv in vf.items():
            nexp = tuple(a + b for a, b in zip(exp, ev))
            ns = index[nexp]
            w = out.get(ns, 0) + c * cv
            if w:
                out[ns] = w
            elif ns in out:
                del out[ns]
    return out


def run_column(g: MomentGraph, D: int, extension=None) -> ColumnResult:
    """One full top-down pass over a truncation's moment graph.

    Raises :class:`DegreeBoundError` when some vertex has a minimal
    generator in the last two degrees (profile not yet stable), and
    :class:`RecursionOrderError` if the supplied extension strands a
    vertex with no processed upper neighbor.
    """
    n = g.num_vars
    order = list(extension) if extension is not None else g.linear_extension()
    if sorted(order) != sorted(g.vertices):
        raise ValueError("extension must enumerate the graph's vertices")
    if order[-1] != g.lam:
        raise ValueError("extension must put the truncation coweight on top")
    levels = [g.level(v) for v in order]
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise ValueError("extension must not invert the graph order's levels")

    # Section basis vectors are nested dicts {vertex: {(gen, exp): int}},
    # shared (never mutated) between steps when a vertex extension leaves
    # them untouched.
    bases: list[list[dict]] = [[] for _ in range(D + 1)]
    stalks: dict[Vec, Stalk] = {}
    ranks: dict[Vec, int] = {}
    profiles: dict[Vec, tuple[int, ...]] = {}
    processed: set = set()
    section_dims: tuple[int, ...] = ()

    for x in reversed(order):
        if not processed:
            stalks[x] = Stalk(degrees=(0,))
            ranks[x] = 1
            profiles[x] = (0,)
            for d in range(D + 1):
                for exp in monomials(n, d):
                    bases[d].append({x: {(0, exp): 1}})
            processed.add(x)
            continue

        xi = g.vindex[x]
        upedges = []
        for k in sorted(g.adjacency[xi]):
            e = g.edges[k]
            other = g.vertices[e.v if e.u == xi else e.u]
            if other in processed:
                upedges.append((k, e, other))
        if not upedges:
            raise RecursionOrderError(
                f"vertex {x} has no processed neighbor above it; "
                "the recursion order is violated"
            )
        reducers = [reducer_for(e.label, n) for _, e, _ in upedges]
        ydict = {y: pos for pos, (_, _, y) in enumerate(upedges)}

        # Boundary layouts and the projections of the current section bases.
        blayouts = []
        spans = []
        for d in range(D + 1):
            bl = _Layout()
            for pos, (_, _, y) in enumerate(upedges):
                pivot = reducers[pos].pivot
                for j, t in enumerate(stalks[y].degrees):
                    if d >= t:
                        bl.add_block(pos, j, reduced_monomials(n, d - t, pivot))
            blayouts.append(bl)
            spans.append(
                [_project_nested(vec, ydict, reducers, bl) for vec in bases[d]]
            )

        # Minimal generators of the boundary module, degree by degree.
        gen_degrees: list[int] = []
        gen_snapshots: list[tuple[int, dict]] = []
        prev_basis: list[dict] = []
        for d in range(D + 1):
            rr = kernels.IntRREF()
            for b in prev_basis:
                for i in range(n):
                    rr.add(_mult_var(b, i, blayouts[d - 1], blayouts[d], reducers))
            for s in spans[d]:
                col = rr.add(s)
                if col is not None:
                    gen_degrees.append(d)
                    gen_snapshots.append((d, rr.pivot_row(col)))
            prev_basis = [row for _, row in rr.pivot_items()]

        st = Stalk(degrees=tuple(gen_degrees))
        for gi, (d, snap) in enumerate(gen_snapshots):
            info = blayouts[d].info
            for slot, c in snap.items():
                pos, j, exp = info[slot]
                key = (upedges[pos][0], gi)
                st.edge_maps.setdefault(key, {}).setdefault(j, {})[exp] = c
        stalks[x] = st
        ranks[x] = st.rank
        profiles[x] = st.degrees
        processed.add(x)

        if len(processed) == len(order):
            # Sections over the upper set of the final vertex; no one
            # consumes an extension across the full graph.
            section_dims = tuple(len(b) for b in bases)
            break

        # Extend the section bases over the enlarged upper part.
        for d in range(D + 1):
            m = len(bases[d])
            xslots = []
            for gi, t in enumerate(st.degrees):
                if d >= t:
                    for exp in monomials(n, d - t):
                        xslots.append((gi, exp))
            # The x slots come first, so every pivot lands on one (see the
            # module docstring); old section i is column nx + i.
            nx = len(xslots)
            rows: dict = {}
            for i, srow in enumerate(spans[d]):
                for bslot, c in srow.items():
                    rows.setdefault(bslot, {})[nx + i] = -c
            for local, (gi, exp) in enumerate(xslots):
                for pos, (k, e, y) in enumerate(upedges):
                    comp = st.edge_maps.get((k, gi))
                    if not comp:
                        continue
                    red_mu = reducers[pos].reduce_monomial(exp)
                    if not red_mu:
                        continue
                    for j, p in comp.items():
                        prod = poly_mul(red_mu, p)
                        index = blayouts[d].lookup[(pos, j)][2]
                        for pexp, c in prod.items():
                            bslot = index[pexp]
                            row = rows.setdefault(bslot, {})
                            w = row.get(local, 0) + c
                            if w:
                                row[local] = w
                            elif local in row:
                                del row[local]
            kern = kernels.nullspace_of_rows(rows.values(), nx + m)

            new_basis = []
            for kvec in kern:
                old = None
                xsub: dict = {}
                for col, c in kvec.items():
                    if col < nx:
                        xsub[xslots[col]] = c
                    elif old is None:
                        old, coef = bases[d][col - nx], c
                    else:
                        raise AssertionError(
                            f"kernel vector at {x} in degree {d} touches two "
                            "old sections; phi is not onto the boundary module"
                        )
                if not xsub:
                    new_basis.append(old)
                    continue
                if old is None:
                    out = {}
                elif coef == 1:
                    out = dict(old)
                else:
                    out = {
                        vk: {key: coef * v for key, v in sub.items()}
                        for vk, sub in old.items()
                    }
                out[x] = xsub
                new_basis.append(out)
            bases[d] = new_basis

    unstable = sorted(
        v for v, prof in profiles.items() if any(d >= D - 1 for d in prof)
    )
    if unstable:
        raise DegreeBoundError(
            f"generator profile touches degrees {D - 1}..{D} at vertices "
            f"{unstable}; rerun with a larger degree bound than {D}"
        )

    return ColumnResult(
        graph=g,
        degree_bound=D,
        order=tuple(order),
        ranks=MappingProxyType(ranks),
        profiles=MappingProxyType(profiles),
        section_dims=section_dims,
    )


_COLUMN_CACHE: dict = {}


def stalk_ranks(tr: Truncation, D: int | None = None, extension=None) -> ColumnResult:
    """Stalk ranks of the canonical sheaf at every vertex of a truncation.

    With ``D`` unset the default bound is used and automatically
    escalated (at most three times) if the stability check trips; an
    explicit ``D`` that is too small raises :class:`DegreeBoundError`.
    Default-order results are cached per (root system, coweight, bound).
    """
    g = build_graph(tr)
    defaulted = D is None
    key = None
    if extension is None:
        key = (tr.rs.type_label, tr.rs.rank, tr.lam, "auto" if defaulted else D)
        cached = _COLUMN_CACHE.get(key)
        if cached is not None:
            return cached
    bound = default_degree_bound(g) if defaulted else D
    attempts = 0
    while True:
        try:
            result = run_column(g, bound, extension=extension)
            break
        except DegreeBoundError:
            if not defaulted or attempts >= 3:
                raise
            attempts += 1
            bound += 2
    if key is not None:
        _COLUMN_CACHE[key] = result
    return result


def stalk_rank_at(tr: Truncation, vertex: Vec, D: int | None = None) -> int:
    result = stalk_ranks(tr, D=D)
    if tuple(vertex) not in result.ranks:
        raise ValueError(f"{vertex} is not a vertex of the truncation")
    return result.ranks[tuple(vertex)]


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Stalk ranks of all truncation classes at all fixed points.

    Rows are the dominant coweights of the truncation (its irreducible
    classes), columns all vertices, both in the deterministic total
    order; ``entries[i][j]`` is the stalk rank of the row class's sheaf
    at the column vertex (zero off its support)."""

    row_coweights: tuple[Vec, ...]
    col_coweights: tuple[Vec, ...]
    entries: tuple[tuple[int, ...], ...]

    def entry(self, alpha: Vec, beta: Vec) -> int:
        return self.entries[self.row_coweights.index(tuple(alpha))][
            self.col_coweights.index(tuple(beta))
        ]

    def column_at(self, beta: Vec) -> dict:
        j = self.col_coweights.index(tuple(beta))
        return {a: self.entries[i][j] for i, a in enumerate(self.row_coweights)}

    def row_sum(self, alpha: Vec) -> int:
        return sum(self.entries[self.row_coweights.index(tuple(alpha))])

    def unitriangular_violations(self, rs) -> list:
        """Failures of: diagonal one, support below the row class,
        entries non-negative."""
        bad = []
        for i, a in enumerate(self.row_coweights):
            for j, b in enumerate(self.col_coweights):
                v = self.entries[i][j]
                if v < 0:
                    bad.append(("negative", a, b, v))
                if a == b and v != 1:
                    bad.append(("diagonal", a, b, v))
                if v != 0 and not rsys.dominance_leq(rs, b, a):
                    bad.append(("support", a, b, v))
        return bad


def multiplicity_matrix(tr: Truncation, D: int | None = None) -> MultiplicityMatrix:
    """Assemble the multiplicity matrix of a truncation: one recursion
    per dominant class on its own sub-truncation."""
    g = build_graph(tr)
    cols = g.vertices
    rows = tuple(
        v for v in cols if rsys.is_dominant(tr.rs, v)
    )
    entries = []
    for alpha in rows:
        column = stalk_ranks(Truncation(tr.rs, alpha), D=D)
        entries.append(tuple(column.ranks.get(b, 0) for b in cols))
    return MultiplicityMatrix(rows, cols, tuple(entries))


# ---------------------------------------------------------------------------
# Standalone section/boundary operations on explicit free stalk data.
# The recursion above builds restriction maps as it goes; these entry
# points cover the common hand-checkable case of free stalks with
# coordinate-wise restriction, and are cross-checked against the engine.


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


@dataclass
class BoundaryModule:
    """Image of a section space on the edges into a vertex from above."""

    vertex: Vec
    edges: tuple
    degree_bound: int
    layouts: list
    bases: list

    def dimension(self, d: int) -> int:
        return len(self.bases[d])


def boundary_module(g: MomentGraph, x, sections: GradedSectionSpace) -> BoundaryModule:
    """Restrict sections to the edges joining ``x`` to the section set,
    reducing each component modulo its edge label."""
    x = tuple(x)
    if x in set(sections.vertices):
        raise ValueError("the vertex must lie below the section set")
    xi = g.vindex[x]
    upedges = []
    for k in sorted(g.adjacency[xi]):
        e = g.edges[k]
        other = g.vertices[e.v if e.u == xi else e.u]
        if other in set(sections.vertices):
            upedges.append((k, e, other))
    if not upedges:
        if x == g.lam:
            raise ValueError("the top vertex has no boundary module")
        raise RecursionOrderError(f"vertex {x} has no edges into the section set")
    n = g.num_vars
    reducers = [reducer_for(e.label, n) for _, e, _ in upedges]
    ydict = {y: pos for pos, (_, _, y) in enumerate(upedges)}
    stalk_list = {y: sections.stalk_degrees[y] for _, _, y in upedges}
    blayouts = []
    bases = []
    for d in range(sections.degree_bound + 1):
        bl = _Layout()
        for pos, (_, _, y) in enumerate(upedges):
            pivot = reducers[pos].pivot
            for j, t in enumerate(stalk_list[y]):
                if d >= t:
                    bl.add_block(pos, j, reduced_monomials(n, d - t, pivot))
        rr = kernels.IntRREF()
        for vec in sections.bases[d]:
            row = _project_basis(vec, sections.layouts[d], ydict, reducers, bl)
            rr.add(row)
        blayouts.append(bl)
        bases.append([row for _, row in rr.pivot_items()])
    return BoundaryModule(
        vertex=x,
        edges=tuple(e for _, e, _ in upedges),
        degree_bound=sections.degree_bound,
        layouts=blayouts,
        bases=bases,
    )


def stalk_rank(g: MomentGraph, x, sections: GradedSectionSpace):
    """Stalk rank at ``x`` from a precomputed section space: the number
    of minimal generators of the boundary module (graded Nakayama),
    with the generator-degree profile.

    Raises :class:`DegreeBoundError` when the profile is not stable in
    the last two degrees of the section space's bound.
    """
    bm = boundary_module(g, x, sections)
    n = g.num_vars
    reducers = [reducer_for(e.label, n) for e in bm.edges]
    D = bm.degree_bound
    profile = []
    prev_rows: list[dict] = []
    for d in range(D + 1):
        rr = kernels.IntRREF()
        for b in prev_rows:
            for i in range(n):
                rr.add(_mult_var(b, i, bm.layouts[d - 1], bm.layouts[d], reducers))
        count = 0
        for s in bm.bases[d]:
            if rr.add(s) is not None:
                count += 1
        profile.extend([d] * count)
        prev_rows = [row for _, row in rr.pivot_items()]
    if any(d >= D - 1 for d in profile):
        raise DegreeBoundError(
            f"generator profile {profile} touches degrees {D - 1}..{D}; "
            "recompute the sections with a larger degree bound"
        )
    return len(profile), tuple(profile)
