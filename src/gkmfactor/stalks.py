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

Everything is computed degree by degree in exact integer arithmetic
(:mod:`gkmfactor.kernels`).  The sections over the processed upper set
``I`` are an S-module, kept as one: per degree its generators, flat rows
over the degree's section slots ``(vertex, generator index, monomial)``,
and its dimension, never a vector-space basis.  Processing a vertex
solves only the congruences along its upward edges.

Rank-2 subtorus.  :func:`run_column` runs the recursion in two
variables, not in the ``n = rank + 1`` of the labels.  Every edge label
``l`` becomes ``P l`` for an integer ``2 x n`` matrix ``P``: the
characters of a rank-2 subtorus ``T'`` of ``T x C*``, over
``S = Z[x, y]``.  When no projected label is zero and the projected
labels at each vertex stay pairwise non-proportional
(:func:`momentgraph.gkm_violations` of the projected graph is empty),
``T'`` has the same fixed points and the same invariant curves as
``T``: a ``T``-orbit of dimension two whose ``T'``-stabilizer grew would
make two labels proportional at a fixed point in its closure.  So the
canonical sheaf of the projected graph gives the ``T'``-equivariant
stalks, with the same graded ranks (Goresky-Kottwitz-MacPherson,
*Equivariant cohomology, Koszul duality, and the localization theorem*,
Invent. Math. 1998; Braden-MacPherson 2001).  What it buys: an edge
quotient ``Z[x, y]/(P l)`` has one monomial per degree, where the
quotient by ``l`` in ``n`` variables has ``C(d + n - 2, n - 2)``.
``P`` is a pure function of the graph: none when ``n`` is already two,
and otherwise the first ``P`` that passes both checks among those drawn
from ``random.Random(1)``, entries in ``[-50, 50]``, row by row.  No
``P`` passes for a graph with a zero label or with two proportional
labels at a vertex, and :func:`run_column` refuses such a graph up
front.  The result carries the graph as given, with ``section_dims``
lifted back to its ``n`` variables: the sections over ``Z[x, y]`` are
read as a free module with ``b_k = h'(k) - 2 h'(k - 1) + h'(k - 2)``
generators in degree ``k``, and ``h(d) = sum_k b_k C(d - k + n - 1,
n - 1)``; a negative ``b_k`` raises.  The recursion in the labels' own
``n`` variables is a test oracle, ``tests/nvar_oracle.py``.

Each vertex step is the fibre product
``Gamma(I + {x}) = Gamma(I) x_{M_x} F(x)`` (Braden-MacPherson, *From
moment graphs to intersection cohomology*, Math. Ann. 2001; Fiebig,
*Sheaves on moment graphs and a localization of Verma flags*, Adv. Math.
2008).  Projection to the upward edges is S-linear, so the boundary
module ``M_x`` in degree ``d`` is ``S_1 M_(d-1)`` plus the boundary
values of the degree-``d`` generators, and only those are projected.

Boundary slots.  In each degree the quotient of ``Z[x, y]`` by an edge
label has one basis monomial, the one free of the pivot variable, and
reduction modulo the label is two integers, the images ``(s_x, s_y)``
of ``x`` and ``y`` (:func:`poly.reducer_for`).  So at a vertex a
boundary slot is one (upward edge, neighbor's generator) pair, numbered
once per vertex in that order, and it is the same slot in every degree
``d >= t`` that its generator, of degree ``t``, reaches.  A boundary
value of degree ``d`` is a flat row ``{slot: coefficient}`` of the
slots' degree-``d - t`` monomials.  Multiplying by ``x`` or by ``y``
scales each slot by its edge's ``s_x`` or ``s_y``, and a slot whose
integer is zero drops out.  The projection sends section slot ``(y, j,
(a, b))`` at an upward neighbor ``y`` to slot ``(y's edge, j)``, scaled
by ``s_x**a * s_y**b``, and any other section slot, or one whose
product is zero, to nothing; its images are built per (vertex, degree)
on first use.  The slots keep the order of the ``n``-variable engine's
per-degree layouts, so on the projected graph every pivot, every system
and every kernel is the same as there.

Each vertex takes one pass over the degrees.  In degree ``d`` the
generator search eliminates staged ``S_1`` products of the rows kept in
degree ``d - 1``, followed by the projected degree-``d`` section
generators.  Write ``x_0 = x`` and ``x_1 = y``.  Every kept row carries
a stage: a row that became independent in pass ``i`` has stage ``i``,
and the row of a new generator has stage 1.  Degree ``d`` runs pass
``i = 1``, then pass ``i = 0``, and pass ``i`` feeds ``x_i b`` only for
the kept rows ``b`` of stage at least ``i``.  The row kept is the
residual as inserted, the pivot row read right after the insert.  This
still spans ``S_1 M_(d-1)``.  Let ``V_s`` be the span of the passes
``>= s`` of a degree and ``W_s = G + V_s``, with ``G`` the span of the
generator rows; the kept rows of stage ``>= s`` span ``W_s``, since a
residual from pass ``i`` lies in ``V_i`` (everything inserted before it
came from a pass ``>= i``).  Induction on the degree gives ``x_l W_s``
in ``V_s`` one degree up for every ``l >= s``: write an element of
``x_l V_s`` as a sum of ``x_l x_j u`` with ``j >= s`` and ``u`` in
``W_j``; if ``l >= j`` it is ``x_j (x_l u)`` with ``x_l u`` in ``V_j``,
inside ``W_j``, and if ``l < j`` it is ``x_l (x_j u)`` with ``x_j u`` in
``V_j``, inside ``W_l``.  So ``S_1 M_d`` is ``x_0 W_0 + x_1 W_1``, as
``M_d = W_0``.  The products of a degree number little more than
``dim S_1 M_(d-1)``, not ``2 dim M_(d-1)``, and most of them are
independent.  A residual as inserted is primitive, positive at its
pivot and zero at the pivot column of every row kept before it, and
such a residual is unique up to scale: a nonzero element of the span is
nonzero at the smallest pivot it involves.  So a generator's pivot row
depends only on the span of the rows inserted before it,
``S_1 M_(d-1)`` plus the earlier generators with either products, and
not on the basis :class:`kernels.IntRREF` keeps for that span (a
semi-echelon one, never back-substituted); the generators' pivot rows
and everything downstream are the same as with the full products.

The fibre product's degree-``d`` system has as its columns the images of
the slots of the new stalk ``F(x)``, followed by the projected
degree-``d`` generators.  Its equations are the boundary slots that
are pivots of the generator search: every column lies in ``M_d``, and
an element of ``M_d`` that is zero at each of those slots is zero, so
the kernel is that of the system over every boundary slot.  An ``x``
slot ``(gi, a)`` is the monomial ``x^a y^(d - t - a)`` of generator
``gi``, of degree ``t``.  Its image is the generator's pivot row when
``d = t``, ``x`` times the image of ``(gi, a - 1)`` one degree lower
when ``a > 0``, and otherwise ``y`` times the image of ``(gi, 0)`` one
degree lower.  The kept rows, not those images, feed the generator
search, because unreduced image rows fill in.  Because ``F(x) -> M_x``
is onto, every independent column is an ``x`` slot, so each kernel
vector is either one old generator, scaled by a positive integer and
extended by a component at ``x``, or an element of
``ker(F(x) -> M_x)`` supported at ``x`` alone.  The extended
generators and ``ker phi`` together generate the new sections.  Of the
``ker phi`` vectors only those whose leading slot is not ``x`` or ``y``
times the leading slot of one in the degree below are kept; this is a
Groebner-type pruning.  The leading slot of a kernel vector is its free
column, its largest, and the x-slot order (generator index, then ``a``
descending) is compatible with multiplying by a monomial, so the kept
vectors still generate ``ker phi``.  Since both maps onto ``M_x`` are
onto, ``dim Gamma_d`` grows by ``dim F(x)_d - dim M_d``.  The ``x``
slots are then appended to the degree's section slots, so kernel
column ``col < nx`` is section slot ``base + col``.  Old generators are
never mutated: one with no ``x`` part is shared, and an extended one is
a copy, rescaled for a coefficient other than one.

Degree bound.  Generator degrees of a stalk are bounded by half the
complex dimension of the truncation: intersection cohomology stalks at
``t^mu`` sit strictly below ``dim Gr^lam - dim Gr^mu`` (Braden-MacPherson
2001; Lusztig 1983, whose q-analogue the tests check at every vertex).
So with ``dim = <2 rho, lam>`` no generator sits above degree
``(dim - 1)//2``, which the adjoint origins of E7 and E8 reach.  The
bound is ``D = max(2, (dim - 1)//2 + 2)``, read off the truncation
alone, and :func:`run_column` runs degrees ``0..D - 2``; there are no
retries.  Every rank is then certified: the generator count at each
vertex must equal the multiplicity of its weight in the irreducible of
highest coweight ``lam`` (:func:`weights.freudenthal_weight_table`),
which geometric Satake makes the true stalk rank.  Degree ``d`` at a
vertex reads only degrees ``<= d``, so the profiles up to ``D - 2`` are
exactly those of a longer run, and a true generator in any higher degree
would leave a rank below its multiplicity.  So the certificate rejects
every column that a check for generators in degrees ``D - 1`` and ``D``
rejects, and one with a generator above ``D`` too, which such a check
never sees.  A failure raises :class:`DegreeBoundError`; at the default
bound it means a broken invariant, not a bound to raise.
"""

from __future__ import annotations

import random
from math import comb
from types import MappingProxyType
from typing import NamedTuple

from . import kernels, weights
from . import rootsystem as rsys
from .momentgraph import MomentGraph, Truncation, build_graph, gkm_violations
from .poly import reducer_for
from .rootsystem import Vec


class DegreeBoundError(ValueError):
    """Some stalk rank is not the multiplicity of its weight: a generator
    lies above degree ``D - 2`` of the bound ``D``, or an invariant broke
    (see the module docstring)."""


class RecursionOrderError(ValueError):
    """A vertex was reached with no processed neighbor above it."""


class ColumnResult(NamedTuple):
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


def default_degree_bound(tr: Truncation) -> int:
    """The degree bound of a truncation's column (see the module doc)."""
    dim = sum(rsys.pairing(tr.rs, tr.lam, a) for a in tr.rs.positive_roots)
    return max(2, (dim - 1) // 2 + 2)


def estimated_cells(tr: Truncation, cap: int) -> tuple[int, int, bool]:
    """Peak per-degree coefficient slot count, the bound it assumes and
    whether the count is exact; the guard used for refusing oversized
    runs.  Builds no graph.  The vertices are counted until at least 256
    of them give more than ``cap`` cells (an ``eta --series`` row has at
    most 241), so a huge vertex set is never enumerated; the count is then
    a lower bound above ``cap``."""
    D = default_degree_bound(tr)
    # The count of the n-variable engine, which over-estimates the cost
    # of the two-variable recursion run_column runs (see the module
    # docstring).
    n = tr.rs.rank + 1
    per_vertex = comb(D + n - 1, n - 1)
    count = 0
    for count, _ in enumerate(rsys.iter_weights(tr.rs, tr.lam), 1):
        if count >= 256 and count * per_vertex > cap:
            return count * per_vertex, D, False
    return count * per_vertex, D, True


def _scaled(row, scale):
    """A boundary row times ``x`` or ``y``: each slot times its edge's
    integer ``scale[slot]`` (see the module docstring)."""
    return {s: c * scale[s] for s, c in row.items() if scale[s]}


def _boundary_value(row, table, slots, first):
    """A section row's boundary value: ``sum(c * image(slot))``, where the
    image of section slot ``(y, j, (a, b))`` is the boundary slot
    ``offset + j`` times ``s_x**a * s_y**b`` for ``first[y] = (s_x, s_y,
    offset)``, or nothing when ``y`` has no entry in ``first`` or that
    product is zero.  ``table`` keeps each image once built, ``()`` for
    nothing."""
    out: dict = {}
    for slot, c in row.items():
        target = table[slot]
        if target is None:
            y, j, (a, b) = slots[slot]
            edge = first.get(y)
            target = ()
            if edge is not None:
                sx, sy, offset = edge
                cv = sx**a * sy**b
                if cv:
                    target = (offset + j, cv)
            table[slot] = target
        if target:
            ns, cv = target
            w = out.get(ns, 0) + c * cv
            if w:
                out[ns] = w
            elif ns in out:
                del out[ns]
    return out


def run_column(g: MomentGraph, D: int, extension=None) -> ColumnResult:
    """One full top-down pass over a truncation's moment graph, over a
    generic rank-2 subtorus (see the module docstring).

    Runs degrees ``0..D - 2`` and certifies every rank against the
    multiplicity of its weight (see the module docstring), so
    ``section_dims`` covers those degrees, over ``g``'s variables, and
    the result carries ``g`` itself.  Raises :class:`ValueError` up
    front for a bad extension, a graph with a zero label or two
    proportional labels at a vertex, or a coweight that is not
    dominant; :class:`DegreeBoundError` when some vertex's generator
    count is not the multiplicity of its weight; and
    :class:`RecursionOrderError` if the supplied extension strands a
    vertex with no processed upper neighbor.
    """
    if D < 2:
        raise DegreeBoundError(f"degree bound {D} leaves no degree to run")
    order = list(extension) if extension is not None else g.linear_extension()
    if sorted(order) != sorted(g.vertices):
        raise ValueError("extension must enumerate the graph's vertices")
    if order[-1] != g.lam:
        raise ValueError("extension must put the truncation coweight on top")
    levels = [g.level(v) for v in order]
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise ValueError("extension must not invert the graph order's levels")
    for e in g.edges:
        if not any(e.label):
            raise ValueError(
                f"edge {g.vertices[e.u]} -- {g.vertices[e.v]} has a zero label"
            )
    bad = gkm_violations(g)
    if bad:
        v, a, b = bad[0]
        raise ValueError(f"proportional labels {a} and {b} at vertex {v}")
    multiplicity = weights.freudenthal_weight_table(g.lam, g.rs)
    plane = _plane_graph(g)

    # Sections over the processed upper set, as an S-module: gens[d] holds
    # the degree-d generators, flat rows {slot: int} over the section slots
    # slots[d] = [(vertex, generator index, (a, b))], and dims[d] is
    # dim Gamma_d.  A vertex is processed once it has a profile.
    degrees = range(D - 1)
    slots: list[list[tuple]] = [[] for _ in degrees]
    gens: list[list[dict]] = [[] for _ in degrees]
    slots[0].append((order[-1], 0, (0, 0)))
    gens[0].append({0: 1})
    dims = [d + 1 for d in degrees]
    # The exponents (a, m - a) of each degree m, one tuple each, which
    # every section slot of that degree shares.
    exps = [[(a, m - a) for a in range(m + 1)] for m in degrees]
    profiles: dict[Vec, tuple[int, ...]] = {order[-1]: (0,)}
    section_dims: tuple[int, ...] = ()

    for x in reversed(order[:-1]):
        xi = plane.vindex[x]
        # The boundary slots (see the module docstring): first[y] is the
        # edge's images (s_x, s_y) of x and y and the slot of the upward
        # neighbor's generator 0, and xs[slot] and ys[slot] are the
        # integers x and y multiply the slot by.
        first: dict = {}
        xs: list[int] = []
        ys: list[int] = []
        for k in sorted(plane.adjacency[xi]):
            e = plane.edges[k]
            y = plane.vertices[e.v if e.u == xi else e.u]
            if y in profiles:
                sx, sy = reducer_for(e.label)
                first[y] = (sx, sy, len(xs))
                xs.extend([sx] * len(profiles[y]))
                ys.extend([sy] * len(profiles[y]))
        if not first:
            raise RecursionOrderError(
                f"vertex {x} has no processed neighbor above it; "
                "the recursion order is violated"
            )

        # One pass over the degrees: in degree d the boundary values of
        # the degree-d section generators, the minimal generators of M_d
        # and, except at the final vertex, the kernel.
        final = x == order[0]
        gen_degrees: list[int] = []
        gen_rows: list[dict] = []
        prev_staged: list[tuple[int, dict]] = []
        prev_images: dict = {}
        prev_free: set = set()
        for d in degrees:
            table = [None] * len(slots[d])
            span = [_boundary_value(vec, table, slots[d], first) for vec in gens[d]]

            # Staged S_1 products (see the module docstring): pass 1
            # multiplies by y the rows of degree d - 1 with stage 1, then
            # pass 0 every row by x, and a row kept for degree d + 1 is
            # its residual as inserted.
            rr = kernels.IntRREF()
            staged: list[tuple[int, dict]] = []
            for i, scale in ((1, ys), (0, xs)):
                for stage, b in prev_staged:
                    if stage >= i:
                        col = rr.add(_scaled(b, scale))
                        if col is not None:
                            staged.append((i, rr.pivot_row(col)))
            for s in span:
                col = rr.add(s)
                if col is not None:
                    gen_degrees.append(d)
                    gen_rows.append(rr.pivot_row(col))
                    staged.append((1, gen_rows[-1]))
            prev_staged = staged
            if final:
                continue

            # The x-slot images (see the module docstring), in x-slot
            # order: generator index, then the exponent a of x from
            # d - t down to 0.
            images: dict = {}
            for gi, t in enumerate(gen_degrees):
                for a in range(d - t, 0, -1):
                    images[(gi, a)] = _scaled(prev_images[(gi, a - 1)], xs)
                images[(gi, 0)] = (
                    gen_rows[gi] if t == d else _scaled(prev_images[(gi, 0)], ys)
                )
            prev_images = images

            # The fibre product's kernel in degree d.  The x slots come
            # first, so every independent column is one (see the module
            # docstring); old generator i is column nx + i, and x column
            # col becomes section slot base + col.  One equation per pivot
            # slot of M_d is enough (see the module docstring).
            base = len(slots[d])
            xslots = list(images)
            nx = len(xslots)
            pivots = rr.pivots
            rows: dict = {}
            for col, image in enumerate([*images.values(), *span]):
                sign = 1 if col < nx else -1
                for bslot, c in image.items():
                    if bslot in pivots:
                        rows.setdefault(bslot, {})[col] = sign * c
            # Shortest rows first.  The kernel does not depend on the row
            # order, but it sets which equation each independent column's
            # pivot lands on, and so how far the stored columns fill in:
            # unsorted, A3 2theta's systems took about twice as long.
            kern = kernels.nullspace_of_rows(sorted(rows.values(), key=len), nx + len(span))

            free: set = set()
            new_gens: list[dict] = []
            for kvec in kern:
                old = None
                xpart: dict = {}
                for col, c in kvec.items():
                    if col < nx:
                        xpart[base + col] = c
                    elif old is None:
                        old, coef = gens[d][col - nx], c
                    else:
                        raise AssertionError(
                            f"kernel vector at {x} in degree {d} touches two "
                            "old sections; phi is not onto the boundary module"
                        )
                if old is None:
                    # An element of ker phi led by its free column, the
                    # largest; skip it if x or y times a lower one has
                    # the same leading slot (see the module docstring).
                    gi, a = xslots[max(kvec)]
                    free.add((gi, a))
                    if not (
                        (a and (gi, a - 1) in prev_free)
                        or (a < d - gen_degrees[gi] and (gi, a) in prev_free)
                    ):
                        new_gens.append(xpart)
                    continue
                if xpart:
                    old = dict(old) if coef == 1 else {k: coef * v for k, v in old.items()}
                    old.update(xpart)
                new_gens.append(old)
            gens[d] = new_gens
            slots[d].extend((x, gi, exps[d - gen_degrees[gi]][a]) for gi, a in xslots)
            prev_free = free
            dims[d] += nx - rr.rank
        profiles[x] = tuple(gen_degrees)
        if final:
            # Sections over the upper set of the final vertex; no one
            # consumes an extension across the full graph.
            section_dims = tuple(dims)
            break

    uncertified = sorted(v for v, prof in profiles.items() if len(prof) != multiplicity.get(v))
    if uncertified:
        raise DegreeBoundError(
            f"stalk rank is not the weight multiplicity at vertices {uncertified} "
            f"(degrees 0..{D - 2} of degree bound {D})"
        )

    return ColumnResult(
        graph=g,
        degree_bound=D,
        order=tuple(order),
        ranks=MappingProxyType({v: len(prof) for v, prof in profiles.items()}),
        profiles=MappingProxyType(profiles),
        section_dims=_lift_section_dims(section_dims, g.num_vars),
    )


def _projections(n: int):
    """Candidate ``2 x n`` projections, in the order they are tried."""
    rng = random.Random(1)
    while True:
        yield [[rng.randint(-50, 50) for _ in range(n)] for _ in range(2)]


def _plane_graph(g: MomentGraph) -> MomentGraph:
    """``g`` over a generic rank-2 subtorus (see the module docstring)."""
    if g.num_vars == 2:
        return g
    projected = (g._projected(P) for P in _projections(g.num_vars))
    return next(
        h for h in projected if all(any(e.label) for e in h.edges) and not gkm_violations(h)
    )


def _lift_section_dims(dims: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Dimensions over ``n`` variables of the free module whose
    dimensions over ``Z[x, y]`` are ``dims`` (see the module docstring)."""
    pad = (0, 0, *dims)
    gens = [pad[k + 2] - 2 * pad[k + 1] + pad[k] for k in range(len(dims))]
    if any(b < 0 for b in gens):
        raise AssertionError(f"section dimensions {dims} are not those of a free module")
    return tuple(
        sum(b * comb(d - k + n - 1, n - 1) for k, b in enumerate(gens[: d + 1]))
        for d in range(len(dims))
    )


_COLUMN_CACHE: dict = {}

# The most columns the cache keeps: a fuller one is emptied as the next
# miss starts, never during a column.  A cli-session repetition of the
# benchmark leaves 8 columns, an adjoint-columns one 6.
MAX_CACHED_COLUMNS = 64


def stalk_ranks(tr: Truncation) -> ColumnResult:
    """Stalk ranks of the canonical sheaf at every vertex of a truncation,
    at :func:`default_degree_bound`.

    The recursion runs over a generic rank-2 subtorus, and the result
    carries the truncation's own graph and ``section_dims`` lifted to
    its variables (see the module docstring).  There are no retries: a
    rank that is not the multiplicity of its weight raises
    :class:`DegreeBoundError`.  Results are cached per (root system,
    coweight), and a cached column builds no graph.
    """
    key = (tr.rs.type_label, tr.rs.rank, tr.lam)
    result = _COLUMN_CACHE.get(key)
    if result is None:
        if len(_COLUMN_CACHE) > MAX_CACHED_COLUMNS:
            _COLUMN_CACHE.clear()
        result = _COLUMN_CACHE[key] = run_column(build_graph(tr), default_degree_bound(tr))
    return result


class MultiplicityMatrix(NamedTuple):
    """Stalk ranks of all truncation classes at all fixed points.

    Rows are the dominant coweights of the truncation (its irreducible
    classes), columns all vertices, both in the deterministic total
    order; ``entries[i][j]`` is the stalk rank of the row class's sheaf
    at the column vertex (zero off its support)."""

    row_coweights: tuple[Vec, ...]
    col_coweights: tuple[Vec, ...]
    entries: tuple[tuple[int, ...], ...]

    def column_at(self, beta: Vec) -> dict:
        j = self.col_coweights.index(tuple(beta))
        return {a: self.entries[i][j] for i, a in enumerate(self.row_coweights)}

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


def multiplicity_matrix(tr: Truncation) -> MultiplicityMatrix:
    """Assemble the multiplicity matrix of a truncation: one recursion
    per dominant class on its own sub-truncation.  The top class's
    column supplies the graph, so each class builds one graph at most."""
    cols = stalk_ranks(tr).graph.vertices
    rows = tuple(
        v for v in cols if rsys.is_dominant(tr.rs, v)
    )
    entries = []
    for alpha in rows:
        column = stalk_ranks(Truncation(tr.rs, alpha))
        entries.append(tuple(column.ranks.get(b, 0) for b in cols))
    return MultiplicityMatrix(rows, cols, tuple(entries))
