"""The n-variable stalk recursion, kept as a test oracle.

This is the engine ``stalks.run_column`` ran before it was specialized
to two variables: the same top-down recursion, generator search and
fibre-product extension (see the ``stalks`` module docstring), over the
graph's own ``n`` label variables.  A boundary value is a flat row over
the slots of its degree's layout, one block per (upward edge, neighbor's
generator) on the pivot-free monomials of the edge's quotient ring
``S/(l)``, which has ``C(d + n - 2, n - 2)`` of them in degree ``d``.
Rows map through slot tables built on first use (:func:`_apply`): per
(layout, variable) into the layout one degree up (:func:`_mult_var`),
and per (vertex, degree) for the projection, which sends a section slot
at an upward neighbor to its monomial reduced modulo the edge label, any
other slot to nothing.  Degree ``d`` runs the staged ``S_1`` passes
``i = n - 1, ..., 0``, and the image of ``x`` slot ``(gi, exp)`` is the
variable of ``exp``'s first nonzero exponent times the image of the slot
one degree lower.

The reduction modulo a label is :class:`LinearFormReducer`, which
eliminates one variable; :func:`reducer_for` caches one per label.  In
two variables it is ``gkmfactor.poly.reducer_for``'s closed form, which
``tests/test_poly.py`` checks against it.

:func:`run_column` works in its graph's variables and projects nothing,
so ``run_column(build_graph(tr), D)`` is the ``n``-variable route the
two-variable engine is compared against, and
``run_column(plane_graph(build_graph(tr)), D)`` runs the same systems as
the two-variable engine on that truncation.  It runs degrees
``0..D`` and checks that ``D - 1`` and ``D`` hold no generator, where
the engine runs ``0..D - 2`` and certifies its ranks against the weight
multiplicities, so it matches the engine run at ``D + 2``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from gkmfactor import kernels, stalks
from gkmfactor.momentgraph import Edge, MomentGraph
from gkmfactor.poly import poly_mul
from gkmfactor.rootsystem import Vec
from gkmfactor.stalks import ColumnResult, DegreeBoundError, RecursionOrderError


def plane_graph(g: MomentGraph) -> MomentGraph:
    """``g`` with the two-variable labels ``stalks.run_column`` runs on,
    made through the constructor, which checks them too."""
    labels = stalks._plane_labels(g)
    edges = [Edge(e.u, e.v, label) for e, label in zip(g.edges, labels)]
    return MomentGraph(g.rs, g.lam, g.vertices, edges)


def label_vars(g: MomentGraph) -> int:
    """The number of variables of ``g``'s labels: ``rank + 1``, or two
    for a :func:`plane_graph`."""
    return len(g.edges[0].label) if g.edges else g.rs.rank + 1


@lru_cache(maxsize=None)
def monomials(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex descending."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for k in range(degree, -1, -1):
        for rest in monomials(num_vars - 1, degree - k):
            out.append((k,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_monomials(num_vars: int, degree: int, pivot: int) -> tuple[tuple[int, ...], ...]:
    """Monomials with zero exponent at ``pivot``: a basis of S/(L) in degree d."""
    return tuple(m for m in monomials(num_vars, degree) if m[pivot] == 0)


def form_is_zero(form) -> bool:
    return all(c == 0 for c in form)


class LinearFormReducer:
    """Reduction of homogeneous polynomials modulo a nonzero linear form.

    The quotient S/(L) is realized by eliminating the pivot variable,
    chosen as the variable whose coefficient in L has the largest
    absolute value (first such on ties), so the choice is deterministic
    and the pivot never degenerates.  To stay integral the reduction of
    a degree-d polynomial is scaled by pivot_coeff**d.  The scaling is
    uniform per degree and multiplicative across products
    (``red(p*q) = red(p)*red(q)``), so kernels, image dimensions and the
    module structure over the ambient ring are all unaffected.  In two
    variables this is ``gkmfactor.poly.reducer_for``'s closed form.
    """

    def __init__(self, form, num_vars: int | None = None):
        form = tuple(form)
        if form_is_zero(form):
            raise ValueError("cannot reduce modulo the zero form")
        n = len(form) if num_vars is None else num_vars
        if len(form) != n:
            raise ValueError("form length disagrees with variable count")
        self.num_vars = n
        self.form = form
        pivot = 0
        best = abs(form[0])
        for i, c in enumerate(form):
            if abs(c) > best:
                pivot, best = i, abs(c)
        self.pivot = pivot
        self.pivot_coeff = form[pivot]
        # c * x_pivot == -sum_{i != pivot} form[i] * x_i on {L = 0}
        subst: dict = {}
        for i, c in enumerate(form):
            if i != pivot and c:
                e = [0] * n
                e[i] = 1
                subst[tuple(e)] = -c
        self._subst = subst
        self._subst_pows: list[dict] = [{tuple([0] * n): 1}, subst]
        self._mono_cache: dict[tuple[int, ...], dict] = {}
        self._var_forms: list[dict] | None = None

    def _subst_pow(self, k: int) -> dict:
        pows = self._subst_pows
        while len(pows) <= k:
            pows.append(poly_mul(pows[-1], self._subst))
        return pows[k]

    def reduce_monomial(self, exp: tuple[int, ...]) -> dict:
        """Scaled image of a monomial in S/(L), on the pivot-free basis."""
        cached = self._mono_cache.get(exp)
        if cached is not None:
            return cached
        k = exp[self.pivot]
        d = sum(exp)
        scale = self.pivot_coeff ** (d - k)
        if k == 0:
            out = {exp: scale}
        else:
            base = list(exp)
            base[self.pivot] = 0
            out = {}
            for e, c in self._subst_pow(k).items():
                m = tuple(x + y for x, y in zip(base, e))
                out[m] = c * scale
        self._mono_cache[exp] = out
        return out

    def variable_form(self, i: int) -> dict:
        """Scaled image of the variable x_i, used for module multiplication."""
        if self._var_forms is None:
            forms = []
            for j in range(self.num_vars):
                e = [0] * self.num_vars
                e[j] = 1
                forms.append(self.reduce_monomial(tuple(e)))
            self._var_forms = forms
        return self._var_forms[i]


_REDUCERS: dict[tuple[int, tuple[int, ...]], LinearFormReducer] = {}


def reducer_for(form, num_vars: int) -> LinearFormReducer:
    """Shared reducer cache; labels repeat heavily across a moment graph."""
    key = (num_vars, tuple(form))
    red = _REDUCERS.get(key)
    if red is None:
        red = _REDUCERS[key] = LinearFormReducer(form, num_vars)
    return red


class _Layout:
    """Contiguous slot blocks of one degree, one per (key, generator) pair.

    ``lookup[(key, gen)]`` is a block's slot index ``{monomial: slot}``;
    ``info[slot]`` is ``(key, gen, monomial)``.  ``products[var]`` is
    the slot table (see :func:`_apply`) of the variable ``var`` into the
    layout one degree up, which :func:`_mult_var` fills in on first use.
    """

    __slots__ = ("lookup", "info", "products")

    def __init__(self):
        self.lookup = {}
        self.info = []
        self.products = {}

    def add_block(self, key, gen_idx, monos):
        self.lookup[(key, gen_idx)] = {m: len(self.info) + i for i, m in enumerate(monos)}
        self.info.extend((key, gen_idx, m) for m in monos)


def _apply(row, table, image):
    """``sum(c * table[slot])`` over a row's ``{slot: c}`` entries.  A slot
    table entry is a tuple of ``(target slot, coefficient)`` pairs; one
    still ``None`` is set to ``image(slot)`` first, and kept for reuse."""
    out: dict = {}
    for slot, c in row.items():
        targets = table[slot]
        if targets is None:
            targets = table[slot] = image(slot)
        for ns, cv in targets:
            w = out.get(ns, 0) + c * cv
            if w:
                out[ns] = w
            elif ns in out:
                del out[ns]
    return out


def _projection(slots, ydict, reducers, layout):
    """Image of a section slot ``(y, gen, monomial)`` in a boundary layout:
    the monomial reduced modulo the label of the edge to ``y``, in block
    ``(pos, gen)``, or nothing when ``y`` is not an upward neighbor."""

    def image(slot):
        y, j, mono = slots[slot]
        pos = ydict.get(y)
        if pos is None:
            return ()
        index = layout.lookup[(pos, j)]
        return tuple(
            (index[m], c) for m, c in reducers[pos].reduce_monomial(mono).items()
        )

    return image


def _mult_var(row, var, prev_layout, cur_layout, reducers):
    """Multiply a boundary row by a polynomial variable, component-wise
    in each edge's quotient ring, through ``prev_layout``'s slot table
    into ``cur_layout``, the layout one degree up at the same vertex."""

    def image(slot):
        pos, j, exp = prev_layout.info[slot]
        index = cur_layout.lookup[(pos, j)]
        return tuple(
            (index[tuple(a + b for a, b in zip(exp, ev))], cv)
            for ev, cv in reducers[pos].variable_form(var).items()
        )

    table = prev_layout.products.get(var)
    if table is None:
        table = prev_layout.products[var] = [None] * len(prev_layout.info)
    return _apply(row, table, image)


def run_column(g: MomentGraph, D: int, extension=None) -> ColumnResult:
    """One full top-down pass over a moment graph, in its own variables.

    Raises :class:`DegreeBoundError` when some vertex has a minimal
    generator in the last two degrees (profile not yet stable), and
    :class:`RecursionOrderError` if the supplied extension strands a
    vertex with no processed upper neighbor.
    """
    n = label_vars(g)
    order = list(extension) if extension is not None else g.linear_extension()
    if sorted(order) != sorted(g.vertices):
        raise ValueError("extension must enumerate the graph's vertices")
    if order[-1] != g.lam:
        raise ValueError("extension must put the truncation coweight on top")
    levels = [g.level(v) for v in order]
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise ValueError("extension must not invert the graph order's levels")

    # Sections over the processed upper set, as an S-module: gens[d] holds
    # the degree-d generators, flat rows {slot: int} over the section slots
    # slots[d] = [(vertex, generator index, monomial)], and dims[d] is
    # dim Gamma_d.  A vertex is processed once it has a profile.
    slots: list[list[tuple]] = [[] for _ in range(D + 1)]
    gens: list[list[dict]] = [[] for _ in range(D + 1)]
    slots[0].append((order[-1], 0, (0,) * n))
    gens[0].append({0: 1})
    dims = [len(monomials(n, d)) for d in range(D + 1)]
    profiles: dict[Vec, tuple[int, ...]] = {order[-1]: (0,)}
    section_dims: tuple[int, ...] = ()

    for x in reversed(order[:-1]):
        xi = g.vindex[x]
        upedges = []
        for k in sorted(g.adjacency[xi]):
            e = g.edges[k]
            other = g.vertices[e.v if e.u == xi else e.u]
            if other in profiles:
                upedges.append((k, e, other))
        if not upedges:
            raise RecursionOrderError(
                f"vertex {x} has no processed neighbor above it; "
                "the recursion order is violated"
            )
        reducers = [reducer_for(e.label, n) for _, e, _ in upedges]
        ydict = {y: pos for pos, (_, _, y) in enumerate(upedges)}

        # One pass over the degrees: in degree d the boundary layout, the
        # boundary values of the degree-d section generators, the minimal
        # generators of M_d and, except at the final vertex, the kernel.
        final = x == order[0]
        gen_degrees: list[int] = []
        gen_rows: list[dict] = []
        layout = None
        prev_staged: list[tuple[int, dict]] = []
        prev_images: dict = {}
        prev_free: set = set()
        for d in range(D + 1):
            below, layout = layout, _Layout()
            for pos, (_, _, y) in enumerate(upedges):
                pivot = reducers[pos].pivot
                for j, t in enumerate(profiles[y]):
                    if d >= t:
                        layout.add_block(pos, j, reduced_monomials(n, d - t, pivot))
            project = _projection(slots[d], ydict, reducers, layout)
            table = [None] * len(slots[d])
            span = [_apply(vec, table, project) for vec in gens[d]]

            # Staged S_1 products: pass i multiplies by x_i the rows of
            # degree d - 1 with stage >= i, and a row kept for degree
            # d + 1 is its residual as inserted.
            rr = kernels.IntRREF()
            staged: list[tuple[int, dict]] = []
            for i in range(n - 1, -1, -1):
                for stage, b in prev_staged:
                    if stage >= i:
                        col = rr.add(_mult_var(b, i, below, layout, reducers))
                        if col is not None:
                            staged.append((i, rr.pivot_row(col)))
            for s in span:
                col = rr.add(s)
                if col is not None:
                    gen_degrees.append(d)
                    gen_rows.append(rr.pivot_row(col))
                    staged.append((n - 1, gen_rows[-1]))
            prev_staged = staged
            if final:
                continue

            # The x-slot images, in x-slot order: generator index, then
            # monomials.
            images: dict = {}
            for gi, t in enumerate(gen_degrees):
                if t == d:
                    images[(gi, (0,) * n)] = gen_rows[gi]
                    continue
                for exp in monomials(n, d - t):
                    i = next(k for k, a in enumerate(exp) if a)
                    low = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                    images[(gi, exp)] = _mult_var(
                        prev_images[(gi, low)], i, below, layout, reducers
                    )
            prev_images = images

            # The fibre product's kernel in degree d, one equation per
            # pivot slot of M_d, shortest rows first.
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
                    gi, exp = xslots[max(kvec)]
                    free.add((gi, exp))
                    if not any(
                        (gi, exp[:i] + (exp[i] - 1,) + exp[i + 1:]) in prev_free
                        for i in range(n)
                        if exp[i]
                    ):
                        new_gens.append(xpart)
                    continue
                if xpart:
                    old = dict(old) if coef == 1 else {k: coef * v for k, v in old.items()}
                    old.update(xpart)
                new_gens.append(old)
            gens[d] = new_gens
            slots[d].extend((x, gi, exp) for gi, exp in xslots)
            prev_free = free
            dims[d] += nx - rr.rank
        profiles[x] = tuple(gen_degrees)
        if final:
            section_dims = tuple(dims)
            break

    unstable = sorted(
        v for v, prof in profiles.items() if any(d >= D - 1 for d in prof)
    )
    if unstable:
        raise DegreeBoundError(
            f"generator profile touches degrees {D - 1}..{D} at vertices "
            f"{unstable}; it is not stable below degree bound {D}"
        )

    return ColumnResult(
        graph=g,
        degree_bound=D,
        order=tuple(order),
        ranks=MappingProxyType({v: len(prof) for v, prof in profiles.items()}),
        profiles=MappingProxyType(profiles),
        section_dims=section_dims,
    )
