"""Homogeneous polynomials and their reduction modulo a linear form.

Homogeneous polynomials are sparse dicts mapping an exponent tuple to an
integer coefficient.

The central tool is :class:`LinearFormReducer`: the image of a
homogeneous polynomial in the quotient ring S/(L) for a nonzero linear
form L, realized by eliminating one variable.  Congruence conditions
"s_x - s_y divisible by the edge label" throughout the package reduce to
kernels and images of these maps.
"""

from __future__ import annotations

from math import gcd


def poly_mul(p: dict, q: dict) -> dict:
    """Product of two sparse homogeneous polynomials."""
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            w = out.get(e, 0) + ca * cb
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    return out


def form_is_zero(form) -> bool:
    return all(c == 0 for c in form)


def primitive_form(form) -> tuple[int, ...]:
    """Content-stripped, sign-normalized copy (first nonzero entry > 0)."""
    g = 0
    for c in form:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero form has no primitive representative")
    vec = tuple(c // g for c in form)
    for c in vec:
        if c:
            return vec if c > 0 else tuple(-x for x in vec)
    raise AssertionError


class LinearFormReducer:
    """Reduction of homogeneous polynomials modulo a nonzero linear form.

    The quotient S/(L) is realized by eliminating the pivot variable,
    chosen as the variable whose coefficient in L has the largest
    absolute value (first such on ties), so the choice is deterministic
    and the pivot never degenerates.  To stay integral the reduction of
    a degree-d polynomial is scaled by pivot_coeff**d.  The scaling is
    uniform per degree and multiplicative across products
    (``red(p*q) = red(p)*red(q)``), so kernels, image dimensions and the
    module structure over the ambient ring are all unaffected.
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

# The most reducers kept between stalk columns: a fuller cache is
# emptied as the next stalks.stalk_ranks miss starts (see
# stalks.MAX_CACHED_COLUMNS).
MAX_REDUCERS = 10_000


def reducer_for(form, num_vars: int) -> LinearFormReducer:
    """Shared reducer cache; labels repeat heavily across a moment graph."""
    key = (num_vars, tuple(form))
    red = _REDUCERS.get(key)
    if red is None:
        red = LinearFormReducer(form, num_vars)
        _REDUCERS[key] = red
    return red
