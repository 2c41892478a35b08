"""Homogeneous polynomials and reduction modulo a linear form in two
variables.

Homogeneous polynomials are sparse dicts mapping an exponent tuple to an
integer coefficient.

:func:`reducer_for` is reduction modulo a nonzero label ``l = (l0, l1)``
of ``Z[x, y]`` in closed form.  The quotient ``Z[x, y]/(l)`` has one
basis monomial per degree, free of the pivot variable: ``x`` when
``|l0| >= |l1|``, otherwise ``y``.  Eliminating the pivot and scaling a
degree-``d`` image by ``pivot_coeff**d`` to stay integral, ``x`` and
``y`` reduce to two integers ``(s_x, s_y)``, and ``x^a y^b`` to the
single coefficient ``s_x**a * s_y**b``.  The scaling is uniform per
degree and multiplicative across products, so kernels, image dimensions
and the module structure are unaffected.  Congruence conditions
"s_x - s_y divisible by the edge label" in :mod:`gkmfactor.stalks`
reduce to kernels of these maps.  Reduction in ``n`` variables is a
test oracle, ``tests/nvar_oracle.py``.
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


def reducer_for(label) -> tuple[int, int]:
    """The scaled images ``(s_x, s_y)`` of ``x`` and ``y`` modulo a
    nonzero two-variable label (see the module docstring)."""
    l0, l1 = label
    if not (l0 or l1):
        raise ValueError("cannot reduce modulo the zero form")
    return (-l1, l0) if abs(l0) >= abs(l1) else (l1, -l0)
