"""Sparse exact integer elimination, pure Python backend.

A row is a dict mapping column index to a nonzero Python int.  All
elimination is fraction free: a pivot step replaces ``row`` by
``(a//g)*row - (b//g)*pivot_row`` with ``g = gcd(a, b)``, followed by
content stripping, so entries stay integral and small.  Ranks and
kernels computed here are exact over the rationals.

One echelon class, :class:`IntRREF`, does all elimination.  It is a
semi-echelon basis: each stored row is the residual as inserted,
primitive (content 1), positive at its pivot, its smallest column, and
zero at the pivot column of every row stored before it; it is never
back-substituted, so a stored row may hold later pivot columns.  A
residual is unique up to scale, since a nonzero element of the row space
is nonzero at the smallest pivot it involves, so the residuals, pivots
and ranks depend only on the span of the rows inserted before.

:func:`nullspace_of_rows` reads the kernel off column dependencies.  It
inserts the system's columns in order, as vectors over the ``m``
equation indices, column ``f`` tagged with a marker entry ``1`` at index
``m + f``.  The stored rows span the tagged independent columns, so when
a column's equation part reduces to zero, its markers are a relation
between ``f`` and the independent columns before it.  Those columns are
linearly independent, so that relation is unique up to scale; the
marker at ``f`` starts at 1 and is only ever multiplied by positive
factors, so the residual is the unique primitive kernel vector
supported on ``f`` and the independent columns before it, positive at
``f``.  That is the kernel vector of free column ``f`` read off the
canonical reduced echelon form, since its pivot columns are exactly
the columns independent of all earlier ones, and so the kernel basis
does not depend on the order of the rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

BACKEND = "python"


def strip_content(row):
    """Divide a row in place by the gcd of its entries; return it."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


class IntRREF:
    """Incremental semi-echelon basis over Q with integer rows.

    The pivot of a new row is its smallest surviving column.  Each
    stored row is the residual as inserted: primitive, positive at its
    pivot and zero at the pivot column of every row stored before it,
    with entries only at columns at or after its pivot.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Residual of ``row`` modulo the current row space (new dict).

        The primitive, positively scaled Q-residual when ``row`` hits a
        pivot; otherwise an unchanged copy of ``row``.  The hit pivots
        are cleared in ascending order, and a pivot column that fills in
        joins them; a pivot row has no entry before its pivot, so no
        cleared column fills in again.
        """
        pivots = self.pivots
        heap = [c for c in row if c in pivots]
        r = dict(row)
        if not heap:
            return r
        heapify(heap)
        while heap:
            c = heappop(heap)
            v = r.get(c)
            if not v:
                continue
            p = pivots[c]
            a = p[c]
            g = gcd(a, v)
            if a != g:
                q = a // g
                for k in r:
                    r[k] *= q
            f = v // g
            for k, w in p.items():
                x = r.get(k)
                if x is None:
                    r[k] = -f * w
                    if k in pivots:
                        heappush(heap, k)
                else:
                    x -= f * w
                    if x:
                        r[k] = x
                    else:
                        del r[k]
        return strip_content(r)

    def add(self, row):
        """Insert a row; return its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        col = min(r)
        if r[col] < 0:
            r = {c: -v for c, v in r.items()}
        self.pivots[col] = strip_content(r)
        return col

    def pivot_row(self, col):
        """Copy of the stored row with this pivot."""
        return dict(self.pivots[col])

    def pivot_items(self):
        """(pivot column, row copy) pairs in ascending column order."""
        return [(c, dict(self.pivots[c])) for c in sorted(self.pivots)]


def rank_of_rows(rows):
    rr = IntRREF()
    for row in rows:
        rr.add(row)
    return rr.rank


def nullspace_of_rows(rows, ncols):
    """Basis of the right kernel of ``rows`` over columns ``0..ncols-1``.

    One primitive integer vector per free column, positive there, in
    ascending free column order (see the module docstring).
    """
    m = len(rows)
    columns = [{m + f: 1} for f in range(ncols)]
    for i, row in enumerate(rows):
        for f, v in row.items():
            columns[f][i] = v
    rr = IntRREF()
    basis = []
    pivots = rr.pivots
    for column in columns:
        # The residual is primitive and zero at every pivot column, so it
        # is stored as it is, positive at its pivot.
        r = rr.reduce(column)
        col = min(r)
        if col < m:
            pivots[col] = r if r[col] > 0 else {c: -v for c, v in r.items()}
        else:
            basis.append({c - m: v for c, v in r.items()})
    return basis
