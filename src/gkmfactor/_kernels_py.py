"""Sparse exact integer elimination, pure Python backend.

A row is a dict mapping column index to a nonzero Python int.  All
elimination is fraction free: a pivot step replaces ``row`` by
``(a//g)*row - (b//g)*pivot_row`` with ``g = gcd(a, b)``, followed by
content stripping, so entries stay integral and small.  Ranks, kernels
and reduced bases computed here are exact over the rationals.

Two echelon classes share that arithmetic.  In both, each stored row is
primitive (content 1) and has a positive pivot entry at its smallest
column, and a new row's residual has zeros at every pivot column.  Such
a residual is unique up to scale, since a nonzero element of the row
space is nonzero at the smallest pivot it involves, so both classes
return the same residuals, pivots and ranks for the same rows.

* :class:`IntRREF` is a semi-echelon basis: it stores each residual as
  it is inserted and never back-substitutes, so a stored row may hold
  later pivot columns.  It serves the incremental searches that read
  only residuals and ranks (``stalks.run_column``'s generator search,
  :func:`rank_of_rows`).
* :class:`CanonicalRREF` re-reduces its stored rows after every insert,
  keeping the canonical reduced echelon form that :func:`echelon` and
  :func:`nullspace_of_rows` need: no stored row touches another pivot's
  column, so each free column's kernel vector reads off the rows
  directly, and the basis, like everything built from it, is
  independent of the row order.
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


def combine(a, row_a, b, row_b):
    """Return ``a*row_a + b*row_b`` as a new content-stripped row."""
    out = {}
    for c, v in row_a.items():
        out[c] = a * v
    for c, v in row_b.items():
        w = out.get(c, 0) + b * v
        if w:
            out[c] = w
        elif c in out:
            del out[c]
    return strip_content(out)


class IntRREF:
    """Incremental semi-echelon basis over Q with integer rows.

    The pivot of a new row is its smallest surviving column.  Each
    stored row is the residual as inserted: primitive, positive at its
    pivot and zero at the pivot column of every row stored before it,
    with entries only at columns at or after its pivot.  So
    :meth:`pivot_row` read right after :meth:`add` is the row
    :class:`CanonicalRREF` would store.
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


class CanonicalRREF:
    """Incremental reduced row echelon form over Q with integer rows.

    The pivot of a new row is its smallest surviving column.  Stored
    rows are fully reduced against each other, primitive, and have a
    positive pivot, so the basis is the canonical RREF of the row space
    up to the per-row integer scaling.  Because no stored row touches
    another pivot's column, :meth:`reduce` clears every pivot it hits in
    one scaled pass and strips content once.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Residual of ``row`` modulo the current row space (new dict).

        The primitive, positively scaled Q-residual when ``row`` hits a
        pivot; otherwise an unchanged copy of ``row``.
        """
        pivots = self.pivots
        hit = [(c, v) for c, v in row.items() if c in pivots]
        if not hit:
            return dict(row)
        # Smallest positive scale that makes every pivot multiple integral.
        scale = 1
        for c, v in hit:
            a = pivots[c][c]
            q = a // gcd(a, v)
            scale = scale * q // gcd(scale, q)
        r = {c: scale * v for c, v in row.items()} if scale > 1 else dict(row)
        for c, v in hit:
            p = pivots[c]
            f = scale * v // p[c]
            for k, w in p.items():
                x = r.get(k, 0) - f * w
                if x:
                    r[k] = x
                else:
                    del r[k]
        return strip_content(r)

    def add(self, row):
        """Insert a row; return its pivot column, or None if dependent.

        After a successful insert the stored basis is re-reduced so the
        RREF stays canonical.
        """
        r = self.reduce(row)
        if not r:
            return None
        col = min(r)
        if r[col] < 0:
            r = {c: -v for c, v in r.items()}
        strip_content(r)
        for c2 in list(self.pivots):
            p2 = self.pivots[c2]
            v = p2.get(col)
            if v:
                a = r[col]
                g = gcd(a, v)
                self.pivots[c2] = combine(a // g, p2, -(v // g), r)
        self.pivots[col] = r
        return col

    def pivot_row(self, col):
        """Copy of the stored (reduced, primitive) row with this pivot."""
        return dict(self.pivots[col])

    def pivot_items(self):
        """(pivot column, row copy) pairs in ascending column order."""
        return [(c, dict(self.pivots[c])) for c in sorted(self.pivots)]

    def nullspace(self, ncols):
        """Basis of the right kernel of the accumulated rows.

        One primitive integer vector per free column, in ascending free
        column order.
        """
        piv = self.pivots
        # Free column -> (pivot column, row) pairs, pivots ascending.
        touching: dict = {}
        for c, row in sorted(piv.items()):
            for f in row:
                if f != c:
                    touching.setdefault(f, []).append((c, row))
        basis = []
        for f in range(ncols):
            if f in piv:
                continue
            entries = touching.get(f, ())
            scale = 1
            for c, row in entries:
                d = row[c]
                scale = scale * d // gcd(scale, d)
            vec = {f: scale}
            for c, row in entries:
                vec[c] = -row[f] * (scale // row[c])
            basis.append(strip_content(vec))
        return basis


def echelon(rows):
    """Feed ``rows`` into a fresh CanonicalRREF and return it."""
    rr = CanonicalRREF()
    for row in rows:
        rr.add(row)
    return rr


def rank_of_rows(rows):
    rr = IntRREF()
    for row in rows:
        rr.add(row)
    return rr.rank


def nullspace_of_rows(rows, ncols):
    return echelon(rows).nullspace(ncols)
