"""Sparse exact integer elimination, pure Python backend.

A row is a dict mapping column index to a nonzero Python int.  All
elimination is fraction free: a pivot step replaces ``row`` by
``(a//g)*row - (b//g)*pivot_row`` with ``g = gcd(a, b)``, followed by
content stripping, so entries stay integral and small.  Ranks, kernels
and reduced bases computed here are exact over the rationals.

The reduced echelon basis kept by :class:`IntRREF` is canonical: each
stored row is primitive (content 1), has a positive pivot entry, and
contains no other pivot column.  Two IntRREF instances fed the same row
space therefore hold identical rows, which makes every downstream
result backend and insertion-order independent.  Because no stored row
touches another pivot's column, a row's residual over Q is unique, so
:meth:`IntRREF.reduce` clears every pivot it hits in one scaled pass
and strips content once.
"""

from __future__ import annotations

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
    """Incremental reduced row echelon form over Q with integer rows.

    The pivot of a new row is its smallest surviving column.  Stored
    rows are fully reduced against each other, primitive, and have a
    positive pivot, so the basis is the canonical RREF of the row space
    up to the per-row integer scaling.
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
    """Feed ``rows`` into a fresh IntRREF and return it."""
    rr = IntRREF()
    for row in rows:
        rr.add(row)
    return rr


def rank_of_rows(rows):
    return echelon(rows).rank


def nullspace_of_rows(rows, ncols):
    return echelon(rows).nullspace(ncols)
