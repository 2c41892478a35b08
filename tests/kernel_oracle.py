"""The canonical reduced echelon form, kept as a reference for the kernel.

:class:`ReferenceRREF` clears one hit pivot at a time with a fraction
free :func:`combine`, strips content after every step, and re-reduces
every stored row after each insert, so no stored row touches another
pivot's column.  Each free column's kernel vector is then read off the
pivot rows that touch it.  The package instead keeps a semi-echelon
basis that it never back-substitutes (``kernels.IntRREF``) and reads
kernel vectors off column dependencies (``kernels.nullspace_of_rows``);
the two share only ``strip_content``.
"""

from __future__ import annotations

from math import gcd

from gkmfactor._kernels_py import strip_content


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


class ReferenceRREF:
    """Incremental canonical RREF over Q with primitive integer rows,
    each positive at its pivot, its smallest column."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        r = dict(row)
        for c in sorted(c for c in r if c in self.pivots):
            v = r.get(c)
            if not v:
                continue
            p = self.pivots[c]
            g = gcd(p[c], v)
            r = combine(p[c] // g, r, -(v // g), p)
        return r

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return None
        col = min(r)
        if r[col] < 0:
            r = {c: -v for c, v in r.items()}
        strip_content(r)
        for c2, p2 in list(self.pivots.items()):
            v = p2.get(col)
            if v:
                g = gcd(r[col], v)
                self.pivots[c2] = combine(r[col] // g, p2, -(v // g), r)
        self.pivots[col] = r
        return col

    def nullspace(self, ncols):
        """One primitive kernel vector per free column, positive there,
        in ascending free column order."""
        basis = []
        for f in range(ncols):
            if f in self.pivots:
                continue
            entries = [(c, row) for c, row in sorted(self.pivots.items()) if f in row]
            scale = 1
            for c, row in entries:
                scale = scale * row[c] // gcd(scale, row[c])
            vec = {f: scale}
            for c, row in entries:
                vec[c] = -row[f] * (scale // row[c])
            basis.append(strip_content(vec))
        return basis


def reference_nullspace(rows, ncols):
    """Kernel basis of ``rows`` read off their canonical RREF."""
    ref = ReferenceRREF()
    for row in rows:
        ref.add(dict(row))
    return ref.nullspace(ncols)
