"""Exact rank of rational matrices.

Each row is scaled by the least common multiple of its entries'
denominators, which leaves the rank over Q unchanged, and the integer
rows go to the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import kernels


def rank(rows) -> int:
    """Rank over Q of a sequence of rows of ints or Fractions."""
    int_rows = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        denom = lcm(*(x.denominator for x in fr))
        int_rows.append({j: int(x * denom) for j, x in enumerate(fr) if x})
    return kernels.rank_of_rows(int_rows)
