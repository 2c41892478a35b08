"""Exact rank of integer matrices, through the elimination kernel."""

from __future__ import annotations

from . import kernels


def rank(rows) -> int:
    """Rank over Q of a sequence of rows of ints."""
    return kernels.rank_of_rows([{j: x for j, x in enumerate(r) if x} for r in rows])
