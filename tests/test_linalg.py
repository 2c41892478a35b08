"""Rank of integer rows against an independent brute-force oracle."""

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import kernels
from gkmfactor.linalg import rank


def det_cofactor(rows):
    """Cofactor-expansion determinant; the independent minor oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def minor_rank(rows, ncols):
    """Largest size of a nonvanishing minor."""
    nrows = len(rows)
    for size in range(min(nrows, ncols), 0, -1):
        for ris in itertools.combinations(range(nrows), size):
            for cis in itertools.combinations(range(ncols), size):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det_cofactor(sub) != 0:
                    return size
    return 0


def test_identity_rank():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_single_row_rank():
    assert rank([[1, 1, 1]]) == 1


def test_rank_agrees_with_minor_oracle():
    # Products through k dimensions give ranks up to k.
    rng = random.Random(5)
    for trial in range(8):
        k = trial % 5 + 1
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(5)]
        b = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(k)]
        rows = [[sum(x * b[i][j] for i, x in enumerate(r)) for j in range(5)] for r in a]
        assert rank(rows) == minor_rank(rows, 5)


def test_empty_matrix_rank_zero():
    assert rank([]) == 0
    assert rank([[0] * 5, [0] * 5]) == 0


small = st.integers(-4, 4)


@given(
    st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(small, min_size=4, max_size=4), min_size=3, max_size=3),
)
def test_product_rank_bounded(a_rows, b_rows):
    ab = [[sum(x * b_rows[k][j] for k, x in enumerate(row)) for j in range(4)] for row in a_rows]
    assert rank(ab) <= min(rank(a_rows), rank(b_rows))


@given(st.lists(st.lists(small, min_size=5, max_size=5), min_size=2, max_size=5))
def test_rank_nullity(rows):
    # Scaling row i by i + 1 keeps the rank.
    scaled = [[v * (i + 1) for v in row] for i, row in enumerate(rows)]
    int_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert rank(scaled) + len(kernels.nullspace_of_rows(int_rows, 5)) == 5
