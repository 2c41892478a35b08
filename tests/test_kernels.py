"""Properties of the integer kernel against the canonical reduced echelon
form of ``kernel_oracle``: the semi-echelon class after every insert, and
the nullspace read off column dependencies."""

import random

from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import _kernels_py, kernels
from kernel_oracle import ReferenceRREF, combine, reference_nullspace


def random_rows(rng, nrows, ncols, density=0.4, lo=-9, hi=9):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_strip_content():
    row = {0: 6, 3: -9, 7: 12}
    _kernels_py.strip_content(row)
    assert row == {0: 2, 3: -3, 7: 4}


def test_combine_cancels():
    a = {0: 2, 1: 3}
    b = {0: 1, 2: 5}
    out = combine(1, a, -2, b)
    assert out == {1: 3, 2: -10}


def test_nullspace_independent_of_row_order():
    # stalks.run_column hands each extension system's rows over in an
    # order of its choosing; the kernel list must not depend on it.
    rng = random.Random(7)
    for _ in range(30):
        ncols = rng.randint(4, 12)
        rows = random_rows(rng, rng.randint(1, ncols), ncols, density=0.4, lo=-9, hi=9)
        kern = kernels.nullspace_of_rows(rows, ncols)
        for _ in range(3):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert kernels.nullspace_of_rows(shuffled, ncols) == kern
        assert kern == reference_nullspace(rows, ncols)


def test_nullspace_annihilated():
    rng = random.Random(3)
    rows = random_rows(rng, 6, 9)
    for vec in kernels.nullspace_of_rows(rows, 9):
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0


@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=6))
def test_rank_plus_nullity(mat):
    rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
    rank = kernels.rank_of_rows([dict(r) for r in rows])
    nullity = len(kernels.nullspace_of_rows([dict(r) for r in rows], 5))
    assert rank + nullity == 5


def test_reduce_is_membership_test():
    rr = kernels.IntRREF()
    rr.add({0: 1, 1: 2})
    rr.add({1: 1, 2: 1})
    assert not rr.reduce({0: 2, 1: 5, 2: 1})
    assert rr.reduce({0: 1, 1: 1, 2: 1})


def assert_nullspace_matches_reference(rows, ncols):
    kern = kernels.nullspace_of_rows([dict(r) for r in rows], ncols)
    assert kern == reference_nullspace(rows, ncols)
    return kern


dense_rows = st.lists(
    st.lists(st.integers(-7, 7), min_size=7, max_size=7), min_size=1, max_size=9
).map(lambda mat: [{j: v for j, v in enumerate(r) if v} for r in mat])


@given(dense_rows)
def test_nullspace_matches_reference(rows):
    assert_nullspace_matches_reference(rows, 7)


def test_nullspace_edge_cases_match_reference():
    # No rows at all: every column is free, with kernel vector {f: 1}.
    assert assert_nullspace_matches_reference([], 4) == [{f: 1} for f in range(4)]
    # An all-zero column, between and after touched ones.
    kern = assert_nullspace_matches_reference([{0: 3, 2: -6}, {0: 1, 3: 2}], 5)
    assert {1: 1} in kern and {4: 1} in kern
    # Free columns past the largest column any row touches.
    kern = assert_nullspace_matches_reference([{0: 2, 1: -4}, {1: 3}], 6)
    assert kern == [{2: 1}, {3: 1}, {4: 1}, {5: 1}]
    # Rows scaled by 2-6: the kernel is that of the unscaled rows.
    rng = random.Random(13)
    for _ in range(30):
        ncols = rng.randint(3, 10)
        rows = random_rows(rng, rng.randint(1, ncols), ncols, density=0.5)
        scaled = []
        for row in rows:
            k = rng.randint(2, 6)
            scaled.append({c: k * v for c, v in row.items()})
        kern = assert_nullspace_matches_reference(scaled, ncols)
        assert kern == kernels.nullspace_of_rows(rows, ncols)


def test_reference_covers_multi_pivot_hits_with_large_leads():
    # Seeded systems whose kernel vectors combine several pivot rows with
    # leading entries above 1 in the canonical form, the case where the
    # column-dependency kernel and the back-substituted one scale their
    # entries most differently.
    rng = random.Random(5)
    hard = 0
    for _ in range(60):
        ncols = rng.randint(6, 12)
        rows = random_rows(rng, rng.randint(3, ncols), ncols, density=0.6, lo=-12, hi=12)
        assert_nullspace_matches_reference(rows, ncols)
        ref = ReferenceRREF()
        for row in rows:
            ref.add(row)
        for f in range(ncols):
            big = [c for c, p in ref.pivots.items() if f in p and p[c] > 1]
            hard += f not in ref.pivots and len(big) >= 3
    assert hard >= 20


def assert_semi_echelon_matches_canonical(rows, probes):
    """Feed ``rows`` to the semi-echelon class and the reference; every
    insert must return the same pivot and store the row the canonical
    form holds right after it, and every probe must reduce the same."""
    canon, semi = ReferenceRREF(), _kernels_py.IntRREF()
    for row in rows:
        col = semi.add(dict(row))
        assert col == canon.add(dict(row))
        if col is not None:
            stored = semi.pivot_row(col)
            assert stored == canon.pivots[col]
            assert min(stored) == col and stored[col] > 0
            assert _kernels_py.strip_content(dict(stored)) == stored
        assert semi.rank == len(canon.pivots)
    for probe in probes:
        residual = semi.reduce(dict(probe))
        assert residual == canon.reduce(dict(probe))
    return semi


@given(dense_rows, dense_rows)
def test_semi_echelon_matches_canonical(rows, probes):
    assert_semi_echelon_matches_canonical(rows, probes)


def test_semi_echelon_matches_canonical_on_scaled_fill_in_rows():
    # Seeded rows scaled by a common factor, so that inserts with no pivot
    # hit must still be stored content-stripped, and sparse enough that
    # reductions fill in later pivot columns.
    rng = random.Random(11)
    filled = stripped = 0
    for _ in range(60):
        ncols = rng.randint(6, 14)
        sparse = random_rows(rng, rng.randint(3, ncols + 2), ncols, density=0.35, lo=-12, hi=12)
        rows = []
        for row in sparse:
            k = rng.randint(2, 6)
            rows.append({c: k * v for c, v in row.items()})
        probes = random_rows(rng, 6, ncols, density=0.5, lo=-12, hi=12)
        semi = _kernels_py.IntRREF()
        for row in rows:
            if row and not any(c in semi.pivots for c in row):
                stripped += _kernels_py.strip_content(dict(row)) != row
            semi.add(dict(row))
        filled += any(
            c in row and c != p for p, row in semi.pivots.items() for c in semi.pivots
        )
        assert_semi_echelon_matches_canonical(rows, probes)
    assert filled >= 20 and stripped >= 20


def test_rank_of_rows_uses_the_plain_semi_echelon(monkeypatch):
    # A profiler replaces kernels.IntRREF to count the rows it gets; the
    # kernel's own rank helper must not reach that binding.
    monkeypatch.setattr(kernels, "IntRREF", None)
    assert kernels.rank_of_rows([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}]) == 2


def test_nullspace_of_rows_uses_the_plain_semi_echelon(monkeypatch):
    # Nor may the nullspace, whose rows the profiler counts at its own call.
    monkeypatch.setattr(kernels, "IntRREF", None)
    assert kernels.nullspace_of_rows([{0: 2, 1: 4}, {0: 1, 1: 2}], 3) == [
        {0: -2, 1: 1},
        {2: 1},
    ]
