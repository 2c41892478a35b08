"""Canonical-form properties of the integer kernel, against a reference."""

import random
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import _kernels_py, kernels


class ReferenceRREF:
    """Oracle for :class:`IntRREF`: clears one hit pivot at a time with
    a fraction-free ``combine`` and strips content after every step, and
    builds each nullspace vector by scanning every pivot row."""

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
            r = _kernels_py.combine(p[c] // g, r, -(v // g), p)
        return r

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return None
        col = min(r)
        if r[col] < 0:
            r = {c: -v for c, v in r.items()}
        _kernels_py.strip_content(r)
        for c2, p2 in list(self.pivots.items()):
            v = p2.get(col)
            if v:
                g = gcd(r[col], v)
                self.pivots[c2] = _kernels_py.combine(r[col] // g, p2, -(v // g), r)
        self.pivots[col] = r
        return col

    def nullspace(self, ncols):
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
            basis.append(_kernels_py.strip_content(vec))
        return basis


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
    out = _kernels_py.combine(1, a, -2, b)
    assert out == {1: 3, 2: -10}


def test_rref_canonical_under_row_order():
    rng = random.Random(7)
    rows = random_rows(rng, 8, 6)
    rr1 = _kernels_py.echelon(rows)
    rr2 = _kernels_py.echelon(list(reversed(rows)))
    assert rr1.pivots == rr2.pivots


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


def assert_matches_reference(rows, probes, ncols):
    """Feed ``rows`` to both kernels; compare every state and output."""
    ref, rr = ReferenceRREF(), _kernels_py.IntRREF()
    for row in rows:
        assert rr.add(dict(row)) == ref.add(dict(row))
        assert rr.pivots == ref.pivots
    for probe in probes:
        assert rr.reduce(probe) == ref.reduce(probe)
    assert rr.nullspace(ncols) == ref.nullspace(ncols)
    return rr


dense_rows = st.lists(
    st.lists(st.integers(-7, 7), min_size=7, max_size=7), min_size=1, max_size=9
).map(lambda mat: [{j: v for j, v in enumerate(r) if v} for r in mat])


@given(dense_rows, dense_rows)
def test_one_pass_reduce_matches_reference(rows, probes):
    assert_matches_reference(rows, probes, 7)


def test_reference_covers_multi_pivot_hits_with_large_leads():
    # Seeded systems whose probes hit several pivots with leading entries
    # above 1, the case where one-pass scaling differs most from clearing
    # pivots one at a time.
    rng = random.Random(5)
    hard = 0
    for _ in range(60):
        ncols = rng.randint(6, 12)
        rows = random_rows(rng, rng.randint(3, ncols), ncols, density=0.6, lo=-12, hi=12)
        probes = random_rows(rng, 6, ncols, density=0.8, lo=-12, hi=12)
        rr = assert_matches_reference(rows, probes, ncols)
        for probe in probes:
            big = [c for c in probe if c in rr.pivots and rr.pivots[c][c] > 1]
            hard += len(big) >= 3
    assert hard >= 20
