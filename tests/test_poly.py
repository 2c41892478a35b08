"""Monomial bases and reduction modulo a linear form: the two-variable
closed form of ``poly.reducer_for`` against the n-variable oracle."""

from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gkmfactor import kernels, poly
from gkmfactor.poly import poly_mul
from nvar_oracle import LinearFormReducer, monomials, reduced_monomials, reducer_for
from sections_oracle import reduce_poly


def test_monomial_counts():
    for n in range(1, 5):
        for d in range(0, 6):
            assert len(monomials(n, d)) == comb(d + n - 1, n - 1)


def divisible_basis(form, d):
    """Kernel of the degree-d reduction modulo ``form``, as coefficient
    vectors over ``monomials(n, d)``: the degree-d multiples of the form."""
    n = len(form)
    red = LinearFormReducer(form)
    row_of = {m: i for i, m in enumerate(reduced_monomials(n, d, red.pivot))}
    rows = [{} for _ in row_of]
    for j, exp in enumerate(monomials(n, d)):
        for m, c in red.reduce_monomial(exp).items():
            rows[row_of[m]][j] = c
    return kernels.nullspace_of_rows(rows, len(monomials(n, d)))


def test_divisible_constants_only_zero():
    assert divisible_basis((1,), 0) == []


def test_divisibility_two_vars_degree_one():
    # p = a*x + b*y divisible by x - y iff a + b = 0.
    basis = divisible_basis((1, -1), 1)
    assert len(basis) == 1
    idx = {m: i for i, m in enumerate(monomials(2, 1))}
    vec = basis[0]
    assert vec.get(idx[(1, 0)], 0) + vec.get(idx[(0, 1)], 0) == 0
    assert vec.get(idx[(1, 0)], 0) != 0


def test_degree_zero_always_trivial():
    for form in [(1, 0, 0), (2, -1, 3)]:
        assert divisible_basis(form, 0) == []


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        LinearFormReducer((0, 0))
    with pytest.raises(ValueError):
        reducer_for((0, 0), 2)
    with pytest.raises(ValueError):
        poly.reducer_for((0, 0))


@given(st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(any))
@example((0, 7))
@example((-5, 0))
@example((4, -4))
@example((-3, -3))
def test_closed_form_reduction_matches_the_oracle(form):
    # x^a y^b reduces to s_x**a * s_y**b on the pivot-free monomial of
    # degree a + b, and a zero product to the oracle's empty image.  The
    # pivot is x on the tie |l0| == |l1|.
    sx, sy = poly.reducer_for(form)
    red = LinearFormReducer(form)
    for a in range(8):
        for b in range(8):
            c = sx**a * sy**b
            mono = (0, a + b) if red.pivot == 0 else (a + b, 0)
            assert red.reduce_monomial((a, b)) == ({mono: c} if c else {}), (form, a, b)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 4),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
                lambda c: any(c)
            ),
        )
    )
)
def test_divisibility_kernel_dimension(case):
    # Multiplication by a nonzero linear form is injective, so the
    # divisible subspace in degree d has the full degree-(d-1) dimension,
    # and every multiple of the form reduces to zero.
    n, d, form = case
    assert len(divisible_basis(tuple(form), d)) == comb(d - 1 + n - 1, n - 1)
    red = LinearFormReducer(form)
    L = {tuple(int(i == k) for i in range(n)): c for k, c in enumerate(form) if c}
    p = {m: i + 1 for i, m in enumerate(monomials(n, d - 1))}
    assert reduce_poly(red, poly_mul(L, p)) == {}
