"""Transition-block factors, composition, and the audit checks."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import Truncation, build_graph
from gkmfactor.transition import (
    EulerDiagonal,
    build_A,
    build_Q,
    compose_C,
    pair_euler_diagonal,
    transition_bundle,
    verify_bundle,
    weight_pairs,
)
from gkmfactor.weights import freudenthal_weight_table


def a2_minuscule_setup():
    rs = rsys.build("A", 2)
    lam = rsys.fundamental_coweight(rs, 1)
    mu = rsys.dual_coweight(rs, lam)
    return rs, lam, mu


def test_build_A_minuscule_row():
    rs, lam, mu = a2_minuscule_setup()
    a = build_A(lam, mu, rs, rsys.zero_vec(rs))
    assert a.entries == ((1, 1, 1),)
    assert len(a.pairs) == 3


@pytest.mark.parametrize("t,l,lam,mu", [
    ("A", 2, "omega1", "omega1*"),
    ("A", 2, "theta", "theta"),
    ("A", 3, "omega1", "omega2"),
    ("D", 4, "theta", "omega1"),
])
def test_weight_blocks_partition_the_tensor_basis(t, l, lam, mu):
    # Each pair collides into its weight sum, so over the vertices of the
    # lam + mu truncation the blocks hold every tensor basis vector once,
    # each in a row of ones; no block is empty.
    rs = rsys.build(t, l)
    lam, mu = rsys.resolve_coweight(rs, lam), rsys.resolve_coweight(rs, mu)
    total = tuple(a + b for a, b in zip(lam, mu))
    seen = []
    for nu in Truncation(rs, total).vertex_set():
        a = build_A(lam, mu, rs, nu)
        assert a.row_coweights == (nu,)
        assert a.entries == ((1,) * len(a.pairs),) and len(a.pairs) > 0
        assert all(tuple(x + y for x, y in zip(s, u)) == nu for s, _, u, _ in a.pairs.pairs)
        seen.extend(a.pairs.pairs)
    dims = [sum(freudenthal_weight_table(v, rs).values()) for v in (lam, mu)]
    assert len(seen) == len(set(seen)) == dims[0] * dims[1]


def test_build_A_a1_adjoint_zero_row():
    rs = rsys.build("A", 1)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    a = build_A(theta, theta, rs, zero)
    # pairs (alpha,-alpha), (0,0) x (l x l), (-alpha,alpha)
    assert len(a.pairs) == 3
    assert a.entries == ((1, 1, 1),)


def test_build_A_rejects_non_dominant():
    rs = rsys.build("A", 2)
    with pytest.raises(ValueError):
        build_A(tuple(-x for x in rs.highest_root), rs.highest_root, rs, rsys.zero_vec(rs))


def test_build_Q_symbolic():
    rs = rsys.build("A", 1)
    g = build_graph(Truncation(rs, rs.highest_root))
    sym = build_Q(g)
    zero_pos = g.vertices.index((0, 0))
    assert len(sym.factors[zero_pos]) == 2
    assert all(fs for fs in sym.factors)
    assert sym.entry_strings()[zero_pos] == "(1,-1) * (1,1)"


def test_unit_euler_diagonal_and_unknown_mode():
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs))
    assert bundle.q.is_unit
    assert bundle.q.entry_strings() == ["1", "1", "1"]
    with pytest.raises(ValueError, match="numeric"):
        transition_bundle(rs, lam, mu, rsys.zero_vec(rs), euler="numeric")


def test_pair_euler_diagonal_sizes():
    rs, lam, mu = a2_minuscule_setup()
    pairs = weight_pairs(lam, mu, rs, rsys.zero_vec(rs))
    q = pair_euler_diagonal(
        build_graph(Truncation(rs, lam)), build_graph(Truncation(rs, mu)), pairs
    )
    assert len(q.factors) == 3
    assert not q.is_unit


def test_sl3_block():
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs))
    assert bundle.row_classes == (rs.highest_root, rsys.zero_vec(rs))
    assert bundle.m_block == ((2,), (1,))
    assert bundle.c_block == (
        (Fraction(2), Fraction(2), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(1)),
    )
    assert bundle.c_rank() == 1
    assert all(c.ok for c in bundle.checks)


def test_compose_identity_m_gives_a():
    rs, lam, mu = a2_minuscule_setup()
    a = build_A(lam, mu, rs, rsys.zero_vec(rs))
    m = ((1,),)
    p = (Fraction(1),)
    q = EulerDiagonal(index=a.pairs.pairs, factors=None)
    c = compose_C(p, m, a, q)
    assert c == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_compose_dimension_mismatch():
    rs, lam, mu = a2_minuscule_setup()
    a = build_A(lam, mu, rs, rsys.zero_vec(rs))
    with pytest.raises(ValueError):
        compose_C((Fraction(1),), ((1, 0),), a, EulerDiagonal(index=a.pairs.pairs))


def test_symbolic_euler_keeps_integer_core():
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs), euler="symbolic")
    assert not bundle.q.is_unit
    assert bundle.c_block[0] == (Fraction(2), Fraction(2), Fraction(2))
    assert all(c.ok for c in bundle.checks)


def test_adjoint_zero_block_rank_bound():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    bundle = transition_bundle(rs, theta, theta, rsys.zero_vec(rs))
    assert bundle.c_rank() <= min(bundle.m_rank(), rs.rank)
    assert all(c.ok for c in bundle.checks)


@pytest.mark.parametrize("t,l,lam,mu", [("A", 2, "omega1", "omega1*"), ("A", 2, "theta", "theta")])
def test_non_unit_p_diagonal_keeps_ranks_and_audits(t, l, lam, mu):
    rs = rsys.build(t, l)
    lam, mu = rsys.resolve_coweight(rs, lam), rsys.resolve_coweight(rs, mu)
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs))
    assert bundle.p_diag == tuple(Fraction(1) for _ in bundle.row_classes)
    p = tuple(Fraction(k + 1, 2) * (-1) ** k for k in range(len(bundle.row_classes)))
    c = compose_C(p, bundle.m_block, bundle.a, bundle.q)
    for i, row in enumerate(c):
        assert row == tuple(p[i] * x for x in bundle.c_block[i])
    scaled = dataclasses.replace(bundle, p_diag=p, c_block=c)
    assert scaled.c_rank() == bundle.c_rank() and scaled.m_rank() == bundle.m_rank()
    assert [(x.name, x.ok) for x in verify_bundle(scaled)] == [
        (x.name, True) for x in bundle.checks
    ]


@pytest.mark.parametrize("lam,mu,nu", [
    ("omega1", "omega1", "zero"),
    ("omega1", "omega1*", "5,0,-5"),
    ("theta", "theta", "3,0,-3"),
])
def test_block_at_a_non_weight_refused(lam, mu, nu):
    # nu is a weight of the tensor product exactly when it is a vertex
    # of the lam + mu truncation.
    rs = rsys.build("A", 2)
    args = [rsys.resolve_coweight(rs, x) for x in (lam, mu, nu)]
    with pytest.raises(ValueError, match=re.escape(f"{list(args[2])} is not a weight")):
        transition_bundle(rs, *args)


def test_adversarial_negative_entry_located():
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs))
    bad_entries = ((1, -1, 1),)
    tampered = dataclasses.replace(
        bundle.a, entries=bad_entries
    )
    broken = dataclasses.replace(bundle, a=tampered)
    checks = {c.name: c for c in verify_bundle(broken)}
    assert not checks["nonnegative-integrality"].ok
    assert "A[0][1]" in checks["nonnegative-integrality"].detail


def test_monomial_check_fires_on_identity_m():
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rsys.zero_vec(rs))
    identity_m = ((1,), (0,))
    tweaked = dataclasses.replace(bundle, m_block=identity_m)
    tweaked = dataclasses.replace(
        tweaked,
        c_block=compose_C(tweaked.p_diag, identity_m, tweaked.a, tweaked.q),
    )
    checks = {c.name: c for c in verify_bundle(tweaked)}
    assert checks["condition-a-monomial"].ok
    assert "monomial" in checks["condition-a-monomial"].detail


small_m = st.lists(
    st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=2, max_size=4
)


@given(small_m, st.integers(0, 1000))
def test_random_bundles_audit(m_rows, seed):
    # Random unitriangular-ish M blocks against a fixed A row; the rank,
    # support and sparsity audits must hold structurally.
    rs = rsys.build("A", 1)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    bundle = transition_bundle(rs, theta, theta, zero)
    m_block = tuple((r[0],) for r in m_rows)[: len(bundle.row_classes)]
    while len(m_block) < len(bundle.row_classes):
        m_block = m_block + ((0,),)
    c = compose_C(
        tuple(Fraction(1) for _ in m_block), m_block, bundle.a, bundle.q
    )
    patched = dataclasses.replace(bundle, m_block=m_block, c_block=c)
    checks = {c.name: c for c in verify_bundle(patched)}
    assert checks["nonnegative-integrality"].ok
    assert checks["rank-bound"].ok or any(sum(row) for row in m_block) == 0
    assert checks["support"].ok
    assert checks["column-sparsity"].ok
