"""Transition blocks: the collision row, the Euler labels, the composed
block, argument checks, and the audit checks on tampered blocks."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import rootsystem as rsys
from gkmfactor import transition
from gkmfactor.momentgraph import Truncation
from gkmfactor.transition import transition_bundle, verify_bundle, weight_pairs
from gkmfactor.weights import freudenthal_weight_table


def a2_minuscule_setup():
    rs = rsys.build("A", 2)
    lam = rsys.fundamental_coweight(rs, 1)
    mu = rsys.dual_coweight(rs, lam)
    return rs, lam, mu


def sl3_bundle(**kwargs):
    rs, lam, mu = a2_minuscule_setup()
    return transition_bundle(rs, lam, mu, rsys.zero_vec(rs), **kwargs)


def with_m(bundle, m_block):
    """The bundle with another M column and the C block it composes to."""
    c = tuple(tuple(m * a for a in bundle.a_row) for (m,) in m_block)
    return bundle._replace(m_block=m_block, c_block=c)


def audit(bundle, **fields):
    """The checks of ``bundle`` with ``fields`` replaced, by name."""
    return {c.name: c for c in verify_bundle(bundle._replace(**fields))}


def test_build_A_minuscule_row():
    bundle = sl3_bundle()
    assert bundle.a_row == (1, 1, 1)
    assert len(bundle.pairs) == 3


@pytest.mark.parametrize("t,l,lam,mu", [
    ("A", 2, "omega1", "omega1*"),
    ("A", 2, "theta", "theta"),
    ("A", 3, "omega1", "omega2"),
    ("D", 4, "theta", "omega1"),
])
def test_weight_blocks_partition_the_tensor_basis(t, l, lam, mu):
    # Each pair collides into its weight sum, so over the vertices of the
    # lam + mu truncation the blocks hold every tensor basis vector once;
    # no block is empty.
    rs = rsys.build(t, l)
    lam, mu = rsys.resolve_coweight(rs, lam), rsys.resolve_coweight(rs, mu)
    total = tuple(a + b for a, b in zip(lam, mu))
    seen = []
    for nu in Truncation(rs, total).vertex_set():
        pairs = weight_pairs(lam, mu, rs, nu)
        assert len(pairs) > 0
        assert all(tuple(x + y for x, y in zip(s, u)) == nu for s, _, u, _ in pairs)
        seen.extend(pairs)
    dims = [sum(freudenthal_weight_table(v, rs).values()) for v in (lam, mu)]
    assert len(seen) == len(set(seen)) == dims[0] * dims[1]


def test_build_A_a1_adjoint_zero_row():
    rs = rsys.build("A", 1)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    bundle = transition_bundle(rs, theta, theta, zero)
    # pairs (alpha,-alpha), (0,0) x (l x l), (-alpha,alpha)
    assert len(bundle.pairs) == 3
    assert bundle.a_row == (1, 1, 1)


def test_build_A_rejects_non_dominant():
    rs = rsys.build("A", 2)
    with pytest.raises(ValueError, match="dominant"):
        transition_bundle(
            rs, tuple(-x for x in rs.highest_root), rs.highest_root, rsys.zero_vec(rs)
        )


def test_build_Q_symbolic():
    # With mu = 0 the one pair at weight zero is (0, 0), and the trivial
    # factor's single vertex has no edges, so Q is theta's zero-vertex
    # labels alone.
    rs = rsys.build("A", 1)
    zero = rsys.zero_vec(rs)
    bundle = transition_bundle(rs, rs.highest_root, zero, zero, euler="symbolic")
    assert bundle.pairs == ((zero, 0, zero, 0),)
    assert bundle.q_factors == (((1, -1), (1, 1)),)


def test_unit_euler_diagonal_and_unknown_mode():
    assert sl3_bundle().q_factors is None
    with pytest.raises(ValueError, match="numeric"):
        sl3_bundle(euler="numeric")


def test_pair_euler_diagonal_sizes():
    # Every vertex of the two minuscule graphs has two edges, so each
    # pair's entry is a product of four labels.
    q = sl3_bundle(euler="symbolic").q_factors
    assert len(q) == 3
    assert all(len(fs) == 4 and all(any(f) for f in fs) for fs in q)


def test_sl3_block():
    bundle = sl3_bundle()
    rs = bundle.rs
    assert bundle.row_classes == (rs.highest_root, rsys.zero_vec(rs))
    assert bundle.m_block == ((2,), (1,))
    assert bundle.c_block == ((2, 2, 2), (1, 1, 1))
    assert bundle.c_rank() == 1
    assert all(c.ok for c in bundle.checks)


def test_compose_identity_m_gives_a():
    # At weight theta only the theta class supports the stalk, so M is
    # the first unit column and C's first row is A.
    rs, lam, mu = a2_minuscule_setup()
    bundle = transition_bundle(rs, lam, mu, rs.highest_root)
    assert bundle.m_block == ((1,), (0,))
    assert bundle.c_block == (bundle.a_row, (0,) * len(bundle.a_row))


def test_symbolic_euler_keeps_integer_core():
    bundle = sl3_bundle(euler="symbolic")
    assert bundle.q_factors is not None
    assert bundle.c_block[0] == (2, 2, 2)
    assert all(c.ok for c in bundle.checks)


def test_adjoint_zero_block_rank_bound():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    bundle = transition_bundle(rs, theta, theta, rsys.zero_vec(rs))
    assert bundle.c_rank() <= min(bundle.m_rank(), rs.rank)
    assert all(c.ok for c in bundle.checks)


@pytest.mark.parametrize("lam,mu,nu", [
    ("omega1", "omega1", "zero"),
    ("omega1", "omega1*", "5,0,-5"),
    ("theta", "theta", "3,0,-3"),
    ("omega1", "omega1*", "1,0,0"),
])
def test_block_at_a_non_weight_refused(lam, mu, nu):
    # nu is a weight of the tensor product exactly when it is a vertex
    # of the lam + mu truncation.
    rs = rsys.build("A", 2)
    args = [rsys.resolve_coweight(rs, x) for x in (lam, mu, nu)]
    with pytest.raises(ValueError, match=re.escape(f"{list(args[2])} is not a weight")):
        transition_bundle(rs, *args)


@pytest.mark.parametrize("lam,nu,euler,message", [
    ("omega1", "zero", "numeric", "unknown Euler mode 'numeric'"),
    ("-1,0,1", "zero", "unit", "both highest coweights must be dominant"),
    ("omega1", "3,0,-3", "unit", "is not a weight"),
], ids=["unknown-euler", "non-dominant", "non-weight"])
def test_bad_arguments_refused_before_any_table_or_column(lam, nu, euler, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the arguments were checked")

    monkeypatch.setattr(transition, "stalk_ranks", refuse)
    monkeypatch.setattr(transition, "freudenthal_weight_table", refuse)
    rs = rsys.build("A", 2)
    lam, mu, nu = (rsys.resolve_coweight(rs, x) for x in (lam, "omega1*", nu))
    with pytest.raises(ValueError, match=re.escape(message)):
        transition_bundle(rs, lam, mu, nu, euler=euler)


def test_bundle_and_its_audit_are_frozen():
    bundle = sl3_bundle()
    assert isinstance(bundle.checks, tuple)
    with pytest.raises(AttributeError, match="can't set attribute"):
        bundle.checks = ()
    with pytest.raises(AttributeError, match="can't set attribute"):
        bundle.checks[0].ok = False


def test_adversarial_negative_entry_located():
    checks = audit(sl3_bundle(), a_row=(1, -1, 1))
    assert not checks["nonnegative-integrality"].ok
    assert checks["nonnegative-integrality"].detail == "violations at A[0][1]=-1"


def test_rank_bound_fires_on_a_rank_two_composite():
    checks = audit(sl3_bundle(), c_block=((2, 2, 2), (1, 0, 1)))
    assert not checks["rank-bound"].ok
    assert checks["rank-bound"].detail == "rank(C)=2 <= rank(M)=1"


def test_rank_bound_names_the_cartan_rank_on_the_adjoint_zero_block():
    rs = rsys.build("A", 1)
    theta = rs.highest_root
    bundle = transition_bundle(rs, theta, theta, rsys.zero_vec(rs))
    checks = audit(bundle, c_block=((1, 1, 1), (1, 0, 1), (1, 1, 1)))
    assert not checks["rank-bound"].ok
    assert checks["rank-bound"].detail == (
        "rank(C)=2 <= rank(M)=1; adjoint zero block rank 2 <= rank(G)=1"
    )


def test_monomial_check_fails_on_a_column_with_two_nonzeros():
    checks = audit(sl3_bundle(), m_block=((1,), (0,)), c_block=((1, 1, 1), (1, 0, 0)))
    assert not checks["condition-a-monomial"].ok
    assert checks["condition-a-monomial"].detail == "column 0 has 2 nonzeros"


def test_support_check_names_an_unwitnessed_entry():
    # A zeroed collision entry leaves column 1 of C unwitnessed; the
    # detail names the last such entry.
    checks = audit(sl3_bundle(), a_row=(1, 0, 1))
    assert not checks["support"].ok
    assert checks["support"].detail == "entry (1,1) lacks a witness"


def test_column_sparsity_check_names_an_overfull_column():
    # M sums to 1, so each column of C may hold one nonzero, not two.
    checks = audit(sl3_bundle(), m_block=((1,), (0,)))
    assert not checks["column-sparsity"].ok
    assert checks["column-sparsity"].detail == "column 2: 2 nonzeros exceed bound 1"


def test_monomial_check_fires_on_identity_m():
    checks = {c.name: c for c in verify_bundle(with_m(sl3_bundle(), ((1,), (0,))))}
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
    checks = {c.name: c for c in verify_bundle(with_m(bundle, m_block))}
    assert checks["nonnegative-integrality"].ok
    assert checks["rank-bound"].ok or any(sum(row) for row in m_block) == 0
    assert checks["support"].ok
    assert checks["column-sparsity"].ok
