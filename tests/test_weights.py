"""Partition counts, multiplicities, tensor combinatorics.

The Kostant alternating sum and the Freudenthal recursion are
implemented independently and cross-checked here; the partition counts
are checked against bounded brute-force enumeration.
"""

import hashlib
import itertools

import pytest

from gkmfactor import rootsystem as rsys
from graph_oracle import reflect
from gkmfactor import weights
from gkmfactor.weights import (
    QPolynomial,
    freudenthal_weight_table,
    kostant_partition,
    tensor_decompose,
    tensor_weight_dim,
    weight_multiplicity,
)


def kostant_weight_table(lam, rs):
    """Weight table via the alternating Kostant sum, the cross-check
    route for the Freudenthal tables."""
    return {v: weight_multiplicity(lam, v, rs) for v in rsys.weights_of(rs, lam)}


def brute_partition(nu, rs):
    """Enumerate all expressions of nu over the positive roots directly."""
    target = rsys.simple_coefficients(rs, nu)
    if target is None or any(c < 0 for c in target):
        return []
    roots = [rs.root_simple_coeffs[r] for r in rs.positive_roots]
    bound = sum(target)
    hits = []
    for combo in itertools.product(range(bound + 1), repeat=len(roots)):
        total = [0] * rs.rank
        for k, r in zip(combo, roots):
            if k:
                for i, c in enumerate(r):
                    total[i] += k * c
        if tuple(total) == target:
            hits.append(sum(combo))
    return hits


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2)])
def test_partition_matches_enumeration(t, l):
    rs = rsys.build(t, l)
    for nu in list(rs.positive_roots) + [rs.highest_root, rsys.zero_vec(rs)]:
        hits = brute_partition(nu, rs)
        assert kostant_partition(nu, rs) == len(hits)
        poly = kostant_partition(nu, rs, q_graded=True)
        expected = [0] * (max(hits) + 1 if hits else 0)
        for h in hits:
            expected[h] += 1
        assert list(poly.coeffs) == expected


def test_partition_zero_vector():
    rs = rsys.build("A", 2)
    zero = rsys.zero_vec(rs)
    assert kostant_partition(zero, rs) == 1
    assert kostant_partition(zero, rs, q_graded=True).coeffs == (1,)


def test_partition_theta_a2():
    rs = rsys.build("A", 2)
    assert kostant_partition(rs.highest_root, rs) == 2
    assert str(kostant_partition(rs.highest_root, rs, q_graded=True)) == "q + q^2"


def test_partition_simple_root_a1():
    rs = rsys.build("A", 1)
    assert kostant_partition(rs.highest_root, rs) == 1
    assert kostant_partition(rs.highest_root, rs, q_graded=True).coeffs == (0, 1)


def test_partition_unreachable_is_zero():
    rs = rsys.build("A", 2)
    assert kostant_partition(tuple(-x for x in rs.highest_root), rs) == 0
    assert kostant_partition((1, 1, 1), rs) == 0  # outside the root span


def test_multiplicity_examples():
    a2 = rsys.build("A", 2)
    theta = a2.highest_root
    zero = rsys.zero_vec(a2)
    assert weight_multiplicity(theta, theta, a2) == 1
    assert weight_multiplicity(theta, zero, a2) == 2
    assert str(weight_multiplicity(theta, zero, a2, q_graded=True)) == "q + q^2"
    a1 = rsys.build("A", 1)
    assert weight_multiplicity(a1.highest_root, (0, 0), a1) == 1


def test_multiplicity_rejects_non_dominant():
    a2 = rsys.build("A", 2)
    with pytest.raises(ValueError):
        weight_multiplicity(tuple(-x for x in a2.highest_root), rsys.zero_vec(a2), a2)


def test_oversized_weyl_group_refused_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the Weyl orbit was walked")

    monkeypatch.setattr(rsys, "w_orbit_signed", no_walk)
    rs = rsys.build("E", 7)
    for q_graded in (False, True):
        with pytest.raises(ValueError, match="2903040 orbit points"):
            weight_multiplicity(rs.highest_root, rsys.zero_vec(rs), rs, q_graded=q_graded)


def test_weyl_order_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(weights, "MAX_WEYL_ORDER", 24)  # |W(A3)|
    a3 = rsys.build("A", 3)
    assert weight_multiplicity(a3.highest_root, rsys.zero_vec(a3), a3) == 3
    a4 = rsys.build("A", 4)
    with pytest.raises(ValueError, match="120 orbit points; at most 24"):
        weight_multiplicity(a4.highest_root, rsys.zero_vec(a4), a4)


@pytest.mark.parametrize(
    "t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 3), ("D", 4)]
)
def test_freudenthal_vs_kostant_adjoint(t, l):
    rs = rsys.build(t, l)
    assert freudenthal_weight_table(rs.highest_root, rs) == kostant_weight_table(
        rs.highest_root, rs
    )


def test_freudenthal_vs_kostant_deeper():
    rs = rsys.build("A", 2)
    lam = tuple(2 * x for x in rs.highest_root)
    assert freudenthal_weight_table(lam, rs) == kostant_weight_table(lam, rs)


@pytest.mark.parametrize("t,l", [("A", 2), ("A", 3), ("D", 4)])
def test_graded_value_at_one_matches_plain(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    for nu in rsys.weights_of(rs, theta):
        poly = weight_multiplicity(theta, nu, rs, q_graded=True)
        assert poly.at_one() == weight_multiplicity(theta, nu, rs)


def test_weyl_symmetry_of_multiplicities():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    for nu in rsys.weights_of(rs, theta):
        for a in rs.simple_roots:
            assert weight_multiplicity(theta, nu, rs) == weight_multiplicity(
                theta, reflect(rs, nu, a), rs
            )


# sha256 of the q-graded multiplicity at every dominant weight of theta,
# omega1, 2 omega1 and omega2, recorded with the rational (Fraction)
# Weyl-vector walk; the integer route must reproduce every coefficient.
QGRADED_DIGESTS = {
    ("A", 3): "68bc297514423cb397008ca8550b53f772ca82f17d099cb5f385476c7335cd91",
    ("A", 4): "cdcba76cdd4f25500b4e71471a1096d895bd28b5ecbc55430f3802f3e29dc35d",
    ("A", 5): "3a5b478b7ca71bc2c64c9507c29f848c26397208bc5b139bc25ded7f498144af",
    ("D", 4): "6ed381669a04b8cc0a659dd67a81ea5a5d112a6328c4946cbed65dc33a77a58d",
    ("D", 5): "2d670ce67e8b9bed7c9e3dd9e1cae2fb9c29b56f8363fadb333ed0fda445fec1",
}


@pytest.mark.parametrize("t,l", sorted(QGRADED_DIGESTS))
def test_q_graded_multiplicities_match_recorded_digest(t, l):
    rs = rsys.build(t, l)
    w1 = rsys.fundamental_coweight(rs, 1)
    highest = {
        "theta": rs.highest_root,
        "omega1": w1,
        "2omega1": tuple(2 * x for x in w1),
        "omega2": rsys.fundamental_coweight(rs, 2),
    }
    lines = []
    for name, lam in highest.items():
        for nu in rsys.dominant_weights_of(rs, lam):
            poly = weight_multiplicity(lam, nu, rs, q_graded=True)
            lines.append(f"{name} {list(nu)} {list(poly.coeffs)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == QGRADED_DIGESTS[(t, l)]


CONSTRUCTIBLE = (
    [("A", l) for l in range(1, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("t,l", CONSTRUCTIBLE)
def test_adjoint_zero_tensor_dimension(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    assert tensor_weight_dim(theta, theta, zero, rs) == l * l + rs.num_roots


def test_tensor_dim_e6_value():
    rs = rsys.build("E", 6)
    assert tensor_weight_dim(rs.highest_root, rs.highest_root, rsys.zero_vec(rs), rs) == 108


def test_tensor_dim_top_weight():
    rs = rsys.build("A", 3)
    theta = rs.highest_root
    top = tuple(2 * x for x in theta)
    assert tensor_weight_dim(theta, theta, top, rs) == 1


def test_tensor_dim_direct_convolution_crosscheck():
    # Same sum evaluated over the Kostant-route tables.
    for t, l in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]:
        rs = rsys.build(t, l)
        theta = rs.highest_root
        zero = rsys.zero_vec(rs)
        ta = kostant_weight_table(theta, rs)
        total = sum(
            m * ta.get(tuple(-x for x in sigma), 0) for sigma, m in ta.items()
        )
        assert total == tensor_weight_dim(theta, theta, zero, rs)


def test_tensor_decompose_a1():
    rs = rsys.build("A", 1)
    w = rsys.fundamental_coweight(rs, 1)
    out = tensor_decompose(w, w, rs)
    assert out == {(2, 0): 1, (1, 1): 1}


def test_tensor_decompose_adjoint_square_a2():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    out = tensor_decompose(theta, theta, rs)
    assert out[theta] == 2


def test_tensor_decompose_with_trivial():
    rs = rsys.build("D", 4)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    assert tensor_decompose(theta, zero, rs) == {theta: 1}


def test_tensor_decompose_mixed_factors():
    # adjoint (x) fundamental in rank-2 type A: three constituents whose
    # dimensions sum to 8 * 3.
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    w1 = rsys.fundamental_coweight(rs, 1)
    dec = tensor_decompose(theta, w1, rs)
    assert sum(dec.values()) == 3
    def dim(lam):
        return sum(freudenthal_weight_table(lam, rs).values())
    assert sum(n * dim(lam) for lam, n in dec.items()) == dim(theta) * dim(w1)


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2)])
def test_tensor_decompose_reconstructs(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    out = tensor_decompose(theta, theta, rs)
    table = {}
    for tau, n in out.items():
        for v, m in freudenthal_weight_table(tau, rs).items():
            table[v] = table.get(v, 0) + n * m
    ta = freudenthal_weight_table(theta, rs)
    prod = {}
    for s, m in ta.items():
        for u, k in ta.items():
            v = tuple(a + b for a, b in zip(s, u))
            prod[v] = prod.get(v, 0) + m * k
    assert table == prod
    assert all(n > 0 for n in out.values())


def test_qpolynomial_str():
    assert str(QPolynomial(())) == "0"
    assert str(QPolynomial((1,))) == "1"
    assert str(QPolynomial((0, 1, 2))) == "q + 2q^2"


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("D", 4), ("E", 6)])
def test_adjoint_table_total_dimension(t, l):
    rs = rsys.build(t, l)
    table = freudenthal_weight_table(rs.highest_root, rs)
    assert sum(table.values()) == rs.num_roots + rs.rank


def test_partition_memo_is_bounded(monkeypatch):
    # A system's memo is emptied when a multiplicity starts with more
    # than MAX_PARTITION_MEMO entries in it, never during the sum, and
    # the multiplicities come out the same.
    rs = rsys.build("A", 3)
    highest = [tuple(k * x for x in rs.highest_root) for k in (1, 2, 3)]
    queries = [(lam, nu) for lam in highest for nu in rsys.dominant_weights_of(rs, lam)]
    weights._PARTITION_MEMO.clear()
    expected = [weight_multiplicity(lam, nu, rs, q_graded=True) for lam, nu in queries]
    assert len(weights._PARTITION_MEMO[("A", 3)]) > 40

    monkeypatch.setattr(weights, "MAX_PARTITION_MEMO", 40)
    weights._PARTITION_MEMO.clear()
    sizes = []
    partition = weights.kostant_partition

    def recording(nu, rs, q_graded=False):
        sizes.append(len(weights._PARTITION_MEMO.get(("A", 3), {})))
        return partition(nu, rs, q_graded)

    monkeypatch.setattr(weights, "kostant_partition", recording)
    emptied = 0
    for (lam, nu), value in zip(queries, expected):
        sizes.clear()
        before = len(weights._PARTITION_MEMO.get(("A", 3), {}))
        assert weight_multiplicity(lam, nu, rs, q_graded=True) == value
        assert sizes[0] <= 40
        assert sizes == sorted(sizes)  # nothing emptied during the sum
        emptied += sizes[0] < before
    assert emptied >= 2


def test_freudenthal_memo_is_bounded(monkeypatch):
    rs = rsys.build("A", 2)
    highest = [(a + b, b, 0) for a in range(4) for b in range(3)]
    weights._FREUDENTHAL_MEMO.clear()
    expected = [freudenthal_weight_table(lam, rs) for lam in highest]
    monkeypatch.setattr(weights, "MAX_FREUDENTHAL_TABLES", 3)
    weights._FREUDENTHAL_MEMO.clear()
    for lam, table in zip(highest, expected):
        assert freudenthal_weight_table(lam, rs) == table
        assert len(weights._FREUDENTHAL_MEMO[("A", 2)]) <= 4
    assert weights.MAX_FREUDENTHAL_TABLES < len(highest)
