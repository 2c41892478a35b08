"""Root data: counts, closure, dominance, orders, orbits, coweight
resolution."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkmfactor import rootsystem as rsys
from graph_oracle import bfs_orbit, dominant_representative, reflect, signed_orbit

ALL_SYSTEMS = (
    [("A", l) for l in range(1, 13)]
    + [("D", l) for l in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("t,l", ALL_SYSTEMS)
def test_root_counts(t, l):
    rs = rsys.build(t, l)
    assert rs.num_roots == rsys.root_count(t, l)
    assert len(rs.positive_roots) * 2 == rs.num_roots


def test_known_counts():
    assert rsys.build("A", 2).num_roots == 6
    assert rsys.build("D", 4).num_roots == 24
    assert rsys.build("E", 6).num_roots == 72


def test_unsupported():
    for t, l in [("A", 0), ("D", 2), ("E", 5), ("E", 9), ("B", 2)]:
        with pytest.raises(rsys.UnsupportedRootSystem):
            rsys.build(t, l)
        with pytest.raises(rsys.UnsupportedRootSystem):
            rsys.root_count(t, l)


@pytest.mark.parametrize("t,l", [("A", 3), ("D", 4), ("E", 6)])
def test_reflection_closure(t, l):
    rs = rsys.build(t, l)
    roots = set(rs.roots)
    for a in rs.roots:
        for b in rs.roots:
            assert reflect(rs, b, a) in roots


@pytest.mark.parametrize("t,l", [("A", 2), ("A", 5), ("D", 5), ("E", 7)])
def test_cartan_entries(t, l):
    rs = rsys.build(t, l)
    for i, row in enumerate(rs.cartan_matrix):
        for j, c in enumerate(row):
            assert c == 2 if i == j else c in (0, -1)
        assert row[i] == 2


@pytest.mark.parametrize("t,l", [("A", 2), ("D", 4), ("E", 6)])
def test_highest_root_dominant_maximal(t, l):
    rs = rsys.build(t, l)
    theta = rs.highest_root
    for a in rs.simple_roots:
        assert rsys.pairing(rs, theta, a) >= 0
    for r in rs.roots:
        assert rsys.dominance_leq(rs, r, theta)


def test_negated_set_closed():
    rs = rsys.build("D", 4)
    roots = set(rs.roots)
    assert {tuple(-x for x in r) for r in roots} == roots


def test_dominance_examples():
    rs = rsys.build("D", 4)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    assert rsys.dominance_leq(rs, theta, theta)
    assert rsys.dominance_leq(rs, zero, theta)
    assert not rsys.dominance_leq(rs, theta, zero)


def test_two_rho_pairing_with_zero():
    rs = rsys.build("A", 3)
    zero = rsys.zero_vec(rs)
    assert sum(a * b for a, b in zip(rs.two_rho, zero)) == 0


def test_weyl_vector_halves_two_rho():
    # The Weyl vector pairs to 1 with every simple coroot, so its double,
    # the sum of the positive roots, pairs to 2.
    rs = rsys.build("E", 6)
    assert [rsys.pairing(rs, rs.two_rho, a) for a in rs.simple_roots] == [2] * rs.rank


def fraction_cartan_inverse(rs):
    """The inverse Cartan matrix by Gauss-Jordan elimination over Fraction."""
    n = rs.rank
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rs.cartan_matrix)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def oracle_coefficients(rs, inv, v):
    """Rational simple-root coefficients of the root-span projection of
    ``v``, and whether ``v`` lies in the span."""
    p = [Fraction(2 * sum(x * y for x, y in zip(v, a)), rs.root_norm_sq) for a in rs.simple_roots]
    c = [sum(inv[i][j] * p[j] for j in range(rs.rank)) for i in range(rs.rank)]
    recon = [sum(ci * a[k] for ci, a in zip(c, rs.simple_roots)) for k in range(rs.ambient_dim)]
    return c, recon == list(v)


@pytest.mark.parametrize(
    "t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]
)
def test_integer_root_arithmetic_matches_a_fraction_oracle(t, l):
    """Simple coefficients, the dominance order and the order key agree
    with a Fraction inverse Cartan matrix on every difference of two
    weights of theta and, in types A and D, on small vectors off the
    root span or off the root lattice, such as ``(1,0,0)`` in A2."""
    rs = rsys.build(t, l)
    inv = fraction_cartan_inverse(rs)
    ws = rsys.weights_of(rs, rs.highest_root)
    pairs = [(u, v) for u in ws for v in ws]
    if t != "E":
        small = list(itertools.product(range(-1, 2), repeat=rs.ambient_dim))
        pairs += [(rsys.zero_vec(rs), v) for v in small]
    checked = {"off the lattice": 0, "off the span": 0}
    for nu, lam in pairs:
        diff = tuple(a - b for a, b in zip(lam, nu))
        c, in_span = oracle_coefficients(rs, inv, diff)
        integral = in_span and all(x.denominator == 1 for x in c)
        checked["off the span"] += not in_span
        checked["off the lattice"] += in_span and not integral
        assert rsys.simple_coefficients(rs, diff) == (tuple(map(int, c)) if integral else None)
        assert rsys.dominance_leq(rs, nu, lam) == (integral and all(x >= 0 for x in c))
        assert rsys.height_key(rs, diff) == rs.root_norm_sq * sum(c)
    if t == "A":
        assert checked["off the span"] > 0
    if t == "D":
        assert checked["off the lattice"] > 0


def test_coefficient_cache_is_bounded():
    # The Kostant sum asks about one new vector per Weyl orbit point
    # (40,320 for an A7 multiplicity); the cache keeps at most
    # MAX_COEFF_CACHE of them and answers the same once it is emptied.
    rs = rsys.build("A", 1)
    for k in range(rsys.MAX_COEFF_CACHE + 10):
        assert rsys.simple_coefficients(rs, (k, -k)) == (k,)
        assert len(rs.coeff_cache) <= rsys.MAX_COEFF_CACHE
    assert rsys.simple_coefficients(rs, (0, 0)) == (0,)
    assert rsys.simple_coefficients(rs, (1, 0)) is None


def test_equality_and_hash_ignore_the_coefficient_cache():
    # A root system is a named tuple whose last field is the cache, so
    # tuple comparison would see a warmed cache; equality is on
    # (type_label, rank) alone, for != and the hash too.
    warm, cold = rsys.build("A", 2), rsys.build("A", 2)
    assert warm is not cold
    rsys.simple_coefficients(warm, (1, -1, 0))
    assert warm.coeff_cache != cold.coeff_cache
    assert warm == cold
    assert not warm != cold
    assert hash(warm) == hash(cold)
    a3 = rsys.build("A", 3)
    assert a3 != warm and a3 != cold
    assert not a3 == warm


def test_pairing_refuses_an_e6_vector_off_the_lattice():
    rs = rsys.build("E", 6)
    v = (0, 0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="pairs non-integrally"):
        rsys.pairing(rs, v, rs.simple_roots[0])
    with pytest.raises(ValueError, match="pairs non-integrally"):
        reflect(rs, v, rs.simple_roots[0])


def test_total_order_zero_theta():
    rs = rsys.build("A", 2)
    zero = rsys.zero_vec(rs)
    assert rsys.total_order_extension([zero, rs.highest_root], rs) == [
        zero,
        rs.highest_root,
    ]


def test_total_order_theta_last_and_deterministic():
    rs = rsys.build("A", 2)
    vs = rsys.weights_of(rs, rs.highest_root)
    random.Random(0).shuffle(vs)
    order1 = rsys.total_order_extension(vs, rs)
    order2 = rsys.total_order_extension(list(reversed(vs)), rs)
    assert order1 == order2
    assert order1[-1] == rs.highest_root
    assert order1[0] == tuple(-x for x in rs.highest_root)


@pytest.mark.parametrize("t,l", [("A", 2), ("A", 3), ("D", 4)])
def test_total_order_extends_dominance(t, l):
    rs = rsys.build(t, l)
    vs = rsys.weights_of(rs, rs.highest_root)
    order = rsys.total_order_extension(vs, rs)
    pos = {v: i for i, v in enumerate(order)}
    for u in vs:
        for v in vs:
            if u != v and rsys.dominance_leq(rs, u, v):
                assert pos[u] < pos[v]


def test_weights_of_adjoint():
    rs = rsys.build("A", 2)
    ws = rsys.weights_of(rs, rs.highest_root)
    assert len(ws) == rs.num_roots + 1
    assert set(ws) == set(rs.roots) | {rsys.zero_vec(rs)}


def test_dominant_representative_is_orbit_max():
    rs = rsys.build("D", 4)
    for r in rs.roots:
        rep = rsys.dominant_representative(rs, r)
        assert rsys.is_dominant(rs, rep)
        assert rep in rsys.w_orbit(rs, r)


def test_orbit_signs_alternate():
    rs = rsys.build("A", 2)
    lam_rho = tuple(2 * x + r for x, r in zip(rs.highest_root, rs.two_rho))  # 2 theta + 2 rho
    signs = rsys.w_orbit_signed(rs, lam_rho)
    assert len(signs) == 6  # |W(A2)|
    assert sorted(signs.values()).count(-1) == 3


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_weyl_group_order_is_regular_orbit_size(t, l):
    rs = rsys.build(t, l)
    assert rsys.weyl_group_order(t, l) == len(rsys.w_orbit_signed(rs, rs.two_rho))


def test_weyl_group_order_closed_forms():
    assert [rsys.weyl_group_order("E", l) for l in (6, 7, 8)] == [51_840, 2_903_040, 696_729_600]
    assert rsys.weyl_group_order("A", 7) == 40_320
    assert rsys.weyl_group_order("D", 7) == 322_560
    with pytest.raises(rsys.UnsupportedRootSystem):
        rsys.weyl_group_order("E", 9)


def test_fundamental_coweights():
    a2 = rsys.build("A", 2)
    w1 = rsys.fundamental_coweight(a2, 1)
    assert w1 == (1, 0, 0)
    assert rsys.dual_coweight(a2, w1) == (0, 0, -1)
    assert tuple(a + b for a, b in zip(w1, rsys.dual_coweight(a2, w1))) == a2.highest_root
    e6 = rsys.build("E", 6)
    for i in range(1, 7):
        try:
            w = rsys.fundamental_coweight(e6, i)
        except ValueError:
            continue
        assert [rsys.pairing(e6, w, a) for a in e6.simple_roots] == [
            1 if j == i else 0 for j in range(1, 7)
        ]
    d4 = rsys.build("D", 4)
    with pytest.raises(ValueError):
        rsys.fundamental_coweight(d4, 4)  # spinor node is not integral here


def test_resolve_coweight_names():
    rs = rsys.build("A", 2)
    assert rsys.resolve_coweight(rs, "zero") == (0, 0, 0)
    assert rsys.resolve_coweight(rs, "theta") == rs.highest_root
    assert rsys.resolve_coweight(rs, "omega1") == (1, 0, 0)
    assert rsys.resolve_coweight(rs, "omega1*") == (0, 0, -1)
    assert rsys.resolve_coweight(rs, "1,0,-1") == (1, 0, -1)
    with pytest.raises(ValueError):
        rsys.resolve_coweight(rs, "omega9")
    with pytest.raises(ValueError):
        rsys.resolve_coweight(rs, "1,2")
    with pytest.raises(ValueError):
        rsys.resolve_coweight(rs, "sigma")


@pytest.mark.parametrize("l", [6, 7, 8])
def test_resolve_coweight_refuses_e_vectors_off_the_lattice(l):
    # Doubled coordinates: a pairing is (v, alpha) / 4, so the last unit
    # vector pairs to 1/4 with alpha1 = (1,-1,-1,-1,-1,-1,-1,1).
    rs = rsys.build("E", l)
    with pytest.raises(ValueError, match=r"pairs to 1/4 with the simple root alpha1 "):
        rsys.resolve_coweight(rs, "0,0,0,0,0,0,0,1")
    with pytest.raises(ValueError, match=r"pairs to -1/2 with the simple root alpha4 "):
        rsys.resolve_coweight(rs, "1,1,0,0,0,0,0,0")
    assert rsys.resolve_coweight(rs, "2,2,0,0,0,0,0,0") == (2, 2, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("t,l", [("E", 6), ("E", 7), ("E", 8)])
def test_named_e_coweights_resolve(t, l):
    rs = rsys.build(t, l)
    names = ["zero", "theta"] + [f"omega{k}{d}" for k in range(1, l + 1) for d in ("", "*")]
    resolved = 0
    for name in names:
        try:
            v = rsys.resolve_coweight(rs, name)
        except ValueError as exc:
            assert "not integral in this realization" in str(exc)
            continue
        rsys.check_coweight(rs, v)
        assert rsys.resolve_coweight(rs, ",".join(map(str, v))) == v
        resolved += 1
    assert resolved >= 4


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("D", 3), ("D", 4)])
def test_every_a_d_coordinate_vector_resolves(t, l):
    rs = rsys.build(t, l)
    for v in itertools.product(range(-2, 3), repeat=rs.ambient_dim):
        assert rsys.resolve_coweight(rs, ",".join(map(str, v))) == v


@given(st.sampled_from([("A", 2), ("A", 3), ("D", 4)]), st.integers(0, 10 ** 6))
def test_reflection_preserves_pairing_norm(spec, seed):
    t, l = spec
    rs = rsys.build(t, l)
    rng = random.Random(seed)
    v = tuple(rng.randint(-3, 3) for _ in range(rs.ambient_dim))
    a = rs.roots[rng.randrange(rs.num_roots)]
    w = reflect(rs, v, a)
    assert sum(x * x for x in w) == sum(x * x for x in v)
    assert reflect(rs, w, a) == v


def test_oversized_system_refused_before_closure(monkeypatch):
    # A32 and D23 are the smallest of their families above MAX_ROOTS.
    for t, l, count in [("A", 32, 1056), ("D", 23, 1012), ("A", 200, 40200)]:
        with pytest.raises(ValueError, match=f"{t}{l} has {count} roots") as info:
            rsys.build(t, l)
        assert not isinstance(info.value, rsys.UnsupportedRootSystem)
    assert rsys.root_count("A", 31) <= rsys.MAX_ROOTS < rsys.root_count("A", 32)
    assert rsys.root_count("D", 22) <= rsys.MAX_ROOTS < rsys.root_count("D", 23)
    # The bound is inclusive: a system with exactly MAX_ROOTS roots builds.
    monkeypatch.setattr(rsys, "MAX_ROOTS", 12)
    assert rsys.build("A", 3).num_roots == 12
    with pytest.raises(ValueError, match="A4 has 20 roots"):
        rsys.build("A", 4)


def _integral_fundamentals(rs):
    out = []
    for i in range(1, rs.rank + 1):
        try:
            out.append(rsys.fundamental_coweight(rs, i))
        except ValueError:
            pass  # not integral in this realization (D spinor nodes)
    return out


ORBIT_SYSTEMS = [("A", l) for l in range(1, 7)] + [("D", l) for l in range(3, 7)] + [("E", 6)]


@pytest.mark.parametrize("t,l", ORBIT_SYSTEMS)
def test_orbit_size_counts_the_orbit(t, l):
    rs = rsys.build(t, l)
    dominant = rsys.dominant_weights_of(rs, tuple(2 * x for x in rs.highest_root))
    for mu in dominant + _integral_fundamentals(rs):
        assert rsys.orbit_size(rs, mu) == len(rsys.w_orbit(rs, mu)), mu


@pytest.mark.parametrize("t,l", [("A", 8), ("D", 8), ("E", 6), ("E", 7), ("E", 8)])
def test_orbit_size_of_a_regular_weight_is_the_group_order(t, l):
    rs = rsys.build(t, l)
    assert rsys.orbit_size(rs, rs.two_rho) == rsys.weyl_group_order(t, l)
    assert rsys.orbit_size(rs, rsys.zero_vec(rs)) == 1


def test_orbit_size_needs_a_dominant_weight():
    rs = rsys.build("A", 2)
    with pytest.raises(ValueError, match="dominant"):
        rsys.orbit_size(rs, tuple(-x for x in rs.highest_root))


@pytest.mark.parametrize("t,l,lam", [("A", 3, "2,1,0,-3"), ("D", 4, "theta"), ("E", 6, "omega4")])
def test_weight_count_is_the_sum_of_orbit_sizes(t, l, lam):
    rs = rsys.build(t, l)
    lam = rsys.resolve_coweight(rs, lam)
    total = sum(rsys.orbit_size(rs, mu) for mu in rsys.iter_dominant_weights(rs, lam))
    assert total == len(rsys.weights_of(rs, lam))


@pytest.mark.parametrize("t,l", ORBIT_SYSTEMS)
def test_orbit_walk_matches_the_oracle(t, l):
    # Every point once, and the same points as the breadth-first walk.
    rs = rsys.build(t, l)
    dominant = rsys.dominant_weights_of(rs, tuple(2 * x for x in rs.highest_root))
    for mu in dominant + _integral_fundamentals(rs):
        assert sum(1 for _ in rsys._orbit(rs, mu)) == rsys.orbit_size(rs, mu), mu
        assert rsys.w_orbit(rs, mu) == sorted(bfs_orbit(rs, mu)), mu


@pytest.mark.parametrize("t,l", [("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)])
def test_signed_orbit_matches_the_oracle(t, l):
    rs = rsys.build(t, l)
    w1 = rsys.fundamental_coweight(rs, 1)
    highest = [rs.highest_root, w1, tuple(2 * x for x in w1), rsys.fundamental_coweight(rs, 2)]
    starts = [rs.two_rho] + [tuple(2 * x + r for x, r in zip(lam, rs.two_rho)) for lam in highest]
    for v in starts:
        assert rsys.w_orbit_signed(rs, v) == signed_orbit(rs, v), v


def test_signed_orbit_refuses_a_non_regular_vector():
    rs = rsys.build("A", 3)
    theta = rs.highest_root
    for v in (theta, tuple(-x for x in theta), rsys.zero_vec(rs), (2, 1, 1, 0)):
        with pytest.raises(ValueError, match="vector is not regular"):
            signed_orbit(rs, v)
        with pytest.raises(ValueError, match="vector is not regular"):
            rsys.w_orbit_signed(rs, v)


@pytest.mark.parametrize("t,l", [("A", 3), ("D", 4), ("D", 5)])
def test_signed_orbit_of_a_non_dominant_start(t, l):
    # Signs are relative to the start, which keeps +1 wherever it lies.
    rs = rsys.build(t, l)
    once = reflect(rs, rs.two_rho, rs.simple_roots[0])
    twice = reflect(rs, once, rs.simple_roots[1])
    for start in (once, twice):
        signs = rsys.w_orbit_signed(rs, start)
        assert signs[start] == 1
        assert signs == signed_orbit(rs, start)
    assert rsys.w_orbit_signed(rs, once)[rs.two_rho] == -1
    assert rsys.w_orbit_signed(rs, twice)[rs.two_rho] == 1


@pytest.mark.parametrize(
    "t,l", [("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
)
def test_dominant_representative_matches_the_oracle(t, l):
    # Random integer vectors in types A and D (off the root span in type
    # A), random root-lattice vectors in type E.
    rs = rsys.build(t, l)
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        if t == "E":
            c = [rng.randint(-4, 4) for _ in range(rs.rank)]
            v = tuple(sum(x * a[k] for x, a in zip(c, rs.simple_roots)) for k in range(8))
        else:
            v = tuple(rng.randint(-4, 4) for _ in range(rs.ambient_dim))
        if rsys.is_dominant(rs, v):
            continue
        checked += 1
        assert rsys.dominant_representative(rs, v) == dominant_representative(rs, v), v
    assert checked >= 40


def test_orbit_walk_keeps_no_seen_set():
    # The breadth-first walk with a seen set peaked at 11.9 MiB here.
    rs = rsys.build("E", 6)
    tracemalloc.start()
    try:
        count = sum(1 for _ in rsys._orbit(rs, rs.two_rho))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 51_840
    assert peak < 2 ** 20
