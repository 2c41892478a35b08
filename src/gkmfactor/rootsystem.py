"""Simply-laced root systems (types A, D, E) in integer realizations.

Realizations are chosen so that every root and every supported coweight
is an integer vector:

* ``A_l``: ambient ``Z^(l+1)``, simple roots ``e_i - e_(i+1)``.  The
  ambient lattice carries the GL-style weights, so the fundamental
  coweights ``e_1 + ... + e_i`` are integral.
* ``D_l``: ambient ``Z^l``, simple roots ``e_i - e_(i+1)`` and
  ``e_(l-1) + e_l``.
* ``E_6/7/8``: doubled Bourbaki coordinates in ``Z^8`` (every standard
  coordinate times two), which clears the half-integer entries of the
  spinor-type roots.  Pairings are normalized by the squared root
  length, so the doubling is invisible downstream.

Simply-laced systems are treated as self-dual: coroots are identified
with roots, and the pairing of a coweight ``v`` against a root ``a`` is
``2 (v, a) / (a, a)``.  Every vector, pairing and coefficient outside
:func:`build` is an integer; the Weyl vector only appears doubled, as
``two_rho``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

Vec = tuple[int, ...]


class UnsupportedRootSystem(ValueError):
    pass


# The most roots :func:`build` accepts; A31 (992 roots) and D22 (924)
# are the largest of their families below it.  The reflection closure's
# cost grows about as rank^4 (A30 takes seconds, A60 about a minute), so
# a larger system is refused before the closure starts.
MAX_ROOTS = 1000


def root_count(type_label: str, rank: int) -> int:
    """Closed-form root count with the same support validation as
    :func:`build`; cross-checked against reflection closure in tests."""
    if type_label == "A" and rank >= 1:
        return rank * (rank + 1)
    if type_label == "D" and rank >= 3:
        return 2 * rank * (rank - 1)
    if type_label == "E" and rank in (6, 7, 8):
        return {6: 72, 7: 126, 8: 240}[rank]
    raise UnsupportedRootSystem(
        f"unsupported system {type_label}{rank} (need A>=1, D>=3 or E6..E8)"
    )


def weyl_group_order(type_label: str, rank: int) -> int:
    """Closed-form Weyl group order, the size of a regular orbit."""
    root_count(type_label, rank)  # the same support validation
    if type_label == "A":
        return factorial(rank + 1)
    if type_label == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[rank]


def _simple_roots(type_label: str, rank: int) -> tuple[list[Vec], int]:
    if type_label == "A":
        if rank < 1:
            raise UnsupportedRootSystem("type A needs rank >= 1")
        m = rank + 1
        simples = []
        for i in range(rank):
            v = [0] * m
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        return simples, m
    if type_label == "D":
        if rank < 3:
            raise UnsupportedRootSystem("type D needs rank >= 3")
        m = rank
        simples = []
        for i in range(rank - 1):
            v = [0] * m
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        v = [0] * m
        v[rank - 2], v[rank - 1] = 1, 1
        simples.append(tuple(v))
        return simples, m
    if type_label == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedRootSystem("type E needs rank 6, 7 or 8")
        all_eight = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return [tuple(v) for v in all_eight[:rank]], 8
    raise UnsupportedRootSystem(f"unsupported type {type_label!r} (need A, D or E)")


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


class RootSystem(NamedTuple):
    """Immutable simply-laced root datum; build with :func:`build`.  Equal,
    and hashed, on ``(type_label, rank)`` alone; ``coeff_cache`` is the
    memo of :func:`simple_coefficients`."""

    type_label: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    roots: tuple[Vec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    # The inverse Cartan matrix is scaled_cartan_inverse / cartan_denominator,
    # over the least common denominator of its entries.
    scaled_cartan_inverse: tuple[tuple[int, ...], ...]
    cartan_denominator: int
    highest_root: Vec
    # Dynkin labels <alpha, alpha_j> of the positive roots, in their order.
    positive_root_labels: tuple[Vec, ...]
    root_norm_sq: int
    two_rho: Vec
    root_simple_coeffs: dict
    coeff_cache: dict

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank}, |Phi|={self.num_roots})"


def build(type_label: str, rank: int) -> RootSystem:
    """Construct the root system, closing the simple roots under reflection.

    Raises :class:`UnsupportedRootSystem` for anything outside
    (A, l >= 1), (D, l >= 3), (E, 6..8), and :class:`ValueError` for a
    system with more than :data:`MAX_ROOTS` roots, before any closure.
    The root count is checked against the closed-form cardinality for
    the type.
    """
    expected = root_count(type_label, rank)
    if expected > MAX_ROOTS:
        raise ValueError(
            f"{type_label}{rank} has {expected} roots; at most {MAX_ROOTS} are supported"
        )
    simples, m = _simple_roots(type_label, rank)
    norm_sq = _dot(simples[0], simples[0])
    for a in simples:
        if _dot(a, a) != norm_sq:
            raise AssertionError("simple roots of unequal length in a simply-laced type")

    def reflect(v: Vec, a: Vec) -> Vec:
        k = 2 * _dot(v, a) // norm_sq
        return tuple(x - k * y for x, y in zip(v, a))

    roots = set(simples) | {tuple(-x for x in a) for a in simples}
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for a in simples:
                s = reflect(r, a)
                if s not in roots:
                    new.add(s)
        roots |= new
        frontier = new

    if len(roots) != expected:
        raise AssertionError(
            f"reflection closure produced {len(roots)} roots, expected {expected}"
        )

    cartan = tuple(
        tuple(2 * _dot(a, b) // norm_sq for b in simples) for a in simples
    )
    for i, row in enumerate(cartan):
        for j, c in enumerate(row):
            ok = c == 2 if i == j else c in (0, -1)
            if not ok:
                raise AssertionError("Cartan matrix entry outside {2, 0, -1}")

    cartan_inv = _invert_fraction_matrix(cartan)

    # Simple-root coefficients per root via the Cartan inverse.
    coeffs: dict[Vec, tuple[int, ...]] = {}
    for r in roots:
        p = [2 * _dot(r, a) // norm_sq for a in simples]
        c = [
            sum(cartan_inv[i][j] * p[j] for j in range(rank))
            for i in range(rank)
        ]
        ci = tuple(int(x) for x in c)
        if any(x != y for x, y in zip(ci, c)):
            raise AssertionError("root with non-integer simple coefficients")
        coeffs[r] = ci

    positives = sorted(
        (r for r in roots if sum(coeffs[r]) > 0),
        key=lambda r: (sum(coeffs[r]), r),
    )
    if 2 * len(positives) != len(roots):
        raise AssertionError("roots do not split evenly into positive and negative")

    dominant = [
        r for r in roots
        if all(2 * _dot(r, a) >= 0 for a in simples)
    ]
    if len(dominant) != 1:
        raise AssertionError(f"expected a unique dominant root, found {len(dominant)}")

    two_rho = tuple(sum(col) for col in zip(*positives))
    denominator = lcm(*(x.denominator for row in cartan_inv for x in row))

    return RootSystem(
        type_label=type_label,
        rank=rank,
        ambient_dim=m,
        simple_roots=tuple(simples),
        positive_roots=tuple(positives),
        roots=tuple(sorted(roots)),
        cartan_matrix=cartan,
        scaled_cartan_inverse=tuple(tuple(int(x * denominator) for x in row) for row in cartan_inv),
        cartan_denominator=denominator,
        highest_root=dominant[0],
        positive_root_labels=tuple(tuple(2 * _dot(r, a) // norm_sq for a in simples) for r in positives),
        root_norm_sq=norm_sq,
        two_rho=two_rho,
        root_simple_coeffs=coeffs,
        coeff_cache={},
    )


def _invert_fraction_matrix(m) -> tuple[tuple[Fraction, ...], ...]:
    n = len(m)
    aug = [
        [Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def pairing(rs: RootSystem, v: Vec, root: Vec) -> int:
    """``<root, v-as-coroot-side>`` = 2 (v, root) / (root, root).

    Raises :class:`ValueError` when it is not an integer, i.e. when
    ``v`` is off the coweight lattice.
    """
    k, r = divmod(2 * _dot(v, root), rs.root_norm_sq)
    if r:
        raise ValueError(f"{list(v)} pairs non-integrally with the root {list(root)}")
    return k


# The most vectors :func:`simple_coefficients` keeps per root system; a
# full cache is emptied.  The Kostant sum asks about one vector per orbit
# point: one A7 q-graded multiplicity at zero asks about 40,320 (14.5 MiB
# of cache under tracemalloc), while the most any system asks about in a
# weight-queries repetition is 5,184 (D5), so those all stay cached.
MAX_COEFF_CACHE = 20_000


def simple_coefficients(rs: RootSystem, v: Vec):
    """Integer coefficients of ``v`` over the simple roots, or None if
    ``v`` is not an integer combination of them.

    Solved through the scaled inverse Cartan matrix and verified by
    reconstruction, so membership in the root lattice is decided exactly.
    """
    cache = rs.coeff_cache
    if v not in cache:
        if len(cache) >= MAX_COEFF_CACHE:
            cache.clear()
        p = [2 * _dot(v, a) for a in rs.simple_roots]
        den = rs.cartan_denominator * rs.root_norm_sq
        scaled = [_dot(row, p) for row in rs.scaled_cartan_inverse]
        c = tuple(x // den for x in scaled)
        exact = not any(x % den for x in scaled)
        recon = tuple(_dot(c, col) for col in zip(*rs.simple_roots))
        cache[v] = c if exact and recon == v else None
    return cache[v]


def height_key(rs: RootSystem, v: Vec) -> int:
    """``(v, 2 rho)``: ``root_norm_sq`` times the height (sum of the
    simple-root coefficients) of the root-span projection of ``v``.

    Linear in ``v``, so dominance-comparable coweights always have
    strictly ordered values.
    """
    return _dot(v, rs.two_rho)


def is_dominant(rs: RootSystem, v: Vec) -> bool:
    return all(_dot(v, a) >= 0 for a in rs.simple_roots)


def _dominant(rs: RootSystem, v: Vec) -> tuple[Vec, Vec, int]:
    """The dominant conjugate of ``v``, its Dynkin labels and ``(-1)**n``
    for the ``n`` simple reflections that reach it."""
    labels = tuple(pairing(rs, v, a) for a in rs.simple_roots)
    sign = 1
    while (k := min(labels)) < 0:
        i = labels.index(k)
        v = tuple(x - k * a for x, a in zip(v, rs.simple_roots[i]))
        labels = tuple(l - k * c for l, c in zip(labels, rs.cartan_matrix[i]))
        sign = -sign
    return v, labels, sign


def dominant_representative(rs: RootSystem, v: Vec) -> Vec:
    """The unique dominant vector in the Weyl orbit of ``v``."""
    return _dominant(rs, v)[0]


def dominance_leq(rs: RootSystem, nu: Vec, lam: Vec) -> bool:
    """Whether ``lam - nu`` is a non-negative integer sum of simple coroots."""
    c = simple_coefficients(rs, tuple(a - b for a, b in zip(lam, nu)))
    return c is not None and all(x >= 0 for x in c)


def total_order_extension(coweights, rs: RootSystem) -> list[Vec]:
    """A deterministic linear extension of the dominance order.

    Sorts by (:func:`height_key`, lexicographic coordinates).  Dominance
    strictly increases the height key, so no comparable pair is
    inverted; the lexicographic tie-break makes the output reproducible.
    """
    return sorted(coweights, key=lambda v: (height_key(rs, v), v))


def _orbit(rs: RootSystem, v: Vec):
    """Each point ``y = w v`` of the Weyl orbit of a coweight once, with
    ``det w`` (meaningful when ``v`` is regular).  Stembridge's walk in
    Dynkin labels (*Computational aspects of root systems, Coxeter groups,
    and Weyl characters*, 2001): from the dominant conjugate, ``x`` steps
    to ``s_i x`` when ``<x, alpha_i> > 0`` and the labels of ``s_i x``
    before ``i`` are non-negative, so ``x`` is the one parent of ``s_i x``
    and no seen set is kept; a step moves the labels by a Cartan row."""
    steps = tuple(enumerate(zip(rs.simple_roots, rs.cartan_matrix)))
    stack = [_dominant(rs, v)]
    while stack:
        x, labels, sign = stack.pop()
        yield x, sign
        for i, (a, row) in steps:
            k = labels[i]
            if k > 0:
                new = tuple([l - k * c for l, c in zip(labels, row)])
                if i == 0 or min(new[:i]) >= 0:
                    stack.append((tuple([p - k * q for p, q in zip(x, a)]), new, -sign))


def w_orbit(rs: RootSystem, v: Vec) -> list:
    """Weyl orbit of an integral coweight, sorted."""
    return sorted(x for x, _ in _orbit(rs, tuple(v)))


def w_orbit_signed(rs: RootSystem, v: Vec) -> dict:
    """Weyl orbit of a regular vector with determinant signs, ``+1`` at
    ``v``.  Raises if a label of the dominant conjugate is zero (the
    vector is not regular and signs would be ill-defined)."""
    if 0 in _dominant(rs, tuple(v))[1]:
        raise ValueError("vector is not regular, orbit signs undefined")
    return dict(_orbit(rs, tuple(v)))


def zero_vec(rs: RootSystem) -> Vec:
    return tuple([0] * rs.ambient_dim)


def weights_of(rs: RootSystem, lam: Vec) -> list[Vec]:
    """The weight set of the irreducible with highest coweight ``lam``:
    all ``nu`` whose dominant conjugate is dominance-below ``lam``."""
    return sorted(iter_weights(rs, lam))


def iter_dominant_weights(rs: RootSystem, lam: Vec):
    """The weights of :func:`dominant_weights_of`, one at a time, so a
    caller can stop before a large set is enumerated."""
    if not is_dominant(rs, lam):
        raise ValueError("highest coweight must be dominant")
    seen = {lam}
    queue = [(lam, tuple(pairing(rs, lam, a) for a in rs.simple_roots))]
    for mu, labels in queue:
        yield mu
        for a, root_labels in zip(rs.positive_roots, rs.positive_root_labels):
            new = tuple([l - r for l, r in zip(labels, root_labels)])
            if min(new) >= 0:
                nu = tuple([x - y for x, y in zip(mu, a)])
                if nu not in seen:
                    seen.add(nu)
                    queue.append((nu, new))


def orbit_size(rs: RootSystem, mu: Vec) -> int:
    """|W mu| for a dominant coweight ``mu``, without walking the orbit:
    the product of (ht alpha + 1) / ht alpha over the positive roots
    alpha with <mu, alpha> != 0.

    Over all positive roots the product is |W| (Kostant; Macdonald, *The
    Poincare series of a Coxeter group*, Math. Ann. 1972).  The roots
    orthogonal to ``mu`` form the root system of its stabilizer, a
    parabolic subgroup with simple roots among the simple roots, so the
    same product over them is its order and the quotient is the orbit.
    """
    if not is_dominant(rs, mu):
        raise ValueError("orbit_size needs a dominant coweight")
    num = den = 1
    for alpha in rs.positive_roots:
        if _dot(mu, alpha):
            h = sum(rs.root_simple_coeffs[alpha])
            num *= h + 1
            den *= h
    return num // den


def iter_weights(rs: RootSystem, lam: Vec):
    """The weights of :func:`weights_of`, one at a time, so a caller can
    stop before a large set is enumerated: the Weyl orbit of each
    dominant weight of :func:`dominant_weights_of`, walked by :func:`_orbit`."""
    for mu in iter_dominant_weights(rs, lam):
        yield from (x for x, _ in _orbit(rs, mu))


def dominant_weights_of(rs: RootSystem, lam: Vec) -> list[Vec]:
    """The dominant coweights dominance-below ``lam``, sorted.

    Each is reached from ``lam`` through dominant coweights by
    subtracting one positive root at a time (Stembridge, *The partial
    order of dominant weights*, Adv. Math. 1998), so the walk keeps the
    dominant results and tests no other candidate.
    """
    return sorted(iter_dominant_weights(rs, lam))


def fundamental_coweight(rs: RootSystem, i: int) -> Vec:
    """The i-th fundamental coweight (1-based) when it is integral in the
    realization; raises otherwise (e.g. D-type spinor nodes)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"node index {i} outside 1..{rs.rank}")
    if rs.type_label == "A":
        return tuple([1] * i + [0] * (rs.ambient_dim - i))
    if rs.type_label == "D" and i <= rs.rank - 2:
        return tuple([1] * i + [0] * (rs.ambient_dim - i))
    # Root-span solution via the inverse Cartan matrix.
    column = [row[i - 1] for row in rs.scaled_cartan_inverse]
    vec = [_dot(column, col) for col in zip(*rs.simple_roots)]
    if any(x % rs.cartan_denominator for x in vec):
        raise ValueError(
            f"fundamental coweight {i} of {rs.type_label}{rs.rank} is not integral "
            "in this realization"
        )
    return tuple(x // rs.cartan_denominator for x in vec)


def dual_coweight(rs: RootSystem, v: Vec) -> Vec:
    """Highest coweight of the dual representation: the dominant
    conjugate of ``-v``."""
    return dominant_representative(rs, tuple(-x for x in v))


def resolve_coweight(rs: RootSystem, name: str) -> Vec:
    """Resolve a symbolic coweight name against a root system.

    Accepts ``zero``, ``theta``, ``omega<k>``, ``omega<k>*`` (dual), or a
    comma-separated integer vector in the realization's coordinates.
    """
    name = name.strip()
    if name == "zero":
        return zero_vec(rs)
    if name == "theta":
        return rs.highest_root
    if name.startswith("omega"):
        rest = name[len("omega"):]
        dual = rest.endswith("*")
        if dual:
            rest = rest[:-1]
        try:
            k = int(rest)
        except ValueError:
            raise ValueError(f"cannot parse coweight name {name!r}") from None
        w = fundamental_coweight(rs, k)
        return dual_coweight(rs, w) if dual else w
    try:
        vec = tuple(int(part) for part in name.split(","))
    except ValueError:
        raise ValueError(f"cannot parse coweight name {name!r}") from None
    if len(vec) != rs.ambient_dim:
        raise ValueError(
            f"coweight vector needs {rs.ambient_dim} coordinates for {rs.type_label}{rs.rank}"
        )
    check_coweight(rs, vec)
    return vec


def check_coweight(rs: RootSystem, v: Vec) -> None:
    """Raise :class:`ValueError` unless ``v`` pairs to an integer with
    every simple root, i.e. lies in the coweight lattice.  Only type E
    can fail: its doubled coordinates pair through ``(v, alpha) / 4``."""
    for i, a in enumerate(rs.simple_roots, 1):
        num = 2 * _dot(v, a)
        if num % rs.root_norm_sq:
            raise ValueError(
                f"{list(v)} pairs to {Fraction(num, rs.root_norm_sq)} with the simple "
                f"root alpha{i} = {list(a)}, "
                f"so it is not in the coweight lattice of {rs.type_label}{rs.rank}"
            )
