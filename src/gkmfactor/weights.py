"""Weight multiplicities and tensor-product combinatorics.

Two independent multiplicity algorithms are implemented on purpose:

* the alternating sum over the Weyl group of Kostant partition counts
  (plain and q-graded), and
* the Freudenthal recursion,

and they are cross-checked in the test suite.  The q-graded variant
weights each expression of a vector as a sum of positive roots by
``q**(number of roots used)``; its value at ``q = 1`` is the plain
multiplicity.
"""

from __future__ import annotations

from typing import NamedTuple

from . import rootsystem as rsys
from .rootsystem import RootSystem, Vec


class QPolynomial(NamedTuple):
    """Polynomial in q with non-negative integer coefficients,
    ``coeffs[k]`` being the coefficient of ``q**k``."""

    coeffs: tuple[int, ...]

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial(())

    def at_one(self) -> int:
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                q = "q" if k == 1 else f"q^{k}"
                parts.append(q if c == 1 else f"{c}{q}")
        return " + ".join(parts)


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


_PARTITION_MEMO: dict = {}
_FREUDENTHAL_MEMO: dict = {}

# The most entries a system's memo keeps between calls: a fuller one is
# emptied as the next weight_multiplicity or freudenthal_weight_table
# starts, never during one.  A weight-queries repetition leaves at most
# 797 partition entries (D5) and 4 tables per system.
MAX_PARTITION_MEMO = 50_000
MAX_FREUDENTHAL_TABLES = 256


def _root_coeff_list(rs: RootSystem) -> list[tuple[int, ...]]:
    """Positive roots as simple-coefficient tuples, tallest first."""
    out = [rs.root_simple_coeffs[r] for r in rs.positive_roots]
    out.sort(key=lambda c: (sum(c), c), reverse=True)
    return out


def kostant_partition(nu: Vec, rs: RootSystem, q_graded: bool = False):
    """Count expressions of ``nu`` as non-negative sums of positive roots.

    Returns an int, or a :class:`QPolynomial` graded by the number of
    roots (with multiplicity) when ``q_graded``.  Vectors outside the
    non-negative root cone simply count zero.
    """
    target = rsys.simple_coefficients(rs, nu)
    if target is None or any(c < 0 for c in target):
        return QPolynomial.zero() if q_graded else 0
    memo = _PARTITION_MEMO.setdefault((rs.type_label, rs.rank), {})
    roots = _root_coeff_list(rs)

    def rec(i: int, v: tuple[int, ...]) -> tuple[int, ...]:
        if not any(v):
            return (1,)
        if i == len(roots):
            return ()
        cached = memo.get((i, v))
        if cached is not None:
            return cached
        r = roots[i]
        kmax = min(v[c] // r[c] for c in range(len(v)) if r[c])
        acc: list[int] = []
        w = v
        for k in range(kmax + 1):
            sub = rec(i + 1, w)
            if sub:
                need = len(sub) + k
                if len(acc) < need:
                    acc.extend([0] * (need - len(acc)))
                for p, c in enumerate(sub):
                    acc[p + k] += c
            if k < kmax:
                w = tuple(x - y for x, y in zip(w, r))
        out = _trim(acc)
        memo[(i, v)] = out
        return out

    poly = rec(0, target)
    return QPolynomial(poly) if q_graded else sum(poly)


# The largest Weyl group whose orbit :func:`weight_multiplicity` walks,
# |W(E6)|: the E6 and A7 (40,320) adjoint q-analogues at zero take 2.6
# and 2.1 s and at most 41 MiB; A8 (362,880) took 21 s and 109 MiB, D7
# (322,560) 12 s and 87 MiB (2-vCPU VM, Python 3.11.7).
MAX_WEYL_ORDER = 51_840


def weight_multiplicity(lam: Vec, nu: Vec, rs: RootSystem, q_graded: bool = False):
    """Multiplicity of ``nu`` in the irreducible with highest coweight
    ``lam`` via the alternating Kostant sum; q-graded on request.

    The q-graded value at 1 always equals the plain multiplicity.  The
    sum walks the Weyl orbit of ``lam + rho``, doubled to the integral
    ``2 lam + 2 rho``, so a Weyl group larger than
    :data:`MAX_WEYL_ORDER` raises :class:`ValueError` up front.
    """
    order = rsys.weyl_group_order(rs.type_label, rs.rank)
    if order > MAX_WEYL_ORDER:
        raise ValueError(
            f"the Kostant sum over W({rs.type_label}{rs.rank}) walks {order} "
            f"orbit points; at most {MAX_WEYL_ORDER} are supported"
        )
    if not rsys.is_dominant(rs, lam):
        raise ValueError("highest coweight must be dominant")
    # Multiplicities are Weyl invariant and the graded version is only
    # coefficient-positive at dominant weights, so evaluate there.
    nu = rsys.dominant_representative(rs, tuple(nu))
    memo = _PARTITION_MEMO.setdefault((rs.type_label, rs.rank), {})
    if len(memo) > MAX_PARTITION_MEMO:
        memo.clear()
    start = tuple(2 * x + r for x, r in zip(lam, rs.two_rho))
    acc: list[int] = []
    for point, sign in rsys.w_orbit_signed(rs, start).items():
        # w(lam + rho) - rho - nu, doubled.
        arg2 = tuple(p - r - 2 * n for p, r, n in zip(point, rs.two_rho, nu))
        if any(x % 2 for x in arg2):
            raise AssertionError("odd doubled Kostant argument")
        part = kostant_partition(tuple(x // 2 for x in arg2), rs, q_graded=True)
        if part.is_zero():
            continue
        need = len(part.coeffs)
        if len(acc) < need:
            acc.extend([0] * (need - len(acc)))
        for p, c in enumerate(part.coeffs):
            acc[p] += sign * c
    coeffs = _trim(acc)
    if any(c < 0 for c in coeffs):
        raise AssertionError("alternating sum produced a negative coefficient")
    return QPolynomial(coeffs) if q_graded else sum(coeffs)


def freudenthal_weight_table(lam: Vec, rs: RootSystem) -> dict[Vec, int]:
    """Full weight table of the irreducible with highest coweight ``lam``
    by the Freudenthal recursion; independent of the Kostant route."""
    if not rsys.is_dominant(rs, lam):
        raise ValueError("highest coweight must be dominant")
    memo = _FREUDENTHAL_MEMO.setdefault((rs.type_label, rs.rank), {})
    if len(memo) > MAX_FREUDENTHAL_TABLES:
        memo.clear()
    cached = memo.get(lam)
    if cached is not None:
        return dict(cached)

    dominants = reversed(rsys.total_order_extension(rsys.dominant_weights_of(rs, lam), rs))

    def norm4(v):  # |2 v + 2 rho|^2 = 4 |v + rho|^2
        return sum((2 * x + r) ** 2 for x, r in zip(v, rs.two_rho))

    lam_norm = norm4(lam)

    # Orbit by orbit from the top: mu + k alpha (k > 0) has a dominant
    # conjugate strictly above mu, so it is in the table exactly when it
    # is a weight, and the alpha-string stops at the first miss.
    table: dict[Vec, int] = {}
    for mu in dominants:
        if mu == lam:
            m = 1
        else:
            num = 0
            for alpha in rs.positive_roots:
                w = tuple(x + a for x, a in zip(mu, alpha))
                while w in table:
                    num += sum(x * a for x, a in zip(w, alpha)) * table[w]
                    w = tuple(x + a for x, a in zip(w, alpha))
            # 2 num / (|lam + rho|^2 - |mu + rho|^2), from the norms times 4.
            m, rest = divmod(8 * num, lam_norm - norm4(mu))
            if rest or m <= 0:
                raise AssertionError("Freudenthal recursion produced a non-positive or fractional value")
        for v in rsys.w_orbit(rs, mu):
            table[v] = m
    memo[lam] = dict(table)
    return table


def tensor_weight_dim(lam: Vec, mu: Vec, nu: Vec, rs: RootSystem) -> int:
    """Dimension of the ``nu`` weight space of V_lam (x) V_mu."""
    ta = freudenthal_weight_table(lam, rs)
    tb = freudenthal_weight_table(mu, rs)
    total = 0
    for sigma, m in ta.items():
        rest = tuple(n - s for n, s in zip(nu, sigma))
        total += m * tb.get(rest, 0)
    return total


def tensor_decompose(lam: Vec, mu: Vec, rs: RootSystem) -> dict[Vec, int]:
    """Decompose V_lam (x) V_mu by iterated highest-weight subtraction.

    Returns the multiplicity of each irreducible constituent; the
    weighted sum of constituent weight tables reproduces the product
    table exactly (asserted).
    """
    ta = freudenthal_weight_table(lam, rs)
    tb = freudenthal_weight_table(mu, rs)
    prod: dict[Vec, int] = {}
    for sigma, m in ta.items():
        for tau, n in tb.items():
            v = tuple(s + t for s, t in zip(sigma, tau))
            prod[v] = prod.get(v, 0) + m * n

    result: dict[Vec, int] = {}
    while True:
        live = [v for v, c in prod.items() if c]
        if not live:
            break
        top = max(live, key=lambda v: (rsys.height_key(rs, v), v))
        count = prod[top]
        if count < 0 or not rsys.is_dominant(rs, top):
            raise AssertionError("highest-weight subtraction left an invalid residue")
        result[top] = count
        for v, m in freudenthal_weight_table(top, rs).items():
            prod[v] = prod.get(v, 0) - count * m
            if prod[v] == 0:
                del prod[v]
    return result
