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

from dataclasses import dataclass
from fractions import Fraction

from . import rootsystem as rsys
from .rootsystem import RootSystem, Vec


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial in q with non-negative integer coefficients,
    ``coeffs[k]`` being the coefficient of ``q**k``."""

    coeffs: tuple[int, ...]

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial(())

    @staticmethod
    def one() -> "QPolynomial":
        return QPolynomial((1,))

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
    coeffs = rsys.simple_coefficients(rs, nu)
    if coeffs is None or any(c.denominator != 1 for c in map(Fraction, coeffs)):
        return QPolynomial.zero() if q_graded else 0
    target = tuple(int(c) for c in coeffs)
    if any(c < 0 for c in target):
        return QPolynomial.zero() if q_graded else 0
    key = (rs.type_label, rs.rank)
    memo = _PARTITION_MEMO.setdefault(key, {})
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


def weight_multiplicity(lam: Vec, nu: Vec, rs: RootSystem, q_graded: bool = False):
    """Multiplicity of ``nu`` in the irreducible with highest coweight
    ``lam`` via the alternating Kostant sum; q-graded on request.

    The q-graded value at 1 always equals the plain multiplicity.
    """
    if not rsys.is_dominant(rs, lam):
        raise ValueError("highest coweight must be dominant")
    # Multiplicities are Weyl invariant and the graded version is only
    # coefficient-positive at dominant weights, so evaluate there.
    nu = rsys.dominant_representative(rs, tuple(nu))
    rho = rs.weyl_vector
    lam_rho = tuple(x + r for x, r in zip(lam, rho))
    acc: list[int] = []
    for point, sign in sorted(rsys.w_orbit_signed(rs, lam_rho).items()):
        arg_f = tuple(p - r - n for p, r, n in zip(point, rho, nu))
        arg = tuple(int(x) for x in arg_f)
        if any(x != y for x, y in zip(arg, arg_f)):
            raise AssertionError("non-integral Kostant argument")
        part = kostant_partition(arg, rs, q_graded=True)
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


_FREUDENTHAL_MEMO: dict = {}


def freudenthal_weight_table(lam: Vec, rs: RootSystem) -> dict[Vec, int]:
    """Full weight table of the irreducible with highest coweight ``lam``
    by the Freudenthal recursion; independent of the Kostant route."""
    if not rsys.is_dominant(rs, lam):
        raise ValueError("highest coweight must be dominant")
    key = (rs.type_label, rs.rank, lam)
    cached = _FREUDENTHAL_MEMO.get(key)
    if cached is not None:
        return dict(cached)

    weight_set = set(rsys.weights_of(rs, lam))
    dominants = sorted(
        (v for v in weight_set if rsys.is_dominant(rs, v)),
        key=lambda v: (rsys.projected_height(rs, v), v),
        reverse=True,
    )
    rho = rs.weyl_vector
    lam_rho = tuple(x + r for x, r in zip(lam, rho))
    lam_norm = sum(x * x for x in lam_rho)

    mult: dict[Vec, int] = {}
    for idx, mu in enumerate(dominants):
        if idx == 0:
            mult[mu] = 1
            continue
        num = Fraction(0)
        for alpha in rs.positive_roots:
            k = 1
            while True:
                w = tuple(x + k * a for x, a in zip(mu, alpha))
                if w not in weight_set:
                    break
                rep = rsys.dominant_representative(rs, w)
                num += sum(x * a for x, a in zip(w, alpha)) * mult[rep]
                k += 1
        mu_rho = tuple(x + r for x, r in zip(mu, rho))
        denom = lam_norm - sum(x * x for x in mu_rho)
        value = Fraction(2) * num / denom
        if value.denominator != 1 or value <= 0:
            raise AssertionError("Freudenthal recursion produced a non-positive or fractional value")
        mult[mu] = int(value)

    table: dict[Vec, int] = {}
    for mu, m in mult.items():
        for v in rsys.w_orbit(rs, mu):
            table[v] = m
    _FREUDENTHAL_MEMO[key] = dict(table)
    return table


def kostant_weight_table(lam: Vec, rs: RootSystem) -> dict[Vec, int]:
    """Weight table via the alternating Kostant sum (cross-check route)."""
    return {
        v: weight_multiplicity(lam, v, rs)
        for v in rsys.weights_of(rs, lam)
    }


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
        top = max(live, key=lambda v: (rsys.projected_height(rs, v), v))
        count = prod[top]
        if count < 0 or not rsys.is_dominant(rs, top):
            raise AssertionError("highest-weight subtraction left an invalid residue")
        result[top] = count
        for v, m in freudenthal_weight_table(top, rs).items():
            prod[v] = prod.get(v, 0) - count * m
            if prod[v] == 0:
                del prod[v]
    return result
