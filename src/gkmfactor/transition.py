"""Factors of the convolution-to-canonical-basis transition matrix.

The transition matrix C = P * M * A * Q^-1 is block-diagonal by weight:
a tensor pair (sigma, tau) collides into sigma + tau, so each block is
one weight ``nu`` and the pairs summing to it, and every block is built
on its own.  The blocks partition the tensor basis over the weights of
the truncation at lambda + mu.  Within a block the normalization P is
the unit diagonal, the collision factor A is one row of ones over the
pairs, and the Euler factor Q is the unit diagonal or, per pair, a
formal product of edge labels that is never expanded.  So the block's
C is the integer multiplicity column M repeated once per pair, the
outer product of M and the row of ones, and its rank is that of M.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg
from . import rootsystem as rsys
from .momentgraph import MomentGraph, Truncation, build_graph
from .rootsystem import RootSystem, Vec
from .stalks import stalk_ranks
from .weights import freudenthal_weight_table


def weight_pairs(lam: Vec, mu: Vec, rs: RootSystem, nu: Vec) -> tuple:
    """The tensor basis pairs ``(sigma, i, tau, j)`` whose weights sum
    to ``nu``, one per tensor-product basis vector, ``i`` and ``j``
    indexing the multiplicities.  Deterministic order: total order on
    sigma, then its multiplicity index, then tau's index."""
    ta = freudenthal_weight_table(lam, rs)
    tb = freudenthal_weight_table(mu, rs)
    pairs = []
    for sigma in rsys.total_order_extension(ta.keys(), rs):
        tau = tuple(a - b for a, b in zip(nu, sigma))
        for i in range(ta[sigma]):
            for j in range(tb.get(tau, 0)):
                pairs.append((sigma, i, tau, j))
    return tuple(pairs)


def _incident_labels(g: MomentGraph) -> dict:
    """Per vertex, the labels of its edges, whose formal product is the
    vertex's Euler factor (the finite GKM surrogate for the tangent
    Euler class)."""
    out = {}
    for i, v in enumerate(g.vertices):
        labels = tuple(g.edges[k].label for k in g.adjacency[i])
        if not all(any(l) for l in labels):
            raise AssertionError("zero label cannot enter an Euler factor")
        out[v] = labels
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class TransitionBundle:
    """One weight block of the factored transition matrix.

    ``m_block`` is the multiplicity column, one ``(m,)`` row per class
    of ``row_classes``; ``a_row`` is the collision row over ``pairs``;
    ``q_factors`` holds each pair's Euler labels, or is None for the
    unit Q; ``c_block`` is the outer product of M and A."""

    rs: RootSystem
    lam: Vec
    mu: Vec
    weight: Vec
    row_classes: tuple[Vec, ...]
    m_block: tuple[tuple[int], ...]
    pairs: tuple[tuple[Vec, int, Vec, int], ...]
    a_row: tuple[int, ...]
    q_factors: tuple[tuple[tuple[int, ...], ...], ...] | None
    c_block: tuple[tuple[int, ...], ...]
    checks: tuple[CheckResult, ...]

    def c_rank(self) -> int:
        return linalg.rank(self.c_block)

    def m_rank(self) -> int:
        return linalg.rank(self.m_block)


def transition_bundle(
    rs: RootSystem,
    lam: Vec,
    mu: Vec,
    nu: Vec,
    euler: str = "unit",
) -> TransitionBundle:
    """Build and verify the weight-``nu`` block, with the unit
    normalization diagonal.

    Multiplicity entries are the stalk ranks of each dominant class's
    sheaf at ``nu``; classes not supporting ``nu`` contribute zero
    without running the recursion.  Raises :class:`ValueError`, before
    any table or column is built, on an unknown ``euler`` mode, a
    non-dominant ``lam`` or ``mu``, or a ``nu`` that is not a weight of
    the tensor product (not a vertex of the truncation at ``lam + mu``).
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if euler not in ("unit", "symbolic"):
        raise ValueError(f"unknown Euler mode {euler!r}")
    if not rsys.is_dominant(rs, lam) or not rsys.is_dominant(rs, mu):
        raise ValueError("both highest coweights must be dominant")
    total = tuple(x + y for x, y in zip(lam, mu))
    dominants = rsys.dominant_weights_of(rs, total)
    # A nu off the root-lattice coset of the total is no weight, and
    # would not pair integrally on its way to its dominant conjugate.
    diff = tuple(x - y for x, y in zip(total, nu))
    if (
        rsys.simple_coefficients(rs, diff) is None
        or rsys.dominant_representative(rs, nu) not in dominants
    ):
        raise ValueError(
            f"{list(nu)} is not a weight of the tensor product: not a fixed point "
            f"of the truncation at lambda+mu = {list(total)}"
        )
    pairs = weight_pairs(lam, mu, rs, nu)
    a_row = (1,) * len(pairs)
    rows = tuple(reversed(rsys.total_order_extension(dominants, rs)))
    m_block = tuple(
        (stalk_ranks(Truncation(rs, alpha)).ranks.get(nu, 0),)
        if rsys.dominance_leq(rs, nu, alpha)
        else (0,)
        for alpha in rows
    )
    q_factors = None
    if euler == "symbolic":
        q1 = _incident_labels(build_graph(Truncation(rs, lam)))
        q2 = _incident_labels(build_graph(Truncation(rs, mu)))
        q_factors = tuple(q1[sigma] + q2[tau] for sigma, _, tau, _ in pairs)
    bundle = TransitionBundle(
        rs=rs,
        lam=lam,
        mu=mu,
        weight=nu,
        row_classes=rows,
        m_block=m_block,
        pairs=pairs,
        a_row=a_row,
        q_factors=q_factors,
        c_block=tuple(tuple(m * a for a in a_row) for (m,) in m_block),
        checks=(),
    )
    return replace(bundle, checks=verify_bundle(bundle))


def verify_bundle(bundle: TransitionBundle) -> tuple[CheckResult, ...]:
    """Audit the composed block.

    (a) multiplicity and collision entries are non-negative integers;
    (b) rank of the composite is at most the rank of the multiplicity
        block, and at most the Cartan rank on the adjoint zero block;
    (c) a standard-basis multiplicity column forces a monomial composite
        column;
    (d) a nonzero composite entry is witnessed by a nonzero
        multiplicity entry meeting a nonzero collision entry;
    (e) the nonzero count of each composite column is bounded by the
        collision-weighted column sum of the multiplicity block.
    """
    m = [row[0] for row in bundle.m_block]
    a, c = bundle.a_row, bundle.c_block

    def nonzeros(k):
        return sum(1 for row in c if row[k])

    bad = [f"M[{i}][0]={v}" for i, v in enumerate(m) if not isinstance(v, int) or v < 0]
    bad += [f"A[0][{k}]={v}" for k, v in enumerate(a) if not isinstance(v, int) or v < 0]
    integrality = CheckResult(
        "nonnegative-integrality",
        not bad,
        "all entries in Z>=0" if not bad else "violations at " + ", ".join(bad),
    )

    rank_c, rank_m = bundle.c_rank(), bundle.m_rank()
    ok_rank = rank_c <= rank_m
    detail = f"rank(C)={rank_c} <= rank(M)={rank_m}"
    rs = bundle.rs
    if bundle.lam == rs.highest_root == bundle.mu and not any(bundle.weight):
        ok_rank = ok_rank and rank_c <= rs.rank
        detail += f"; adjoint zero block rank {rank_c} <= rank(G)={rs.rank}"
    rank_bound = CheckResult("rank-bound", ok_rank, detail)

    monomial_ok = True
    monomial_detail = "no standard-basis column applies"
    if sum(m) == 1 and m.count(1) == 1:
        monomial_detail = "standard-basis columns give monomial composite columns"
        for k, x in enumerate(a):
            if x and nonzeros(k) != 1:
                monomial_ok = False
                monomial_detail = f"column {k} has {nonzeros(k)} nonzeros"
                break

    support_ok = True
    support_detail = "every nonzero composite entry is witnessed"
    for i, row in enumerate(c):
        for k, x in enumerate(row):
            if x and not (m[i] and a[k]):
                support_ok = False
                support_detail = f"entry ({i},{k}) lacks a witness"

    sparsity_ok = True
    sparsity_detail = "column sparsity within the stalk-sum bound"
    for k, x in enumerate(a):
        bound = sum(m) if x else 0
        if nonzeros(k) > bound:
            sparsity_ok = False
            sparsity_detail = f"column {k}: {nonzeros(k)} nonzeros exceed bound {bound}"

    return (
        integrality,
        rank_bound,
        CheckResult("condition-a-monomial", monomial_ok, monomial_detail),
        CheckResult("support", support_ok, support_detail),
        CheckResult("column-sparsity", sparsity_ok, sparsity_detail),
    )
