"""Factors of the convolution-to-canonical-basis transition matrix.

Per weight block, the transition matrix factors as a diagonal
normalization, times the multiplicity matrix of stalk ranks, times the
0/1 collision (specialization) matrix, times the inverse of an Euler
diagonal.  The normalization and Euler factors are rank-preserving
diagonals (unit by default; the Euler diagonal may be kept as formal
products of edge labels, never expanded), so the integer core is the
product of the multiplicity block and the collision block, and the rank
of the composite is controlled by the multiplicity block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from . import rootsystem as rsys
from .momentgraph import MomentGraph, Truncation, build_graph
from .rootsystem import RootSystem, Vec
from .stalks import stalk_ranks
from .weights import freudenthal_weight_table


@dataclass(frozen=True)
class PairIndex:
    """The generic-side basis: weight pairs (sigma, tau) with
    multiplicity indices, one entry per tensor-product basis vector."""

    pairs: tuple[tuple[Vec, int, Vec, int], ...]

    def __len__(self):
        return len(self.pairs)

    def labels(self) -> list[str]:
        out = []
        for sigma, i, tau, j in self.pairs:
            out.append(f"{list(sigma)}#{i}|{list(tau)}#{j}")
        return out


def weight_pairs(lam: Vec, mu: Vec, rs: RootSystem, nu: Vec | None = None) -> PairIndex:
    """Enumerate the tensor basis pairs, optionally only those whose
    weights sum to ``nu``.  Deterministic order: total order on sigma,
    then its multiplicity index, then tau's index."""
    ta = freudenthal_weight_table(lam, rs)
    tb = freudenthal_weight_table(mu, rs)
    sigmas = rsys.total_order_extension(ta.keys(), rs)
    pairs = []
    for sigma in sigmas:
        if nu is None:
            taus = rsys.total_order_extension(tb.keys(), rs)
        else:
            t = tuple(a - b for a, b in zip(nu, sigma))
            taus = [t] if t in tb else []
        for tau in taus:
            for i in range(ta[sigma]):
                for j in range(tb[tau]):
                    pairs.append((sigma, i, tau, j))
    return PairIndex(tuple(pairs))


@dataclass(frozen=True)
class SpecializationMatrix:
    """0/1 collision matrix: rows are special-fiber fixed points, columns
    generic pairs; the unique nonzero of a column marks the row of the
    pair's weight sum."""

    row_coweights: tuple[Vec, ...]
    pairs: PairIndex
    entries: tuple[tuple[int, ...], ...]

    def row(self, nu: Vec) -> tuple[int, ...]:
        return self.entries[self.row_coweights.index(tuple(nu))]

    def column_sums(self) -> list[int]:
        return [sum(col) for col in zip(*self.entries)] if self.entries else []


def build_A(lam: Vec, mu: Vec, rs: RootSystem, weight_filter: Vec | None = None) -> SpecializationMatrix:
    """Assemble the collision matrix; with ``weight_filter`` only the
    single row block at that weight (and the pairs summing to it)."""
    if not rsys.is_dominant(rs, lam) or not rsys.is_dominant(rs, mu):
        raise ValueError("both highest coweights must be dominant")
    pairs = weight_pairs(lam, mu, rs, nu=weight_filter)
    if weight_filter is not None:
        rows = (tuple(weight_filter),)
    else:
        total = tuple(a + b for a, b in zip(lam, mu))
        rows = tuple(rsys.total_order_extension(Truncation(rs, total).vertex_set(), rs))
    row_index = {v: i for i, v in enumerate(rows)}
    entries = [[0] * len(pairs) for _ in rows]
    for k, (sigma, _, tau, _) in enumerate(pairs.pairs):
        s = tuple(a + b for a, b in zip(sigma, tau))
        entries[row_index[s]][k] = 1
    return SpecializationMatrix(rows, pairs, tuple(tuple(r) for r in entries))


@dataclass(frozen=True)
class EulerDiagonal:
    """Diagonal of formal products of linear forms (or the unit diagonal).

    ``factors[i]`` is the tuple of labels whose product is the i-th
    entry; entries are never expanded into polynomials, and a unit
    diagonal has ``factors None``."""

    index: tuple
    factors: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def is_unit(self) -> bool:
        return self.factors is None

    def entry_strings(self) -> list[str]:
        if self.is_unit:
            return ["1"] * len(self.index)
        out = []
        for fs in self.factors:
            out.append(" * ".join("(" + ",".join(str(c) for c in f) + ")" for f in fs) or "1")
        return out


def build_Q(g: MomentGraph, mode: str = "unit") -> EulerDiagonal:
    """Euler diagonal of a moment graph: unit, or per vertex the formal
    product of all incident edge labels (the finite GKM surrogate for
    the tangent Euler class)."""
    if mode == "unit":
        return EulerDiagonal(index=g.vertices, factors=None)
    if mode == "symbolic":
        factors = []
        for i, v in enumerate(g.vertices):
            labels = tuple(g.edges[k].label for k in g.adjacency[i])
            for l in labels:
                if all(c == 0 for c in l):
                    raise AssertionError("zero label cannot enter an Euler factor")
            factors.append(labels)
        return EulerDiagonal(index=g.vertices, factors=tuple(factors))
    raise ValueError(f"unknown Euler mode {mode!r} (need unit or symbolic)")


def pair_euler_diagonal(g_lam: MomentGraph, g_mu: MomentGraph, pairs: PairIndex) -> EulerDiagonal:
    """Symbolic Euler diagonal on the generic pair basis: the product of
    the two factors' vertex entries."""
    q1 = build_Q(g_lam, "symbolic")
    q2 = build_Q(g_mu, "symbolic")
    i1 = {v: i for i, v in enumerate(q1.index)}
    i2 = {v: i for i, v in enumerate(q2.index)}
    factors = []
    for sigma, _, tau, _ in pairs.pairs:
        factors.append(q1.factors[i1[sigma]] + q2.factors[i2[tau]])
    return EulerDiagonal(index=pairs.pairs, factors=tuple(factors))


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class TransitionBundle:
    """One weight block of the factored transition matrix."""

    rs: RootSystem
    lam: Vec
    mu: Vec
    weight: Vec
    row_classes: tuple[Vec, ...]
    spec_index: tuple[Vec, ...]
    m_block: tuple[tuple[int, ...], ...]
    a: SpecializationMatrix
    p_diag: tuple[Fraction, ...]
    q: EulerDiagonal
    c_block: tuple[tuple[Fraction, ...], ...]
    checks: list[CheckResult]

    def c_rank(self) -> int:
        return linalg.rank(self.c_block)

    def m_rank(self) -> int:
        return linalg.rank(self.m_block)


def compose_C(p_diag, m_block, a: SpecializationMatrix, q: EulerDiagonal):
    """Compose the block: ``P * (M * A)``, with the Euler diagonal kept
    formal (its inverse is never expanded; unit entries act as 1)."""
    nrows = len(m_block)
    nspec = len(m_block[0]) if nrows else 0
    if nspec != len(a.row_coweights):
        raise ValueError(
            f"multiplicity block has {nspec} columns but the collision "
            f"matrix has {len(a.row_coweights)} rows"
        )
    if len(p_diag) != nrows:
        raise ValueError("normalization diagonal size disagrees with the row count")
    if not q.is_unit and len(q.index) != len(a.pairs):
        raise ValueError("Euler diagonal size disagrees with the pair count")
    ncols = len(a.pairs)
    c = []
    for i in range(nrows):
        row = []
        for k in range(ncols):
            total = 0
            for t in range(nspec):
                if m_block[i][t] and a.entries[t][k]:
                    total += m_block[i][t] * a.entries[t][k]
            row.append(Fraction(p_diag[i]) * total)
        c.append(tuple(row))
    return tuple(c)


def transition_bundle(
    rs: RootSystem,
    lam: Vec,
    mu: Vec,
    nu: Vec,
    D: int | None = None,
    p_diag=None,
    euler: str = "unit",
) -> TransitionBundle:
    """Build, compose and verify the weight-``nu`` block.

    Multiplicity entries are the stalk ranks of each dominant class's
    sheaf at ``nu``; classes not supporting ``nu`` contribute zero
    without running the recursion.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    a = build_A(lam, mu, rs, weight_filter=nu)
    total = tuple(x + y for x, y in zip(lam, mu))
    tr = Truncation(rs, total)
    dominants = [v for v in tr.vertex_set() if rsys.is_dominant(rs, v)]
    rows = tuple(reversed(rsys.total_order_extension(dominants, rs)))
    m_entries = []
    for alpha in rows:
        if not rsys.dominance_leq(rs, nu, alpha):
            m_entries.append((0,))
            continue
        column = stalk_ranks(Truncation(rs, alpha), D=D)
        m_entries.append((column.ranks.get(nu, 0),))
    m_block = tuple(m_entries)
    p = tuple(Fraction(x) for x in p_diag) if p_diag is not None else tuple(
        Fraction(1) for _ in rows
    )
    if euler == "unit":
        q = EulerDiagonal(index=a.pairs.pairs, factors=None)
    elif euler == "symbolic":
        q = pair_euler_diagonal(
            build_graph(Truncation(rs, lam)), build_graph(Truncation(rs, mu)), a.pairs
        )
    else:
        raise ValueError(f"unknown Euler mode {euler!r}")
    c = compose_C(p, m_block, a, q)
    bundle = TransitionBundle(
        rs=rs,
        lam=lam,
        mu=mu,
        weight=nu,
        row_classes=rows,
        spec_index=a.row_coweights,
        m_block=m_block,
        a=a,
        p_diag=p,
        q=q,
        c_block=c,
        checks=[],
    )
    bundle.checks = verify_bundle(bundle)
    return bundle


def verify_bundle(bundle: TransitionBundle) -> list[CheckResult]:
    """Audit the composed block.

    (a) multiplicity and collision entries are non-negative integers;
    (b) rank of the composite is at most the rank of the multiplicity
        block, and at most the Cartan rank on the adjoint zero block;
    (c) a standard-basis multiplicity column forces a monomial composite
        column;
    (d) a nonzero composite entry is witnessed by a nonzero
        multiplicity entry meeting a nonzero collision entry;
    (e) the nonzero count of each composite column is bounded by the
        collision-weighted column sums of the multiplicity block.
    """
    checks: list[CheckResult] = []
    m, a, c = bundle.m_block, bundle.a, bundle.c_block
    nrows = len(m)
    nspec = len(bundle.spec_index)
    ncols = len(a.pairs)

    bad = []
    for i in range(nrows):
        for t in range(nspec):
            v = m[i][t]
            if not isinstance(v, int) or v < 0:
                bad.append(f"M[{i}][{t}]={v}")
    for t in range(nspec):
        for k in range(ncols):
            v = a.entries[t][k]
            if not isinstance(v, int) or v < 0:
                bad.append(f"A[{t}][{k}]={v}")
    checks.append(
        CheckResult(
            "nonnegative-integrality",
            not bad,
            "all entries in Z>=0" if not bad else "violations at " + ", ".join(bad),
        )
    )

    rank_c = linalg.rank(c) if c else 0
    rank_m = linalg.rank(m) if m else 0
    ok_rank = rank_c <= rank_m
    detail = f"rank(C)={rank_c} <= rank(M)={rank_m}"
    is_adjoint_zero = (
        bundle.lam == bundle.rs.highest_root
        and bundle.mu == bundle.rs.highest_root
        and not any(bundle.weight)
    )
    if is_adjoint_zero:
        ok_rank = ok_rank and rank_c <= bundle.rs.rank
        detail += f"; adjoint zero block rank {rank_c} <= rank(G)={bundle.rs.rank}"
    checks.append(CheckResult("rank-bound", ok_rank, detail))

    monomial_ok = True
    monomial_detail = "no standard-basis column applies"
    for t in range(nspec):
        col = [m[i][t] for i in range(nrows)]
        if sum(col) == 1 and col.count(1) == 1:
            for k in range(ncols):
                if a.entries[t][k]:
                    nnz = sum(1 for i in range(nrows) if c[i][k])
                    if nnz != 1:
                        monomial_ok = False
                        monomial_detail = f"column {k} has {nnz} nonzeros"
                        break
            else:
                monomial_detail = "standard-basis columns give monomial composite columns"
                continue
            break
    checks.append(CheckResult("condition-a-monomial", monomial_ok, monomial_detail))

    support_ok = True
    support_detail = "every nonzero composite entry is witnessed"
    for i in range(nrows):
        for k in range(ncols):
            if c[i][k]:
                if not any(m[i][t] and a.entries[t][k] for t in range(nspec)):
                    support_ok = False
                    support_detail = f"entry ({i},{k}) lacks a witness"
    checks.append(CheckResult("support", support_ok, support_detail))

    sparsity_ok = True
    sparsity_detail = "column sparsity within the stalk-sum bound"
    for k in range(ncols):
        nnz = sum(1 for i in range(nrows) if c[i][k])
        bound = sum(
            sum(m[i][t] for i in range(nrows))
            for t in range(nspec)
            if a.entries[t][k]
        )
        if nnz > bound:
            sparsity_ok = False
            sparsity_detail = f"column {k}: {nnz} nonzeros exceed bound {bound}"
    checks.append(CheckResult("column-sparsity", sparsity_ok, sparsity_detail))
    return checks
