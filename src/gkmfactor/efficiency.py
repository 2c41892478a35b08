"""Geometric-efficiency ratios and their universal bounds.

The efficiency of a class at a weight is the stalk rank there divided
by the tensor weight-space dimension; nothing here ever touches
floating point.

For the adjoint class at the origin the stalk rank equals the Cartan
rank, giving the closed-form bound ``rank / (rank**2 + #roots)``, which
is ``1/(2l+1)`` for A types, ``1/(3l-2)`` for D types, and strictly
decreasing along the exceptional series.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import rootsystem as rsys
from .momentgraph import Truncation
from .rootsystem import RootSystem, Vec
from .stalks import estimated_cells, stalk_ranks
from .weights import tensor_weight_dim

DEFAULT_CELL_CAP = 20_000


class EfficiencyRecord(NamedTuple):
    type_label: str
    rank: int
    num_roots: int
    geometric_rank: int
    combinatorial_dim: int
    eta: Fraction
    bound: Fraction
    numerator_source: str

    def row(self) -> list:
        return [
            f"{self.type_label}{self.rank}",
            self.num_roots,
            self.geometric_rank,
            self.combinatorial_dim,
            self.eta,
            self.bound,
            self.numerator_source,
        ]


def eta_bound(type_label: str, rank: int) -> Fraction:
    """Universal adjoint bound ``rank / (rank**2 + #roots)``, exact.

    Uses the closed-form root count, so arbitrary ranks are cheap; the
    count agrees with reflection closure on every constructible system
    (tested).
    """
    return Fraction(rank, rank**2 + rsys.root_count(type_label, rank))


def eta_rep(alpha: Vec, nu: Vec, lam: Vec, mu: Vec, rs: RootSystem) -> Fraction:
    """Stalk rank of the ``alpha`` class at ``nu`` over the tensor
    weight-space dimension of V_lam (x) V_mu at ``nu``.

    The Cartan-rank numerator of the adjoint class at zero is
    :func:`adjoint_record` with ``mode="analytic"``.
    """
    for v in (alpha, lam, mu):
        if not rsys.is_dominant(rs, v):
            raise ValueError("alpha, lam and mu must be dominant")
    denom = tensor_weight_dim(lam, mu, nu, rs)
    if denom == 0:
        raise ValueError(f"{nu} is not a weight of the tensor product")
    column = stalk_ranks(Truncation(rs, tuple(alpha)))
    if tuple(nu) not in column.ranks:
        raise ValueError(f"{nu} is not a vertex of the {alpha} truncation")
    return Fraction(column.ranks[tuple(nu)], denom)


def adjoint_record(
    type_label: str,
    rank: int,
    mode: str = "analytic",
    cell_cap: int = DEFAULT_CELL_CAP,
) -> EfficiencyRecord:
    """Efficiency row for the adjoint class at the origin.

    ``mode="stalk"`` runs the recursion when the estimated system size
    fits under ``cell_cap`` and otherwise falls back to the analytic
    Cartan-rank value, tagging the row accordingly.
    """
    rs = rsys.build(type_label, rank)
    ell, nroots = rs.rank, rs.num_roots
    dim = ell * ell + nroots
    source = "analytic"
    num = ell
    if mode == "stalk":
        tr = Truncation(rs, rs.highest_root)
        cells, _, exact = estimated_cells(tr, cell_cap)
        if cells <= cell_cap:
            column = stalk_ranks(tr)
            num = column.ranks[rsys.zero_vec(rs)]
            source = "stalk"
        else:
            size = f"~{cells}" if exact else f">={cells}"
            source = f"analytic (stalk system {size} cells exceeds cap {cell_cap})"
    elif mode != "analytic":
        raise ValueError(f"unknown mode {mode!r}")
    eta = Fraction(num, dim)
    record = EfficiencyRecord(
        type_label=type_label,
        rank=rank,
        num_roots=nroots,
        geometric_rank=num,
        combinatorial_dim=dim,
        eta=eta,
        bound=Fraction(ell, dim),
        numerator_source=source,
    )
    if source == "stalk" and record.eta > record.bound:
        raise AssertionError("computed stalk efficiency exceeds the universal bound")
    return record


class SeriesReport(NamedTuple):
    records: list[EfficiencyRecord]
    a_strictly_decreasing: bool
    d_strictly_decreasing: bool
    e_strictly_decreasing: bool

    @property
    def ok(self) -> bool:
        return (
            self.a_strictly_decreasing
            and self.d_strictly_decreasing
            and self.e_strictly_decreasing
        )


def series_specs(max_rank: int) -> list[tuple[str, int]]:
    """The series rows A_1..A_max, D_3..D_max and E_6..E_8 as
    ``(type, rank)`` pairs.  Raises :class:`ValueError` when a row is
    larger than :func:`rootsystem.build` constructs, before any build."""
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    for t in ("D", "A") if max_rank >= 3 else ("A",):
        count = rsys.root_count(t, max_rank)
        if count > rsys.MAX_ROOTS:
            raise ValueError(
                f"max_rank {max_rank} includes {t}{max_rank} with {count} roots; "
                f"at most {rsys.MAX_ROOTS} are supported"
            )
    return (
        [("A", l) for l in range(1, max_rank + 1)]
        + [("D", l) for l in range(3, max_rank + 1)]
        + [("E", 6), ("E", 7), ("E", 8)]
    )


def series_report(
    max_rank: int,
    mode: str = "analytic",
    cell_cap: int = DEFAULT_CELL_CAP,
) -> SeriesReport:
    """Efficiency rows for A_1..A_max, D_3..D_max and E_6..E_8, with the
    strict monotonicity of the bounds along each family asserted.

    Stalk-mode rows run their columns in a pool of one worker process per
    CPU, at most one per row; analytic rows take no measurable time, so
    they start no process.
    """
    specs = series_specs(max_rank)
    types, ranks = zip(*specs)
    record = partial(adjoint_record, mode=mode, cell_cap=cell_cap)
    workers = min(os.cpu_count() or 1, len(specs)) if mode == "stalk" else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(record, types, ranks))
    else:
        records = list(map(record, types, ranks))

    def bounds(label):
        return [r.bound for r in records if r.type_label == label]

    def strictly_decreasing(vals):
        return all(a > b for a, b in zip(vals, vals[1:]))

    return SeriesReport(
        records=records,
        a_strictly_decreasing=strictly_decreasing(bounds("A")),
        d_strictly_decreasing=strictly_decreasing(bounds("D")),
        e_strictly_decreasing=strictly_decreasing(bounds("E")),
    )
