"""Efficiency ratios and the universal bounds."""

import os
from fractions import Fraction

import pytest

from gkmfactor import rootsystem as rsys
from gkmfactor.efficiency import (
    adjoint_record,
    eta_bound,
    eta_rep,
    series_report,
    series_specs,
)


def test_exceptional_bounds():
    assert eta_bound("E", 6) == Fraction(1, 18)
    assert eta_bound("E", 7) == Fraction(1, 25)
    assert eta_bound("E", 8) == Fraction(1, 38)


def test_classical_closed_forms():
    for l in range(1, 9):
        assert eta_bound("A", l) == Fraction(1, 2 * l + 1)
    for l in range(3, 9):
        assert eta_bound("D", l) == Fraction(1, 3 * l - 2)


def test_closed_forms_match_constructed_roots():
    for t, l in [("A", 1), ("A", 4), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]:
        rs = rsys.build(t, l)
        assert eta_bound(t, l) == Fraction(rs.rank, rs.rank**2 + rs.num_roots)


def test_large_rank_limit():
    assert eta_bound("A", 1000) < Fraction(1, 2000)


def test_eta_bound_rejects_unknown():
    with pytest.raises(rsys.UnsupportedRootSystem):
        eta_bound("E", 5)


def test_adjoint_record_analytic_e6():
    rec = adjoint_record("E", 6)
    assert rec.numerator_source == "analytic"
    assert rec.geometric_rank == 6 and rec.combinatorial_dim == 108
    assert rec.eta == Fraction(1, 18)


def test_eta_rep_stalk_a2():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    assert eta_rep(theta, zero, theta, theta, rs) == Fraction(1, 5)


def test_eta_rep_top_weight():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    top = tuple(2 * x for x in theta)
    assert eta_rep(top, top, theta, theta, rs) == Fraction(1, 1)


def test_eta_rep_errors():
    rs = rsys.build("A", 2)
    theta = rs.highest_root
    zero = rsys.zero_vec(rs)
    with pytest.raises(ValueError):
        eta_rep(theta, (9, 9, 9), theta, theta, rs)
    with pytest.raises(ValueError, match="must be dominant"):
        eta_rep(theta, zero, (-1, 0, 1), theta, rs)


def test_eta_rep_bounded_when_stalk_computed():
    for t, l in [("A", 1), ("A", 2), ("A", 3)]:
        rs = rsys.build(t, l)
        theta = rs.highest_root
        zero = rsys.zero_vec(rs)
        val = eta_rep(theta, zero, theta, theta, rs)
        assert val <= eta_bound(t, l)
        assert val == eta_bound(t, l)  # adjoint stalk rank equals the Cartan rank


def test_adjoint_record_stalk_small():
    rec = adjoint_record("A", 2, mode="stalk")
    assert rec.numerator_source == "stalk"
    assert rec.geometric_rank == 2
    assert rec.eta == rec.bound == Fraction(1, 5)


def test_adjoint_record_caps_oversized():
    rec = adjoint_record("E", 6, mode="stalk", cell_cap=10_000)
    assert rec.geometric_rank == 6
    assert rec.numerator_source.startswith("analytic")
    assert "cap" in rec.numerator_source


def test_adjoint_record_marks_a_partial_count(monkeypatch):
    # Past the cap the estimate may stop counting vertices; its cell
    # count is then a lower bound.
    from gkmfactor import efficiency

    monkeypatch.setattr(efficiency, "estimated_cells", lambda tr, cap: (10**9, 9, False))
    rec = adjoint_record("A", 4, mode="stalk")
    assert rec.geometric_rank == 4
    assert rec.numerator_source == "analytic (stalk system >=1000000000 cells exceeds cap 20000)"


def test_series_report_pools_stalk_rows(monkeypatch):
    # A real process pool over two cheap rows gives the sequential records.
    from gkmfactor import efficiency

    monkeypatch.setattr(efficiency, "series_specs", lambda max_rank: [("A", 1), ("A", 2)])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = series_report(2, mode="stalk").records
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert pooled == series_report(2, mode="stalk").records
    assert [r.numerator_source for r in pooled] == ["stalk", "stalk"]


def test_adjoint_record_default_cap_refuses_a6(monkeypatch):
    # The A6 adjoint column (73,788 estimated cells) is over the default
    # ceiling, so stalk mode tags the analytic value and runs no column.
    from gkmfactor import efficiency, stalks

    def no_column(*args, **kwargs):
        raise AssertionError("a column was run")

    monkeypatch.setattr(efficiency, "stalk_ranks", no_column)
    monkeypatch.setattr(stalks, "run_column", no_column)
    rec = adjoint_record("A", 6, mode="stalk")
    assert rec.geometric_rank == 6
    assert rec.numerator_source == "analytic (stalk system ~73788 cells exceeds cap 20000)"


def test_series_report_monotone():
    report = series_report(8)
    assert report.ok
    labels = [f"{r.type_label}{r.rank}" for r in report.records]
    assert labels[:3] == ["A1", "A2", "A3"]
    assert labels[-3:] == ["E6", "E7", "E8"]
    e_bounds = [r.bound for r in report.records if r.type_label == "E"]
    assert e_bounds == [Fraction(1, 18), Fraction(1, 25), Fraction(1, 38)]
    a6 = next(r for r in report.records if (r.type_label, r.rank) == ("A", 6))
    assert a6.bound == Fraction(1, 13) > Fraction(1, 18)


def test_series_report_validates_rank():
    with pytest.raises(ValueError):
        series_report(0)


def test_series_specs_rows():
    assert series_specs(3) == [("A", 1), ("A", 2), ("A", 3), ("D", 3), ("E", 6), ("E", 7), ("E", 8)]
    assert [(r.type_label, r.rank) for r in series_report(3).records] == series_specs(3)
    with pytest.raises(ValueError):
        series_specs(0)


def test_series_specs_refuses_rows_too_large_to_build():
    # D_l outgrows A_l, so D22 (924 roots) is the largest series row.
    assert series_specs(22)[-4:] == [("D", 22), ("E", 6), ("E", 7), ("E", 8)]
    for max_rank, row in [(23, "D23 with 1012 roots"), (32, "D32 with 1984 roots"),
                          (10**9, "roots; at most 1000")]:
        with pytest.raises(ValueError, match=row):
            series_specs(max_rank)
