"""Enumeration and I1 equivalence classes."""

import math

import pytest

import su_einstein as se
from su_einstein.catalog import assign_classes, paper_count


class TestPaperCount:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 2), (4, 5), (5, 4),
                                         (6, 7), (7, 6), (8, 9)])
    def test_formula(self, n, count):
        assert paper_count(n) == count


class TestAssignClasses:
    def test_groups_by_relative_i1(self):
        recs = se.closed_form_scheme2(5, 3) + se.closed_form_scheme1(5)
        classed, reps = assign_classes(recs)
        # bi-invariant records from both configurations share one class
        bi = [r for r in classed if r.provenance == "closed_form_1"]
        assert len(bi) == 2
        assert bi[0].eq_class == bi[1].eq_class
        assert len(reps) == 4

    def test_class_is_ordered_by_x_not_by_i1_rounding(self):
        from su_einstein.solver import EinsteinRecord

        def rec(x, I1):
            return EinsteinRecord(scheme=1, n=6, p=None, x=x, lam=0.75, I1=I1,
                                  provenance="numeric", residual=0.0, valid=True)

        recs = [rec((2.0, 1.0, 1.0), 35.0), rec((1.0, 1.0, 1.0), math.nextafter(35.0, 36.0)),
                rec((1.0, 1.0, 3.0), 40.0)]
        classed, reps = assign_classes(recs)
        assert [(r.eq_class, r.x) for r in classed] == [
            (0, (1.0, 1.0, 1.0)), (0, (2.0, 1.0, 1.0)), (1, (1.0, 1.0, 3.0))]
        assert reps == [35.0, 40.0]

    def test_invalid_records_excluded(self):
        from su_einstein.solver import EinsteinRecord
        bad = EinsteinRecord(scheme=1, n=3, p=None, x=(1, 1, 1), lam=1.0,
                             I1=None, provenance="numeric", residual=1.0, valid=False)
        classed, reps = assign_classes([bad])
        assert classed == [] and reps == []


class TestEnumerate:
    def test_n3(self):
        entry = se.enumerate_metrics(3, n_starts=200, seed=0)
        assert entry.count_inequivalent == 2
        assert entry.paper_count == 2
        assert entry.agreement
        assert entry.search_complete
        assert entry.class_I1[0] == pytest.approx(8.0, rel=1e-8)

    def test_n5(self):
        entry = se.enumerate_metrics(5, n_starts=300, seed=0)
        assert entry.count_inequivalent == 4
        assert entry.paper_count == 4
        assert entry.agreement
        expected = [24.0, 24.378169478744457, 27.510204081632654, 32.8516129032258]
        for got, want in zip(entry.class_I1, expected):
            assert got == pytest.approx(want, rel=1e-6)

    def test_n4_reports_discrepancy(self):
        entry = se.enumerate_metrics(4, n_starts=300, seed=0)
        assert entry.count_inequivalent == 3
        assert entry.paper_count == 5
        assert not entry.agreement  # reported, not suppressed

    def test_biinvariant_coalesces_across_configs(self):
        entry = se.enumerate_metrics(5, n_starts=200, seed=0)
        bi = [r for r in entry.records
              if r.I1 == pytest.approx(24.0, rel=1e-6)]
        assert len(bi) >= 2  # scheme 1 and the (2,3) split both find it
        assert len({r.eq_class for r in bi}) == 1

    def test_counting_stable_under_more_starts(self):
        a = se.enumerate_metrics(4, n_starts=120, seed=0)
        b = se.enumerate_metrics(4, n_starts=360, seed=0)
        assert a.count_inequivalent <= b.count_inequivalent
        assert b.count_inequivalent == 3

    def test_without_starts_every_closed_form_is_missed(self):
        entry = se.enumerate_metrics(6, n_starts=0)
        configs = entry.diagnostics["configurations"]
        assert list(configs) == ["scheme1", "scheme2_p2", "scheme2_p3"]
        assert configs["scheme1"]["search_missed"] == ["closed_form_1", "closed_form_2"]
        assert configs["scheme2_p3"]["search_missed"] == [
            "closed_form_1", "closed_form_2_plus", "closed_form_2_minus"]
        assert not entry.search_complete
        # the closed forms are still the records; at p = q the + branch is the bi-invariant one
        assert len(entry.records) == 2 + 3 + 2
        assert all(r.provenance != "numeric" for r in entry.records)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            se.enumerate_metrics(1)
