"""Enumeration and I1 equivalence classes."""

import dataclasses
import gc
import math
import weakref

import pytest

import su_einstein as se
from su_einstein import liealg, solver
from su_einstein.catalog import assign_classes, paper_count

# catalog --n 9..16 --starts 0: the I1 of each class, in order.  The closest
# two, 274.438 and 274.900 at n = 16, lie 1.7e-3 apart (relative).
CLASS_I1 = {
    9: [79.99999999999993, 80.46562258392974, 83.46747651745027, 85.4351812064559,
        87.09590699709425, 92.23300879418723, 94.95732075175285, 103.19825708061013],
    10: [98.99999999999994, 100.79624700366428, 104.63447145174891, 105.75891050981154,
         106.70578348474318, 112.81566041549505, 116.76237262614234, 118.12204558636783,
         126.77142857142854],
    11: [119.99999999999989, 120.4772614785305, 123.83736374479606, 127.98640821391695,
         128.00723020754046, 128.2474954376234, 135.24762122999505, 140.33611398048814,
         142.99715035387572, 152.74217585693],
    12: [142.99999999999991, 144.8615385921855, 149.41923239318604, 151.73307514867105,
         152.10887199879713, 153.467104901352, 159.5521761838631, 165.70934083742176,
         169.61166093555943, 170.94501880583607, 181.11111111111094],
    13: [167.99999999999977, 168.48382972636733, 172.0368735352672, 177.17168102401163,
         177.38751365953456, 178.12744932767288, 180.93164465529853, 185.7475807998754,
         192.90709875829359, 197.99150990061193, 200.620391808307, 211.87865655471265],
    14: [194.99999999999963, 196.89958003878573, 201.8656776870532, 204.57045535352017,
         206.0481887756927, 207.61243147340645, 210.34603336621902, 213.84847586300964,
         221.95014126778474, 228.15977306424338, 232.0408974839844, 233.35923222366935,
         245.04511278195523],
    15: [223.9999999999999, 224.48790532970634, 228.15734547929907, 233.93507781475967,
         234.21255289527016, 235.87923301559016, 239.989661262026, 241.67559034479405,
         243.8668067874443, 252.8558817852154, 260.1368532680973, 265.22492527424987,
         267.83509350894803, 280.6106995884775],
    16: [254.99999999999955, 256.92375429081966, 262.14484399905, 265.27013847595657,
         267.62930210638564, 268.9543023376447, 274.4379351913422, 274.89986588986005,
         275.8124552964931, 285.6390740834087, 293.94073093009905, 300.1903603948081,
         304.059680903479, 305.36860206429475, 318.5755813953495],
}


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

    @pytest.mark.parametrize("n", sorted(CLASS_I1))
    def test_classes_beyond_n8(self, n):
        # classes close to the I1 tolerance: a looser one merges two of them
        entry = se.enumerate_metrics(n, n_starts=0)
        assert entry.count_inequivalent == n - 1 == len(entry.class_I1)
        assert entry.paper_count == paper_count(n)
        assert entry.agreement is (n % 2 == 1)
        assert entry.class_I1 == pytest.approx(CLASS_I1[n], rel=1e-8)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            se.enumerate_metrics(1)


class TestStructureConstantOwnership:
    """Each configuration's f (the formed-row f that its verdicts read) is built
    by its own solver systems, once, and is freed with them: nothing keeps it
    for the rest of the process."""

    @staticmethod
    def spy(monkeypatch):
        built, alive = [], []
        original = liealg.formed_structure_constants

        def formed_structure_constants(scheme, n, p=None):
            sc = original(scheme, n, p)
            built.append((scheme, n, p))
            alive.append(weakref.ref(sc))
            return sc

        monkeypatch.setattr(liealg, "formed_structure_constants", formed_structure_constants)
        return built, alive

    def test_catalog_frees_each_configurations_f(self, monkeypatch):
        built, alive = self.spy(monkeypatch)
        entry = se.enumerate_metrics(8, n_starts=0)
        assert built == [(1, 8, None), (2, 8, 2), (2, 8, 3), (2, 8, 4)]
        gc.collect()
        # the records, still held here, do not hold f either
        assert entry.records and [ref() for ref in alive] == [None] * 4

    def test_solve_at_the_default_starts_builds_f_once(self, monkeypatch):
        built, alive = self.spy(monkeypatch)
        solver.solve_configuration(2, 5, 2)
        assert built == [(2, 5, 2)]
        gc.collect()
        assert alive[0]() is None


class TestAsDict:
    def test_keys_are_the_fields(self):
        entry = se.enumerate_metrics(4, n_starts=0)
        record = entry.records[0].as_dict()
        assert list(record) == ["lambda" if f.name == "lam" else f.name
                                for f in dataclasses.fields(se.EinsteinRecord)]
        assert record["lambda"] == entry.records[0].lam
        assert isinstance(record["x"], list)
        d = entry.as_dict()
        assert list(d) == [f.name for f in dataclasses.fields(se.CatalogEntry)]
        assert d["records"] == [r.as_dict() for r in entry.records]
