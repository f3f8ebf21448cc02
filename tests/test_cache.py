"""Structure-constant cache: file format, round trips, load checks, atomic saves."""

import numpy.testing as npt
import pytest

from su_einstein import cache, liealg
from conftest import sc_for


def test_round_trip(tmp_path):
    sc = sc_for(2, 5, 3)
    path = cache.save_structure_constants(tmp_path / "x.sc", sc)
    loaded = cache.load_structure_constants(path)
    assert loaded.d == sc.d
    assert loaded.scheme == 2 and loaded.n == 5 and loaded.p == 3
    npt.assert_array_equal(loaded.f, sc.f)
    npt.assert_array_equal(loaded.gram_diag, sc.gram_diag)
    npt.assert_array_equal(loaded.class_of, sc.class_of)


def test_resave_is_byte_identical(tmp_path):
    sc = sc_for(1, 4)
    p1 = cache.save_structure_constants(tmp_path / "a.sc", sc)
    loaded = cache.load_structure_constants(p1)
    p2 = cache.save_structure_constants(tmp_path / "b.sc", loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_scheme1_header_p_is_read_as_none(tmp_path):
    path = cache.save_structure_constants(tmp_path / "s1.sc", sc_for(1, 4))
    assert path.read_text().split()[2] == "0"
    assert cache.load_structure_constants(path).p is None


def test_save_refuses_the_formed_rows(tmp_path):
    # the f of a verdict is not all of f: no file of it is written
    with pytest.raises(ValueError, match="formed rows"):
        cache.save_structure_constants(tmp_path / "x.sc", liealg.formed_structure_constants(1, 4))
    assert list(tmp_path.iterdir()) == []


def test_filename_convention():
    assert cache.cache_filename(1, 5, None) == "f_s1_n5_p0.sc"
    assert cache.cache_filename(2, 6, 3) == "f_s2_n6_p3.sc"


def test_fetch_computes_then_hits(tmp_path):
    sc1 = cache.fetch_structure_constants(1, 3, None, tmp_path)
    assert (tmp_path / "f_s1_n3_p0.sc").exists()
    sc2 = cache.fetch_structure_constants(1, 3, None, tmp_path)
    npt.assert_array_equal(sc1.f, sc2.f)


def test_fetch_without_dir_computes():
    sc = cache.fetch_structure_constants(1, 2, None, None)
    assert sc.d == 3


def test_header_and_format(tmp_path):
    sc = sc_for(1, 2)
    path = cache.save_structure_constants(tmp_path / "su2.sc", sc)
    lines = path.read_text().splitlines()
    assert lines[0] == "1 2 0 3 6"
    assert len(lines) == 2 + 6
    npt.assert_allclose([float(t) for t in lines[1].split()], [2.0, 2.0, 1.0],
                        atol=1e-14)
    # sparse records: a b c value with 0-based indices
    for line in lines[2:]:
        a, b, c, v = line.split()
        assert 0 <= int(a) < 3 and 0 <= int(b) < 3 and 0 <= int(c) < 3
        float(v)


def test_truncated_file_is_rejected(tmp_path):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
    with pytest.raises(cache.CacheError, match="records, header says"):
        cache.load_structure_constants(path)


@pytest.mark.parametrize("edit,match", [
    (lambda lines: [lines[0].rsplit(" ", 1)[0]] + lines[1:], "malformed"),
    (lambda lines: lines[:2] + ["0 1 99 1.0"] + lines[3:], "outside"),
    (lambda lines: [lines[0], " ".join(["3.0"] * 8)] + lines[2:], "Gram diagonal"),
    (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "in order"),
])
def test_corrupted_file_is_rejected(tmp_path, edit, match):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(cache.CacheError, match=match):
        cache.load_structure_constants(path)


def test_save_is_atomic(tmp_path, monkeypatch):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.save_structure_constants(path, sc_for(1, 4))
    # the old file is untouched and no temporary file is left behind
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.sc"]
