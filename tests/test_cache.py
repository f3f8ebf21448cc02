"""Structure-constant cache: file format, round trips, load checks, atomic saves."""

import numpy as np
import numpy.testing as npt
import pytest

from su_einstein import cache, liealg
from conftest import sc_for


def test_round_trip(tmp_path):
    # every file that save writes loads as the rules' f, bit for bit, whether
    # it was written from the rules or from the trace formula of the matrix basis
    path = tmp_path / "x.sc"
    for scheme, n, p in [(1, 2, None), (1, 5, None), (2, 3, 0), (2, 4, 4), (2, 5, 3), (2, 6, 1)]:
        rules = sc_for(scheme, n, p)
        for sc in (liealg.structure_constants(liealg.build_basis(scheme, n, p)), rules):
            loaded = cache.load_structure_constants(cache.save_structure_constants(path, sc))
            assert (loaded.scheme, loaded.n, loaded.p, loaded.d) == (scheme, n, p, rules.d)
            for got, want in ((loaded.nonzeros.values, rules.nonzeros.values),
                              *zip(loaded.nonzeros.index, rules.nonzeros.index),
                              (loaded.gram_diag, rules.gram_diag),
                              (loaded.class_of, rules.class_of)):
                assert got.tobytes() == want.tobytes(), (scheme, n, p)


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


def test_scheme1_header_with_a_p_is_malformed(tmp_path):
    path = cache.save_structure_constants(tmp_path / "s1.sc", sc_for(1, 4))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["1 4 2 " + lines[0].split(" ", 3)[3]] + lines[1:]) + "\n")
    with pytest.raises(cache.CacheError, match="malformed"):
        cache.load_structure_constants(path)


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
    npt.assert_array_equal(np.asarray(sc1.nonzeros), np.asarray(sc2.nonzeros))


def test_fetch_refuses_another_configurations_file(tmp_path):
    # a file under the name of (1, 4) that holds the f of (1, 5)
    cache.save_structure_constants(tmp_path / cache.cache_filename(1, 4, None), sc_for(1, 5))
    with pytest.raises(cache.CacheError,
                       match=r"holds scheme=1 n=5 p=None, not scheme=1 n=4 p=None"):
        cache.fetch_structure_constants(1, 4, None, tmp_path)


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


def test_a_file_that_is_not_utf8_is_malformed(tmp_path):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(cache.CacheError, match="malformed"):
        cache.load_structure_constants(path)


def test_truncated_file_is_rejected(tmp_path):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
    with pytest.raises(cache.CacheError, match="records, header says"):
        cache.load_structure_constants(path)


NOT_SAVED = "not the file that save_structure_constants writes"
# the message of each corruption that the header checks catch; the comparison
# with the rebuilt text catches the others
HEADER_REFUSAL = {"malformed": "malformed", "dimension": "dimension 9"}


@pytest.mark.parametrize("edit,corruption", [
    (lambda lines: [lines[0].rsplit(" ", 1)[0]] + lines[1:], "malformed"),
    (lambda lines: [lines[0].replace(" 8 ", " 9 ")] + lines[1:], "dimension"),
    (lambda lines: lines[:2] + ["0 1 99 1.0"] + lines[3:], "outside"),
    (lambda lines: [lines[0], " ".join(["3.0"] * 8)] + lines[2:], "Gram diagonal"),
    (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "in order"),
])
def test_corrupted_file_is_rejected(tmp_path, edit, corruption):
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 3))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(cache.CacheError, match=HEADER_REFUSAL.get(corruption, NOT_SAVED)):
        cache.load_structure_constants(path)


def _with_value(record, new):
    a, b, c, v = record.split()
    return f"{a} {b} {c} {new(float(v))!r}"


def _first_gram_one_ulp_up(gram_line):
    first, *rest = gram_line.split()
    return " ".join([repr(float(np.nextafter(float(first), np.inf))), *rest])


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:2] + [_with_value(lines[2], lambda v: -v)] + lines[3:],
    lambda lines: lines[:2] + [_with_value(lines[2], lambda v: 2.0 * v)] + lines[3:],
    lambda lines: [lines[0], _first_gram_one_ulp_up(lines[1])] + lines[2:],
], ids=["a value negated", "another finite nonzero value", "a Gram entry one ulp up"])
def test_a_value_save_did_not_write_is_refused(tmp_path, edit):
    # each file has the header's shape, indices and order, and finite nonzero
    # values: only the comparison with the rebuilt text finds it
    path = cache.save_structure_constants(tmp_path / "f.sc", sc_for(1, 4))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(cache.CacheError, match=NOT_SAVED) as refused:
        cache.load_structure_constants(path)
    assert str(path) in str(refused.value) and "delete the file to rebuild it" in str(refused.value)


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
