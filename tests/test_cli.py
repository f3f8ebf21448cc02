"""CLI surface: commands, exit codes, JSON canonicality, CSV."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import su_einstein
from su_einstein import cli, curvature, liealg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counted_structure_constants(monkeypatch) -> list:
    """Record the n of every structure-constant build from here on."""
    built = []
    original = liealg.structure_constants

    def counted(basis):
        built.append(basis.n)
        return original(basis)

    monkeypatch.setattr(liealg, "structure_constants", counted)
    return built


def counted_rule_builds(monkeypatch) -> list:
    """Record the n of every ``structure_constants_of`` call from here on."""
    built = []
    original = liealg.structure_constants_of

    def counted(scheme, n, p=None):
        built.append(n)
        return original(scheme, n, p)

    monkeypatch.setattr(liealg, "structure_constants_of", counted)
    return built


class TestBasis:
    def test_scheme1_n3(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "1", "--n", "3")
        assert code == 0
        assert "class sizes: 3/3/2" in out
        assert "status: PASS" in out

    def test_scheme2_n4_p2(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "2", "--n", "4", "--p", "2")
        assert code == 0
        assert "class sizes: 3/3/8/1" in out

    def test_p_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "basis", "--scheme", "2", "--n", "4", "--p", "5")
        assert code == 2
        assert "error" in err

    def test_p_with_scheme1_is_usage_error(self, capsys):
        code, _, err = run(capsys, "basis", "--scheme", "1", "--n", "4", "--p", "2")
        assert code == 2

    def test_scheme2_without_p_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "basis", "--scheme", "2", "--n", "4")
        assert code == 2

    def test_exact_flag(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "1", "--n", "2", "--exact")
        assert code == 0
        assert "exact validation: PASS" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "1", "--n", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["passed"] is True
        assert doc["results"]["class_sizes"] == [3, 3, 2]

    def test_exact_json_reports_the_basis_match(self, capsys):
        code, out, _ = run(capsys, "basis", "--scheme", "2", "--n", "3", "--p", "1",
                           "--exact", "--format", "json")
        assert code == 0
        exact = json.loads(out)["results"]["exact"]
        assert exact["matches_basis"] is True and exact["all_passed"] is True

    def test_structure_constants_built_once(self, capsys, monkeypatch):
        built = counted_structure_constants(monkeypatch)
        code, out, _ = run(capsys, "basis", "--scheme", "1", "--n", "6")
        assert code == 0 and "status: PASS" in out
        assert built == [6]


class TestCheck:
    def test_einstein_point(self, capsys):
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", "4",
                           "--x", "7,1,7")
        assert code == 0
        assert "verdict: EINSTEIN" in out
        assert "0.1326530612" in out

    def test_biinvariant_json_values(self, capsys):
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", "4",
                           "--x", "1,1,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["lambda"] == pytest.approx(0.5, rel=1e-12)
        assert doc["results"]["I1"] == pytest.approx(15.0, rel=1e-8)
        assert doc["results"]["verdict"] == "EINSTEIN"

    @pytest.mark.parametrize("x", ["7,1,7", "1,2,1"])
    def test_one_ricci_per_check(self, capsys, monkeypatch, x):
        # the Ricci diagonal once per verdict, |Riem|^2 only for an Einstein
        # verdict, and Gamma over all of f never (|Riem|^2 reads its table)
        calls = {"_ricci_diagonal": 0, "levi_civita": 0, "riemann_norm_sq": 0}
        for name in calls:
            original = getattr(curvature, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(curvature, name, counted)
        code, _, _ = run(capsys, "check", "--scheme", "1", "--n", "4", "--x", x)
        assert code == (0 if x == "7,1,7" else 1)
        assert calls == {"_ricci_diagonal": 1, "levi_civita": 0,
                         "riemann_norm_sq": int(code == 0)}

    def test_every_check_builds_structure_constants(self, capsys, monkeypatch):
        traced = counted_structure_constants(monkeypatch)
        built = counted_rule_builds(monkeypatch)
        for _ in range(2):
            code, _, _ = run(capsys, "check", "--scheme", "1", "--n", "5", "--x", "1,1,1")
            assert code == 0
        assert built == [5, 5]
        assert traced == []

    def test_non_einstein_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", "4",
                           "--x", "2,1,1")
        assert code == 1
        assert "verdict: NOT-EINSTEIN" in out
        assert "residual" in out

    def test_wrong_arity_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--scheme", "1", "--n", "4",
                           "--x", "7,1")
        assert code == 2

    def test_nonpositive_x_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--scheme", "1", "--n", "4",
                         "--x", "7,-1,7")
        assert code == 2

    @pytest.mark.parametrize("x", ["nan,1,1", "inf,1,1", "7,1,-inf"])
    def test_non_finite_x_usage_error(self, capsys, x):
        code, out, err = run(capsys, "check", "--scheme", "1", "--n", "4", "--x", x)
        assert code == 2
        assert "finite" in err
        assert "verdict" not in out

    @pytest.mark.parametrize("scale", ["e300", "e-300", "e306"])
    def test_scale_invariant(self, capsys, scale):
        # the n = 3 second family (11, 1, 11): lambda = 63/968, I1 = 754/63
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", "3",
                           "--x", f"11{scale},1{scale},11{scale}", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["verdict"] == "EINSTEIN"
        assert results["I1"] == pytest.approx(754 / 63, abs=1e-8)
        assert results["lambda"] == pytest.approx(63 / 968 / float(f"1{scale}"), rel=1e-10)

    @pytest.mark.parametrize("x", ["1e308,1,1e-308", "1e-200,1,1e-200", "1e-300,1e-310,1e-300"])
    def test_unrepresentable_x_usage_error(self, capsys, x):
        code, out, err = run(capsys, "check", "--scheme", "1", "--n", "3", "--x", x)
        assert code == 2
        assert err.startswith("error: ")
        assert "verdict" not in out

    def test_overflowing_curvature_prints_only_the_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run(capsys, "check", "--scheme", "1", "--n", "3",
                                 "--x", "1e-200,1,1e-200")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_unrepresentable_I1_prints_only_the_error(self, capsys):
        # residual and lambda are finite, but |Riem|^2 overflows: exit 2, not 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "check", "--scheme", "1", "--n", "3",
                                 "--x", "1,1e-110,1", "--tol", "1e300")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        # lambda at the user's x, not at the evaluated x * 2^-1
        assert "2.34375e+108" in err and "4.6875e+108" not in err

    def test_negative_lambda_is_not_einstein(self, capsys):
        # the residual is below --tol, but lambda = -8: no Einstein metric of SU(2)
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", "2",
                           "--x", "1,1,100", "--tol", "1e9")
        assert code == 1
        assert "verdict: NOT-EINSTEIN" in out and "I1" not in out

    def test_scheme2_check(self, capsys):
        code, out, _ = run(capsys, "check", "--scheme", "2", "--n", "4",
                           "--p", "2", "--x", "1,1,1,0.125")
        assert code == 0
        assert "EINSTEIN" in out

    @pytest.mark.parametrize("n", [20, 32, 48])
    def test_second_family(self, capsys, n):
        # x1 = x3 = (3n+2)/(n-2): lambda and I1 from the Ricci diagonal and the
        # |Riem|^2 table match their closed forms
        X = (3 * n + 2) / (n - 2)
        lam = n * (n - 2) * (5 * n + 6) / (8 * (3 * n + 2) ** 2)
        I1 = (2 * n * n + 3 * n + 2) * (n - 1) * (3 * n + 4) / (n * (5 * n + 6))
        code, out, _ = run(capsys, "check", "--scheme", "1", "--n", str(n),
                           "--x", f"{X!r},1,{X!r}", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["verdict"] == "EINSTEIN"
        assert abs(results["lambda"] - lam) <= 1e-10 and abs(results["I1"] - I1) <= 1e-8


def test_basis_and_check_do_not_import_solver_or_catalog():
    code = (
        "import sys, su_einstein\n"
        "print(sorted(m for m in sys.modules if m.startswith('su_einstein.')))\n"
        "from su_einstein import cli\n"
        "assert cli.main(['basis', '--scheme', '1', '--n', '3']) == 0\n"
        "assert cli.main(['check', '--scheme', '1', '--n', '4', '--x', '7,1,7']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('su_einstein', 'sympy'))))\n"
        "import su_einstein as se\n"
        "from su_einstein import solver\n"
        "print(se.solve_configuration is solver.solve_configuration)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(su_einstein.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    bare, loaded, same = lines[0], lines[-2], lines[-1]
    assert bare == "[]"  # the package alone loads no submodule
    # the EINSTEIN check reads the |Riem|^2 table
    assert loaded == str(["su_einstein", "su_einstein._riemann_table", "su_einstein.cli",
                          "su_einstein.curvature", "su_einstein.liealg", "su_einstein.sparse"])
    assert same == "True"


def test_cli_and_basis_do_not_import_the_riemann_table():
    # every fresh interpreter that imports cli and runs basis compiles what it
    # imports when bytecode is not written, so the table loads with the first I1 only
    code = (
        "import sys\n"
        "from su_einstein import cli\n"
        "print('table loaded:', 'su_einstein._riemann_table' in sys.modules)\n"
        "assert cli.main(['basis', '--scheme', '1', '--n', '3']) == 0\n"
        "print('table loaded:', 'su_einstein._riemann_table' in sys.modules)\n"
        "assert cli.main(['check', '--scheme', '1', '--n', '4', '--x', '1,2,1']) == 1\n"
        "print('table loaded:', 'su_einstein._riemann_table' in sys.modules)\n"
        "assert cli.main(['check', '--scheme', '1', '--n', '4', '--x', '7,1,7']) == 0\n"
        "print('table loaded:', 'su_einstein._riemann_table' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(su_einstein.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = [line.split()[-1] for line in proc.stdout.splitlines()
              if line.startswith("table loaded:")]
    assert loaded == ["False", "False", "False", "True"]


PUBLIC_NAMES = [
    "CatalogEntry", "EinsteinRecord", "EinsteinSystem", "GeneratorBasis",
    "MetricSpec", "StructureConstants", "build_basis", "build_scheme1_basis",
    "build_scheme2_basis", "class_ricci_eigenvalues", "closed_form_scheme1",
    "closed_form_scheme2", "einstein_residual", "einstein_verdict",
    "enumerate_metrics", "exact_validate", "frame_weights", "invariant_I1", "levi_civita",
    "lower_riemann", "multistart_search", "newton_solve", "paper_count", "ricci",
    "riem_norm_sq", "riemann", "scheme1_system", "scheme2_system", "solve_configuration",
    "structure_constants", "structure_constants_of", "validate_basis",
]


def test_lazy_package_names():
    assert sorted(su_einstein.__all__) == PUBLIC_NAMES
    listed = dir(su_einstein)
    for name in PUBLIC_NAMES:
        assert getattr(su_einstein, name) is not None
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        su_einstein.no_such_name


@pytest.mark.parametrize("module,name", [("curvature", "einstein_verdict"),
                                         ("solver", "newton_solve")])
def test_package_names_follow_their_module(monkeypatch, module, name):
    owner = getattr(su_einstein, module)
    original = getattr(owner, name)
    replacement = object()
    monkeypatch.setattr(owner, name, replacement)
    assert getattr(su_einstein, name) is replacement
    monkeypatch.undo()
    assert getattr(su_einstein, name) is original


class TestSolve:
    def test_scheme1_n5(self, capsys):
        code, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "5",
                           "--starts", "150", "--seed", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 2
        i1s = sorted(r["I1"] for r in doc["results"])
        assert i1s[0] == pytest.approx(24.0, rel=1e-8)
        assert i1s[1] == pytest.approx(5092 / 155, rel=1e-8)

    def test_scheme2_n5_p3(self, capsys):
        code, out, _ = run(capsys, "solve", "--scheme", "2", "--n", "5", "--p", "3",
                           "--starts", "400", "--seed", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 3

    def test_scheme2_q1(self, capsys):
        code, out, _ = run(capsys, "solve", "--scheme", "2", "--n", "5", "--p", "4",
                           "--starts", "150", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["results"]) == 1

    def test_negative_starts_usage_error(self, capsys):
        code, out, err = run(capsys, "solve", "--scheme", "1", "--n", "3", "--starts", "-5")
        assert code == 2
        assert "--starts" in err
        assert out == ""

    def test_p_equal_n_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--scheme", "2", "--n", "5", "--p", "5")
        assert code == 2
        assert "scheme-1" in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "3",
                           "--starts", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["scheme", "n", "p"]
        assert len(rows) == 3  # header + 2 records

    def test_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "3",
                           "--starts", "100")
        assert code == 0
        assert "distinct Einstein metric(s)" in out
        assert "WARNING" not in out

    def test_table_warns_about_closed_forms_the_engine_rejects(self, capsys):
        # the bi-invariant closed form has residual 0 exactly, so it passes
        code, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "3", "--tol", "1e-300")
        assert code == 0
        assert "1 distinct Einstein metric(s)" in out
        assert out.splitlines()[-1] == (
            "WARNING: closed forms failed the engine: closed_form_2")
        code, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "3", "--tol", "1e-300",
                           "--format", "json")
        assert code == 0 and "WARNING" not in out
        doc = json.loads(out)
        assert [r["provenance"] for r in doc["results"]] == ["closed_form_1"]
        assert doc["diagnostics"]["invalid_closed_forms"] == ["closed_form_2"]


class TestCatalog:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "catalog", "--n", "3", "--starts", "150",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count_inequivalent"] == 2
        assert doc["results"]["agreement"] is True

    def test_n4_discrepancy_flagged(self, capsys):
        code, out, _ = run(capsys, "catalog", "--n", "4", "--starts", "200",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count_inequivalent"] == 3
        assert doc["results"]["paper_count"] == 5
        assert doc["results"]["agreement"] is False

    def test_negative_starts_usage_error(self, capsys):
        code, out, err = run(capsys, "catalog", "--n", "3", "--starts", "-1")
        assert code == 2
        assert "--starts" in err
        assert out == ""

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "catalog", "--n", "3", "--starts", "120")
        assert code == 0
        assert "inequivalent classes (by I1): 2" in out
        assert "agreement: True" in out
        assert "WARNING" not in out

    def test_table_warns_about_closed_forms_the_engine_rejects(self, capsys):
        # the (4, 2) bi-invariant and + branch closed forms have residual 0, so they pass
        code, out, _ = run(capsys, "catalog", "--n", "4", "--starts", "0", "--tol", "1e-300")
        assert code == 0
        assert out.splitlines()[-1] == (
            "WARNING: closed forms failed the engine: scheme1 closed_form_1, "
            "scheme1 closed_form_2, scheme2_p2 closed_form_2_minus")


class TestJsonCanonical:
    def test_round_trip_byte_identical(self, capsys):
        _, out, _ = run(capsys, "check", "--scheme", "1", "--n", "4",
                        "--x", "7,1,7", "--format", "json")
        reparsed = cli.canonical_json(json.loads(out))
        assert reparsed == out.rstrip("\n")

    def test_solve_round_trip(self, capsys):
        _, out, _ = run(capsys, "solve", "--scheme", "1", "--n", "3",
                        "--starts", "100", "--format", "json")
        assert cli.canonical_json(json.loads(out)) == out.rstrip("\n")

    def test_keys_sorted(self):
        s = cli.canonical_json({"b": 1, "a": {"d": 2.5, "c": None}})
        assert s.index('"a"') < s.index('"b"')
        assert s.index('"c"') < s.index('"d"')

    def test_float_17_digits(self):
        s = cli.canonical_json({"v": 1 / 3})
        assert "0.33333333333333331" in s


@pytest.mark.parametrize("argv", [
    ["basis", "--scheme", "1", "--n", "3"],
    ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7"],
    ["solve", "--scheme", "1", "--n", "3", "--starts", "10"],
    ["catalog", "--n", "3", "--starts", "10"],
], ids=lambda argv: argv[0])
def test_cache_dir_is_a_usage_error(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


BAD_VALUE_ARGV = {
    "check": ["check", "--scheme", "1", "--n", "4", "--x", "7,1,3"],
    "solve": ["solve", "--scheme", "1", "--n", "3", "--starts", "10"],
    "catalog": ["catalog", "--n", "3", "--starts", "10"],
}


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["check", "solve", "catalog"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run(capsys, *BAD_VALUE_ARGV[command], f"--tol={tol}")
    assert code == 2
    assert "--tol" in err
    assert out == ""


@pytest.mark.parametrize("n,tol", [(3, None), (3, 1e-6), (4, 1e-7)], ids=["None", "1e-06", "1e-07"])
@pytest.mark.parametrize("command", ["solve", "catalog"])
def test_params_record_the_tol(capsys, command, n, tol):
    argv = (["solve", "--scheme", "1"] if command == "solve" else ["catalog"])
    argv += ["--n", str(n), "--starts", "0", "--format", "json"]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    expected = {"n": n, "seed": 0, "starts": 0,
                "tol": curvature.DEFAULT_EINSTEIN_TOL if tol is None else tol}
    if command == "solve":
        expected["scheme"] = 1
    assert json.loads(out)["params"] == expected


@pytest.mark.parametrize("command", ["solve", "catalog"])
def test_negative_seed_usage_error(capsys, command):
    code, out, err = run(capsys, *BAD_VALUE_ARGV[command], "--seed", "-1")
    assert code == 2
    assert "--seed" in err
    assert out == ""


class TestParserReuse:
    CHECK = ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7", "--format", "json"]

    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        for _ in range(3):
            assert run(capsys, *self.CHECK)[0] == 0
        assert len(built) == 1
        assert original() is not original()
        # the command table belongs to the parser: resetting one rebuilds both
        table = cli._parser.commands
        assert list(table) == list(cli._DISPATCH)
        monkeypatch.setattr(cli, "_parser", None)
        assert run(capsys, *self.CHECK)[0] == 0
        assert len(built) == 2
        assert cli._parser.commands is not table
        assert all(cli._parser.commands[name] is not table[name] for name in table)

    def test_option_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, *self.CHECK, "--tol", "1e-3")
        assert code == 0 and json.loads(out)["diagnostics"]["tol"] == 1e-3
        code, out, _ = run(capsys, *self.CHECK)
        assert code == 0
        assert json.loads(out)["diagnostics"]["tol"] == curvature.DEFAULT_EINSTEIN_TOL

    def test_usage_error_then_valid_call_matches_a_fresh_process(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check", "--scheme", "3", "--n", "4", "--x", "7,1,7"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *self.CHECK)
        env = dict(os.environ, PYTHONPATH=str(Path(su_einstein.__file__).parents[1]))
        fresh = subprocess.run([sys.executable, "-m", "su_einstein.cli", *self.CHECK],
                               env=env, capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout)


ENGINE_RUNS = [
    ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7", "--format", "json"],
    ["solve", "--scheme", "2", "--n", "5", "--p", "2", "--starts", "20"],
    ["catalog", "--n", "4"],
    ["catalog", "--n", "4", "--format", "json"],
    # at (5, 1) the su(1) block is empty
    ["solve", "--scheme", "2", "--n", "5", "--p", "1", "--starts", "50", "--format", "json"],
]


def test_no_engine_path_builds_the_dense_generators(capsys, monkeypatch):
    expected = [run(capsys, *argv)[:2] for argv in ENGINE_RUNS]

    def refuse(*args, **kwargs):
        raise AssertionError("an engine path built the dense generators")

    monkeypatch.setattr(liealg, "_generators", refuse)
    for argv, (code, out) in zip(ENGINE_RUNS, expected):
        assert code == 0
        assert run(capsys, *argv)[:2] == (0, out)


@pytest.mark.parametrize("argv", [
    ["basis", "--scheme", "3", "--n", "5"],
    ["basis", "--scheme", "1"],
    ["basis", "--scheme", "2", "--n", "5", "--p", "x"],
    ["check", "--scheme", "1", "--n", "4"],
    [],
    ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7", "--bogus", "1"],
    ["chek", "--scheme", "1", "--n", "4", "--x", "7,1,7"],
    ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7", "--bogus"],
], ids=["bad-choice", "missing-n", "non-integer-p", "missing-x", "no-command", "unknown-option",
        "unknown-command", "unknown-flag"])
def test_parser_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    # the line is the full parser's, whichever parser read the argv
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 715. MiB")])
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, error):
    # a run too large for the host is not the NOT-EINSTEIN code 1
    def too_large(*args, **kwargs):
        raise error

    monkeypatch.setattr(liealg, "structure_constants_of", too_large)
    code, out, err = run(capsys, "check", "--scheme", "1", "--n", "300", "--x", "1,1,1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("error", [RuntimeError("a defect\non two lines"), RuntimeError()])
def test_internal_error_exits_3_with_one_line(capsys, monkeypatch, error):
    # an unexpected exception is neither a verdict (1) nor a usage error (2)
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(liealg, "structure_constants_of", broken)
    code, out, err = run(capsys, "check", "--scheme", "1", "--n", "4", "--x", "7,1,7")
    assert code == 3
    assert out == ""
    assert err == ("error: internal error: RuntimeError: a defect on two lines\n" if str(error)
                   else "error: internal error: RuntimeError\n")
    # an argparse SystemExit is not an internal error: it still exits 2
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["check", "--scheme", "1", "--n", "4", "--x", "7,1,7", "--bogus"])
    assert exit_info.value.code == 2


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["basis", "--help"])
    assert exit_info.value.code == 0
    assert "--scheme" in capsys.readouterr().out


# every command, long and abbreviated options, the --opt=value form and option order
DISPATCH_ARGV = [
    ["basis", "--scheme", "1", "--n", "3"],
    ["basis", "--scheme", "2", "--n", "4", "--p", "2", "--exact", "--format", "json"],
    ["basis", "--n", "5", "--ex", "--sch", "1"],
    ["check", "--scheme", "1", "--n", "4", "--x", "7,1,7"],
    ["check", "--sch", "1", "--n", "4", "--x=7,1,7", "--form", "json"],
    ["check", "--scheme=2", "--n=4", "--p=2", "--x", "1,1,1,0.125", "--tol", "1e-6"],
    ["check", "--tol=1e-3", "--x", "2,1,1", "--n", "3", "--scheme", "1", "--f", "table"],
    ["solve", "--scheme", "1", "--n", "3", "--starts", "10", "--seed", "3", "--format", "csv"],
    ["solve", "--sc", "2", "--n", "5", "--p", "3", "--st", "0"],
    ["catalog", "--n", "3", "--starts", "0", "--tol", "1e-7"],
    ["catalog", "--format", "csv", "--n", "4", "--se", "5"],
]


class TestParseDispatch:
    """``main`` hands a command's argv to that command's parser; the namespace
    must be the one the full parser gives, attribute for attribute."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        seen = []

        def record(args):
            seen.append(argparse.Namespace(**vars(args)))

        monkeypatch.setattr(cli, "_validate", record)
        monkeypatch.setattr(cli, "_DISPATCH", {name: lambda args: 0 for name in cli._DISPATCH})
        return seen

    def test_namespace_equals_the_full_parser(self, parsed):
        # twice through the table: no option of one call carries over to the next
        # (the second pass parses check without --tol after two checks with one)
        for argv in DISPATCH_ARGV * 2:
            assert cli.main(list(argv)) == 0
            expected = cli.build_parser().parse_args(argv)
            assert parsed[-1] == expected
            assert list(vars(parsed[-1])) == list(vars(expected))
        assert len(parsed) == 2 * len(DISPATCH_ARGV)

    @pytest.mark.parametrize("argv", DISPATCH_ARGV[3:6], ids=lambda argv: " ".join(argv))
    def test_main_without_argv_reads_sys_argv(self, parsed, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["su-einstein", *argv])
        assert cli.main() == 0
        assert parsed == [cli.build_parser().parse_args(argv)]

    def test_command_argv_skips_the_full_parser(self, parsed, monkeypatch):
        cli.main(["basis", "--scheme", "1", "--n", "3"])  # builds the parser

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser read a command's argv")

        monkeypatch.setattr(cli._parser, "parse_args", refuse)
        for argv in DISPATCH_ARGV:
            assert cli.main(list(argv)) == 0
        with pytest.raises(AssertionError, match="full parser"):
            cli.main(["--help"])

    @pytest.mark.parametrize("argv", [["check", "-h"], ["solve", "--help"], ["catalog", "--he"],
                                      ["-h"], ["--help"]], ids=" ".join)
    def test_help_is_the_full_parsers(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr() == captured
        assert captured.out.startswith("usage: su-einstein")
