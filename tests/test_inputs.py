"""Bad input fails loudly, once, where the library takes it.

``liealg.class_sizes`` checks a basis configuration (scheme, n, p),
``solver.EinsteinSystem`` adds the solving rule 1 <= p <= n-1 for scheme 2,
and ``curvature.einstein_verdict`` checks the metric constants x and the
tolerance.  Every other function and the command line reach these checks and
add none; the command line keeps its own ``--tol`` message.
"""

import json
import math
import re

import numpy as np
import pytest

from su_einstein import catalog, cli, curvature, liealg, solver
from conftest import sc_for

CALLS = {
    "class_sizes": lambda s, n, p: liealg.class_sizes(s, n, p),
    "build_basis": lambda s, n, p: liealg.build_basis(s, n, p),
    "structure_constants_of": lambda s, n, p: liealg.structure_constants_of(s, n, p),
    "EinsteinSystem": lambda s, n, p: solver.EinsteinSystem(s, n, p),
    "closed_form_scheme1": lambda s, n, p: solver.closed_form_scheme1(n),
    "closed_form_scheme2": lambda s, n, p: solver.closed_form_scheme2(n, p),
    "solve_configuration": lambda s, n, p: solver.solve_configuration(s, n, p, n_starts=0),
    "enumerate_metrics": lambda s, n, p: catalog.enumerate_metrics(n, n_starts=0),
}
SOLVING = ("EinsteinSystem", "solve_configuration")

# (scheme, n, p), the quoted value, and the functions that take the bad part of it
BAD = [
    ((2, 5, None), "p=None", ("class_sizes", "build_basis", "structure_constants_of", "closed_form_scheme2") + SOLVING),
    ((3, 5, 2), "scheme 3", ("class_sizes", "build_basis", "structure_constants_of") + SOLVING),
    ((1, 0, None), "n=0", ("class_sizes", "build_basis", "structure_constants_of", "closed_form_scheme1",
                           "enumerate_metrics") + SOLVING),
    ((1, 5, 3), "p=3", ("class_sizes", "build_basis", "structure_constants_of") + SOLVING),
    ((2, 4, 5), "p=5", ("class_sizes", "build_basis", "structure_constants_of", "closed_form_scheme2") + SOLVING),
    # a basis, but not a system to solve: the balance class is empty
    ((2, 5, 0), "p=0", ("closed_form_scheme2",) + SOLVING),
]
LIBRARY_CASES = [(config, quoted, name) for config, quoted, names in BAD for name in names]


@pytest.mark.parametrize("config,quoted,name", LIBRARY_CASES,
                         ids=[f"{name}{config}" for config, _, name in LIBRARY_CASES])
def test_library_rejects_bad_configuration(config, quoted, name):
    with pytest.raises(ValueError, match=re.escape(quoted)):
        CALLS[name](*config)


def _cli_cases() -> list[str]:
    """The commands that take each bad configuration; the parser's choices
    reject scheme 3 before any check."""
    cases = []
    for (scheme, n, p), _, names in BAD:
        if scheme == 3:
            continue
        flags = f"--scheme {scheme} --n {n}" + ("" if p is None else f" --p {p}")
        if "build_basis" in names:
            x = ",".join(["1"] * (3 if scheme == 1 else 4))
            cases += [f"basis {flags}", f"check {flags} --x {x}"]
        cases.append(f"solve {flags} --starts 0")
        if "enumerate_metrics" in names:
            cases.append(f"catalog --n {n} --starts 0")
    return cases


CLI_CASES = _cli_cases() + ["solve --scheme 2 --n 5 --p 0"]  # and at the default --starts


@pytest.mark.parametrize("command", CLI_CASES)
def test_cli_rejects_bad_configuration(capsys, command):
    argv = command.split()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the message names the flags as given
    assert f"--n {argv[argv.index('--n') + 1]}" in captured.err


def test_scheme1_records_carry_no_p():
    assert solver.EinsteinSystem(1, 5).p is None
    records = solver.solve_configuration(1, 4, n_starts=20).records
    assert records and all(rec.p is None for rec in records)


@pytest.mark.parametrize("x,quoted", [
    ((7.0, -1.0, 7.0), "(7.0, -1.0, 7.0)"),
    ((0.0, 1.0, 7.0), "(0.0, 1.0, 7.0)"),
    ((7.0, math.nan, 7.0), "(7.0, nan, 7.0)"),
])
def test_verdict_quotes_the_callers_x(x, quoted):
    with pytest.raises(ValueError, match="finite and strictly positive") as info:
        curvature.einstein_verdict(sc_for(1, 4), x)
    assert quoted in str(info.value) and "0.875" not in str(info.value)


TOL_CALLS = {
    "einstein_verdict": lambda tol: curvature.einstein_verdict(sc_for(1, 4), (7.0, 1.0, 7.0), tol),
    "invariant_I1": lambda tol: curvature.invariant_I1(sc_for(1, 4), (7.0, 1.0, 7.0), tol),
    "record": lambda tol: solver.EinsteinSystem(1, 4).record((7.0, 1.0, 7.0), 13 / 98,
                                                             engine_tol=tol),
    "solve_configuration": lambda tol: solver.solve_configuration(1, 4, n_starts=0,
                                                                  engine_tol=tol),
}


@pytest.mark.parametrize("name", TOL_CALLS)
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bad_tol_raises_instead_of_deciding_the_verdict(name, tol):
    # (7, 1, 7) at n = 4 is Einstein; a bad tol must not turn it into NOT EINSTEIN
    with pytest.raises(ValueError, match="tol must be finite and strictly positive"):
        TOL_CALLS[name](tol)


def test_validate_basis_reports_a_bad_configuration_without_raising():
    good = liealg.build_basis(1, 3)
    for scheme, p in ((1, 2), (3, None)):
        bad = liealg.GeneratorBasis(n=3, scheme=scheme, p=p, generators=good.generators.copy(),
                                    class_of=good.class_of.copy())
        report = liealg.validate_basis(bad)
        assert not report.passed
        assert any(prob.startswith("bad configuration") for prob in report.problems)


@pytest.mark.parametrize("config", [(1, 3, None), (1, 7, None), (2, 7, 3), (2, 6, 2)])
def test_basis_json_groups_gram_values_like_the_table(capsys, config):
    scheme, n, p = config
    flags = ["basis", "--scheme", str(scheme), "--n", str(n)]
    flags += [] if p is None else ["--p", str(p)]
    assert cli.main(flags) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("gram diagonal"))
    assert cli.main(flags + ["--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)["results"]["gram_diagonal_values"]
    assert line == "gram diagonal: " + ", ".join(f"{v['value']:g} x{v['count']}" for v in values)
    assert sum(v["count"] for v in values) == liealg.build_basis(scheme, n, p).dim
    if config == (1, 3, None):
        assert values == [{"count": 2, "value": 1}, {"count": 6, "value": 2}]


@pytest.mark.parametrize("config", [(1, 4, None), (2, 5, 2)])
def test_gram_is_kept_as_its_diagonal(config):
    sc = sc_for(*config)
    assert sc.gram_diag.shape == (sc.d,) and not sc.gram_diag.flags.writeable
    T = liealg.build_basis(*config).generators
    assert np.array_equal(sc.gram_diag, np.real(np.einsum("aij,aji->a", T, T)))
