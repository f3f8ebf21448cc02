"""Command-line checks that no other module holds: a few single runs of the
command line, the module entry point, and the runs that read a process's own
resources (peak RSS, an address-space limit), each in a fresh interpreter."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import su_einstein
from su_einstein import cli, solver

ROOT = Path(__file__).resolve().parents[1]

# cli.main on the argv that follows -c, then the child's own peak RSS in kB.
# That is VmHWM, as in perfbench's probes.peak_rss_mb: ru_maxrss survives
# exec, so a child of the test process would report at least the test
# process's resident size (234 MB for a catalog --n 40 whose own peak is
# 91 MB). From a small shell the two read the same.
CHILD = (
    "import sys\n"
    "from su_einstein import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    "sys.exit(code)\n"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(su_einstein.__file__).parents[1]))


def run_child(*argv, preexec_fn=None):
    """``cli.main(argv)`` in a fresh interpreter: its exit code, its stdout,
    its stderr and its own peak RSS in MB."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=child_env(),
                          capture_output=True, text=True, preexec_fn=preexec_fn)
    *out, peak_kb = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), proc.stderr, int(peak_kb) / 1024


def run_json(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def minus_branch_x(n, p):
    x1 = solver.branch_x1(n, p, -1)
    x4, _ = solver.branch_x4_lambda(n, p, x1)
    return ",".join(repr(v) for v in (x1, (n - p) / p * x1, 1.0, x4))


def test_exact_basis_of_the_equal_split(capsys):
    assert cli.main(["basis", "--scheme", "2", "--n", "4", "--p", "2", "--exact"]) == 0


def test_basis_n16_checks_the_jacobi_identity_in_blocks(capsys):
    # the d^4 Jacobi sums run in several blocks of the output index at n = 16
    code, doc = run_json(capsys, "basis", "--scheme", "1", "--n", "16")
    assert code == 0 and doc["results"]["passed"]


def test_empty_su1_block_leaves_only_the_biinvariant_metric(capsys):
    # at (5, 1) every closed form is the bi-invariant metric, x1 reported as 1
    code, doc = run_json(capsys, "solve", "--scheme", "2", "--n", "5", "--p", "1", "--starts", "0")
    r = doc["results"]
    assert code == 0 and len(r) == 1 and r[0]["x"] == [1, 1, 1, 0.1], r


def test_abbreviated_options_and_the_equals_form(capsys):
    # a command's own parser reads its options, abbreviations and --opt=value included
    assert cli.main(["check", "--sch", "1", "--n", "4", "--x=7,1,7", "--form", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "EINSTEIN"


def test_largest_engine_point_is_the_benchmark_reference(capsys):
    # engine-large-n's (9, 4) on the minus branch: EINSTEIN, and I1 is perfbench's value
    I1 = json.loads((ROOT / "perfbench" / "reference.json").read_text())[
        "scheme2_branch_I1"]["9,4,minus"]
    _, doc = run_json(capsys, "check", "--scheme", "2", "--n", "9", "--p", "4",
                      "--x", minus_branch_x(9, 4))
    r = doc["results"]
    assert r["verdict"] == "EINSTEIN" and abs(r["I1"] - I1) <= 1e-8 * I1, (r["verdict"], r["I1"], I1)


def test_relative_residual_accepts_the_40_19_minus_branch(capsys):
    # the residual is relative to lambda, so one --tol holds at the balance constant of n = 40
    code, doc = run_json(capsys, "check", "--scheme", "2", "--n", "40", "--p", "19",
                         "--x", minus_branch_x(40, 19))
    assert code == 0 and doc["results"]["verdict"] == "EINSTEIN", doc["results"]


def test_module_entry_point_returns_mains_exit_codes():
    check = [sys.executable, "-m", "su_einstein.cli", "check", "--scheme", "1", "--n", "4"]
    for x, expected in (("7,1,7", 0), ("1,2,1", 1)):
        assert subprocess.run(check + ["--x", x], env=child_env(),
                              capture_output=True).returncode == expected, x
    usage = subprocess.run(check + ["--x", "7,1,7", "--bogus"], env=child_env(),
                           capture_output=True, text=True)
    assert usage.returncode == 2 and usage.stdout == ""
    assert len(usage.stderr.splitlines()) == 1 and usage.stderr.startswith("error: ")
    # the installed su-einstein script is the same main
    scripts = (ROOT / "pyproject.toml").read_text().split("\n[project.scripts]\n")[1]
    assert scripts.split("\n[")[0].strip() == 'su-einstein = "su_einstein.cli:main"'


def second_family(n: int) -> tuple[str, float]:
    """--x of the scheme-1 second family x1 = x3 = (3n+2)/(n-2), and its I1."""
    X = (3 * n + 2) / (n - 2)
    I1 = (2 * n * n + 3 * n + 2) * (n - 1) * (3 * n + 4) / (n * (5 * n + 6))
    return f"{X!r},1.0,{X!r}", I1


def limit_address_space():
    """2 GB of address space, in the child only."""
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)


def test_check_n64_second_family_in_bounded_memory():
    # |Riem|^2 from its table (no Gamma over all of f, no Riemann rows): below 300 MB
    n = 64
    X = (3 * n + 2) / (n - 2)
    code, out, _, peak_mb = run_child("check", "--scheme", "1", "--n", str(n),
                                      "--x", f"{X!r},1.0,{X!r}", "--format", "json")
    r = json.loads(out)["results"]
    I1 = (2 * n * n + 3 * n + 2) * (n - 1) * (3 * n + 4) / (n * (5 * n + 6))
    assert code == 0 and r["verdict"] == "EINSTEIN" and abs(r["I1"] - I1) <= 1e-8 * I1, (code, r)
    assert peak_mb < 300, peak_mb


def test_catalog_n40_every_closed_form_passes_in_bounded_memory():
    # n - 1 classes, no invalid closed form, and each configuration's f is freed
    # after its configuration
    code, out, _, peak_mb = run_child("catalog", "--n", "40", "--starts", "0", "--format", "json")
    assert code == 0 and peak_mb < 200, (code, peak_mb)
    d = json.loads(out)
    assert d["results"]["count_inequivalent"] == 39, d["results"]["count_inequivalent"]
    bad = {k: v["invalid_closed_forms"]
           for k, v in d["diagnostics"]["configurations"].items() if v["invalid_closed_forms"]}
    assert not bad, bad


def test_check_n128_second_family_in_bounded_memory():
    # f holds only the entries of the formed rows, O(n^2): below 300 MB at n = 128
    x, I1 = second_family(128)
    code, out, _, peak_mb = run_child("check", "--scheme", "1", "--n", "128", "--x", x,
                                      "--format", "json")
    r = json.loads(out)["results"]
    assert code == 0 and r["verdict"] == "EINSTEIN" and abs(r["I1"] - I1) <= 1e-8 * I1, (code, r)
    assert peak_mb < 300, peak_mb


def test_catalog_n64_every_closed_form_passes_in_bounded_memory():
    code, out, _, peak_mb = run_child("catalog", "--n", "64", "--starts", "0", "--format", "json")
    assert code == 0 and peak_mb < 200, (code, peak_mb)
    d = json.loads(out)
    assert d["results"]["count_inequivalent"] == 63, d["results"]["count_inequivalent"]
    bad = {k: v["invalid_closed_forms"]
           for k, v in d["diagnostics"]["configurations"].items() if v["invalid_closed_forms"]}
    assert not bad, bad


def test_check_too_large_for_the_address_space_is_a_usage_error():
    # exit 2 with one error line, not the NOT-EINSTEIN code 1: at n = 20000 one
    # float64 array of length d is 3.2 GB
    code, _, err, _ = run_child("check", "--scheme", "1", "--n", "20000", "--x", "1,1,1",
                                preexec_fn=limit_address_space)
    assert code == 2
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err


def test_check_n300_fits_the_address_space():
    # the f of a verdict is O(n^2): n = 300 runs in the same 2 GB
    code, out, _, _ = run_child("check", "--scheme", "1", "--n", "300", "--x", "1,1,1",
                                "--format", "json", preexec_fn=limit_address_space)
    r = json.loads(out)["results"]
    assert code == 0 and abs(r["I1"] - (300**2 - 1)) <= 1e-8 * (300**2 - 1), (code, r)


def test_bad_x_is_refused_before_f_is_built():
    # the count of --x is checked before any allocation, with the verdict's message
    code, out, err, _ = run_child("check", "--scheme", "1", "--n", "20000", "--x", "1,1",
                                  preexec_fn=limit_address_space)
    assert (code, out, err) == (2, "", "error: --x: expected 3 metric constants, got 2\n")
