"""Mutation gate: every listed mutant of the engine fails a fast subset of Tier-1.

    python tests/mutation_gate.py

Each entry of MUTANTS is (file under src/su_einstein, exact old text, new
text, why).  For each one the gate copies src/ and tests/ to a temporary
directory, replaces the old text, which must occur exactly once, and runs
SUBSET there with ``pytest -x``; the mutant is killed when a test fails.  The
mutants in ORACLE_KILLS must also be killed by tests/test_matrix_oracle.py
alone, the oracle that shares no code with the engine.  A mutant that survives
and changes no command-line output belongs in EQUIVALENT, with the reason;
there is none today.  An unmutated copy runs SUBSET as well and must pass.
The runs go two at a time, each in its own copy.  Exits 1 on any survivor
outside EQUIVALENT, and on an old text that is not found exactly once.
pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Tier-1 files that kill the mutants below quickly; the slowest Tier-1 test,
# test_closed_forms_at_large_n of tests/test_riemann_table.py, is not among them
SUBSET = ["tests/test_acceptance.py", "tests/test_solver.py", "tests/test_matrix_oracle.py",
          "tests/test_catalog.py", "tests/test_cli.py"]
ORACLE = ["tests/test_matrix_oracle.py"]

MUTANTS = [
    # the line search's acceptance mask, one clause each
    ("solver.py", "return (trial > 0).all(axis=0) & ((norm <= rnorm[start])",
     "return ((norm <= rnorm[start])", "a trial is accepted without being positive"),
    ("solver.py", "((norm <= rnorm[start])", "((norm < rnorm[start])",
     "a trial whose residual equals the last one is rejected"),
    ("solver.py", "((j >= _SMALL_HALVING) & forced[start])", "(j >= _SMALL_HALVING)",
     "a start off the root takes forced steps"),
    ("solver.py", "_HALVINGS <= 1e-8", "_HALVINGS <= 1e-9",
     "forced steps start at 2^-30, not 2^-27"),
    ("solver.py", "(j >= _SMALL_HALVING)", "(j > _SMALL_HALVING)",
     "forced steps start one halving late"),
    ("solver.py", "if trial.min() > 0 and (norms <= rnorm).all():",
     "if (norms <= rnorm).all():", "the fast path returns a trial that is not positive"),
    # the engine
    ("curvature.py", "(y[c] - y[a] + y[b])", "(y[c] - y[a] - y[b])",
     "a wrong sign in the Koszul factor of every Gamma"),
    ("curvature.py", "2.0 * float(p * (n - p) * n) ** 2", "4.0 * float(p * (n - p) * n) ** 2",
     "the balance generator's frame weight doubled"),
    ("_riemann_table.py", "((-3, 0, 1), (16, -24, 8, 0)),", "((-3, 0, 1), (16, -24, 9, 0)),",
     "one integer of the scheme-1 |Riem|^2 table"),
    ("liealg.py", "_TRIANGLE_IM = np.array([-1.0, 1.0, 1.0, 1.0])",
     "_TRIANGLE_IM = np.array([1.0, 1.0, 1.0, 1.0])",
     "one sign of the triangle bracket rule"),
    ("curvature.py", "lam = math.ldexp(lam_unit, -k)", "lam = math.ldexp(lam_unit, 1 - k)",
     "lambda rescaled from x * 2^-k by the wrong power of two"),
    ("curvature.py", "scale = lam_unit if lam_unit > 0 else np.abs(r).max()",
     "scale = np.abs(r).max()", "the residual relative to max |r_k|, not lambda"),
    # the catalog and the command line
    ("catalog.py", "return n + 1 if n % 2 == 0 else n - 1",
     "return n + 1 if n % 2 == 1 else n - 1", "the paper's count with odd and even n swapped"),
    ("cli.py", "return 1 if I1 is None else 0", "return 0",
     "check exits 0 on a metric that is not Einstein"),
]
ORACLE_KILLS = {"(y[c] - y[a] + y[b])", "2.0 * float(p * (n - p) * n) ** 2",
                "((-3, 0, 1), (16, -24, 8, 0)),",
                "_TRIANGLE_IM = np.array([-1.0, 1.0, 1.0, 1.0])"}
EQUIVALENT: dict[str, str] = {}  # old text -> why the mutant changes no command-line output


def run_subset(checkout: Path, files: list[str]) -> tuple[int, str, float]:
    """(pytest's exit code, the tail of its output, seconds) of ``files`` in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--hypothesis-seed=0", *files],
                          cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-3:])
    return done.returncode, tail, time.perf_counter() - start


def checkout_copy(into: Path, mutant=None) -> Path:
    """src/ and tests/ copied into ``into``, with ``mutant`` (if any) applied."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    if mutant is not None:
        name, old, new, _ = mutant
        path = into / "src" / "su_einstein" / name
        path.write_text(path.read_text().replace(old, new))
    return into


def main() -> int:
    start = time.perf_counter()
    for name, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "su_einstein" / name).read_text().count(old)
        if count != 1:
            print(f"FAIL {name}: the old text occurs {count} times: {old!r}")
            return 1
    # (label, mutant, files): the unmutated checkout, then each mutant on SUBSET
    # and, where listed, on the oracle alone
    jobs = [("clean", None, SUBSET)]
    for mutant in MUTANTS:
        jobs.append(("subset", mutant, SUBSET))
        if mutant[1] in ORACLE_KILLS:
            jobs.append(("oracle", mutant, ORACLE))
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        def run(i):
            _, mutant, files = jobs[i]
            return run_subset(checkout_copy(Path(tmp) / f"job{i}", mutant), files)

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(run, range(len(jobs))))
    failures = 0
    for (label, mutant, _), (code, tail, seconds) in zip(jobs, results):
        if mutant is None:
            ok = code == 0
            print(f"{'ok  ' if ok else 'FAIL'} unmutated checkout {seconds:5.1f} s"
                  + ("" if ok else f": pytest exit {code}\n{tail}"))
            failures += not ok
            continue
        name, old, _, why = mutant
        if code == 1:
            print(f"kill {label:6} {seconds:5.1f} s  {name}: {why}")
        elif code == 0 and label == "subset" and old in EQUIVALENT:
            print(f"equiv {label:5} {seconds:5.1f} s  {name}: {why} ({EQUIVALENT[old]})")
        else:
            failures += 1
            verdict = "SURVIVED" if code == 0 else f"pytest exit {code}"
            print(f"FAIL {label:6} {seconds:5.1f} s  {name}: {why}: {verdict}\n{tail}")
    print(f"{len(MUTANTS)} mutants, {failures} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
