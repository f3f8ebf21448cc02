"""Workload inputs, the operation runner and the output oracles.

An operation is one ``su_einstein.cli.main(argv)`` call with stdout captured,
exactly what a user of the command line gets; the benchmark reaches the
program through nothing else.  Each workload turns the workload seed into one
pass: a fixed list of operations that a run repeats, one at a time (a closed
loop with one client).  Every operation carries the expectations its oracle
checks; an operation fails when it raises, exits with an unexpected code or
fails its oracle.

Workloads (each stresses a different layer):

* ``catalog-sweep`` -- ``catalog --n 4`` and ``catalog --n 5`` at the default
  400 starts and multistart seed; the workload seed only orders them.  Both
  parities, an equal split (p = q = 2, where the even-n count falls short)
  and a generic split (2, 3).  Bound by the Newton multistart (``solver``);
  curvature validation of each root is the rest.  The multistart seed is held
  fixed because the Newton work depends on it: ``catalog --n 5`` took up to
  16 % longer at some seeds than at others, interleaved in one process, and
  that spread between workload seeds as much as the host's noise.  n = 6
  would add a third configuration but makes a pass 10-16 s long.
* ``check-stream`` -- ``check --format json`` on every (scheme, n, p) with
  n in 3..9 at a log-uniform positive x (NOT-EINSTEIN: Ricci path only), plus
  five closed-form Einstein points with n <= 6 (the I1 path), one of them at
  each n, in seeded order.
  Every call rebuilds the structure constants; the solver is never called.
* ``engine-large-n`` -- ``check`` at closed-form Einstein points whose I1 needs
  the dense d^4 Riemann tensor: the scheme-1 second family at n = 8, 9 and the
  scheme-2 minus branch at (n, p) = (9, 4).  Bound by curvature and memory.
  n = 10 is left out: its Riemann step peaks near 3 GB of resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from su_einstein import cli, solver

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

LAMBDA_SYSTEM_RTOL = 1e-9   # engine lambda vs the hand-typed reduced system
LAMBDA_CLOSED_RTOL = 1e-10  # engine lambda vs a closed form
I1_RTOL = 1e-8
EINSTEIN_PER_PASS = 5       # of 47 check-stream operations: about one in ten
CATALOG_SEED = 0            # the CLI's default multistart seed


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    argv: tuple[str, ...]
    expect: dict


@dataclass
class PassResult:
    """Outcome of one pass over a workload's operations."""

    op_seconds: list[float] = field(default_factory=list)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    docs: list[dict | None] = field(default_factory=list)
    output_bytes: int = 0
    wall: float = 0.0
    digest: str = ""

    @property
    def program_seconds(self) -> float:
        return sum(self.op_seconds)


# -- closed forms ------------------------------------------------------------

def scheme1_second_family(n: int) -> tuple[tuple[float, ...], float, float]:
    """x, lambda and I1 of the three-class second family x1 = x3 = (3n+2)/(n-2)."""
    X = (3.0 * n + 2.0) / (n - 2.0)
    lam = n * (n - 2.0) * (5.0 * n + 6.0) / (8.0 * (3.0 * n + 2.0) ** 2)
    I1 = (2.0 * n * n + 3.0 * n + 2.0) * (n - 1.0) * (3.0 * n + 4.0) / (n * (5.0 * n + 6.0))
    return (X, 1.0, X), lam, I1


def scheme2_branch(n: int, p: int, sign: int) -> tuple[tuple[float, ...], float]:
    """x and lambda of the four-class +/- branch (x3 = 1 gauge)."""
    q = n - p
    x1 = (p * q * n + sign * math.sqrt(p * q * (p * p - 1) * (q * q - 1))) / (
        q * (p * p + p * q + q * q - 1))
    lam = (p + q * x1 * x1) / (8.0 * x1)
    return (x1, q / p * x1, 1.0, 16.0 * lam / (p * q * n * n)), lam


def einstein_points(n: int) -> list[tuple]:
    """Every closed-form Einstein point at n: (scheme, n, p, x, lambda, I1)."""
    points = [(1, n, None, (1.0, 1.0, 1.0), n / 8.0, float(n * n - 1))]
    if n >= 3:
        x, lam, I1 = scheme1_second_family(n)
        points.append((1, n, None, x, lam, I1))
    for p in range(1, n):
        points.append((2, n, p, (1.0, 1.0, 1.0, 2.0 / (p * (n - p) * n)),
                       n / 8.0, float(n * n - 1)))
        for sign, tag in ((1, "plus"), (-1, "minus")):
            x, lam = scheme2_branch(n, p, sign)
            points.append((2, n, p, x, lam, REFERENCE["scheme2_branch_I1"][f"{n},{p},{tag}"]))
    return points


# -- workloads ---------------------------------------------------------------

def check_op(scheme: int, n: int, p: int | None, x, lam: float | None = None,
             I1: float | None = None) -> Op:
    """A ``check`` call; Einstein points carry their closed-form lambda and I1."""
    argv = ["check", "--scheme", str(scheme), "--n", str(n)]
    if scheme == 2:
        argv += ["--p", str(p)]
    x = tuple(float(v) for v in x)
    argv += ["--x", ",".join(repr(v) for v in x), "--format", "json"]
    verdict = "NOT-EINSTEIN" if lam is None else "EINSTEIN"
    return Op(tuple(argv), {"kind": "check", "scheme": scheme, "n": n, "p": p, "x": x,
                            "verdict": verdict, "lambda": lam, "I1": I1})


def catalog_sweep(seed: int, smoke: bool = False) -> list[Op]:
    """Fixed calls; the seed only orders them."""
    ops = [Op(("catalog", "--n", str(n), "--seed", str(CATALOG_SEED), "--format", "json"),
              {"kind": "catalog", "n": n, **REFERENCE["catalog"][str(n)]})
           for n in ((4,) if smoke else (4, 5))]
    rng = np.random.default_rng(seed)
    return [ops[i] for i in rng.permutation(len(ops))]


def check_stream(seed: int, smoke: bool = False) -> list[Op]:
    rng = np.random.default_rng(seed)
    max_n = 4 if smoke else 9
    configs = [(1, n, None) for n in range(3, max_n + 1)]
    configs += [(2, n, p) for n in range(3, max_n + 1) for p in range(1, n)]
    ops = [check_op(scheme, n, p, 10.0 ** rng.uniform(-1.0, 1.0, 3 if scheme == 1 else 4))
           for scheme, n, p in configs]
    # one Einstein point at every n up to 6, so that the largest Riemann tensor
    # (and with it peak memory) is the same for every seed; the rest at random
    by_n = [einstein_points(n) for n in range(3, min(max_n, 6) + 1)]
    chosen = [pts[rng.integers(len(pts))] for pts in by_n]
    rest = [pt for pts in by_n for pt in pts if pt not in chosen]
    extra = (2 if smoke else EINSTEIN_PER_PASS) - len(chosen)
    chosen += [rest[i] for i in rng.choice(len(rest), size=max(extra, 0), replace=False)]
    ops += [check_op(*pt) for pt in chosen]
    return [ops[i] for i in rng.permutation(len(ops))]


def engine_large_n(seed: int, smoke: bool = False) -> list[Op]:
    """Fixed points; the seed only orders them."""
    big, (n2, p2) = ((5, 6), (6, 2)) if smoke else ((8, 9), (9, 4))
    ops = []
    for n in big:
        x, lam, I1 = scheme1_second_family(n)
        ops.append(check_op(1, n, None, x, lam, I1))
    x, lam = scheme2_branch(n2, p2, -1)
    ops.append(check_op(2, n2, p2, x, lam, REFERENCE["scheme2_branch_I1"][f"{n2},{p2},minus"]))
    rng = np.random.default_rng(seed)
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "check-stream": check_stream,
    "engine-large-n": engine_large_n,
}


# -- running -----------------------------------------------------------------

def call_cli(argv) -> tuple[int | None, str, float, str | None]:
    """Run ``cli.main(argv)`` with stdout captured: (exit code, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising operation is a failed operation
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0, error


def run_pass(ops: list[Op], after_op=None) -> PassResult:
    """Run every operation once, timing each call and checking its output.

    ``after_op(seconds)``, if given, is called after each timed call, outside
    its timing.
    """
    result = PassResult()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        rc, stdout, seconds, error = call_cli(op.argv)
        if after_op is not None:
            after_op(seconds)
        result.op_seconds.append(seconds)
        result.output_bytes += len(stdout.encode())
        digest.update(f"{' '.join(op.argv)}\n{rc}\n{stdout}\n".encode())
        doc = None
        if error is not None:
            problems = [error]
        else:
            try:
                doc = json.loads(stdout)
            except ValueError:
                problems = ["output is not JSON"]
            else:
                problems = verify(op.expect, rc, doc)
        result.docs.append(doc)
        if problems:
            result.failures.append((i, problems))
    result.wall = time.perf_counter() - t0
    result.digest = digest.hexdigest()
    return result


# -- oracles -----------------------------------------------------------------

def verify(expect: dict, rc: int | None, doc: dict) -> list[str]:
    """Problems with one operation's exit code and parsed output (empty if none)."""
    results = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(results, dict):
        return ["output has no results object"]
    if expect["kind"] == "catalog":
        return _verify_catalog(expect, rc, results)
    return _verify_check(expect, rc, results)


def _close(a, b, rtol: float) -> bool:
    try:
        return abs(float(a) - b) <= rtol * max(abs(b), 1e-300)
    except (TypeError, ValueError):  # null or a stringified NaN
        return False


def system_lambda(scheme: int, n: int, p: int | None, x) -> tuple[float, float]:
    """lambda implied by the reduced system, and the scale its tolerance is relative to.

    The frame Ricci eigenvalue of class c is r_c / x_c, with r_c the class
    equation at lambda = 0; the engine's lambda is their class-size-weighted
    mean.  The scale is the same mean of |r_c / x_c|, so that a lambda that
    cancels to near zero is still held to a meaningful tolerance.
    """
    if scheme == 1:
        m = n * (n - 1) // 2
        r, sizes = solver.scheme1_system(n, *x, 0.0), (m, m, n - 1)
    else:
        q = n - p
        r, sizes = solver.scheme2_system(n, p, *x, 0.0), (p * p - 1, q * q - 1, 2 * p * q, 1)
    ratios = [s * rc / xc for s, rc, xc in zip(sizes, r, x)]
    d = sum(sizes)
    return float(sum(ratios) / d), float(sum(abs(v) for v in ratios) / d)


def _verify_check(e: dict, rc: int | None, res: dict) -> list[str]:
    problems = []
    want_rc = 0 if e["verdict"] == "EINSTEIN" else 1
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")
    if res.get("verdict") != e["verdict"]:
        problems.append(f"verdict {res.get('verdict')}, expected {e['verdict']}")
    lam_sys, scale = system_lambda(e["scheme"], e["n"], e["p"], e["x"])
    lam, I1 = res.get("lambda"), res.get("I1")
    try:
        lam_ok = abs(float(lam) - lam_sys) <= LAMBDA_SYSTEM_RTOL * scale
    except (TypeError, ValueError):
        lam_ok = False
    if not lam_ok:
        problems.append(f"lambda {lam} vs reduced system {lam_sys!r}")
    if e["lambda"] is not None and not _close(lam, e["lambda"], LAMBDA_CLOSED_RTOL):
        problems.append(f"lambda {lam} vs closed form {e['lambda']!r}")
    if e["I1"] is not None and not _close(I1, e["I1"], I1_RTOL):
        problems.append(f"I1 {I1} vs expected {e['I1']!r}")
    return problems


def _verify_catalog(e: dict, rc: int | None, res: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}, expected 0")
    for key in ("count_inequivalent", "search_complete", "agreement"):
        if res.get(key) != e[key]:
            problems.append(f"{key} {res.get(key)}, expected {e[key]}")
    got = res.get("class_I1") or []
    if len(got) != len(e["class_I1"]) or not all(
            _close(a, b, I1_RTOL) for a, b in zip(got, e["class_I1"])):
        problems.append(f"class_I1 {got} vs reference {e['class_I1']}")
    n = e["n"]
    closed = [float(n * n - 1), scheme1_second_family(n)[2]]
    for value in closed:
        if not any(_close(a, value, I1_RTOL) for a in got):
            problems.append(f"closed-form I1 {value!r} missing from class_I1")
    return problems
