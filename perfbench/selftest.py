"""Self-test of the benchmark: smoke runs of every workload, and oracles that can fail.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Smoke runs use ``--smoke`` inputs (catalog at n = 4, checks up to n = 4,
engine points at n = 5, 6) so the whole test takes about a minute.  The file
name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import probes  # noqa: E402  (standard library only)

for _var in probes.BLAS_ENV:  # before workloads loads numpy
    os.environ[_var] = "1"

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _smoke(name: str, trace: int, seed: int = 5) -> tuple[dict, list[str]]:
    proc = _bench("--workload", name, "--seed", str(seed), "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def test_smoke_untraced_every_workload_is_correct_and_deterministic():
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in run.WORKLOAD_NAMES:
        digests = []
        for _ in range(2):
            result, lines = _smoke(name, trace=0)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == names
            assert all(m["value"] > 0 for m in result["metrics"].values()), result
            digests.append(next(line.split()[1] for line in lines if line.startswith("digest ")))
        assert digests[0] == digests[1], name


def test_smoke_traced_every_workload_reports_layers_and_repeats_counts():
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for name in run.WORKLOAD_NAMES:
        result, _ = _smoke(name, trace=1)
        assert result["correct"], result
        got = set(result["metrics"])
        # smoke scans stop at n = 5; every other layer metric is present
        assert got <= names and {n for n in names if not n.startswith("scan.")} <= got
    first, _ = _smoke("catalog-sweep", trace=1, seed=9)
    again, _ = _smoke("catalog-sweep", trace=1, seed=9)
    for key in ("solver.jacobian.calls", "solver.residual.calls", "solver.newton_solve.calls",
                "solver.newton.converged", "curvature.riemann.bytes_computed"):
        assert first["metrics"][key]["value"] == again["metrics"][key]["value"] > 0, key


def test_without_program_sources_exits_nonzero_without_a_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _bench("--workload", "check-stream", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _perturbations(expect: dict) -> dict[str, dict]:
    """Expected values changed just beyond each oracle's tolerance."""
    if expect["kind"] == "catalog":
        I1 = list(expect["class_I1"])
        I1[-1] *= 1 + 1e-7
        return {
            "count_inequivalent": dict(expect, count_inequivalent=expect["count_inequivalent"] + 1),
            "class_I1": dict(expect, class_I1=I1),
            "search_complete": dict(expect, search_complete=not expect["search_complete"]),
            "agreement": dict(expect, agreement=not expect["agreement"]),
        }
    x = list(expect["x"])
    x[-1] *= 1 + 1e-6  # the last class is never empty (x1 is unused when p = 1)
    flipped = "NOT-EINSTEIN" if expect["verdict"] == "EINSTEIN" else "EINSTEIN"
    out = {"verdict": dict(expect, verdict=flipped), "system_lambda": dict(expect, x=tuple(x))}
    if expect["lambda"] is not None:
        out["closed_lambda"] = dict(expect, **{"lambda": expect["lambda"] * (1 + 1e-9)})
        out["I1"] = dict(expect, I1=expect["I1"] * (1 + 1e-7))
    return out


def test_every_oracle_can_fail_and_counts_in_fail_ratio():
    seen = set()
    for name in run.WORKLOAD_NAMES:
        ops = workloads.WORKLOADS[name](3, smoke=True)
        # one operation of each expectation shape per workload
        picked = {(op.expect["kind"], op.expect.get("verdict")): op for op in ops}
        for op in picked.values():
            rc, stdout, _, error = workloads.call_cli(op.argv)
            assert error is None
            doc = json.loads(stdout)
            assert workloads.verify(op.expect, rc, doc) == []
            for oracle, expect in _perturbations(op.expect).items():
                assert workloads.verify(expect, rc, doc), (name, oracle)
                seen.add(oracle)
        # a perturbed expectation inside a pass is a failed operation
        op = ops[0]
        oracle, expect = next(iter(_perturbations(op.expect).items()))
        passed = workloads.run_pass([op, replace(op, expect=expect)])
        failed, notes = run.count_failures([passed])
        assert failed == 1 and [i for i, _ in passed.failures] == [1], notes
    assert seen == {"count_inequivalent", "class_I1", "search_complete", "agreement",
                    "verdict", "system_lambda", "closed_lambda", "I1"}


def test_reference_times_cancel_a_uniform_host_slowdown():
    times, kernels = [0.010, 0.030, 0.020], [0.005, 0.010, 0.010]
    short = run.reference_op_seconds(times, kernels, scale=7.0)  # paired: scale unused
    assert math.isclose(short, 2.0 * run.CAL_REF_S)
    slower = run.reference_op_seconds([1.5 * t for t in times], [1.5 * k for k in kernels], 7.0)
    assert math.isclose(slower, short)
    long = [2 * run.CAL_PAIR_S, 4 * run.CAL_PAIR_S]
    assert math.isclose(run.reference_op_seconds(long, [1.0, 1.0], scale=0.5),
                        1.5 * run.CAL_PAIR_S)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for label, fn in tests:
        fn()
        print(f"ok {label}")
    print(f"{len(tests)} passed")
