"""Side measurements of the traced run: disk cache, BLAS threads, layer scaling.

These call single layers directly, outside any workload, so they report the
same quantities whichever workload is traced:

* cache probe -- save and load of the n = 8 structure constants.  The default
  CLI path never touches the disk cache, so no workload moves these numbers.
* BLAS-thread probe -- ``curvature.ricci_fast`` at n = 6 and 7, in several
  fresh processes at 1 BLAS thread and at ``nproc`` threads.  With OpenBLAS at
  2 threads the same call has been seen to take either ~0.5 ms or ~80 ms
  depending on the process; a process is slow when its median exceeds
  SLOW_FACTOR times the 1-thread median.
* scaling scan -- structure constants, connection and Ricci at
  n in {3, 5, 8, 10, 12}; dense Riemann and |Riem|^2 with the peak resident
  memory of a fresh process where the d^4 tensor stays small; one 400-start
  multistart at (scheme 2, n = 5, p = 3).

Run as a script, this file is the child process of the BLAS and Riemann
probes: ``probes.py blas-child`` or ``probes.py riemann-child N``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BLAS_PROBE_N = (6, 7)
BLAS_PROBE_PROCESSES = 4      # per thread setting
BLAS_PROBE_REPS = 15
SLOW_FACTOR = 10.0
SCAN_N = (3, 5, 8, 10, 12)
# Dense Riemann at n = 10 is a 0.77 GB array and peaks near 3 GB resident;
# at n = 12 the array alone is 3.3 GB.  Both are skipped to keep memory small.
RIEMANN_SCAN_N = (3, 5, 8)
RIEMANN_SKIPPED = (10, 12)
MULTISTART_CASE = (2, 5, 3)
MULTISTART_STARTS = 400
CHILD_TIMEOUT_S = 120
PROBE_X = (1.3, 1.0, 0.7)  # a generic scheme-1 metric


def median_seconds(fn, reps: int = 5, budget_s: float = 1.0) -> float:
    """Median wall time of fn over up to ``reps`` calls, stopping once over budget."""
    times = []
    start = time.perf_counter()
    while len(times) < reps and (not times or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """This process's peak resident memory (VmHWM).

    getrusage's ru_maxrss is not used: it survives exec, so a fresh child
    reports the parent's resident size at spawn time when that is larger.
    """
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return kb / 1024.0


def _child(args: list[str], threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe child {args} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- probes run by the traced benchmark process ----------------------------------

def cache_probe(work_dir: Path) -> dict:
    from su_einstein import cache, liealg

    sc = liealg.structure_constants(liealg.build_scheme1_basis(8))
    path = work_dir / cache.cache_filename(1, 8, None)
    try:
        save_s = median_seconds(lambda: cache.save_structure_constants(path, sc), reps=3)
        load_s = median_seconds(lambda: cache.load_structure_constants(path), reps=3)
        size = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    return {"cache.save.s": (save_s, "s"), "cache.load.s": (load_s, "s"),
            "cache.file_bytes": (size, "bytes")}


def blas_probe(nproc: int, smoke: bool = False) -> tuple[dict, dict]:
    """Per-process ricci_fast medians at 1 and nproc BLAS threads."""
    processes = 1 if smoke else BLAS_PROBE_PROCESSES
    per = {"blas1": [], "blasN": []}
    for _ in range(processes):  # alternate settings so drift hits both alike
        per["blas1"].append(_child(["blas-child"], 1))
        per["blasN"].append(_child(["blas-child"], nproc))
    metrics = {}
    for n in BLAS_PROBE_N:
        for setting, procs in per.items():
            metrics[f"curvature.ricci_fast.n{n}.{setting}_ms"] = (
                1e3 * statistics.median(p[str(n)] for p in procs), "ms")
    for setting, procs in per.items():
        slow = [p[str(n)] > SLOW_FACTOR * statistics.median(q[str(n)] for q in per["blas1"])
                for p in procs for n in BLAS_PROBE_N]
        metrics[f"curvature.ricci_fast.slow_share.{setting}"] = (sum(slow) / len(slow), "ratio")
    detail = {"threads": {"blas1": 1, "blasN": nproc}, "per_process_median_s": per,
              "slow_factor": SLOW_FACTOR}
    return metrics, detail


def scaling_scan(smoke: bool = False) -> tuple[dict, dict]:
    from su_einstein import curvature, liealg, solver

    metrics = {}
    scan_n = SCAN_N[:2] if smoke else SCAN_N
    for n in scan_n:
        basis = liealg.build_scheme1_basis(n)
        sc = liealg.structure_constants(basis)
        metric = curvature.MetricSpec.from_x(sc, PROBE_X)
        gamma = curvature.levi_civita(sc, metric)
        metrics[f"scan.structure_constants.n{n}_s"] = (
            median_seconds(lambda: liealg.structure_constants(basis), reps=3), "s")
        metrics[f"scan.levi_civita.n{n}_s"] = (
            median_seconds(lambda: curvature.levi_civita(sc, metric)), "s")
        metrics[f"scan.ricci_fast.n{n}_s"] = (
            median_seconds(lambda: curvature.ricci_fast(gamma, sc)), "s")
    riemann_n = RIEMANN_SCAN_N[:2] if smoke else RIEMANN_SCAN_N
    for n in riemann_n:
        child = _child(["riemann-child", str(n)], 1)
        metrics[f"scan.riemann.n{n}_s"] = (child["riemann_s"], "s")
        metrics[f"scan.riem_norm_sq.n{n}_s"] = (child["riem_norm_sq_s"], "s")
        metrics[f"scan.riemann.n{n}.peak_rss_mb"] = (child["peak_rss_mb"], "MB")
    scheme, n, p = MULTISTART_CASE
    starts = 40 if smoke else MULTISTART_STARTS
    system = solver.EinsteinSystem(scheme, n, p)
    t0 = time.perf_counter()
    solver.multistart_search(system, n_starts=starts, seed=0)
    metrics["scan.multistart_search.s2n5p3_s"] = (time.perf_counter() - t0, "s")
    detail = {"scan_n": list(scan_n), "riemann_n": list(riemann_n),
              "riemann_skipped_for_memory": list(RIEMANN_SKIPPED),
              "multistart": {"scheme": scheme, "n": n, "p": p, "starts": starts}}
    return metrics, detail


# -- child processes -------------------------------------------------------------

def _blas_child() -> dict:
    from su_einstein import cache, curvature

    out = {}
    for n in BLAS_PROBE_N:
        sc = cache.fetch_structure_constants(1, n, None)
        gamma = curvature.levi_civita(sc, curvature.MetricSpec.from_x(sc, PROBE_X))
        out[str(n)] = median_seconds(lambda: curvature.ricci_fast(gamma, sc),
                                     reps=BLAS_PROBE_REPS, budget_s=5.0)
    return out


def _riemann_child(n: int) -> dict:
    from su_einstein import curvature, liealg

    sc = liealg.structure_constants(liealg.build_scheme1_basis(n))
    X = (3.0 * n + 2.0) / (n - 2.0)
    metric = curvature.MetricSpec.from_x(sc, (X, 1.0, X))
    gamma = curvature.levi_civita(sc, metric)
    riem = None

    def build():
        nonlocal riem
        riem = None  # free the previous tensor before building the next
        riem = curvature.riemann(gamma, sc)

    riemann_s = median_seconds(build, reps=3)
    norm_s = median_seconds(lambda: curvature.riem_norm_sq(riem, metric), reps=3)
    return {"riemann_s": riemann_s, "riem_norm_sq_s": norm_s,
            "peak_rss_mb": peak_rss_mb()}


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    if sys.argv[1:2] == ["blas-child"]:
        print(json.dumps(_blas_child()))
    elif sys.argv[1:2] == ["riemann-child"]:
        print(json.dumps(_riemann_child(int(sys.argv[2]))))
    else:
        sys.exit(f"usage: {sys.argv[0]} blas-child | riemann-child N")
