#!/usr/bin/env python3
"""Benchmark of su-einstein: end-to-end metrics with output oracles, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: the program is imported from ``src/`` beside this
directory, never from an installed copy.  Workloads are described in
``workloads.py``; ``--workload all`` runs each in its own process and prints
one table.

``--trace 0`` runs whole passes of the workload until ``--seconds`` have gone
by and reports the end-to-end metrics.  Before that it times ``setup_s``:
several fresh interpreters that import ``su_einstein.cli`` and finish a first
``basis --scheme 1 --n 3``.  Every end-to-end time is given at a reference
host speed (see ``Calibration``); the raw wall times are printed beside
them.  The names in ``METRIC_ALIASES`` map the
workload-neutral metrics to their per-workload meaning (``pass_s`` on
``catalog-sweep`` is ``catalog_s``).

``--trace 1`` does a fixed amount of work, so that its counts repeat exactly
at one seed: one traced pass (cold, as a fresh CLI process would be), then
one untraced pass as the reference for the tracing overhead.  It reports the
per-layer metrics, the BLAS-thread probe and the layer scaling scan
(``probes.py``), and writes every span to ``.perfbench/`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output passed its oracle, 1 when any failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread, set before numpy loads.  At 2 OpenBLAS threads ricci_fast at
# n = 6 takes ~80 ms in some processes and ~0.5 ms in others; at 1 thread it was
# never slow, so runs are steady.  The traced run's BLAS probe keeps the
# multi-thread behaviour visible.
BLAS_THREADS = 1
SETUP_REPS = 9
CAL_DUTY = 0.10     # calibration kernel time per second of program time
CAL_PAIR_S = 0.5    # operations shorter than this are paired with the kernel after them
CAL_REF_S = 0.007   # about the kernel's median on a 2-vCPU Xeon host; sets the time scale
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from su_einstein import cli; "
              "sys.exit(cli.main(['basis', '--scheme', '1', '--n', '3']))")
WORKLOAD_NAMES = ("catalog-sweep", "check-stream", "engine-large-n")
METRIC_ALIASES = {
    "catalog-sweep": {"pass_s": "catalog_s"},
    "check-stream": {"ops_per_s": "checks_per_s", "op_ms.p50": "check_s.p50",
                     "op_ms.p95": "check_s.p95"},
    "engine-large-n": {"pass_s": "engine_s"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    return parser.parse_args(argv)


# -- measurement helpers ------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(count: int) -> int | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    return next((q for q in (99, 95, 90, 75, 50) if count * (100 - q) / 100 >= 10), None)


class Calibration:
    """A fixed kernel timed all through a run, to give times at a reference host speed.

    On a shared host the same code runs up to 45 % slower from one minute to
    the next, with no CPU steal: the host's other tenants slow the cores
    themselves, and a fixed kernel's time flips by up to half from one second
    to the next.  A kernel that does what the program does -- interpreter
    loops, JSON, a small damped Newton solve, small numpy calls, a BLAS
    product, an einsum and a pass over 8 MB -- slows with it.

    The kernel runs after every operation, at least once and for CAL_DUTY of
    the operation's time.  An operation shorter than CAL_PAIR_S runs at one
    host speed, so each repetition is divided by the kernel time right after
    it: over nine minutes on a 2-vCPU host the medians of a 45 ms and a 220 ms
    call spread by 7-9 % (IQR over median) between 30 s windows, and their
    ratios to a larger version of this kernel by 2-3 %.  The fresh
    interpreters of ``setup_s`` are short operations too.

    A longer operation spans several speeds, so its mean over the run's passes
    is scaled by the mean of the run's kernel times, which moves smoothly with
    the share of time the host spends slow.  Over four sets of ten runs each
    of catalog-sweep and engine-large-n, ``pass_s`` spread by 0.06-0.11 (IQR
    over median) scaled so; the records of three of those sets give 0.04-0.12
    scaled by the median kernel time, and 0.08-0.26 unscaled.  CAL_REF_S only
    sets the scale.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._vec = rng.random(4)
        self._mat = rng.random((150, 150))
        self._cube = rng.random((20, 20, 20))
        self._block = rng.random(1_000_000)
        self._doc = {"results": {"rows": [1.5, 2.5, {"tag": "c" * 20}] * 20,
                                 "n": list(range(200))}}
        self._owed = 0.0
        self.samples: list[float] = []
        self.paired: list[float] = []  # the first kernel time after each operation

    def _newton(self, start: int):
        """Damped Newton on a small polynomial system, like the reduced Einstein equations."""
        np = self._np
        x = np.array([1.0 + 0.1 * start, 0.8, 1.2, 0.9])
        for _ in range(12):
            r = np.array([x[0] * x[1] - x[2] ** 2 + 0.3, x[1] ** 2 - x[0] * x[3] - 0.2,
                          x[2] * x[3] - x[0] + 0.1, x.sum() - 4.0])
            jac = np.array([[x[1], x[0], -2 * x[2], 0.0], [-x[3], 2 * x[1], 0.0, -x[0]],
                            [-1.0, 0.0, x[3], x[2]], [1.0, 1.0, 1.0, 1.0]])
            try:
                x = x - 0.8 * np.linalg.solve(jac, r)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(r) < 1e-12:
                break
        return x

    def _kernel(self) -> None:
        np = self._np
        acc = 0.0
        for i in range(4000):
            acc += i * 0.5
        for _ in range(8):
            doc = json.loads(json.dumps(self._doc))
            "|".join(str(v) for v in sorted(doc["results"]["n"], key=lambda v: -v))
        for start in range(6):
            self._newton(start)
        for _ in range(150):
            acc += float(np.dot(self._vec, self._vec))
        acc += float((self._mat @ self._mat)[0, 0])
        acc += float(np.einsum("ijk,jkl->il", self._cube, self._cube)[0, 0])
        acc += float((self._block * 1.0001).sum())

    def after(self, seconds: float) -> None:
        """Run the kernel after ``seconds`` of program time: once, then until its share is paid."""
        self._owed += CAL_DUTY * seconds
        first = True
        while first or self._owed > 0:
            t0 = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - t0
            if first:
                self.paired.append(elapsed)
                first = False
            self.samples.append(elapsed)
            self._owed -= elapsed

    def scale(self) -> float:
        """The factor that takes the run's long operations to reference speed."""
        return CAL_REF_S / statistics.fmean(self.samples)


def measure_setup(reps: int, cal: Calibration) -> tuple[list, list, int]:
    """Wall times of a fresh interpreter's first CLI call, the kernel time after each,
    and the failed count."""
    times, failed = [], 0
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
        failed += proc.wait() != 0
        times.append(time.perf_counter() - t0)
        cal.after(times[-1])
    return times, cal.paired[-reps:], failed


def measure_passes(workloads, ops, seconds: float, cal: Calibration) -> tuple[list, list]:
    """Whole passes over ops until ``seconds`` have gone by (at least one).

    Returns the passes and, for each, the kernel time right after each operation.
    """
    passes, kernels = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(ops, cal.after))
        kernels.append(cal.paired[-len(ops):])
    return passes, kernels


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def machine_facts() -> dict:
    import numpy as np

    with open("/proc/meminfo") as meminfo:
        mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal:"))
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 1024**2, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": blas_threads_in_effect(),
        "blas_threads_why": "1 thread keeps runs steady: at 2 OpenBLAS threads ricci_fast "
                            "at n = 6 is ~150x slower in some processes (see the BLAS probe)",
    }


def count_failures(passes) -> tuple[int, list[str]]:
    """Failed operations, plus one per pass whose output differs from the first pass."""
    failed = sum(len(p.failures) for p in passes)
    notes = [f"pass {k} op {i}: {'; '.join(problems)}"
             for k, p in enumerate(passes) for i, problems in p.failures]
    for k, p in enumerate(passes[1:], start=1):
        if p.digest != passes[0].digest:
            failed += 1
            notes.append(f"pass {k}: output digest differs from pass 0")
    return failed, notes


# -- metrics ---------------------------------------------------------------------

def reference_op_seconds(times, kernels, scale: float) -> float:
    """One operation's time at reference speed, from its repetitions over a run.

    A short operation takes the median of its paired ratios; a long one, whose
    repetitions each average over several host speeds, the run's scale times
    its mean.
    """
    if statistics.median(times) < CAL_PAIR_S:
        return CAL_REF_S * statistics.median(t / k for t, k in zip(times, kernels))
    return scale * statistics.fmean(times)


def end_to_end_metrics(passes, kernels, setup_s: float, scale: float,
                       peak_rss_mb: float) -> dict:
    """Timings at reference speed, from each operation's repetitions over the run's passes.

    ``kernels`` holds, per pass, the kernel time right after each operation;
    ``scale`` is the run's factor (see ``Calibration``); ``setup_s`` is at
    reference speed already.  The raw distribution is kept in ``raw_timings``.
    """
    op_s = [reference_op_seconds(times, ks, scale) for times, ks in zip(
        zip(*(p.op_seconds for p in passes)), zip(*kernels))]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(op_s), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_ms.p50": (1e3 * percentile(op_s, 50), "ms"),
        "op_ms.p95": (1e3 * percentile(op_s, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def raw_timings(passes) -> dict:
    """Every repetition's latency: median, the highest percentile with ten samples beyond it."""
    op_s = [t for p in passes for t in p.op_seconds]
    tail = tail_percentile(len(op_s))
    return {"samples": len(op_s),
            "pass_s_median": statistics.median(p.program_seconds for p in passes),
            "op_ms_p50": 1e3 * percentile(op_s, 50),
            "tail_percentile": tail,
            "op_ms_tail": None if tail is None else 1e3 * percentile(op_s, tail)}


def newton_outcomes(docs) -> dict:
    """Multistart outcome counts summed over the catalog outputs of a pass."""
    out = {"starts": 0, "converged": 0, "failed": 0, "boundary_discarded": 0}
    for doc in docs:
        configs = (doc or {}).get("diagnostics", {}).get("configurations", {})
        for diag in configs.values():
            for key in out:
                out[key] += diag[key]
    return out


def layer_metrics(tracer, traced, reference_pass_s: float) -> dict:
    summary = tracer.summary()

    def total(name: str, key: str = "s"):
        return summary.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    newton = newton_outcomes(traced.docs)
    return {
        "cli.main.calls": (total("cli.main", "calls"), "count"),
        "cli.main.self_s": (total("cli.main", "self_s"), "s"),
        "cli.emit_json.s": (total("cli.emit_json"), "s"),
        "cli.output_bytes": (traced.output_bytes, "bytes"),
        "liealg.build_basis.s": (total("liealg.build_basis"), "s"),
        "liealg.structure_constants.s": (total("liealg.structure_constants"), "s"),
        "liealg.structure_constants.calls": (total("liealg.structure_constants", "calls"), "count"),
        "curvature.levi_civita.s": (total("curvature.levi_civita"), "s"),
        "curvature.ricci_fast.s": (total("curvature.ricci_fast"), "s"),
        "curvature.ricci_fast.calls": (total("curvature.ricci_fast", "calls"), "count"),
        "curvature.riemann.s": (total("curvature.riemann"), "s"),
        "curvature.riem_norm_sq.s": (total("curvature.riem_norm_sq"), "s"),
        "curvature.invariant_I1.calls": (total("curvature.invariant_I1", "calls"), "count"),
        "curvature.riemann.bytes_computed": (
            tracer.counts["curvature.riemann.bytes_computed"], "bytes"),
        "solver.newton_solve.calls": (total("solver.newton_solve", "calls"), "count"),
        "solver.jacobian.calls": (tracer.counts["solver.jacobian.calls"], "count"),
        "solver.residual.calls": (tracer.counts["solver.residual.calls"], "count"),
        "solver.record.calls": (total("solver.record", "calls"), "count"),
        "solver.newton.converged": (newton["converged"], "count"),
        "solver.newton.failed": (newton["failed"], "count"),
        "solver.newton.boundary_discarded": (newton["boundary_discarded"], "count"),
        "catalog.enumerate_metrics.calls": (total("catalog.enumerate_metrics", "calls"), "count"),
        "trace.overhead_ratio": (traced.program_seconds / reference_pass_s, "ratio"),
        "trace.uncovered_s": (traced.wall - tracer.root_seconds(), "s"),
    }


def layer_table(tracer, traced) -> dict:
    """Every span name's totals, plus the ratios that have no fixed base."""
    table = {name: dict(agg) for name, agg in sorted(tracer.summary().items())}
    newton = newton_outcomes(traced.docs)
    table["solver.newton"] = dict(newton, converged_ratio=(
        newton["converged"] / newton["starts"] if newton["starts"] else None))
    return table


# -- one workload ---------------------------------------------------------------------

def run_workload(args) -> int:
    for var in probes.BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    machine = machine_facts()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workloads.call_cli(["basis", "--scheme", "1", "--n", "3"])  # warm-up: lazy imports
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops_per_pass": len(ops), "machine": machine}

    if args.trace:
        tracer = layers.Tracer()
        with tracer.installed():
            traced = workloads.run_pass(ops)
        passes = [workloads.run_pass(ops)]  # untraced reference for the overhead ratio
        failed, notes = count_failures([*passes, traced])
        metrics = layer_metrics(tracer, traced, passes[0].program_seconds)
        OUT_DIR.mkdir(exist_ok=True)
        metrics.update(probes.cache_probe(OUT_DIR))
        blas_metrics, blas_detail = probes.blas_probe(machine["nproc"], args.smoke)
        scan_metrics, scan_detail = probes.scaling_scan(args.smoke)
        metrics.update(blas_metrics)
        metrics.update(scan_metrics)
        attempted = len(ops) * (len(passes) + 1)
        t_first = tracer.spans[0][2] if tracer.spans else 0.0
        record.update(layers=layer_table(tracer, traced), counts=dict(tracer.counts),
                      blas_probe=blas_detail, scan=scan_detail,
                      spans=[(name, parent, t0 - t_first, t1 - t_first)
                             for name, parent, t0, t1 in tracer.spans])
        for name, agg in record["layers"].items():
            print(f"layer {name}: " + ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in agg.items()))
    else:
        cal = Calibration()
        setup_times, setup_kernels, setup_failed = measure_setup(
            2 if args.smoke else SETUP_REPS, cal)
        passes, kernels = measure_passes(workloads, ops, args.seconds, cal)
        failed, notes = count_failures(passes)
        failed += setup_failed
        if setup_failed:
            notes.append(f"{setup_failed} setup interpreter(s) exited non-zero")
        scale = cal.scale()
        metrics = end_to_end_metrics(
            passes, kernels, reference_op_seconds(setup_times, setup_kernels, scale), scale,
            probes.peak_rss_mb())
        attempted = len(ops) * len(passes)
        record["raw_timings"] = dict(raw_timings(passes), setup_s=statistics.median(setup_times))
        record["calibration"] = {"reference_s": CAL_REF_S, "duty": CAL_DUTY,
                                 "kernel_s": cal.samples, "scale": scale}

    record.update(passes=len(passes), pass_seconds=[p.program_seconds for p in passes],
                  digest=passes[0].digest, notes=notes,
                  fail_ratio=failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"digest {record['digest']}  passes {len(passes)}  ops/pass {len(ops)}  "
          f"fail_ratio {record['fail_ratio']:.6g}")
    if not args.trace:
        raw = record["raw_timings"]
        tail = "none" if raw["tail_percentile"] is None else (
            f"p{raw['tail_percentile']} {raw['op_ms_tail']:.6g} ms")
        print(f"raw latency over {raw['samples']} samples: p50 {raw['op_ms_p50']:.6g} ms, "
              f"highest percentile with >= 10 samples beyond it: {tail}; "
              f"median pass {raw['pass_s_median']:.6g} s; setup {raw['setup_s']:.6g} s")
        kernel_ms = [1e3 * k for k in cal.samples]
        print(f"calibration kernel: median {statistics.median(kernel_ms):.4g} ms over "
              f"{len(kernel_ms)} samples, reference {1e3 * CAL_REF_S:.4g} ms")
    aliases = METRIC_ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"metric {name} {value:.6g} {unit}{alias}")
    for note in notes[:20]:
        print(f"FAILED {note}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    rows, worst = [], 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            alias = METRIC_ALIASES[name].get(metric, "")
            rows.append((name, metric, alias, entry["value"], entry["unit"]))
        rows.append((name, "fail_ratio", "", result["failed"] / result["attempted"], "ratio"))
    width = max((len(r[1]) for r in rows), default=10)
    for name, metric, alias, value, unit in rows:
        print(f"{name:<15} {metric:<{width}} {value:>14.6g} {unit:<6} {alias}")
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "su_einstein" / "cli.py").is_file():
        print(f"error: no su_einstein sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
