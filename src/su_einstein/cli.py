"""Command-line front end: basis validation, Einstein checks, solving, catalog.

Commands
  basis    build a generator basis, validate it, print class/Gram/sparsity info
  check    test whether a given x-vector is an Einstein metric
  solve    closed forms + multistart for one (scheme, n, p) configuration
  catalog  enumerate all configurations for n and classify by I1

Exit codes: 0 success, 1 validation or verdict failure, 2 usage error or a
run that ran out of memory, 3 any other exception (an internal error).  Each
of these errors, the argument parser's included, is one ``error: ...`` line
on stderr.  ``main`` builds its argument parser on the first call and reuses
it for every later call in the process; ``build_parser`` returns a new parser
each time.  When the first argument names a command, only that command's
parser reads the rest.  JSON output is canonical: sorted keys, floats with 17
significant digits, so parse -> re-serialize is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import curvature, liealg

SCHEMA_VERSION = 1


# -- canonical JSON ----------------------------------------------------------

# every C0 control character as \u00XX, except the short forms of \n, \r and \t
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            return '"%s"' % v  # JSON has no NaN/Inf; stringify
        return format(v, ".17g")
    if isinstance(v, str):
        return f'"{v.translate(_ESCAPES)}"'
    raise TypeError(f"cannot serialize {type(v)}")


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON of a dict, list or tuple to ``out``: str, int and finite
    float items here, containers by recursion, any other item by ``_json_scalar``."""
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = pad + "  "
    items = ([(f'{inner}"{str(k).translate(_ESCAPES)}": ', v) for k, v in sorted(obj.items())]
             if is_dict else [(inner, v) for v in obj])
    sep = "{\n" if is_dict else "[\n"
    for prefix, v in items:
        out.append(sep + prefix)
        sep = ",\n"
        t = type(v)
        if t is str:
            out.append(f'"{v.translate(_ESCAPES)}"')
        elif t is float and v - v == 0:  # finite
            out.append(format(v, ".17g"))
        elif t is int:
            out.append(str(v))
        elif isinstance(v, (dict, list, tuple)):
            _write(v, inner, out)
        else:
            out.append(_json_scalar(v))
    out.append("\n" + pad + ("}" if is_dict else "]"))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, in one pass."""
    if not isinstance(obj, (dict, list, tuple)):
        return _json_scalar(obj)
    out = []
    _write(obj, "", out)
    return "".join(out)


def emit_json(command: str, params: dict, results, diagnostics: dict) -> str:
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "diagnostics": diagnostics,
    })


# -- validation --------------------------------------------------------------

class UsageError(Exception):
    pass


def _validate(args: argparse.Namespace) -> None:
    """Check the parsed options; ``args.x`` becomes the tuple of parsed floats.
    The library checks (scheme, n, p), and its message gets the flags in front;
    ``curvature.checked_x`` checks x, last, with the message that
    ``curvature.einstein_verdict`` would give."""
    opts = vars(args)
    try:
        if args.command == "solve":
            from .solver import EinsteinSystem  # imported here: basis and check never load it

            EinsteinSystem(args.scheme, args.n, args.p)
        else:
            liealg.class_sizes(opts.get("scheme", 1), args.n, opts.get("p"))
    except ValueError as exc:
        flags = " ".join(f"--{key} {opts[key]}" for key in ("scheme", "n", "p")
                         if opts.get(key) is not None)
        raise UsageError(f"{flags}: {exc}") from None
    if "x" in args:
        try:
            args.x = tuple(float(t) for t in args.x.split(","))
        except ValueError as exc:
            raise UsageError(f"could not parse --x {args.x!r}: {exc}") from None
    if "starts" in args and args.starts < 0:
        raise UsageError(f"--starts must be non-negative (got {args.starts})")
    if "seed" in args and args.seed < 0:
        raise UsageError(f"--seed must be non-negative (got {args.seed})")
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be finite and strictly positive (got {args.tol})")
    if "x" in args:  # before f is built, so that a bad x of a large n allocates nothing
        try:
            curvature.checked_x(len(liealg.class_sizes(args.scheme, args.n, args.p)), args.x)
        except ValueError as exc:
            raise UsageError(f"--x: {exc}") from None


# -- commands ----------------------------------------------------------------

def cmd_basis(args: argparse.Namespace) -> int:
    basis = liealg.build_basis(args.scheme, args.n, args.p)
    report = liealg.validate_basis(basis)
    nnz = report.sc.nonzeros.nnz
    total = report.sc.d**3
    exact_result = None
    if args.exact:
        exact_result = liealg.exact_validate(basis)

    # the Gram values to 12 digits, so that rounding noise does not split a value
    gram_values, counts = np.unique(np.round(report.gram_diagonal, 12), return_counts=True)
    if args.format == "json":
        results = {
            "passed": report.passed,
            "dim": report.dim,
            "class_sizes": list(report.class_sizes),
            "gram_diagonal_values": [
                {"value": float(v), "count": int(c)} for v, c in zip(gram_values, counts)
            ],
            "f_nonzeros": nnz,
            "f_entries": total,
            "problems": report.problems,
        }
        if exact_result is not None:
            results["exact"] = {k: v for k, v in exact_result.items() if k != "gram_diagonal"}
        print(emit_json("basis", _params(args), results, {}))
    else:
        for line in report.summary_lines():
            print(line)
        print("gram diagonal: " + ", ".join(
            f"{v:g} x{c}" for v, c in zip(gram_values, counts)))
        print(f"f sparsity: {nnz} nonzero of {total} ({100.0 * nnz / total:.2f}%)")
        if exact_result is not None:
            print("exact validation: " + ("PASS" if exact_result["all_passed"] else "FAIL"))
    ok = report.passed and (exact_result is None or exact_result["all_passed"])
    return 0 if ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    sc = liealg.formed_structure_constants(args.scheme, args.n, args.p)
    try:
        residual, lam, I1 = curvature.einstein_verdict(sc, args.x, tol=args.tol)
    except ValueError as exc:
        raise UsageError(f"--x: {exc}") from None
    verdict = "NOT-EINSTEIN" if I1 is None else "EINSTEIN"

    if args.format == "json":
        results = {
            "x": list(args.x),
            "lambda": lam,
            "residual": residual,
            "I1": I1,
            "verdict": verdict,
        }
        print(emit_json("check", _params(args), results, {"tol": args.tol}))
    else:
        print(f"x = ({', '.join(repr(t) for t in args.x)})")
        print(f"lambda = {lam!r}")
        print(f"residual = {residual:.3e}  (threshold {args.tol:.1e})")
        if I1 is not None:
            print(f"I1 = {I1!r}")
        print(f"verdict: {verdict}")
    return 1 if I1 is None else 0


_RECORD_FIELDS = ("scheme", "n", "p", "x", "lambda", "I1",
                  "provenance", "residual", "eq_class")


def _record_rows(records) -> list[list]:
    rows = []
    for r in records:
        d = r.as_dict()
        rows.append([d[k] if k != "x" else ",".join(repr(t) for t in r.x)
                     for k in _RECORD_FIELDS])
    return rows


def _print_record_table(records) -> None:
    rows = [[str(c) for c in row] for row in _record_rows(records)]
    header = list(_RECORD_FIELDS)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _print_record_csv(records) -> None:
    out = csv.writer(sys.stdout)
    out.writerow(_RECORD_FIELDS)
    for row in _record_rows(records):
        out.writerow(row)


def cmd_solve(args: argparse.Namespace) -> int:
    from . import solver  # imported here: basis and check never load it

    result = solver.solve_configuration(args.scheme, args.n, args.p,
                                        n_starts=args.starts, seed=args.seed,
                                        engine_tol=args.tol)
    if args.format == "json":
        print(emit_json("solve", _params(args),
                        [r.as_dict() for r in result.records], result.diagnostics))
    elif args.format == "csv":
        _print_record_csv(result.records)
    else:
        _print_record_table(result.records)
        print(f"{len(result.records)} distinct Einstein metric(s)")
        if result.diagnostics["search_missed"]:
            print("WARNING: multistart missed closed forms: "
                  + ", ".join(result.diagnostics["search_missed"]))
        if result.diagnostics["invalid_closed_forms"]:
            print("WARNING: closed forms failed the engine: "
                  + ", ".join(result.diagnostics["invalid_closed_forms"]))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    from . import catalog

    entry = catalog.enumerate_metrics(args.n, n_starts=args.starts, seed=args.seed,
                                      engine_tol=args.tol)
    if args.format == "json":
        d = entry.as_dict()
        diagnostics = d.pop("diagnostics")
        print(emit_json("catalog", _params(args), d, diagnostics))
    elif args.format == "csv":
        _print_record_csv(entry.records)
    else:
        _print_record_table(entry.records)
        print(f"inequivalent classes (by I1): {entry.count_inequivalent}")
        print(f"closed-form count: {entry.paper_count}")
        print(f"agreement: {entry.agreement}")
        if not entry.search_complete:
            print("WARNING: search under-resolved for at least one configuration")
        invalid = [f"{config} {provenance}"
                   for config, d in entry.diagnostics["configurations"].items()
                   for provenance in d["invalid_closed_forms"]]
        if invalid:
            print("WARNING: closed forms failed the engine: " + ", ".join(invalid))
    return 0


def _params(args: argparse.Namespace) -> dict:
    opts = vars(args)
    params = {key: opts[key] for key in ("n", "scheme", "p") if opts.get(key) is not None}
    if "x" in args:
        params["x"] = list(args.x)
    if args.command in ("solve", "catalog"):
        params["starts"] = args.starts
        params["seed"] = args.seed
        params["tol"] = args.tol
    return params


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print the one ``error: ...`` line
    of every other usage error, without the usage block, and exit 2.  Its
    subcommand parsers are of this class too; ``commands`` maps each command to its parser."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su-einstein",
        description="Left-invariant Einstein metrics on SU(n) from structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=True, formats=("table", "json", "csv")):
        if scheme:
            p.add_argument("--scheme", type=int, choices=(1, 2), required=True)
            p.add_argument("--p", type=int, default=None,
                           help="block size for scheme 2 (q = n - p)")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=formats, default="table")

    p_basis = sub.add_parser("basis", help="build and validate a generator basis")
    common(p_basis, formats=("table", "json"))
    p_basis.add_argument("--exact", action="store_true",
                         help="additionally run the symbolic exact validation (small n)")

    p_check = sub.add_parser("check", help="Einstein check for a metric x-vector")
    common(p_check, formats=("table", "json"))
    p_check.add_argument("--x", required=True,
                         help="comma-separated metric constants, e.g. 7,1,7")
    p_check.add_argument("--tol", type=float, default=curvature.DEFAULT_EINSTEIN_TOL)

    p_solve = sub.add_parser("solve", help="find all Einstein metrics of a configuration")
    common(p_solve)
    p_solve.add_argument("--starts", type=int, default=400)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--tol", type=float, default=curvature.DEFAULT_EINSTEIN_TOL)

    p_cat = sub.add_parser("catalog", help="enumerate and classify all metrics for n")
    common(p_cat, scheme=False)
    p_cat.add_argument("--starts", type=int, default=400)
    p_cat.add_argument("--seed", type=int, default=0)
    p_cat.add_argument("--tol", type=float, default=curvature.DEFAULT_EINSTEIN_TOL)

    parser.commands = {"basis": p_basis, "check": p_check, "solve": p_solve, "catalog": p_cat}
    return parser


_DISPATCH = {"basis": cmd_basis, "check": cmd_check, "solve": cmd_solve, "catalog": cmd_catalog}


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command's own parser reads its options, as the full parser would have it
    # do; any other argv gets the full parser's help and errors
    command = _parser.commands.get(argv[0]) if argv else None
    args = (_parser.parse_args(argv) if command is None
            else command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    try:
        _validate(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a run too large for the host, or a defect: not a verdict
        oom = isinstance(exc, MemoryError)
        detail = " ".join(str(exc).split())
        what = "out of memory" if oom else f"internal error: {type(exc).__name__}"
        print(f"error: {what}{': ' + detail if detail else ''}", file=sys.stderr)
        return 2 if oom else 3


if __name__ == "__main__":
    sys.exit(main())
