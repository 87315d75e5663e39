"""Command-line interface: mesh generation, solves and convergence studies.

Exit codes: 0 on success, 2 on usage errors (an output path that cannot be
written among them), 3 on numerical failures.
The library is imported inside main(), after the arguments are parsed, so
``--help`` and a malformed command line answer without loading numpy and
scipy.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bezmortar",
        description="Multi-patch isogeometric analysis with dual mortar coupling",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--case", required=True, help="benchmark case id")
        # a case setting that is not given takes BenchmarkCase's default
        p.add_argument("--p", type=int, default=argparse.SUPPRESS, help="spline degree")
        p.add_argument("--ratio", default=argparse.SUPPRESS,
                       help="master:slave element ratio, e.g. 2:3")
        p.add_argument("--n", type=int, default=argparse.SUPPRESS, dest="dual_refine",
                       help="dual space refinement level")
        p.add_argument("--mismatched", action="store_true",
                       help="perturb interface parameterizations")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="RNG seed")

    mesh = sub.add_parser("mesh", help="generate a mesh file")
    common(mesh)
    mesh.add_argument("--weak", action="store_true",
                      help="embed compiled weakly continuous element operators")
    mesh.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="solve one benchmark level")
    common(solve)
    solve.add_argument("--method", default="mortar",
                       choices=["mortar", "weak", "saddle"])
    # a load option is in the namespace only when given, so a case it does not apply to refuses it
    solve.add_argument("--increments", type=int, default=argparse.SUPPRESS,
                       help="load increments (largedef cases; default 20)")
    solve.add_argument("--tol-factor", type=float, default=argparse.SUPPRESS,
                       help="Newton tolerance factor (largedef cases; default 1e8)")
    solve.add_argument("--pressure", type=float, default=argparse.SUPPRESS,
                       help="override the dead-load pressure (largedef cases)")
    solve.add_argument("-o", "--output", required=True,
                       help="output prefix (.coeffs.json and .summary.csv)")
    for p in (mesh, solve):
        p.add_argument("--level", type=int, default=0, help="uniform refinement level")

    # a study runs levels 0 .. --levels - 1, so it takes no --level, nor
    # reads --level as an abbreviation of --levels
    conv = sub.add_parser("converge", help="run a convergence study", allow_abbrev=False)
    common(conv)
    conv.add_argument("--levels", type=int, default=4)
    conv.add_argument("--method", default="mortar",
                      choices=["mortar", "weak", "saddle"])
    conv.add_argument("-o", "--output", required=True)
    return ap


def _ratio(text: str):
    try:
        m, s = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"--ratio takes M:S with positive integers M and S, "
                         f"got {text!r}") from None
    return m, s


def _check_output(path: str) -> None:
    """Refuse ``path`` before any work unless the operating system lets its
    directory take a new file (a temporary one, deleted at once)."""
    try:
        tempfile.TemporaryFile(dir=os.path.dirname(path) or os.curdir).close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)

    from .benchmarks import (CASES, LARGEDEF_PRESSURE, BenchmarkCase, build_case, case_error,
                             mesh_size, run_convergence, run_largedef, solve_case)
    from .linsys import NumericalError
    from .mesh_io import convergence_csv, dump_mesh, mesh_document

    settings = {k: v for k, v in vars(args).items()
                if k in ("p", "ratio", "dual_refine", "seed")}
    loading = {k: v for k, v in vars(args).items()
               if k in ("increments", "tol_factor", "pressure")}
    try:
        if "ratio" in settings:
            settings["ratio"] = _ratio(settings["ratio"])
        case = BenchmarkCase(args.case, matched=not args.mismatched, **settings)
    except ValueError as exc:
        ap.error(str(exc))  # exits 2
    # a given option nothing would read is refused, not ignored
    if "seed" in settings and not args.mismatched:
        ap.error("--seed applies only with --mismatched")
    if loading and not CASES[case.case].loads:
        ap.error(f"--{next(iter(loading)).replace('_', '-')} applies only to a largedef case")

    try:
        _check_output(args.output + (".coeffs.json" if args.command == "solve" else ""))
        if args.command == "mesh":
            doc = mesh_document(build_case(case, args.level), weak=args.weak,
                                meta={"case": case.case, "level": args.level, "seed": case.seed})
            _write(args.output, dump_mesh(doc))
            print(f"wrote {args.output}")
            return 0

        if args.command == "solve":
            if CASES[case.case].loads:
                if args.method != "weak":
                    ap.error("largedef cases run on the weakly continuous mesh "
                             "(use --method weak)")
                loads = {"pressure": LARGEDEF_PRESSURE, "increments": 20, "tol_factor": 1e8,
                         **loading}
                field = run_largedef(case.case, args.level, loads["increments"],
                                     loads["tol_factor"], pressure=loads["pressure"])
                summary = [("case", case.case), ("method", "weak"), ("level", args.level),
                           ("dofs", field.mesh.ndof * 2),
                           *((k, format(v, ".17g")) for k, v in loads.items())]
            else:
                solved = solve_case(case, args.level, args.method)
                field = solved["field"]
                # n is written: on a conforming interface the first dual
                # refinement inserts no knot, so n = 0 and n = 1 solve alike
                summary = [("case", case.case), ("method", args.method),
                           ("n", case.dual_refine), ("level", args.level),
                           ("dofs", solved["dofs"]),
                           ("h", format(mesh_size(solved["model"].patches), ".17g")),
                           ("l2_error", format(case_error(case, solved), ".17g"))]
            coeffs = [format(float(v), ".17g") for v in field.values]
            _write(args.output + ".coeffs.json", "[\n" + ",\n".join(coeffs) + "\n]\n")
            _write(args.output + ".summary.csv", ",".join(k for k, _ in summary) + "\n"
                   + ",".join(str(v) for _, v in summary) + "\n")
            print(f"wrote {args.output}.coeffs.json and {args.output}.summary.csv")
            return 0

        if args.command == "converge":
            report = run_convergence(case, args.levels, args.method)
            _write(args.output, convergence_csv(report))
            print(f"wrote {args.output}")
            return 3 if report.failed else 0

    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
