"""Compare the model quantities and CLI outputs of this tree with those of another commit.

Builds the same grid of case models from the working tree and from a
``git archive`` of ``--against`` and reports, quantity by quantity, whether
they are bitwise identical:

- ``P``, the prolongation;
- ``Bm`` of ``multiplier_blocks()``, which stacks every interface's
  coupling matrix G against the master edge functions;
- the cell groups of the mortar and the weak stream: their ``index``,
  ``rows`` and the shapes of their operators and geometry (the pattern),
  and the values of their operators ``ophom`` and of their geometry
  ``geo``, the homogeneous Bezier control points;
- the standard cells, the mortar cells with no trace row, with the same
  fields;
- each interface's coupling record: its quadrature ``segments`` and its
  coupling matrix ``G``;
- the jump norm ``interface_jump_norm(model, v)`` of the fixed
  two-component field v_k = sin(0.37 k), k < 2 ``ndof_full``;
- on the linear cases, the Dirichlet rows ``dirichlet_rows(mortar mesh,
  ncomp, dirichlet)`` of the case's problem: their rows (the pattern) and
  their values, whose move is read against the largest value.

The grid is 93 case variants and 24 corner chains.  At mesh levels 0-2:
``square-mixed`` at p 1-4, matched and mismatched, ratios 2:3, 3:2 and
2:2, dual levels n 0-2; ``annulus`` at n 0-2; both plates, matched and
mismatched, at n 0-2; the weak and the conforming model of
``largedef_model``, which the three large-deformation cases share.  At
level 0, which is its only level: ``square-demo`` at n 0-3.  The corner
chains are ``cases.corner_chain`` on each of the 8 pairs of a slave side
and an adjacent master side, at degrees 1, 2, 3 and n 0-2: each has a
master edge through a slave corner.  Each tree is snapshotted in its own
subprocess with one BLAS thread, and the subprocesses stream their models
to this one in step, so one model pair is held at a time.  For each quantity it prints one of three results:
identical; pattern or shape moved, with the models; or the largest relative
value move, per cell of a group or per stored entry of ``P`` and ``Bm``,
with its model.

Then it runs a fixed list of command-line calls in both trees, each tree in
one subprocess with one BLAS thread (see :func:`commands`), and
compares their output files byte for byte.  For an output whose bytes moved
it prints the largest relative move of its numbers (per number in a CSV
file, against the file's largest magnitude in a JSON file), or that its text
moved.  Last it prints the criterion-10 outcome of both trees: the pinned
large-deformation protocol of ``tests/test_acceptance.py``, whose failure
message carries the Newton residual.

It builds 295 models per tree, so it is a script, not a test: pytest's
default ``test_*.py`` pattern does not collect it.  Run it from the
repository root:

    python tests/same_results.py --against <git-ref>

It exits 0 when every quantity and every output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUANTITIES = ("P", "Bm", "mortar cells", "weak cells", "standard cells", "segments", "G",
              "jump norm", "Dirichlet rows")
SIDES = ("west", "east", "south", "north")  # side k pins direction k // 2
CASES = ("square-dirichlet", "square-mixed", "annulus", "plate-hole-2patch", "plate-hole-3patch",
         "largedef-case1", "largedef-case2", "largedef-case3", "square-demo")
LINEAR, LARGEDEF = CASES[:5], CASES[5:8]


def grid():
    """(label, BenchmarkCase settings, level) of every model compared."""
    variants = [dict(case="square-mixed", p=p, matched=matched, ratio=ratio, dual_refine=n)
                for p in (1, 2, 3, 4) for matched in (True, False)
                for ratio in ((2, 3), (3, 2), (2, 2)) for n in (0, 1, 2)]
    variants += [dict(case="annulus", dual_refine=n) for n in (0, 1, 2)]
    variants += [dict(case=case, matched=matched, dual_refine=n)
                 for case in ("plate-hole-2patch", "plate-hole-3patch")
                 for matched in (True, False) for n in (0, 1, 2)]
    variants += [dict(case="largedef", weak=weak) for weak in (True, False)]
    variants = [(settings, (0, 1, 2)) for settings in variants]
    variants += [(dict(case="square-demo", dual_refine=n), (0,)) for n in (0, 1, 2, 3)]
    variants += [(dict(case="corner-chain", slave=slave, master=master, dual_refine=n), (0,))
                 for slave in SIDES for master in SIDES
                 if SIDES.index(slave) // 2 != SIDES.index(master) // 2 for n in (0, 1, 2)]
    for settings, levels in variants:
        for level in levels:
            label = " ".join([settings["case"]] + [f"{k}={v}" for k, v in settings.items()
                                                   if k != "case"] + [f"level {level}"])
            yield label, settings, level


def snapshot(settings: dict, level: int) -> dict:
    """Every compared quantity of one model, as plain arrays."""
    import numpy as np
    import scipy.sparse as sp

    from bezmortar.benchmarks import (CASES, BenchmarkCase, build_case, interface_jump_norm,
                                      largedef_model)
    from bezmortar.fem import dirichlet_rows
    from cases import corner_chain

    if "weak" in settings:  # the model every large-deformation case builds
        model = largedef_model(level, settings["weak"])
    elif settings["case"] == "corner-chain":
        model = corner_chain(settings["slave"], settings["master"], (1, 2, 3),
                             ((2, 2), (2, 3), (3, 2)), settings["dual_refine"])
    else:
        model = build_case(BenchmarkCase(**settings), level)
    try:
        Bm = model.multiplier_blocks()[0]
    except TypeError:  # multiplier_blocks(ncomp) refused a master edge through a
        # slave corner; its scalar Bm was the sorted stack of the rows G E
        Bm = sp.vstack([sp.csr_matrix((0, model.ndof_full))] + model._constraints, format="csr")
        Bm.sort_indices()
    snap = {name: ((M.shape, M.indptr, M.indices), (M.data,))
            for name, M in (("P", model.P), ("Bm", Bm))}
    mortar = model.mortar_mesh().groups
    standard = [(g.rows < model.n_retained).all(axis=1) for g in mortar]
    for name, cells in (("mortar cells", [(g, slice(None)) for g in mortar]),
                        ("weak cells", [(g, slice(None)) for g in model.weak_mesh().groups]),
                        ("standard cells", list(zip(mortar, standard)))):
        snap[name] = ([(g.index[s], g.rows[s], g.ophom[s].shape, g.geo[s].shape)
                       for g, s in cells],
                      [a for g, s in cells for a in (g.ophom[s], g.geo[s])])
    for name in ("segments", "G"):
        arrays = [getattr(c, name) for c in model.couplings]
        snap[name] = ([a.shape for a in arrays], arrays)
    v = np.sin(0.37 * np.arange(2 * model.ndof_full))
    snap["jump norm"] = ((), [np.array([interface_jump_norm(model, v)])])
    problem = CASES[settings["case"]].linear if settings["case"] in CASES else None
    rows = (dirichlet_rows(model.mortar_mesh(), problem.ncomp, problem.dirichlet)
            if problem else [])
    snap["Dirichlet rows"] = ([r for r, _ in rows], [np.array([[v for _, v in rows]])])
    return snap


def commands():
    """(output name, arguments) of every compared command-line call: ``mesh
    --weak`` on every case; ``solve`` by the three methods at level 1 on the
    linear cases; the mismatched ``square-mixed`` convergence study over three
    levels; and the large-deformation cases at 12 GPa in five increments."""
    for case in CASES:
        yield f"mesh-{case}.json", ["mesh", "--case", case, "--weak"]
    for case in LINEAR:
        for method in ("mortar", "weak", "saddle"):
            yield f"solve-{case}-{method}", ["solve", "--case", case, "--method", method,
                                             "--level", "1"]
    yield "converge.csv", ["converge", "--case", "square-mixed", "--mismatched", "--levels", "3"]
    for case in LARGEDEF:
        yield f"solve-{case}", ["solve", "--case", case, "--method", "weak", "--increments", "5",
                                "--pressure", "12e9"]


def cli_worker(out: Path) -> None:
    """Run every command into ``out``, then print the criterion-10 outcome."""
    from bezmortar import cli
    from bezmortar.benchmarks import LARGEDEF_PRESSURE, weak_vs_conforming_relative_error
    from bezmortar.linsys import NumericalError

    result = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # the commands' messages go to stderr
    for name, args in commands():
        if cli.main([*args, "-o", str(out / name)]):
            raise SystemExit(f"{' '.join(args)} failed")
    try:  # the protocol of test_criterion_10_large_deformation
        rep = weak_vs_conforming_relative_error("largedef-case1", 3, increments=20,
                                                tol_factor=1e8, pressure=LARGEDEF_PRESSURE)
        outcome = "; ".join(r["status"] for r in rep.rows)
    except NumericalError as exc:
        outcome = str(exc)
    print(outcome, file=result, flush=True)


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _number_move(new: str, old: str, per_number: bool) -> float | None:
    """Largest relative move of the numbers of two outputs, or None when the
    text between the numbers moved."""
    if _NUMBER.split(new) != _NUMBER.split(old):
        return None
    a, b = ([float(x) for x in _NUMBER.findall(text)] for text in (new, old))
    if per_number:
        return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y),
                   default=0.0)
    scale = max(map(abs, b), default=0.0)
    return max(abs(x - y) for x, y in zip(a, b)) / scale if scale else float(a != b)


def compare_cli(ref_tree: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / side for side in ("this", "ref")]
        procs = []
        for tree, out in zip((ROOT, ref_tree), outs):
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
            procs.append(subprocess.Popen([sys.executable, __file__, "--cli-worker", str(out)],
                                          stdout=subprocess.PIPE, text=True, env=env))
        outcomes = [p.communicate()[0].strip() for p in procs]
        if any(p.returncode for p in procs):
            raise SystemExit("a command-line subprocess failed")
        new, old = ({f.name: f.read_bytes() for f in out.iterdir()} for out in outs)
    if sorted(new) != sorted(old):
        raise SystemExit("the trees wrote different output files")
    moved = []
    for name in sorted(new):
        if new[name] != old[name]:
            move = _number_move(new[name].decode(), old[name].decode(), name.endswith(".csv"))
            moved.append(f"{name}: " + ("text moved" if move is None
                                        else f"largest relative move {move:.2e}"))
    print(f"{len(new)} output files of {sum(1 for _ in commands())} commands: "
          f"{len(new) - len(moved)} bytes identical")
    for line in moved:
        print(line)
    print(f"criterion 10, this tree: {outcomes[0]}")
    print(f"criterion 10, reference: {outcomes[1]}")
    return int(bool(moved) or outcomes[0] != outcomes[1])


def worker() -> None:
    """Pickle each model's snapshot to the original stdout, in grid order."""
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, not into the stream
    for _, settings, level in grid():
        pickle.dump(snapshot(settings, level), out)
        out.flush()


def _same(a, b) -> bool:
    """Nested tuples and lists of arrays, shapes and ints, equal bit for bit."""
    import numpy as np

    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return a == b


def _relative_move(new: list, old: list) -> float:
    """Largest max |new - old| / max |old| over the leading axis of each array:
    per cell of a group, per stored entry of ``P`` and ``Bm``."""
    import numpy as np

    move = 0.0
    for x, y in zip(new, old):
        if not y.size:
            continue
        diff, scale = (np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0) for a in (x - y, y))
        move = max(move, float(np.max(diff / np.where(scale > 0, scale, 1.0), initial=0.0)))
    return move


def compare(ref: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        procs = []
        for tree in (ROOT, Path(tmp)):
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
            procs.append(subprocess.Popen([sys.executable, __file__, "--worker"],
                                          stdout=subprocess.PIPE, env=env))
        moved = {q: [] for q in QUANTITIES}
        worst = {q: (0.0, None, 0) for q in QUANTITIES}  # move, its model, models bitwise
        count = 0
        for label, _, _ in grid():
            try:
                new, old = (pickle.load(p.stdout) for p in procs)
            except EOFError:
                raise SystemExit("a snapshot subprocess failed") from None
            count += 1
            for q in QUANTITIES:
                (new_pattern, new_values), (old_pattern, old_values) = new[q], old[q]
                if not _same(new_pattern, old_pattern):
                    moved[q].append(label)
                    continue
                move, at, same = worst[q]
                if _same(new_values, old_values):
                    worst[q] = (move, at, same + 1)
                    continue
                rel = _relative_move(new_values, old_values)
                worst[q] = (rel, label, same) if rel > move or at is None else (move, at, same)
        if any(p.wait() for p in procs):
            raise SystemExit("a snapshot subprocess failed")
        print(f"{count} models, this tree against {ref}:")
        status = _report(count, moved, worst)
        print(f"command-line outputs, this tree against {ref}:")
        return max(status, compare_cli(Path(tmp)))


def _report(count: int, moved: dict, worst: dict) -> int:
    status = 0
    for q in QUANTITIES:
        move, at, same = worst[q]
        if moved[q]:
            status = 1
            print(f"{q}: pattern or shape moved on {len(moved[q])} models: "
                  + "; ".join(moved[q]))
        elif at is None:
            print(f"{q}: identical on all {count} models")
            continue
        if at is not None:
            status = 1
            print(f"{q}: values bitwise identical on {same} of {count} models; largest "
                  f"relative move {move:.2e} ({at})")
    return status


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="git ref to compare this tree with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cli-worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if args.cli_worker:
        cli_worker(args.cli_worker)
        return 0
    if not args.against:
        ap.error("--against is required")
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
