"""Time linear_solve's three factorizations on the benchmark cases' free blocks.

Builds the condensed system of each swept case level on the mortar route, as
``benchmarks.solve_case`` does (Poisson or elasticity, Neumann loads,
Dirichlet rows, ``condense``), and reports its rows, free rows, band b (the
largest distance of a free-block entry from the diagonal), band work
m (b + 1)², the block's asymmetry max |K - K^T| / max |K|, and the time of
whole ``linear_solve`` calls on each route: dense LU, banded Cholesky and
SuperLU.  A route is forced by setting ``linsys._DENSE_ROWS`` and
``linsys._BAND_WORK`` in the timing process, so the timed code is the
library's own.  Each (block, route) is timed in ``REPEATS`` fresh
interpreters with one BLAS thread: the first call, then the median of warm
calls (at least 3, until 0.5 s have passed or 30 calls); the medians over
the interpreters are reported.  Dense is skipped above 3,000 rows and banded
above a band work of 2.5e10, where they take seconds and hundreds of
megabytes.

From the medians it derives the two bounds of ``linsys.linear_solve``: the
fewest rows at which banded Cholesky beats dense LU on both the first and
the warm call (the dense bound lies below them), and, among the blocks
above the dense bound, the least band work at which banded Cholesky is
slower than SuperLU on either call (the band budget lies below it).

The swept blocks are ``square-mixed`` (mismatched, ratio 2:3, dual level 1)
at p = 2 levels 0-6 and p = 4 levels 0-3, ``annulus`` and both plates
(mismatched) at levels 0-4.  It takes several minutes, so it is a script,
not a test.  Run it from the repository root:

    python tests/solve_routes.py -o sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("dense", "banded", "superlu")
DENSE_MAX_ROWS = 3000
BAND_MAX_WORK = 2.5e10
REPEATS = 3


def blocks():
    """(label, BenchmarkCase settings, level) of every swept block."""
    families = [(dict(case="square-mixed", p=2, matched=False), 7),
                (dict(case="square-mixed", p=4, matched=False), 4),
                (dict(case="annulus"), 5),
                (dict(case="plate-hole-2patch", matched=False), 5),
                (dict(case="plate-hole-3patch", matched=False), 5)]
    for settings, levels in families:
        for level in range(levels):
            label = " ".join([settings["case"]] + [f"{k}={v}" for k, v in settings.items()
                                                   if k != "case"] + [f"level {level}"])
            yield label, settings, level


def build(settings: dict, level: int, path: Path) -> dict:
    """Save one condensed system and its constraints to ``path``; return its shape."""
    import numpy as np

    from bezmortar.benchmarks import CASES, BenchmarkCase, build_case
    from bezmortar.coupling import condense
    from bezmortar.fem import assemble_neumann, dirichlet_rows

    case = BenchmarkCase(**settings)
    problem = CASES[case.case].linear
    mesh = build_case(case, level).mortar_mesh()
    system = problem.assemble(mesh)
    system.f += assemble_neumann(mesh, problem.ncomp, problem.neumann)
    rows = dirichlet_rows(mesh, problem.ncomp, problem.dirichlet)
    red = condense(system, mesh)
    K = red.K.tocsr()
    fixed = np.array([r for r, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=float)
    np.savez(path, data=K.data, indices=K.indices, indptr=K.indptr, f=red.f, fixed=fixed,
             values=values, ncomp=red.ncomp)
    free = np.ones(K.shape[0], dtype=bool)
    free[fixed] = False
    B = K[free][:, free].tocoo()
    band = int(np.abs(B.row - B.col).max(initial=0))
    m = B.shape[0]
    return {"rows": K.shape[0], "free": m, "band": band, "band_work": m * (band + 1) ** 2,
            "asymmetry": float(abs(B - B.T).max() / abs(B).max())}


def time_route(path: str, route: str) -> dict:
    """First and warm ``linear_solve`` times of one saved system on one route."""
    import numpy as np
    import scipy.sparse as sp

    from bezmortar import linsys

    z = np.load(path)
    n = len(z["indptr"]) - 1
    K = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(n, n))
    system = linsys.AssembledSystem(K, z["f"], int(z["ncomp"]))
    constraints = list(zip(z["fixed"].tolist(), z["values"].tolist()))
    linsys._DENSE_ROWS = n if route == "dense" else 0
    linsys._BAND_WORK = float("inf") if route == "banded" else -1
    t0 = time.perf_counter()
    linsys.linear_solve(system, constraints)
    first = time.perf_counter() - t0
    warm, start = [], time.perf_counter()
    while len(warm) < 3 or (len(warm) < 30 and time.perf_counter() - start < 0.5):
        t0 = time.perf_counter()
        linsys.linear_solve(system, constraints)
        warm.append(time.perf_counter() - t0)
    out = {"first_s": first, "warm_s": float(np.median(warm)), "warm_calls": len(warm)}
    if route == "banded":  # the block must have been factored, not passed on to SuperLU
        free = np.ones(n, dtype=bool)
        free[z["fixed"]] = False
        out["cholesky"] = linsys._banded_cholesky(K, free, z["f"][free]) is not None
    return out


def sweep() -> dict:
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, settings, level) in enumerate(blocks()):
            path = Path(tmp) / f"block{k}.npz"
            row = {"block": label, **build(settings, level, path)}
            for route in ROUTES:
                if ((route == "dense" and row["rows"] > DENSE_MAX_ROWS)
                        or (route == "banded" and row["band_work"] > BAND_MAX_WORK)):
                    row[route] = None
                    continue
                runs = [json.loads(subprocess.run(
                    [sys.executable, __file__, "--time", str(path), route], env=env,
                    check=True, capture_output=True, text=True).stdout) for _ in range(REPEATS)]
                row[route] = {key: float(np.median([r[key] for r in runs]))
                              for key in ("first_s", "warm_s")}
                row[route]["runs"] = runs
            print(json.dumps({key: row[key] for key in ("block", "rows", "band", "band_work")}
                             | {r: row[r] and [row[r]["first_s"], row[r]["warm_s"]]
                                for r in ROUTES}), file=sys.stderr, flush=True)
            results.append(row)
    return {"blocks": results, "bounds": bounds(results)}


def _faster(row: dict, a: str, b: str, both: bool) -> bool:
    """Route a beats route b on the first and (``both``) or (not ``both``) the warm call."""
    first, warm = (row[a][key] < row[b][key] for key in ("first_s", "warm_s"))
    return (first and warm) if both else (first or warm)


def bounds(results: list) -> dict:
    """The blocks that set the dense bound and, among the blocks above it, the
    band budget."""
    timed = [r for r in results if r["dense"] and r["banded"]]
    dense = min((r for r in timed if _faster(r, "banded", "dense", True)),
                key=lambda r: r["rows"], default=None)
    below = max((r["rows"] for r in timed if dense is None or r["rows"] < dense["rows"]),
                default=0)
    timed = [r for r in results if r["banded"] and r["superlu"] and r["rows"] > below]
    slower = min((r for r in timed if _faster(r, "superlu", "banded", False)),
                 key=lambda r: r["band_work"], default=None)
    return {
        "banded_beats_dense_from": dense and {"block": dense["block"], "rows": dense["rows"]},
        "dense_wins_up_to_rows": below,
        "banded_slower_than_superlu_from": slower and {"block": slower["block"],
                                                       "band_work": slower["band_work"]},
        "largest_band_work_below": max((r["band_work"] for r in timed if slower is None
                                        or r["band_work"] < slower["band_work"]), default=None),
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", help="write the sweep as JSON to this file")
    ap.add_argument("--time", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.time:
        print(json.dumps(time_route(*args.time)))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    text = json.dumps(sweep(), indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
