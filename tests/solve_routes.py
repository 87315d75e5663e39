"""Time linear_solve's three factorizations on the benchmark cases' free blocks.

Builds the condensed system of each swept case level on the mortar route, as
``benchmarks.solve_case`` does (Poisson or elasticity, Neumann loads,
Dirichlet rows, ``condense``), and reports its rows, free rows m, the band
(the largest distance of a free-block entry from the diagonal) in the
natural order and in the reverse Cuthill-McKee order of the block's pattern,
the order ``linsys`` picks (the narrower, natural on a tie), the band
storage (b + 1) m of that order, the block's asymmetry max |K - K^T| / max |K|,
and the time and peak memory of whole ``linear_solve`` calls on each route:
dense LU, banded Cholesky and SuperLU.  A route is forced with
``unittest.mock`` in the timing process, so the timed code is the library's
own: ``linsys._DENSE_ROWS`` is raised to the system's rows for dense and
lowered to 0 otherwise, ``linsys._banded_cholesky`` passes every block on
for SuperLU, and a spy on ``splu`` records whether the banded route passed
its block on.
Each (block, route) is timed in ``REPEATS`` fresh interpreters with one BLAS
thread: the first call, then the median of warm calls (at least 3, until
0.5 s have passed or 30 calls), and the interpreter's peak resident set
before the first call and at its end.  The medians over the interpreters are
reported.  Dense is skipped above 3,000 rows, where it takes seconds and
hundreds of megabytes.

From the medians it derives the bounds of ``linsys.linear_solve``: the
fewest rows at which banded Cholesky beats dense LU on both the first and
the warm call (the dense bound lies below them), and, among the blocks
above the dense bound that banded Cholesky factors, those on which it is
slower than SuperLU on either call, or whose peak resident set exceeds
SuperLU's by more than 10%.  Where there are none, no bound on the band is
needed.

The swept blocks are ``square-mixed`` (mismatched, ratio 2:3, dual level 1)
at p = 2 levels 0-6 and p = 4 levels 0-3, ``annulus`` and both plates
(mismatched) at levels 0-5.  It takes several minutes and up to half a
gigabyte, so it is a script, not a test.  Run it from the repository root:

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
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("dense", "banded", "superlu")
DENSE_MAX_ROWS = 3000
REPEATS = 3
# the peak resident set of the banded route may exceed SuperLU's by this share
# before the band needs a bound; the benchmark's bound on peak_rss_mb
RSS_SHARE = 0.1


def blocks():
    """(label, BenchmarkCase settings, level) of every swept block."""
    families = [(dict(case="square-mixed", p=2, matched=False), 7),
                (dict(case="square-mixed", p=4, matched=False), 4),
                (dict(case="annulus"), 6),
                (dict(case="plate-hole-2patch", matched=False), 6),
                (dict(case="plate-hole-3patch", matched=False), 6)]
    for settings, levels in families:
        for level in range(levels):
            label = " ".join([settings["case"]] + [f"{k}={v}" for k, v in settings.items()
                                                   if k != "case"] + [f"level {level}"])
            yield label, settings, level


def build(settings: dict, level: int, path: Path) -> dict:
    """Save one condensed system and its constraints to ``path``; return its shape."""
    import numpy as np
    from scipy.sparse.csgraph import reverse_cuthill_mckee

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
    B = K[free][:, free].tocoo().tocsr()  # duplicates summed, as linsys sums them
    i, j = B.tocoo().coords
    at = np.argsort(reverse_cuthill_mckee(B, symmetric_mode=True))
    natural = int(np.abs(i - j).max(initial=0))
    rcm = int(np.abs(at[i] - at[j]).max(initial=0))
    m = B.shape[0]
    return {"rows": K.shape[0], "free": m, "band_natural": natural, "band_rcm": rcm,
            "order": "rcm" if rcm < natural else "natural",
            "band_storage": m * (min(natural, rcm) + 1),
            "asymmetry": float(abs(B - B.T).max() / abs(B).max())}


def _peak_rss_mb() -> float:
    """This process's peak resident set (Linux ``VmHWM``).  Unlike
    ``getrusage``'s ``ru_maxrss``, which a child inherits from the sweep
    process that starts it, it counts only this interpreter's own memory."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024  # kB


def time_route(path: str, route: str) -> dict:
    """First and warm ``linear_solve`` times and peak memory of one saved
    system on one route."""
    import numpy as np
    import scipy.sparse as sp

    from bezmortar import linsys

    z = np.load(path)
    n = len(z["indptr"]) - 1
    K = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(n, n))
    system = linsys.AssembledSystem(K, z["f"], int(z["ncomp"]))
    constraints = list(zip(z["fixed"].tolist(), z["values"].tolist()))
    force = {"_DENSE_ROWS": n if route == "dense" else 0}
    if route == "superlu":
        force["_banded_cholesky"] = mock.Mock(return_value=None)
    loaded = _peak_rss_mb()
    with mock.patch.multiple(linsys, **force), \
            mock.patch.object(linsys.spla, "splu", wraps=linsys.spla.splu) as superlu:
        t0 = time.perf_counter()
        linsys.linear_solve(system, constraints)
        first = time.perf_counter() - t0
        warm, start = [], time.perf_counter()
        while len(warm) < 3 or (len(warm) < 30 and time.perf_counter() - start < 0.5):
            t0 = time.perf_counter()
            linsys.linear_solve(system, constraints)
            warm.append(time.perf_counter() - t0)
    out = {"first_s": first, "warm_s": float(np.median(warm)), "warm_calls": len(warm),
           "loaded_rss_mb": loaded, "peak_rss_mb": _peak_rss_mb()}
    if route == "banded":  # the block must have been factored, not passed on to SuperLU
        out["cholesky"] = superlu.call_count == 0
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
                if route == "dense" and row["rows"] > DENSE_MAX_ROWS:
                    row[route] = None
                    continue
                runs = [json.loads(subprocess.run(
                    [sys.executable, __file__, "--time", str(path), route], env=env,
                    check=True, capture_output=True, text=True).stdout) for _ in range(REPEATS)]
                row[route] = {key: float(np.median([r[key] for r in runs]))
                              for key in ("first_s", "warm_s", "loaded_rss_mb", "peak_rss_mb")}
                if route == "banded":
                    row[route]["cholesky"] = all(r["cholesky"] for r in runs)
                row[route]["runs"] = runs
            print(json.dumps({key: row[key] for key in ("block", "rows", "band_natural",
                                                        "band_rcm")}
                             | {r: row[r] and [row[r]["first_s"], row[r]["warm_s"],
                                               row[r]["peak_rss_mb"]] for r in ROUTES}),
                  file=sys.stderr, flush=True)
            results.append(row)
    return {"blocks": results, "bounds": bounds(results)}


def _faster(row: dict, a: str, b: str, both: bool) -> bool:
    """Route a beats route b on the first and (``both``) or (not ``both``) the warm call."""
    first, warm = (row[a][key] < row[b][key] for key in ("first_s", "warm_s"))
    return (first and warm) if both else (first or warm)


def bounds(results: list) -> dict:
    """The blocks that set the dense bound and, among the blocks above it that
    banded Cholesky factors, those that would need a bound on the band."""
    timed = [r for r in results if r["dense"] and r["banded"]]
    dense = min((r for r in timed if _faster(r, "banded", "dense", True)),
                key=lambda r: r["rows"], default=None)
    below = max((r["rows"] for r in timed if dense is None or r["rows"] < dense["rows"]),
                default=0)
    banded = [r for r in results if r["banded"]["cholesky"] and r["rows"] > below]
    return {
        "banded_beats_dense_from": dense and {"block": dense["block"], "rows": dense["rows"]},
        "dense_wins_up_to_rows": below,
        "banded_blocks_above_the_dense_bound": len(banded),
        "banded_slower_than_superlu": [r["block"] for r in banded
                                       if _faster(r, "superlu", "banded", False)],
        "banded_rss_over_superlu": [r["block"] for r in banded if r["banded"]["peak_rss_mb"]
                                    > (1 + RSS_SHARE) * r["superlu"]["peak_rss_mb"]],
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
