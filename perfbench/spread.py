"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload poisson-converge [--first-seed N] [--out FILE]

It runs ten seeds in a row, from ``--first-seed`` (101) on.  For every
end-to-end metric it prints the ten values' median, quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, beside the bound in BENCHMARK.json.
``--out`` merges the numbers into a JSON record keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_seed(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(x for x in lines if x.startswith("environment "))[12:])
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    values: dict[str, list] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = attempted = 0
    env = None
    for seed in seeds:
        result, env = run_seed(args.workload, seed, spec["run_seconds"])
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    summary = {"seeds": seeds, "attempted": attempted, "failed": failed, "metrics": {}}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "values": vals, "median": statistics.median(vals),
            "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
        }
        print(f"{m['name']}: median {statistics.median(vals):.6g} {m['unit']}, "
              f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f} (bound {m['bound']})")
    print(f"operations attempted {attempted}, failed {failed}")
    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["environment"] = {k: v for k, v in env.items()
                                 if k not in ("workload", "seed", "trace")}
        record.setdefault("workloads", {})[args.workload] = summary
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
