"""Benchmark harness for bezmortar: end-to-end runs and a traced per-layer run.

Run from the root of a source checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload poisson-converge --seed 1234 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seconds 35      # every workload, both modes

A run first starts the library cold several times to time set-up, then
repeats the workload, each repetition in a fresh single-threaded process,
until ``--seconds`` would be exceeded (at least once).  With ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics of the
median traced repetition are reported.  Times are scaled to a reference
host speed by a fixed calibration load timed in every repetition.  Every
repetition's outputs are checked; a failed check or a library error is a
failed operation.  The last stdout line is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER, named_spans, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("poisson-converge", "weak-mesh-export", "largedef-newton")
END_TO_END = {"setup_s": "s", "wall_s": "s", "dofs_per_s": "1/s", "peak_rss_mb": "MB"}
# cold starts are cheap (about 0.6 s) and noisy, so take many: every
# repetition adds one more to these probes
SETUP_PROBES = 5
# worker.calibrate() takes about this long at the host speed the reported
# times are scaled to: the median of 312 calibrations on the 2-vCPU Xeon VM
# the benchmark was made on
REFERENCE_CAL_S = 0.21
# every run must end well inside 180 s, whatever the workload does
HARD_LIMIT_S = 165.0
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BEZMORTAR_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {v: BLAS_THREADS for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "load": "closed loop, one client, sequential calls, one process per repetition",
    }


def run_worker(extra: list, timeout: float) -> dict:
    """Start one worker, wait for it; a crash or a timeout is a failure."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--t0", repr(t0)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"proc_s": time.perf_counter() - t0, "errors": [f"timed out after {timeout:.0f} s"]}
    proc_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"proc_s": proc_s, "errors": [f"worker exit {proc.returncode}: {tail}"]}
    out = json.loads(lines[-1])
    out["proc_s"] = proc_s
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
            log=print) -> dict:
    """Set-up probes, then repetitions until the time budget is spent."""
    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(["--setup-only"], 60.0)
        if "setup_s" not in probe:
            raise RuntimeError(f"library does not start: {probe['errors'][0]}")
        setups.append(probe["setup_s"])
    reps = []
    last = {}
    t_measure = time.perf_counter()
    while True:
        traced = int(trace and len(reps) % 2 == 1)
        elapsed = time.perf_counter() - t_measure
        have_all = len(reps) >= (2 if trace else 1)
        expected = last.get(traced, max(last.values(), default=0.0))
        if have_all and elapsed + expected > seconds:
            break
        budget = HARD_LIMIT_S - (time.perf_counter() - started)
        if budget < 5.0 and have_all:
            break
        rep = run_worker(["--workload", workload, "--seed", str(seed),
                          "--trace", str(traced), "--workdir", str(workdir)], budget)
        rep["traced"] = traced
        reps.append(rep)
        last[traced] = rep["proc_s"]
        if "setup_s" in rep:
            setups.append(rep["setup_s"])
        status = "ok" if not rep["errors"] else "FAILED: " + "; ".join(rep["errors"])
        log(f"rep {len(reps)} {'traced' if traced else 'untraced'}: "
            f"wall_s={rep.get('wall_s', float('nan')):.4f} "
            f"cal_s={rep.get('cal_s', float('nan')):.4f} "
            f"rss_mb={rep.get('rss_mb', float('nan')):.1f} {status}")
    return {"setups": setups, "reps": reps}


def _median_rep(reps: list) -> dict:
    ordered = sorted(reps, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def summarise(run: dict, trace: int) -> dict:
    """Medians over the run, with times scaled to the reference host speed.

    A repetition's wall time is divided by the calibration timed beside it
    and multiplied by REFERENCE_CAL_S; set-up time is scaled by the run's
    median calibration.  A change to the library moves these times as much
    as the raw ones, while the host's own changes of speed cancel.
    """
    reps = run["reps"]
    good = [r for r in reps if not r["errors"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(reps) - len(good)
    cals = [r["cal_s"] for r in reps if "cal_s" in r]
    cal = statistics.median(cals) if cals else REFERENCE_CAL_S
    if plain:
        wall = statistics.median(r["wall_s"] / r["cal_s"] for r in plain) * REFERENCE_CAL_S
        raw_wall = statistics.median(r["wall_s"] for r in plain)
        dofs = plain[0]["dofs"]
        rss = statistics.median(r["rss_mb"] for r in plain)
    else:
        # failures never count as a fast run: charge the whole measurement
        wall = raw_wall = sum(r["proc_s"] for r in reps)
        dofs, rss = 0, max((r.get("rss_mb", 0.0) for r in reps), default=0.0)
    e2e = {
        "setup_s": statistics.median(run["setups"]) * REFERENCE_CAL_S / cal,
        "wall_s": wall,
        "dofs_per_s": dofs / wall,
        "peak_rss_mb": rss,
    }
    out = {"attempted": len(reps), "failed": failed, "end_to_end": e2e,
           "samples": {"setup_s": len(run["setups"]), "wall_s": len(plain)},
           "raw": {"setup_s": statistics.median(run["setups"]), "wall_s": raw_wall,
                   "cal_s": cal}}
    if trace and traced:
        chosen = _median_rep(traced)
        layer = chosen["trace"]
        overhead = (statistics.median(r["wall_s"] for r in traced) - raw_wall) if plain else 0.0
        layer["metrics"]["trace.overhead_s"] = overhead
        out["trace"] = layer
        out["samples"]["traced"] = len(traced)
    return out


def final_json(summary: dict, trace: int) -> dict:
    if trace:
        values = summary.get("trace", {}).get("metrics", {})
        metrics = {m: {"value": values.get(m, 0), "unit": unit(m)} for m in PER_LAYER}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END[m]}
                   for m, v in summary["end_to_end"].items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def report(summary: dict, trace: int, log=print) -> None:
    n, raw = summary["samples"], summary["raw"]
    log(f"host speed: calibration median {raw['cal_s']:.4f} s against "
        f"{REFERENCE_CAL_S} s; unscaled setup_s {raw['setup_s']:.6g} s, "
        f"wall_s {raw['wall_s']:.6g} s")
    for m, v in summary["end_to_end"].items():
        count = n["setup_s"] if m == "setup_s" else n["wall_s"]
        log(f"metric {m} = {v:.6g} {END_TO_END[m]} (median of {count})")
    if not trace or "trace" not in summary:
        return
    layer = summary["trace"]
    absent = set(layer["absent"])
    for m in PER_LAYER:
        shown = "absent" if m in absent else f"{layer['metrics'][m]:.6g} {unit(m)}"
        log(f"layer {m} = {shown}")
    for cells, secs in layer["levels"]:
        log(f"level cells={cells} solve_case_s={secs:.4f}")
    systems = Counter(map(tuple, layer["systems"]))
    log("linear_solve systems (dofs, nnz) x calls: "
        + (", ".join(f"({dofs}, {nnz}) x {k}" for (dofs, nnz), k in sorted(systems.items()))
           or "none"))
    named = [name for name in named_spans() if name in layer["spans"]]
    self_sum = sum(layer["spans"][name]["self_s"] for name in named)
    wall, rest = layer["metrics"]["trace.wall_s"], layer["metrics"]["trace.unattributed_s"]
    log(f"trace check: self_s of the {len(named)} named layers ({self_sum:.4f} s, "
        f"{100 * self_sum / wall:.1f}%) + unattributed_s ({rest:.4f} s) = "
        f"{self_sum + rest:.4f} s; trace.wall_s = {wall:.4f} s")
    if layer["hook_errors"]:
        log(f"hook errors (counts incomplete): {layer['hook_errors']}")


def run_one(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    run = measure(workload, seed, seconds, trace, workdir,
                  log=lambda s: print(s, flush=True))
    summary = summarise(run, trace)
    env = environment(workload, seed, seconds, trace)
    env["trace_overhead_s"] = summary.get("trace", {}).get("metrics", {}).get("trace.overhead_s")
    print(f"environment {json.dumps(env)}", flush=True)
    report(summary, trace)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.all or args.workload):
        ap.error("give --workload NAME or --all")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "bezmortar" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.all:
            record = {}
            for wl in WORKLOADS:
                for trace in (0, 1):
                    print(f"== {wl} trace={trace}", flush=True)
                    record[f"{wl}/trace={trace}"] = run_one(wl, args.seed, args.seconds,
                                                           trace, workdir)
            final = {"correct": all(s["failed"] == 0 for s in record.values()),
                     "attempted": sum(s["attempted"] for s in record.values()),
                     "failed": sum(s["failed"] for s in record.values()),
                     "metrics": {}}
            for key, s in record.items():
                wl, trace = key.split("/trace=")
                for m, v in final_json(s, int(trace))["metrics"].items():
                    final["metrics"][f"{wl}.{m}"] = v
        else:
            record = run_one(args.workload, args.seed, args.seconds, args.trace, workdir)
            final = final_json(record, args.trace)
    except RuntimeError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
