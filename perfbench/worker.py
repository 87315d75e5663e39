"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --t0 T --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --t0 T --setup-only

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process; on Linux both read the system-wide monotonic clock, so the set-up
time covers interpreter start and the imports.  Prints one JSON line.
"""

import sys
import time

# timed: the cold start every CLI call pays
import bezmortar
import bezmortar.benchmarks  # noqa: F401
import bezmortar.mesh_io  # noqa: F401

READY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed load of interpreter and small-array numpy work.

    It touches nothing of the library, so only the host's speed moves it.
    That speed changes by up to 1.8x for minutes at a time on a small shared
    host; timed beside every repetition, it lets run.py scale the run's
    times to one host speed.
    """
    t = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(300_000):
        x = i * 0.5
        acc += x * x - acc * 1e-9
        table[i & 1023] = x
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(12_000):
        b = a @ a.T
        a = b / b.max() + np.eye(8)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(bezmortar.__file__).startswith(src + os.sep):
        print(f"bezmortar imported from {bezmortar.__file__}, not {src}", file=sys.stderr)
        return 3
    out = {"setup_s": READY - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import layers
    from spans import Recorder, install
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    cal_before = calibrate()
    rec = undo = None
    if args.trace:
        rec = Recorder()
        absent, undo = install(rec, layers.TARGETS, layers.PACKAGE)
    result, error = None, None
    start = time.perf_counter()
    try:
        result = wl.run(inputs, args.workdir)
    except Exception:  # a library failure is a failed operation, not a crash
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if undo is not None:
        undo()
    out["cal_s"] = (cal_before + calibrate()) / 2
    out["wall_s"] = wall
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        try:
            errors = wl.check(inputs, result, args.seed)
            out["dofs"] = wl.dofs(result)
        except Exception as exc:  # output no longer has the checked shape
            errors = [f"check raised {exc!r}"]
    else:
        errors = [error.strip().splitlines()[-1]]
        print(error, file=sys.stderr)
    out["errors"] = errors
    if rec is not None:
        out["trace"] = layers.layer_metrics(rec, absent, wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
