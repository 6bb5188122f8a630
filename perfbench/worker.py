"""One workload in a fresh interpreter: set up, then closed-loop passes.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
                      [--setup-only]

Prints "ready" once `oamturb.cli` is imported and the workload grid's LG
modes and screen-synthesis tables are cached; run.py times set-up up to
that line.  Then it runs passes of `oamturb.cli.main` one after another
(a single client, `--workers 1`) until the next pass would end past
`--seconds`, checks each pass's output files, and prints one JSON line
with the passes, the peak RSS and the environment.  With `--trace 1`
untraced and traced passes alternate after an untraced warm-up pass, so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import oamturb.cli
from oamturb.fields import GridSpec, make_lg_mode
from oamturb.turbulence import TurbulenceParams, generate_screen

from tracer import Tracer
from workloads import WORKLOADS


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in sorted(os.environ) if "THREADS" in k},
    }


def warm(workload) -> None:
    grid = GridSpec(workload.grid_n, workload.grid_extent)
    for l in workload.lg_modes:
        make_lg_mode(l, grid)
    generate_screen(TurbulenceParams(w_over_r0=1.0), grid, 0).phase_factor


def run_pass(workload, seed: int, out_dir: str, tracer: Tracer | None) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    main = oamturb.cli.main if tracer is None else tracer.wrap("cli.main", oamturb.cli.main)
    argv = workload.argv(seed, out_dir)
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            code = main(argv)
        else:
            with tracer:
                code = main(argv)
    except Exception:  # a crash is a failed pass, not a failed benchmark
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        try:
            problems = workload.check(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "ok": not problems, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    warm(workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.join(args.workdir, "out")
    passes, layers = [], []
    start = time.perf_counter()
    while True:
        # With tracing, pass 0 is an untraced warm-up (the first pass in a
        # process can run slower); traced and untraced passes then
        # alternate, at least one of each.
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        passes.append(run_pass(workload, args.seed, out_dir, tracer))
        if tracer is not None:
            layers.append(tracer.summary())
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > args.seconds and (not args.trace or len(passes) >= 3):
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
