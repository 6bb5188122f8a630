"""oamturb benchmark: reduced CLI presets, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Set-up is timed SETUP_SAMPLES times, each
in a fresh interpreter (worker.py); the last of those interpreters then
runs the workload's passes.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  The line before
it holds the details: every pass, the set-up samples, the per-layer
spans and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
# One client at --workers 1, so one thread per BLAS/OpenMP pool (never more
# than the CPUs there are).  Pinned because the Monte Carlo output differs in
# the last bits between 1 and 2 BLAS threads, and 2 threads double the CPU
# time for the same wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# run.py must exit within 180 s; leave room to stop the worker.
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env.update({name: "1" for name in THREAD_VARS})
    return env


def start_worker(args, workdir: str, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; return it with the
    set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def percentiles(values: list[float]) -> dict:
    """Median, and the highest of p90/p99/p99.9 that has at least ten
    samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (0.999, 0.99, 0.9):
        if len(values) * (1 - p) >= 10:
            out[f"p{p * 100:g}"] = statistics.quantiles(values, n=1000)[round(p * 1000) - 1]
            break
    return out


def layer_metrics(traced: list[dict], untraced: list[dict], layers: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes, and for process.*
    over the untraced passes that follow the warm-up."""

    def med(fn):
        return statistics.median(fn(s) for s in layers)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("turbulence.generate_screen", "turbulence.phase_factor",
                  "elements.decode", "fields.rotate_modal", "fields.propagate",
                  "analytic.coupling_coefficients", "analytic.ring_coefficients"):
        m[f"{layer}.calls"] = (med(lambda s: s[layer]["calls"]), "count")
        m[f"{layer}.busy_s"] = (med(lambda s: s[layer]["busy_s"]), "s")
    for layer in ("turbulence.beam_broadening_mc", "montecarlo.engine"):
        m[f"{layer}.busy_s"] = (med(lambda s: s[layer]["busy_s"]), "s")
        m[f"{layer}.self_s"] = (med(lambda s: s[layer]["self_s"]), "s")
    m["elements.decodes_per_screen"] = (med(lambda s: ratio(
        s["elements.decode"]["calls"], s["turbulence.generate_screen"]["calls"])), "ratio")
    m["montecarlo.realizations_per_s"] = (med(lambda s: ratio(
        s["montecarlo.engine"]["screens"], s["montecarlo.engine"]["busy_s"])), "1/s")
    m["cli.main.busy_s"] = (med(lambda s: s["cli.main"]["busy_s"]), "s")
    m["cli.self_s"] = (med(lambda s: s["cli.main"]["self_s"]), "s")
    m["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in untraced), "s")
    m["process.cpu_per_wall"] = (
        statistics.median(p["cpu_s"] / p["wall_s"] for p in untraced), "ratio")
    m["process.tracing_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced), "s")
    return m


def largest_layer(layers: list[dict]) -> str:
    """The layer with the most self time, summed over traced passes."""
    totals = {}
    for summary in layers:
        for layer, rec in summary.items():
            if layer != "cli.main":
                totals[layer] = totals.get(layer, 0.0) + rec["self_s"]
    return max(totals, key=totals.get)


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "oamturb", "cli.py")):
        raise BenchError(f"no program source under {SRC}; run from a checkout")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, workdir, setup_only=True)
            finish_worker(proc, deadline)
            setups.append(setup)
        proc, setup = start_worker(args, workdir, setup_only=False)
        setups.append(setup)
        out = finish_worker(proc, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = sum(not p["ok"] for p in passes)
    # a pass counts towards run_s only if its checks passed
    good = [p["wall_s"] for p in untraced if p["ok"]] or [p["wall_s"] for p in untraced]
    run_s = percentiles(good)
    end_to_end = {
        "run_s": (run_s["median"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "workload": workload.name,
        "argv": workload.argv(args.seed, "<out>"),
        "seed": args.seed,
        "run_s": run_s,
        "setup_s_samples": setups,
        "passes": passes,
        "environment": result["environment"],
    }
    if args.trace:
        metrics = layer_metrics(traced, untraced[1:], result["layers"])
        details["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
        details["largest_layer"] = largest_layer(result["layers"])
        details["layers"] = result["layers"]
    else:
        metrics = end_to_end
    report = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        details, report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
