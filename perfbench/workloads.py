"""Workload definitions: the reduced CLI presets and their output checks.

Each workload is one `oamturb` CLI invocation.  The benchmark appends
`--seed <workload seed>` and `--out-dir <work dir>` and calls
`oamturb.cli.main` in-process once per pass.  Every pass's output files
are checked with tolerances, never against a stored file, so a change that
legitimately moves the random stream still passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Monte Carlo points of ph_curve must lie within this many of their own
# standard errors of the quadrature value.  Success-probability samples are
# skewed (a run that misses the rare large values has a small mean and a
# small standard error), so the band is wide and the workload keeps 100
# realizations: resampling 100 of 2,500 screens per strength put the gap
# beyond 6 standard errors in at most 1 of 20,000 draws, against 0.75% at
# 20 realizations.
PH_BAND_STDERR = 6.0


def _read_csv(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_mub_scan(out_dir: str) -> list[str]:
    summary = _read_summary(out_dir)
    rows = _read_csv(out_dir, "fidelity_scan.csv")
    cfg = summary["config"]
    problems = []
    expected = 6 * len(cfg["strengths"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if not summary["min_cell_mean"] >= 0.997:
        problems.append(f"min_cell_mean {summary['min_cell_mean']} < 0.997")
    for row in rows:
        if not 0.997 <= float(row["fidelity_mean"]) <= 1.0 + 1e-9:
            problems.append(f"cell fidelity {row['fidelity_mean']} outside [0.997, 1]")
    rates = [float(row["loss_rate"]) for row in rows]
    if any(not 0.0 <= r <= 1.0 for r in rates):
        problems.append("loss rate outside [0, 1]")
    losses = round(sum(rates) * cfg["realizations"])
    if losses != summary["total_losses"]:
        problems.append(
            f"total_losses {summary['total_losses']} != {losses} summed over cells"
        )
    return problems


def check_rotation_scan(out_dir: str) -> list[str]:
    summary = _read_summary(out_dir)
    rows = _read_csv(out_dir, "rotation_scan.csv")
    problems = []
    expected = 6 * summary["config"]["n_angles"]
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if not summary["max_variation"] < 1e-6:
        problems.append(f"max_variation {summary['max_variation']} >= 1e-6")
    if any(not float(row["fidelity_mean"]) >= 0.997 for row in rows):
        problems.append("a rotated cell has fidelity below 0.997")
    return problems


def check_ph_curve(out_dir: str) -> list[str]:
    summary = _read_summary(out_dir)
    rows = _read_csv(out_dir, "ph_curve.csv")
    problems = []
    expected = len(summary["config"]["strengths"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    w = [float(row["w_over_r0"]) for row in rows]
    ph = [float(row["ph_analytic"]) for row in rows]
    if w != sorted(w):
        problems.append("strengths not sorted")
    if any(a < b for a, b in zip(ph, ph[1:])) or not summary["monotone_nonincreasing"]:
        problems.append("analytic curve not monotone nonincreasing")
    for row, p in zip(rows, ph):
        mc = float(row["ph_mc_mean"])
        err = float(row["ph_mc_stderr"])
        if not 0.0 < p <= 1.0:
            problems.append(f"ph_analytic {p} outside (0, 1]")
        if not (err > 0.0 and abs(mc - p) <= PH_BAND_STDERR * err):
            problems.append(
                f"w/r0={row['w_over_r0']}: Monte Carlo {mc} +/- {err} is more than "
                f"{PH_BAND_STDERR} standard errors from quadrature {p}"
            )
    return problems


def check_calibrate(out_dir: str) -> list[str]:
    summary = _read_summary(out_dir)
    rows = _read_csv(out_dir, "calibration.csv")
    problems = []
    if summary["guard_failures"]:
        problems.append(f"guard failures: {summary['guard_failures']}")
    expected = len(summary["config"]["strengths"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    rho = summary["spearman_rho"]
    if not (math.isfinite(rho) and rho == 1.0):
        problems.append(f"rank correlation {rho} != 1")
    if not summary["monotone_nondecreasing"]:
        problems.append("inferred strengths not monotone")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    args: tuple[str, ...]
    grid_n: int
    grid_extent: float
    lg_modes: tuple[int, ...]  # LG indices warmed during set-up
    check: Callable[[str], list[str]]

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """CLI arguments of one pass; the grid is explicit so that set-up
        warms the caches for exactly the grid the pass uses."""
        return [self.command, "--grid-n", str(self.grid_n),
                "--grid-extent", repr(self.grid_extent), *self.args,
                "--seed", str(seed), "--out-dir", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mub_scan", "fidelity-scan", ("--realizations", "2"),
                 256, 8.0, (1, -1), check_mub_scan),
        Workload("rotation_scan", "rotation-scan", ("--realizations", "1"),
                 256, 8.0, (1, -1), check_rotation_scan),
        Workload("ph_curve", "ph-curve",
                 ("--strengths", "0.2,0.6,1.0,1.4", "--realizations", "100"),
                 256, 8.0, (1, -1), check_ph_curve),
        Workload("calibrate_512", "calibrate",
                 ("--strengths", "0.2,0.6,1.0", "--realizations", "100"),
                 512, 16.0, (0,), check_calibrate),
    )
}
