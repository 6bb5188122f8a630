"""Command-line front end: presets, validation runs, and data export.

Subcommands: ph-curve, fidelity-scan, rotation-scan, screen-validate,
calibrate.  Configuration comes from per-command defaults, optionally a
JSON config file (--config; a manifest.json from a previous run is also
accepted), with explicit flags winning.  Each command computes its tables
and summary fields; main hands them to one writer, which puts the CSVs,
summary.json and a manifest.json recording the resolved config into
--out-dir.  Re-running with --config manifest.json reproduces the data
files bytewise.

Exit codes: 0 success, 1 usage/configuration error, unwritable output or
too little memory, 2 numerical or statistical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os.path
import platform
import re
import resource
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__, analytic
from .analytic import DEFAULT_STRENGTHS, QuadratureConfig, ring_coefficients
from .elements import MUB_LABELS, HybridQubit, mub_states
from .errors import (
    AliasingError,
    DomainError,
    OamTurbError,
    StatisticsError,
    ToleranceError,
)
from .fields import BOUNDARY_ENERGY_LIMIT, GridSpec
from .montecarlo import (
    ExperimentConfig,
    run_fidelity_scan,
    run_rotation_scan,
)
from .parallel import blas_threads, resolve_workers
from .turbulence import (
    TurbulenceParams,
    _screen_loop,
    _screen_statistics,
    beam_broadening_sweep,
    fried_from_broadening,
    fried_parameter,
    generate_screen,
    save_screen,
    screen_key,
    structure_function,
)

# every key is also a flag of its command (grid_n: --grid-n), typed by
# its default (_kind); a config file's values must have the same types
_COMMAND_DEFAULTS: dict[str, dict] = {
    command: {
        "seed": 2,
        "grid_n": 256,
        "grid_extent": 8.0,
        "workers": 0,  # every usable core
        "out_dir": os.path.join("runs", command.replace("-", "_")),
        **specific,
    }
    for command, specific in {
        "ph-curve": {
            "strengths": list(DEFAULT_STRENGTHS),
            "l": 1,
            "realizations": 500,
            "radial_nodes": 200,
            "angular_nodes": 512,
            "tolerance": 1e-6,
        },
        "fidelity-scan": {
            "strengths": list(DEFAULT_STRENGTHS),
            "l": 1,
            "realizations": 500,
        },
        "rotation-scan": {
            "strength": 0.6,
            "n_angles": 16,
            "l": 1,
            "realizations": 30,
        },
        "screen-validate": {
            "strength": 1.0,
            "realizations": 2000,
            "export_screens": 0,
        },
        "calibrate": {
            "grid_n": 512,
            "grid_extent": 16.0,
            "strengths": [0.0, 0.2, 0.6, 1.0, 1.4],
            "realizations": 100,
            "distance": 30.0,
            "wavelength": 0.01,
            "lambda_nm": None,
            "cn2": None,
            "path_m": None,
            "waist_mm": None,
        },
    }.items()
}


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


_COMMAND_HELP = {
    "ph-curve": "analytic vs Monte Carlo success probability curve",
    "fidelity-scan": "MUB-state fidelity vs turbulence strength",
    "rotation-scan": "fidelity vs receiver frame angle at one strength",
    "screen-validate": "phase screen statistics vs theory",
    "calibrate": "infer w/r0 from Gaussian beam broadening",
}

# help text by config key; a key not listed has a flag without help
_HELP = {
    "seed": "master seed",
    "grid_n": "grid samples per axis",
    "grid_extent": "grid side length in waist units",
    "realizations": "Monte Carlo realizations (or screens) per cell",
    "out_dir": "output directory",
    "workers": "engine worker threads, 0 (the default) for every usable core; "
               "results are worker-count independent",
    "radial_nodes": "nodes of the separation and ring-radius rules",
    "angular_nodes": "nodes of the ring-angle rule",
    "export_screens": "also write the first K screens as CSV",
    "distance": "propagation distance in waist units",
    "wavelength": "wavelength in waist units",
    "lambda_nm": "physical wavelength (nm); use with --cn2/--path-m/--waist-mm",
    "cn2": "Cn^2 in m^(-2/3)",
    "path_m": "path length (m)",
    "waist_mm": "beam waist (mm)",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(default):
    """The flag parser, the config-value test and the phrase an error uses
    for a key with this default.  None takes a number or null; a bool is
    not an integer."""
    if isinstance(default, list):
        return (_float_list, lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "a list of numbers")
    if isinstance(default, int):
        return int, lambda v: _is_number(v) and isinstance(v, int), "an integer"
    if isinstance(default, float):
        return float, _is_number, "a number"
    if default is None:
        return float, lambda v: v is None or _is_number(v), "a number or null"
    return str, lambda v: isinstance(v, str), "a string"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamturb",
        description="Hybrid polarization/OAM qubits through Kolmogorov turbulence: "
        "presets, validation and calibration runs.",
    )
    parser.add_argument("--version", action="version", version=f"oamturb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _COMMAND_DEFAULTS.items():
        # no abbreviations: --strength must not stand for --strengths
        p = sub.add_parser(command, help=_COMMAND_HELP[command], allow_abbrev=False)
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=_kind(default)[0],
                           help=_HELP.get(key))
        p.add_argument("--config", help="JSON config or a previous run's manifest.json")
    return parser


class _UsageError(Exception):
    pass


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(_COMMAND_DEFAULTS[command])
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(loaded, dict) and "subcommand" in loaded and "config" in loaded:
            if loaded["subcommand"] != command:
                raise _UsageError(
                    f"manifest is for {loaded['subcommand']!r}, not {command!r}"
                )
            loaded = loaded["config"]
        if not isinstance(loaded, dict):
            raise _UsageError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise _UsageError(f"unknown config keys for {command}: {', '.join(unknown)}")
        for key, value in loaded.items():
            _, ok, kind = _kind(cfg[key])
            if not ok(value):
                raise _UsageError(f"config key {key!r} must be {kind}, got {value!r}")
        cfg.update(loaded)
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    resolve_workers(cfg["workers"])  # a negative count fails before any work
    if cfg["seed"] < 0:  # one message for every command, before any work
        raise _UsageError(f"seed must be nonnegative, got {cfg['seed']}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


class _Record(NamedTuple):
    """What one command computed: its CSV tables by file name, each a
    header and rows; its summary fields, to which the writer adds
    "config"; its Monte Carlo work, the realizations it ran summed over
    strengths (a zero-turbulence field is one field, not an ensemble, so
    no command counts any for it); and a message that ends the run with
    exit code 2 once the files are written."""

    tables: dict[str, tuple[list[str], list[list]]]
    summary: dict
    realizations: int
    failure: str | None = None


def _write_record(command: str, cfg: dict, record: _Record, compute_s: float) -> None:
    """Write a run's CSV tables, summary.json and manifest.json into
    cfg["out_dir"], creating it if needed.  The manifest's timings give
    compute_s, the command's wall time, realizations_per_s, the record's
    realizations over compute_s, and write_s, the time spent writing the
    tables and summary.json; peak_rss_mb beside them is the process's peak
    resident memory in MiB."""
    start = time.perf_counter()
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    for name, (header, rows) in record.tables.items():
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    _write_json(os.path.join(out, "summary.json"), {"config": cfg, **record.summary})
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "subcommand": command,
        "config": cfg,
        "master_seed": cfg["seed"],
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # what produced the run; outside "config", so a replay ignores it
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(),
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "cpu_count": os.cpu_count(),
            # the engines' threads, and OpenBLAS's own (a pool of more workers holds it at 1)
            "workers": resolve_workers(cfg["workers"]),
            "blas_threads": blas_threads(),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        # wall times in seconds; like "environment", never replayed
        "timings": {"compute_s": compute_s,
                    "realizations_per_s": record.realizations / compute_s,
                    "write_s": time.perf_counter() - start},
        # the process's peak resident memory so far; Linux reports kilobytes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)


def _scipy_version() -> str | None:
    """The Version field of the first scipy-*.dist-info on sys.path, the
    metadata importlib.metadata.version("scipy") reads; None when there is
    none.  Neither scipy nor importlib.metadata is imported: the email
    parser the latter loads stays resident, about 1.3 MiB of a run's peak."""
    for entry in sys.path:
        try:
            names = sorted(os.listdir(entry or "."))
        except OSError:  # a zip archive or a missing directory
            continue
        for name in names:
            if name.startswith("scipy-") and name.endswith(".dist-info"):
                try:
                    with open(os.path.join(entry or ".", name, "METADATA"),
                              encoding="utf-8") as fh:
                        return next((line[len("Version:"):].strip() for line in fh
                                     if line.startswith("Version:")), None)
                except OSError:  # no readable METADATA: not an installed copy
                    continue
    return None


def _strict(obj):
    """obj with every non-finite float (NaN, +-inf) as None, so that it
    dumps as strict JSON: null, not NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _grid(cfg: dict) -> GridSpec:
    return GridSpec(cfg["grid_n"], cfg["grid_extent"])


def _scan(cfg: dict, strengths, states, labels, angles=()) -> tuple[list, int]:
    """The rows of run_rotation_scan, given angles, or else of
    run_fidelity_scan, over cfg's realizations, seed and grid, one cell per
    distinct strength in ascending order, and the realizations drawn:
    n_realizations per nonzero strength.  Either engine is looked up in
    this module at call time, so that a wrapper installed here sees it."""
    config = ExperimentConfig(
        strengths=tuple(sorted({float(s) for s in strengths})), states=states,
        state_labels=labels, n_realizations=cfg["realizations"], master_seed=cfg["seed"],
        grid=_grid(cfg), angles=angles)
    run = run_rotation_scan if angles else run_fidelity_scan
    return (run(config, n_workers=cfg["workers"]),
            config.n_realizations * sum(s != 0.0 for s in config.strengths))


def cmd_ph_curve(cfg: dict) -> _Record:
    quad = QuadratureConfig(cfg["radial_nodes"], cfg["angular_nodes"], cfg["tolerance"])
    l = int(cfg["l"])
    mc_rows, realizations = _scan(cfg, cfg["strengths"], [HybridQubit(1, 0, l)], ("0",))
    rows = []
    residuals = []
    ring = []
    ring_residuals = []
    for mc in mc_rows:
        params = TurbulenceParams(w_over_r0=mc.w_over_r0)
        # looked up on the module, so wrappers installed there see the call
        cc = analytic.coupling_coefficients(l, params, quad)
        residuals.append(cc.residual)
        rows.append([mc.w_over_r0, cc.c0, mc.success_prob.mean, mc.success_prob.stderr])
        # single-radius reduction, for reference
        rc = ring_coefficients(l, params, quad)
        ring.append(rc.c0)
        ring_residuals.append(rc.residual)
    gaps = [abs(r[1] - r[2]) / r[1] for r in rows if r[1] > 0]
    spread = [r for r in rows if r[3] > 0]  # a zero stderr is no yardstick
    return _Record(
        {"ph_curve.csv": (["w_over_r0", "ph_analytic", "ph_mc_mean", "ph_mc_stderr"],
                          rows)},
        {
            "n_strengths": len(rows),
            "ph_ring_half_angle_variant": ring,
            "max_relative_gap_mc_vs_analytic": max(gaps),
            "max_gap_in_stderr": max((abs(r[2] - r[1]) / r[3] for r in spread), default=None),
            "max_mc_rel_stderr": max((r[3] / r[2] for r in spread), default=None),
            "max_quadrature_residual": max(residuals),
            "max_ring_quadrature_residual": max(ring_residuals),
            "monotone_nonincreasing": all(
                rows[i][1] >= rows[i + 1][1] - 1e-12 for i in range(len(rows) - 1)
            ),
        },
        realizations,
    )


def cmd_fidelity_scan(cfg: dict) -> _Record:
    result, realizations = _scan(cfg, cfg["strengths"], mub_states(int(cfg["l"])), MUB_LABELS)
    rows = [
        [r.w_over_r0, r.state_label, r.fidelity.mean, r.fidelity.stderr,
         r.n_loss / cfg["realizations"]]
        for r in result
    ]
    means = [r.fidelity.mean for r in result]
    return _Record(
        {"fidelity_scan.csv": (["w_over_r0", "state_label", "fidelity_mean",
                                "fidelity_stderr", "loss_rate"], rows)},
        {
            "overall_fidelity_mean": float(np.mean(means)),
            "overall_fidelity_dispersion": float(np.std(means)),
            "min_cell_mean": float(np.min(means)),
            "total_losses": int(sum(r.n_loss for r in result)),
            "max_fidelity_overshoot": max(r.fidelity_overshoot for r in result),
            "min_success_prob": min(r.success_prob.min for r in result),
        },
        realizations,
    )


def cmd_rotation_scan(cfg: dict) -> _Record:
    n_angles = int(cfg["n_angles"])
    if n_angles < 1:
        raise _UsageError("--n-angles must be at least 1")
    # numpy refuses a count past its size limit before it allocates
    angles = tuple((2 * np.pi * np.arange(n_angles) / n_angles).tolist())
    result, realizations = _scan(cfg, [cfg["strength"]], mub_states(int(cfg["l"])), MUB_LABELS,
                                 angles)
    rows = [[r.theta, r.state_label, r.fidelity.mean, r.fidelity.stderr]
            for r in result]
    variation = {}
    for label in MUB_LABELS:
        means = [r.fidelity.mean for r in result if r.state_label == label]
        variation[label] = float(max(means) - min(means))
    all_means = [r.fidelity.mean for r in result]
    return _Record(
        {"rotation_scan.csv": (["theta", "state_label", "fidelity_mean",
                                "fidelity_stderr"], rows)},
        {
            "fidelity_mean_over_all_points": float(np.mean(all_means)),
            "fidelity_std_over_all_points": float(np.std(all_means)),
            "max_variation_per_state": variation,
            "max_variation": max(variation.values()),
            "max_fidelity_overshoot": max(r.fidelity_overshoot for r in result),
        },
        realizations,
    )


_STRUCTURE_HEADER = ["separation", "d_empirical", "d_stderr", "d_theory"]
_COHERENCE_HEADER = ["separation", "coherence_empirical", "coherence_stderr",
                     "coherence_theory", "within_3_stderr"]


def cmd_screen_validate(cfg: dict) -> _Record:
    grid = _grid(cfg)
    strength = float(cfg["strength"])
    n_screens = int(cfg["realizations"])
    n_export = min(int(cfg["export_screens"]), n_screens)
    seed = int(cfg["seed"])
    if n_screens < 1:
        raise _UsageError("--realizations must be at least 1")
    if n_export < 0:
        raise _UsageError("--export-screens must be nonnegative")
    params = TurbulenceParams(w_over_r0=strength)
    pitch = grid.pitch
    if strength == 0.0:
        record = _Record(
            {"structure_function.csv": (_STRUCTURE_HEADER, []),
             "coherence.csv": (_COHERENCE_HEADER, [])},
            # the one field at zero strength, as _scale writes it: all zeros
            {"passed": True, "zero_turbulence": True, "max_abs_phase": 0.0},
            0,  # a zero-strength screen is one field, not an ensemble
        )
    else:
        r0 = 1.0 / strength  # Fried length in waist units
        # an infinite r0 / pitch is past any grid
        r0_lag = int(round(r0 / pitch)) if np.isfinite(r0 / pitch) else grid.n
        if r0_lag > grid.n - 1:
            raise _UsageError(
                f"Fried length r0 = {r0:g} waists exceeds the grid span "
                f"{(grid.n - 1) * pitch:g} waists; raise --grid-extent or --strength"
            )
        if r0_lag < 1:
            raise _UsageError(f"Fried length r0 = {r0:g} waists rounds to pixel lag 0 at "
                              f"pitch {pitch:g} waists; raise --grid-n or lower --grid-extent")
        lags = sorted({
            max(1, int(round(x / pitch)))
            for x in np.geomspace(0.2 * r0, 2.0 * r0, 10)
        } | {r0_lag})
        seps = [lag * pitch for lag in lags if lag <= grid.n - 1]
        if len(seps) < 2:
            raise _UsageError(f"separations 0.2-2 r0 all round to pixel lag {lags[0]}; the "
                              "slope fit needs two: raise --grid-n or lower --strength")
        coh_seps = seps[:: max(1, len(seps) // 5)]
        # every argument check runs before the first screen is drawn
        d_emp, coh_emp = _screen_statistics(
            n_screens, grid, seps, coh_seps,
            lambda values: _screen_loop(  # each screen's statistics on its worker
                [params], n_screens, lambda _, i: (seed, i), grid, cfg["workers"],
                lambda _, i, phase, u: values(i, phase, u)))
        d_rows = [[sep, *d_emp[sep], structure_function(sep, params)] for sep in seps]

        sep_r0 = r0_lag * pitch
        d_at_r0 = d_emp[sep_r0][0]
        ratio = d_at_r0 / structure_function(sep_r0, params)
        logs, logd = np.log([row[:2] for row in d_rows]).T
        slope = float(np.polyfit(logs, logd, 1)[0])

        coh_rows = []
        for sep in coh_seps:
            mean, err = coh_emp[sep]
            theory = float(np.exp(-structure_function(sep, params) / 2))
            coh_rows.append([sep, mean, err, theory, abs(mean - theory) <= 3 * err])
        coh_ok = all(row[4] for row in coh_rows)

        d_ok = abs(ratio - 1.0) <= 0.10
        slope_ok = abs(slope - 5 / 3) <= 0.10
        passed = d_ok and slope_ok and coh_ok
        record = _Record(
            {"structure_function.csv": (_STRUCTURE_HEADER, d_rows),
             "coherence.csv": (_COHERENCE_HEADER, coh_rows)},
            {
                "d_at_r0": d_at_r0,
                "d_at_r0_ratio_to_theory": ratio,
                "d_ratio_ok": d_ok,
                "loglog_slope": slope,
                "slope_ok": slope_ok,
                "coherence_ok": coh_ok,
                "passed": passed,
            },
            n_screens,
            None if passed else (
                "statistics outside tolerance bands "
                f"(D ratio {ratio:.4f}, slope {slope:.4f}, coherence ok={coh_ok})"
            ),
        )
    for i in range(n_export):  # drawn again on this thread, once every check has passed
        os.makedirs(os.path.join(cfg["out_dir"], "screens"), exist_ok=True)
        save_screen(generate_screen(params, grid, screen_key(seed, i)),
                    os.path.join(cfg["out_dir"], "screens", f"screen_{i:04d}.csv"))
    return record


def _ranks(x) -> np.ndarray:
    """1-based ranks of x, tied values sharing their average rank: the
    count of smaller values plus (count of equal values + 1) / 2."""
    x = np.asarray(x, dtype=float)
    return (x[:, None] > x).sum(axis=1) + ((x[:, None] == x).sum(axis=1) + 1) / 2


def _spearman(a, b) -> float:
    """Spearman rank correlation sum(da db) / sqrt(sum(da^2) sum(db^2)) of
    the centred ranks: exactly 1.0 when the two rankings agree (a single
    square root of a square), NaN when either input is constant."""
    da, db = _ranks(a), _ranks(b)
    da -= da.mean()
    db -= db.mean()
    with np.errstate(invalid="ignore"):
        return float(np.sum(da * db) / np.sqrt(np.sum(da * da) * np.sum(db * db)))


def cmd_calibrate(cfg: dict) -> _Record:
    grid = _grid(cfg)
    physical = {k: cfg[k] for k in ("lambda_nm", "cn2", "path_m", "waist_mm")}
    given = [k for k, v in physical.items() if v is not None]
    strengths = sorted({float(s) for s in cfg["strengths"]})  # one row per strength
    if given:
        if len(given) < 4:
            raise _UsageError(
                "physical units need all of --lambda-nm, --cn2, --path-m, --waist-mm"
            )
        for key, value in physical.items():
            if not (np.isfinite(value) and value > 0):
                flag = "--" + key.replace("_", "-")
                raise _UsageError(f"{flag} must be finite and positive, got {value}")
        r0_m = fried_parameter(physical["lambda_nm"] * 1e-9, physical["cn2"],
                               physical["path_m"])
        w_over_r0 = (physical["waist_mm"] * 1e-3) / r0_m
        if not (np.isfinite(w_over_r0) and w_over_r0 > 0):
            raise DomainError(f"converted w_over_r0 = {w_over_r0} is not finite and positive")
        strengths = sorted(set(strengths) | {w_over_r0})
    if not strengths:
        raise _UsageError("at least one turbulence strength is required")
    distance = float(cfg["distance"])
    wavelength = float(cfg["wavelength"])
    n_real = int(cfg["realizations"])
    seed = int(cfg["seed"])
    swept = sorted({0.0, *strengths})  # the reference, and a 0.0 row's result
    results = dict(zip(swept, beam_broadening_sweep(
        [TurbulenceParams(w_over_r0=s) for s in swept], n_real, distance, wavelength, seed,
        grid, cfg["workers"])))
    if isinstance(results[0.0], AliasingError):
        raise results[0.0]
    reference = results[0.0].w_t
    rows, failures, margins = [], [], []
    for s in strengths:
        res = results[s]
        if isinstance(res, AliasingError):
            failures.append({"w_over_r0": s, "error": str(res)})
            continue
        inferred = fried_from_broadening(max(res.w_t, reference), reference)
        rows.append([s, res.w_t, res.stderr, inferred])
        margins.append({"w_over_r0": s, "fraction": res.max_boundary_energy_fraction})
    true_vals = [r[0] for r in rows]
    inferred_vals = [r[3] for r in rows]
    rho = _spearman(true_vals, inferred_vals) if len(rows) >= 3 else float("nan")
    monotone = all(inferred_vals[i] <= inferred_vals[i + 1] + 1e-12
                   for i in range(len(inferred_vals) - 1))
    summary = {
        "reference_width_over_w": reference,
        "spearman_rho": rho,
        "monotone_nondecreasing": monotone,
        "operating_range_w_over_r0": "0-1.4",
        "guard_failures": failures,
        "boundary_energy_limit": BOUNDARY_ENERGY_LIMIT,
        "max_boundary_energy_fraction": margins,
    }
    if given:
        summary["physical_conversion"] = {"r0_m": r0_m, "w_over_r0": w_over_r0}
    return _Record(
        {"calibration.csv": (["w_over_r0_true", "w_t_over_w", "w_t_stderr",
                              "w_over_r0_inferred"], rows)},
        summary,
        n_real * sum(s != 0.0 for s in strengths),
        f"{len(failures)} cell(s) hit the propagation guard" if failures else None,
    )


_COMMANDS = {
    "ph-curve": cmd_ph_curve,
    "fidelity-scan": cmd_fidelity_scan,
    "rotation-scan": cmd_rotation_scan,
    "screen-validate": cmd_screen_validate,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-0.5,0.6" for a flag, so "--strengths -0.5,0.6" would
    # lack its value; "--strengths=-0.5,0.6" it reads as the value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--strengths" and re.match(r"-[\d.]", argv[i + 1]):
            argv[i:i + 2] = [f"--strengths={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        cfg = _resolve_config(args.command, args)
        start = time.perf_counter()
        record = _COMMANDS[args.command](cfg)
        _write_record(args.command, cfg, record, time.perf_counter() - start)
        message, code = record.failure, 2 if record.failure else 0
    except (ToleranceError, StatisticsError, AliasingError) as exc:
        message, code = exc, 2
    except OSError as exc:
        message, code = f"cannot write output: {exc}", 1
    except (_UsageError, OamTurbError) as exc:
        message, code = exc, 1
    except (MemoryError, ValueError) as exc:  # an array too large to allocate or address
        # numpy's "array is too big" and "Maximum allowed size (dimension) exceeded"
        refused = str(exc).startswith(("array is too big", "Maximum allowed "))
        if isinstance(exc, ValueError) and not refused:
            raise
        message, code = f"out of memory: {str(exc) or type(exc).__name__}", 1
    if code:
        print(f"oamturb {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
