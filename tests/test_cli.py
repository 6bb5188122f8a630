"""Command-line interface: arguments, configs, manifests, and exit codes."""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from numpy._core._multiarray_umath import __cpu_features__
from numpy.polynomial.legendre import leggauss

import oamturb
import oamturb.cli
from oamturb import load_screen
from oamturb.cli import _COMMAND_DEFAULTS, _build_parser, _resolve_config, _spearman, main
from oamturb.parallel import blas_threads


def run(args):
    return main(list(args))


def _refuse_constant(name):
    """json parse_constant that fails on NaN, Infinity and -Infinity, which
    strict JSON does not have."""
    raise ValueError(f"not strict JSON: {name}")


TINY_PH = [
    "ph-curve", "--strengths", "0.0,0.6", "--realizations", "4",
    "--grid-n", "64", "--grid-extent", "6.0", "--seed", "3",
    "--radial-nodes", "100", "--angular-nodes", "128",
]


class TestParsing:
    def test_version_exits_cleanly(self, capsys):
        assert run(["--version"]) == 0
        assert "oamturb" in capsys.readouterr().out

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("ph-curve", "fidelity-scan", "rotation-scan",
                     "screen-validate", "calibrate"):
            assert name in out

    def test_missing_subcommand_fails(self):
        assert run([]) == 1

    def test_unknown_flag_fails(self):
        assert run(["ph-curve", "--frobnicate"]) == 1

    def test_missing_config_file_fails(self, tmp_path, capsys):
        assert run(["ph-curve", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_workers_fails(self, tmp_path, capsys, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": -1}))
        args = ["--workers", "-1"] if where == "flag" else ["--config", str(cfg)]
        assert run(["screen-validate", *args, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "oamturb screen-validate: worker count (0: every usable core) must be nonnegative, "
            "got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(_COMMAND_DEFAULTS))
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_gets_one_message(self, tmp_path, capsys, command, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = ["--seed", "-1"] if where == "flag" else ["--config", str(cfg)]
        assert run([command, *args, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"oamturb {command}: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sneed": 5}))
        assert run(["ph-curve", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_object_config_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["ph-curve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command, loaded", [
        ("ph-curve", {"realizations": "5"}),
        ("ph-curve", {"realizations": 4.0}),
        ("ph-curve", {"seed": True}),
        ("fidelity-scan", {"strengths": "0.2"}),
        ("fidelity-scan", {"strengths": [0.2, "0.6"]}),
        ("ph-curve", {"tolerance": "1e-6"}),
        ("calibrate", {"cn2": "1e-14"}),
        ("rotation-scan", {"out_dir": 3}),
    ])
    def test_mistyped_config_value_fails(self, tmp_path, capsys, command, loaded):
        kinds = {"realizations": "an integer", "seed": "an integer",
                 "strengths": "a list of numbers", "tolerance": "a number",
                 "cn2": "a number or null", "out_dir": "a string"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert run([command, "--config", str(cfg)]) == 1
        ((key, value),) = loaded.items()
        assert capsys.readouterr().err == (
            f"oamturb {command}: config key {key!r} must be {kinds[key]}, got {value!r}\n")

    def test_number_accepted_for_unset_default(self, tmp_path, capsys):
        # a None default takes a number; the run then stops at the
        # incomplete physical quartet, past the type check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_nm": 795, "grid_extent": 16}))
        assert run(["calibrate", "--config", str(cfg)]) == 1
        assert "physical units need all of" in capsys.readouterr().err


# each subcommand's options besides -h/--help, as --help lists them
OPTIONS = {
    "ph-curve": ["--seed", "--grid-n", "--grid-extent", "--realizations", "--out-dir",
                 "--config", "--workers", "--strengths", "--l", "--radial-nodes",
                 "--angular-nodes", "--tolerance"],
    "fidelity-scan": ["--seed", "--grid-n", "--grid-extent", "--realizations",
                      "--out-dir", "--config", "--workers", "--strengths", "--l"],
    "rotation-scan": ["--seed", "--grid-n", "--grid-extent", "--realizations",
                      "--out-dir", "--config", "--workers", "--strength", "--n-angles",
                      "--l"],
    "screen-validate": ["--seed", "--grid-n", "--grid-extent", "--realizations",
                        "--out-dir", "--config", "--workers", "--strength",
                        "--export-screens"],
    "calibrate": ["--seed", "--grid-n", "--grid-extent", "--realizations", "--out-dir",
                  "--config", "--workers", "--strengths", "--distance", "--wavelength",
                  "--lambda-nm", "--cn2", "--path-m", "--waist-mm"],
}

# a value of each default's type, as flag text and as it resolves
SAMPLES = {list: ("0.25,0.5", [0.25, 0.5]), int: ("7", 7), float: ("0.375", 0.375),
           type(None): ("1.5", 1.5), str: ("elsewhere", "elsewhere")}


def subparsers() -> dict:
    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


class TestOptionTable:
    def test_commands_are_the_config_table(self):
        assert list(subparsers()) == list(_COMMAND_DEFAULTS) == list(OPTIONS)

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_the_options(self, capsys, command):
        assert run([command, "--help"]) == 0
        listed = [flag.split()[0]
                  for line in capsys.readouterr().out.splitlines() if line.startswith("  -")
                  for flag in line[2:].split("  ")[0].split(", ")]
        assert sorted(listed) == sorted(["-h", "--help", *OPTIONS[command]])

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_every_key_is_a_flag_and_every_flag_a_key(self, command):
        flags = {action.dest: action.option_strings
                 for action in subparsers()[command]._actions}
        assert flags.pop("help") == ["-h", "--help"]
        assert flags.pop("config") == ["--config"]
        assert sorted(flags) == sorted(_COMMAND_DEFAULTS[command])
        assert all(strings == ["--" + key.replace("_", "-")]
                   for key, strings in flags.items())

    @pytest.mark.parametrize("argv", [
        ["fidelity-scan", "--strength", "0.6"],  # --strengths of another command
        ["fidelity-scan", "--real", "7"],  # a prefix of --realizations
    ])
    def test_abbreviated_flag_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run([*argv, "--grid-n", "32", "--out-dir", str(out)]) == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, defaults in _COMMAND_DEFAULTS.items()
        for key in defaults])
    def test_flag_and_config_file_resolve_alike(self, tmp_path, command, key):
        text, value = SAMPLES[type(_COMMAND_DEFAULTS[command][key])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        parser = _build_parser()
        by_flag = _resolve_config(
            command, parser.parse_args([command, "--" + key.replace("_", "-"), text]))
        by_file = _resolve_config(command, parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag == by_file == {**_COMMAND_DEFAULTS[command], key: value}
        assert [type(v) for v in by_flag.values()] == [type(v) for v in by_file.values()]
        assert type(by_flag[key]) is type(value)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ph")
    assert run(TINY_PH + ["--out-dir", str(out)]) == 0
    return out


class TestPhCurve:
    def test_outputs_present(self, first_run):
        names = sorted(os.listdir(first_run))
        assert names == ["manifest.json", "ph_curve.csv", "summary.json"]

    def test_csv_layout(self, first_run):
        lines = (first_run / "ph_curve.csv").read_text().splitlines()
        assert lines[0] == "w_over_r0,ph_analytic,ph_mc_mean,ph_mc_stderr"
        assert len(lines) == 3
        zero = lines[1].split(",")
        assert float(zero[0]) == 0.0
        assert float(zero[1]) == 1.0
        assert abs(float(zero[2]) - 1.0) < 1e-6

    def test_summary_reports_both_ring_variants(self, first_run):
        summary = json.loads((first_run / "summary.json").read_text())
        assert summary["n_strengths"] == 2
        assert summary["monotone_nonincreasing"] is True
        half = summary["ph_ring_half_angle_variant"]
        # single-radius reduction sits above the two-point value
        rows = (first_run / "ph_curve.csv").read_text().splitlines()[2].split(",")
        assert half[1] > float(rows[1])

    def test_summary_reports_quadrature_residual(self, first_run):
        summary = json.loads((first_run / "summary.json").read_text())
        assert 0.0 <= summary["max_quadrature_residual"] <= 1e-6

    def test_summary_reports_ring_quadrature_residual(self, first_run):
        summary = json.loads((first_run / "summary.json").read_text())
        assert 0.0 <= summary["max_ring_quadrature_residual"] <= 1e-6

    def test_summary_reports_gap_in_standard_errors(self, first_run):
        summary = json.loads((first_run / "summary.json").read_text())
        rows = [[float(v) for v in line.split(",")] for line in
                (first_run / "ph_curve.csv").read_text().splitlines()[1:]]
        # the w/r0 = 0 row has a zero stderr and is skipped
        assert rows[0][3] == 0.0 < rows[1][3]
        _, analytic_ph, mean, stderr = rows[1]
        assert summary["max_gap_in_stderr"] == abs(mean - analytic_ph) / stderr
        assert summary["max_mc_rel_stderr"] == stderr / mean

    def test_gap_in_standard_errors_null_without_spread(self, tmp_path):
        out = tmp_path / "zero"
        argv = [a if a != "0.0,0.6" else "0.0" for a in TINY_PH]
        assert run(argv + ["--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_gap_in_stderr"] is None
        assert summary["max_mc_rel_stderr"] is None
        assert '"max_gap_in_stderr": null' in (out / "summary.json").read_text()

    def test_legendre_rules_built_once_and_bitwise(self, tmp_path, monkeypatch):
        # ring_coefficients takes its radial rule from a cache by node count:
        # each count is built once, and the outputs are those of a rule
        # rebuilt by leggauss on every call
        builds = []
        build = oamturb.analytic._companion_eigenvalues
        monkeypatch.setattr(oamturb.analytic, "_companion_eigenvalues",
                            lambda n: builds.append(n) or build(n))
        oamturb.analytic._legendre_rule.cache_clear()
        argv = [a if a != "0.0,0.6" else "0.2,0.6,1.0" for a in TINY_PH]
        assert run(argv + ["--out-dir", str(tmp_path / "cached")]) == 0
        assert {100, 200} <= set(builds) and len(builds) == len(set(builds))
        monkeypatch.setattr(oamturb.analytic, "_legendre_rule", leggauss)
        assert run(argv + ["--out-dir", str(tmp_path / "rebuilt")]) == 0
        outputs = []
        for d in ("cached", "rebuilt"):
            summary = json.loads((tmp_path / d / "summary.json").read_text())
            del summary["config"]
            outputs.append(((tmp_path / d / "ph_curve.csv").read_bytes(), json.dumps(summary)))
        assert outputs[0] == outputs[1]

    def test_manifest_replay_is_bitwise(self, first_run, tmp_path):
        replay = tmp_path / "replay"
        rc = run(["ph-curve", "--config", str(first_run / "manifest.json"),
                  "--out-dir", str(replay)])
        assert rc == 0
        assert (replay / "ph_curve.csv").read_bytes() == (
            first_run / "ph_curve.csv"
        ).read_bytes()

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "env"
        assert run(TINY_PH + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert sorted(env) == sorted([
            "python", "numpy", "scipy", "blas_name", "blas_version", "cpu_count",
            "workers", "blas_threads",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == importlib.metadata.version("scipy") == scipy.__version__
        assert env["cpu_count"] == os.cpu_count()
        # the config keeps the literal default; the manifest what it meant here
        assert manifest["config"]["workers"] == 0
        assert env["workers"] == len(os.sched_getaffinity(0))
        assert env["blas_threads"] == blas_threads()
        assert (env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == ("3", None)
        assert "environment" not in manifest["config"]
        assert "environment" not in json.loads((out / "summary.json").read_text())

    @pytest.mark.parametrize("dist", [None, "scipy-9.9.9.dist-info"])
    def test_scipy_version_read_from_dist_info(self, tmp_path, monkeypatch, dist):
        # the first scipy-*.dist-info's Version header on sys.path, never an
        # import of scipy (TestImports); null when there is none, and a
        # dist-info without METADATA is skipped
        site = tmp_path / "site"
        (site / "scipy-0.0.0.dist-info").mkdir(parents=True)
        if dist:
            (site / dist).mkdir()
            (site / dist / "METADATA").write_text(
                "Metadata-Version: 2.1\nName: scipy\nVersion: 9.9.9\n\nVersion: 0\n")
        monkeypatch.setattr(sys, "path", [str(tmp_path / "missing"), str(site)])
        assert oamturb.cli._scipy_version() == ("9.9.9" if dist else None)

    def test_json_files_write_non_finite_as_null(self, tmp_path):
        path = tmp_path / "out.json"
        oamturb.cli._write_json(str(path), {
            "a": [math.nan, math.inf, -math.inf, 1.5, np.float64("nan")],
            "b": {"c": (math.nan, 2)}, "d": True, "e": None, "f": "NaN"})
        assert json.loads(path.read_text(), parse_constant=_refuse_constant) == {
            "a": [None, None, None, 1.5, None], "b": {"c": [None, 2]}, "d": True,
            "e": None, "f": "NaN"}

    def test_manifest_records_timings(self, tmp_path):
        out = tmp_path / "timed"
        assert run(TINY_PH + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        assert sorted(timings) == ["compute_s", "realizations_per_s", "write_s"]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert "timings" not in manifest["config"]
        assert "timings" not in json.loads((out / "summary.json").read_text())

    def test_manifest_records_peak_rss(self, tmp_path):
        out = tmp_path / "rss"
        assert run(TINY_PH + ["--out-dir", str(out)]) == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        # this process's peak so far, in MiB: the test run holds numpy and
        # its caches, and the peak cannot have fallen since the run
        assert isinstance(peak, float)
        assert 10.0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert "peak_rss_mb" not in json.loads((out / "summary.json").read_text())

    def test_worker_count_independent(self, first_run, tmp_path):
        out = tmp_path / "workers"
        assert run(TINY_PH + ["--workers", "3", "--out-dir", str(out)]) == 0
        assert (out / "ph_curve.csv").read_bytes() == (
            first_run / "ph_curve.csv"
        ).read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "realizations": 4,
                                   "strengths": [0.0], "grid_n": 64,
                                   "grid_extent": 6.0, "radial_nodes": 100,
                                   "angular_nodes": 128}))
        out = tmp_path / "out"
        assert run(["ph-curve", "--config", str(cfg), "--seed", "9",
                    "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["realizations"] == 4
        assert manifest["master_seed"] == 9

    def test_manifest_for_wrong_command_rejected(self, first_run, capsys):
        rc = run(["fidelity-scan", "--config", str(first_run / "manifest.json")])
        assert rc == 1
        assert "manifest is for" in capsys.readouterr().err


# tiny arguments, expected exit code and data files for each subcommand
RECORD_CASES = {
    "ph-curve": (TINY_PH[1:], 0, ["ph_curve.csv"]),
    "fidelity-scan": (["--strengths", "0.0,0.4", "--realizations", "2",
                       "--grid-n", "64", "--grid-extent", "6.0"],
                      0, ["fidelity_scan.csv"]),
    "rotation-scan": (["--strength", "0.4", "--n-angles", "2", "--realizations", "2",
                       "--grid-n", "64", "--grid-extent", "6.0"],
                      0, ["rotation_scan.csv"]),
    # 100 screens on 32^2 miss the coherence band: files first, then exit 2
    "screen-validate": (["--realizations", "100", "--grid-n", "32",
                         "--grid-extent", "6.0"],
                        2, ["coherence.csv", "structure_function.csv"]),
    "calibrate": (["--strengths", "0.0,0.6,1.2", "--realizations", "100",
                   "--grid-n", "64", "--grid-extent", "16.0"],
                  0, ["calibration.csv"]),
}


class TestRunRecord:
    @pytest.mark.parametrize("command", list(RECORD_CASES))
    def test_files_config_and_replay(self, tmp_path, command):
        args, code, data_files = RECORD_CASES[command]
        out = tmp_path / "run"
        assert run([command, *args, "--out-dir", str(out)]) == code
        names = sorted(os.listdir(out))
        assert names == sorted(data_files + ["manifest.json", "summary.json"])
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert summary["config"] == manifest["config"]
        first = {name: (out / name).read_bytes() for name in data_files + ["summary.json"]}
        for name in first:
            (out / name).unlink()
        # the manifest names the same out_dir, so the replay writes there again
        assert run([command, "--config", str(out / "manifest.json")]) == code
        assert sorted(os.listdir(out)) == names
        for name, data in first.items():
            assert (out / name).read_bytes() == data, name
        replayed = json.loads((out / "manifest.json").read_text())
        # the wall-clock fields differ from run to run, and peak_rss_mb is the
        # process's high-water mark, which never falls; the rest must not
        assert replayed.pop("peak_rss_mb") >= manifest.pop("peak_rss_mb")
        for key in ("timestamp", "timings"):
            del manifest[key], replayed[key]
        assert replayed == manifest

    @pytest.mark.parametrize("command,args,code,cells", [
        *((command, *RECORD_CASES[command][:2], cells) for command, cells in (
            ("ph-curve", 4), ("fidelity-scan", 2), ("rotation-scan", 2),
            ("screen-validate", 100), ("calibrate", 100 * 2))),
        ("screen-validate", ["--strength", "0.0", "--realizations", "100",
                             "--grid-n", "32", "--grid-extent", "6.0"], 0, 0),
        ("rotation-scan", ["--strength", "0.0", "--realizations", "4", "--n-angles", "4",
                           "--grid-n", "64", "--grid-extent", "6.0"], 0, 0),
    ])
    def test_manifest_reports_realizations_per_second(self, tmp_path, command, args,
                                                      code, cells):
        # cells: realizations times nonzero strengths; a zero-turbulence field
        # draws no screen, so calibrate's 0.0 row, the 0.0 cells of ph-curve
        # and fidelity-scan, and screen-validate and rotation-scan at 0.0
        # count none
        out = tmp_path / "run"
        assert run([command, *args, "--out-dir", str(out)]) == code
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert timings["realizations_per_s"] == cells / timings["compute_s"]

    @pytest.mark.parametrize("command, engine", [("ph-curve", "run_fidelity_scan"),
                                                 ("fidelity-scan", "run_fidelity_scan"),
                                                 ("rotation-scan", "run_rotation_scan")])
    def test_scan_calls_the_engine_installed_on_the_module(self, tmp_path, monkeypatch,
                                                           command, engine):
        # a wrapper installed on oamturb.cli, as a tracer installs one, sees
        # the call, and only the engine that matches the command runs
        calls = []

        def wrap(name):
            inner = getattr(oamturb.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return wrapper

        for name in ("run_fidelity_scan", "run_rotation_scan"):
            monkeypatch.setattr(oamturb.cli, name, wrap(name))
        args, code, _ = RECORD_CASES[command]
        assert run([command, *args, "--out-dir", str(tmp_path / "run")]) == code
        assert calls == [engine]

    def test_unwritable_out_dir_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args, _, _ = RECORD_CASES["fidelity-scan"]
        assert run(["fidelity-scan", *args, "--out-dir", str(blocker / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot write output" in err


class TestUnsamplableGrid:
    @pytest.mark.parametrize("command", list(_COMMAND_DEFAULTS))
    @pytest.mark.parametrize("extent", ["inf", "nan", "1e150", "1e300", "1e-300"])
    def test_exits_one_before_any_screen(self, tmp_path, capsys, monkeypatch,
                                         command, extent):
        def refuse(*args, **kwargs):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(oamturb.turbulence, "_unit_screen", refuse)
        out = tmp_path / "out"
        assert run([command, "--grid-n", "32", "--grid-extent", extent,
                    "--realizations", "100", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"oamturb {command}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_grid_too_large_to_allocate_ends_in_one_line(self, tmp_path, capsys,
                                                          monkeypatch):
        # a 10^6 x 10^6 grid's first grid-sized allocation, in _weights,
        # raises numpy's MemoryError; a stand-in raises it without allocating
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                              "(1, 2, 1000000, 1000000) and data type complex128")

        monkeypatch.setattr(oamturb.montecarlo, "_weights", too_large)
        out = tmp_path / "out"
        assert run(["fidelity-scan", "--grid-n", "1000000", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("oamturb fidelity-scan: out of memory: Unable to allocate 29.1 TiB "
                       "for an array with shape (1, 2, 1000000, 1000000) and data type "
                       "complex128\n")
        assert not out.exists()

    @pytest.mark.parametrize("exc, text", [
        (ValueError("Maximum allowed size exceeded"), "Maximum allowed size exceeded"),
        (ValueError("Maximum allowed dimension exceeded"), "Maximum allowed dimension exceeded"),
        (MemoryError(), "MemoryError"),  # no text: its type name
    ])
    def test_numpy_size_refusals_end_in_one_line(self, tmp_path, capsys, monkeypatch, exc,
                                                 text):
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(oamturb.montecarlo, "_weights", refuse)
        out = tmp_path / "out"
        assert run(["fidelity-scan", "--grid-n", "32", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"oamturb fidelity-scan: out of memory: {text}\n"
        assert not out.exists()

    def test_other_value_errors_propagate(self, tmp_path, monkeypatch):
        # only numpy's size and shape refusals read as out of memory
        def bug(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(oamturb.montecarlo, "_weights", bug)
        with pytest.raises(ValueError, match="^operands could not"):
            run(["fidelity-scan", "--grid-n", "32", "--out-dir", str(tmp_path / "out")])


def hostile_cases():
    """(command, flags) for every command and each value that must fail
    before any screen is drawn."""
    for command, defaults in _COMMAND_DEFAULTS.items():
        strength = "--strengths" if "strengths" in defaults else "--strength"
        cases = [["--grid-n", "1000000000000"], ["--grid-n", "31"], ["--grid-extent", "nan"],
                 ["--grid-extent", "inf"], ["--seed", "-1"], ["--workers", "-1"],
                 ["--realizations", "0"], [strength, "nan"], [f"{strength}=-0.5"]]
        # the two-row weight stack is beyond numpy's size limit; the other
        # three commands would first build a 4.5 GiB coordinate array
        if command in ("ph-curve", "fidelity-scan"):
            cases.append(["--grid-n", "600000000"])
        # numpy refuses both angle arrays before it allocates; 10^12 angles
        # are left out, as their outcome depends on the machine's overcommit
        if command == "rotation-scan":
            cases += [["--n-angles", "2305843009213693952"],
                      ["--n-angles", "10000000000000000000"]]
        for flags in cases:
            yield pytest.param(command, flags, id=f"{command}:{'='.join(flags)}")


class TestHostileInput:
    @pytest.mark.parametrize("command, flags", hostile_cases())
    def test_one_line_and_no_traceback(self, tmp_path, capsys, monkeypatch, command,
                                       flags):
        def refuse(*args, **kwargs):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(oamturb.turbulence, "_unit_screen", refuse)
        out = tmp_path / "out"
        assert run([command, *flags, "--out-dir", str(out)]) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith(f"oamturb {command}: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestFidelityScan:
    def test_small_run(self, tmp_path):
        out = tmp_path / "fid"
        rc = run(["fidelity-scan", "--strengths", "0.0,0.4",
                  "--realizations", "3", "--grid-n", "64",
                  "--grid-extent", "6.0", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "fidelity_scan.csv").read_text().splitlines()
        assert lines[0] == ("w_over_r0,state_label,fidelity_mean,"
                            "fidelity_stderr,loss_rate")
        assert len(lines) == 1 + 12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_fidelity_mean"] == pytest.approx(1.0, abs=1e-9)
        assert summary["total_losses"] == 0
        assert 0.0 <= summary["max_fidelity_overshoot"] < 1e-12

    def test_summary_reports_min_success_prob(self, tmp_path):
        out = tmp_path / "fid"
        rc = run(["fidelity-scan", "--strengths", "0.0,0.8",
                  "--realizations", "3", "--grid-n", "64",
                  "--grid-extent", "6.0", "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        # no losses, so every success probability clears the loss threshold
        assert summary["total_losses"] == 0
        assert 1e-12 <= summary["min_success_prob"] < 1.0

    @pytest.mark.parametrize("command, workers", [("fidelity-scan", "1"), ("ph-curve", "2")])
    def test_strengths_checked_before_the_first_screen(self, tmp_path, capsys, monkeypatch,
                                                       command, workers):
        draws = []
        draw = oamturb.turbulence._unit_screen

        def counted(*args):
            draws.append(args[1])
            return draw(*args)

        monkeypatch.setattr(oamturb.turbulence, "_unit_screen", counted)
        out = tmp_path / "out"
        assert run([command, "--strengths", "0.2,2.5", "--grid-n", "32", "--grid-extent", "6",
                    "--realizations", "200", "--workers", workers,
                    "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"oamturb {command}: w_over_r0 = 2.5 outside the validated range [0, 2.0]\n")
        assert draws == []
        assert not out.exists()


class TestRotationScan:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rot"
        rc = run(["rotation-scan", "--strength", "0.4", "--n-angles", "4",
                  "--realizations", "3", "--grid-n", "64",
                  "--grid-extent", "6.0", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "rotation_scan.csv").read_text().splitlines()
        assert lines[0] == ("theta,state_label,fidelity_mean,fidelity_stderr,"
                            "success_prob_mean,success_prob_stderr")
        assert len(lines) == 1 + 24
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_variation"] < 1e-9
        assert 0.0 <= summary["max_fidelity_overshoot"] < 1e-12

    def test_success_columns_pin_the_engines_samples(self, tmp_path):
        # 8 angles: three residual groups, the ties among them
        out = tmp_path / "rot"
        assert run(["rotation-scan", "--strength", "0.8", "--n-angles", "8",
                    "--realizations", "6", "--seed", "3", "--grid-n", "64",
                    "--grid-extent", "6.0", "--out-dir", str(out)]) == 0
        angles = tuple((2 * np.pi * np.arange(8) / 8).tolist())
        config = oamturb.montecarlo.ExperimentConfig(
            strengths=(0.8,), states=tuple(oamturb.elements.mub_states(1)),
            state_labels=oamturb.elements.MUB_LABELS, n_realizations=6, master_seed=3,
            grid=oamturb.GridSpec(64, 6.0), angles=angles)
        success = oamturb.montecarlo._rotation_samples(config)[0]  # (angle, realization, state)
        lines = (out / "rotation_scan.csv").read_text().splitlines()[1:]
        assert len(lines) == 8 * 6
        means = {}
        for line in lines:
            theta, label, *_, mean, stderr = line.split(",")
            j, k = angles.index(float(theta)), config.state_labels.index(label)
            samples = [float(x) for x in success[j, :, k]]
            assert float(mean) == pytest.approx(math.fsum(samples) / 6, rel=1e-14, abs=0)
            sd = math.sqrt(math.fsum((x - float(mean))**2 for x in samples) / 5)
            assert float(stderr) == pytest.approx(sd / math.sqrt(6), rel=1e-12, abs=0)
            assert float(stderr) > 0
            means.setdefault(label, []).append(float(mean))
        assert [len(m) for m in means.values()] == [8] * 6
        summary = json.loads((out / "summary.json").read_text())
        want = max(max(m) - min(m) for m in means.values())
        assert summary["max_success_prob_variation"] == want
        assert want > 0  # success varies with the frame angle at a finite ensemble

    def test_zero_angles_rejected(self, capsys):
        assert run(["rotation-scan", "--n-angles", "0"]) == 1
        assert "--n-angles" in capsys.readouterr().err

    def test_out_of_range_strength_fails_before_any_projection(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        factors = oamturb.montecarlo.decode_factors

        def counted(*args):
            calls.append(args)
            return factors(*args)

        monkeypatch.setattr(oamturb.montecarlo, "decode_factors", counted)
        out = tmp_path / "out"
        assert run(["rotation-scan", "--strength", "2.5", "--grid-n", "32",
                    "--grid-extent", "6", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "oamturb rotation-scan: w_over_r0 = 2.5 outside the validated range [0, 2.0]\n")
        assert calls == []
        assert not out.exists()


class TestScreenValidate:
    def test_too_few_screens_exit_two(self, tmp_path, capsys):
        out = tmp_path / "sv"
        rc = run(["screen-validate", "--realizations", "50",
                  "--out-dir", str(out)])
        assert rc == 2
        assert "need >= 100 screens" in capsys.readouterr().err

    def test_r0_beyond_grid_span_exits_one(self, tmp_path, capsys):
        out = tmp_path / "weak"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "6",
                  "--realizations", "100", "--strength", "0.01",
                  "--export-screens", "1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "r0 = 100 waists exceeds the grid span 5.8125 waists" in err
        assert not out.exists()  # stopped before drawing or exporting a screen
        # r0 in pixels overflows: 1/strength, or r0/pitch, is inf
        for args, span in ((["--strength", "1e-310"], "r0 = inf waists exceeds the grid span"),
                           (["--grid-extent", "1e-310", "--strength", "1.0"],
                            "r0 = 1 waists exceeds the grid span 9.6875e-311 waists")):
            assert run(["screen-validate", "--grid-n", "32", "--realizations", "100",
                        *args, "--export-screens", "1", "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert span in err
            assert not out.exists()

    @pytest.fixture
    def no_screens(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(oamturb.turbulence, "_unit_screen", refuse)

    def test_too_few_screens_fail_before_drawing(self, tmp_path, capsys, no_screens):
        out = tmp_path / "few"
        rc = run(["screen-validate", "--realizations", "50", "--export-screens", "1",
                  "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "oamturb screen-validate: need >= 100 screens, got 50\n"
        assert not out.exists()

    @pytest.mark.parametrize("strength, r0", [("2.0", "0.5"), ("1.0", "1")])
    def test_r0_below_half_pixel_fails_before_drawing(self, tmp_path, capsys, no_screens,
                                                      strength, r0):
        out = tmp_path / "lag0"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "100",
                  "--strength", strength, "--realizations", "100",
                  "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"oamturb screen-validate: Fried length r0 = {r0} waists rounds to "
                       "pixel lag 0 at pitch 3.125 waists; raise --grid-n or lower "
                       "--grid-extent\n")
        assert not out.exists()

    def test_one_separation_fails_before_drawing(self, tmp_path, capsys, no_screens):
        # r0 = 0.7 pixels: every separation from 0.2 to 2 r0 rounds to lag 1,
        # and a slope through one point is no fit
        out = tmp_path / "lag1"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "22.86",
                  "--strength", "2.0", "--realizations", "100",
                  "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "oamturb screen-validate: separations 0.2-2 r0 all round to pixel lag 1; the "
            "slope fit needs two: raise --grid-n or lower --strength\n")
        assert not out.exists()

    def test_out_of_range_strength_fails_before_any_table(self, tmp_path, capsys):
        # a grid no other test uses, so a synthesis-table build is a cache miss
        misses = oamturb.turbulence._tables.cache_info().misses
        out = tmp_path / "above"
        rc = run(["screen-validate", "--grid-n", "34", "--grid-extent", "7.25",
                  "--strength", "2.5", "--realizations", "100", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "oamturb screen-validate: w_over_r0 = 2.5 outside the validated range "
            "[0, 2.0]\n")
        assert oamturb.turbulence._tables.cache_info().misses == misses
        assert not out.exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys, no_screens):
        out = tmp_path / "neg"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "6",
                  "--realizations", "100", "--seed", "-1", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "oamturb screen-validate: seed must be nonnegative, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--strength", "0", "--realizations", "0"], "--realizations must be >= 1, got 0"),
        (["--strength", "0", "--realizations", "-3"], "--realizations must be >= 1, got -3"),
        (["--realizations", "0"], "--realizations must be >= 1, got 0"),
        (["--realizations", "100", "--export-screens", "-1"],
         "--export-screens must be nonnegative, got -1"),
    ])
    def test_bad_counts_exit_one(self, tmp_path, capsys, no_screens, args, message):
        out = tmp_path / "bad"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "6", *args,
                  "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"oamturb screen-validate: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_working_set_is_a_few_screens_per_worker(self, tmp_path, workers):
        # each worker's unit screen, phase and complex work array (which holds
        # cos and sin) are 2 screen sizes, its subharmonic buffers 3.25 at
        # 64^2, and the lag differences and products a few more: 9.04 measured
        # at 1 worker and 8.44 a worker at 2, so 10.5 leaves a margin of 1.46
        argv = ["screen-validate", "--grid-n", "64", "--grid-extent", "8.0",
                "--realizations", "100", "--workers", str(workers),
                "--out-dir", str(tmp_path / "sv")]
        assert run(argv) == 0  # warm
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.5 * workers * 64**2 * np.dtype(complex).itemsize

    @pytest.mark.parametrize("strength, n_screens", [("0.0", 3), ("1.0", 100)])
    def test_export_stops_at_the_last_screen(self, tmp_path, strength, n_screens):
        out = tmp_path / "few"
        assert run(["screen-validate", "--grid-n", "32", "--grid-extent", "6.0",
                    "--strength", strength, "--realizations", str(n_screens),
                    "--export-screens", str(n_screens + 2), "--workers", "2",
                    "--out-dir", str(out)]) in (0, 2)
        assert sorted(os.listdir(out / "screens")) == [
            f"screen_{i:04d}.csv" for i in range(n_screens)]

    def test_exported_screen_is_the_keyed_screen(self, tmp_path):
        # screen i of seed s is keyed SeedSequence(entropy=[s, i])
        out = tmp_path / "keys"
        assert run(["screen-validate", "--realizations", "100", "--grid-n", "32",
                    "--grid-extent", "6.0", "--seed", "7", "--export-screens", "2",
                    "--out-dir", str(out)]) in (0, 2)
        for i in range(2):
            got = load_screen(out / "screens" / f"screen_{i:04d}.csv")
            want = oamturb.generate_screen(oamturb.TurbulenceParams(w_over_r0=1.0),
                                           oamturb.GridSpec(32, 6.0),
                                           np.random.SeedSequence(entropy=[7, i]))
            assert np.array_equal(got.phase, want.phase), i
            assert (got.seed, got.params) == (want.seed, want.params)

    def test_zero_strength_run(self, tmp_path):
        out = tmp_path / "sv0"
        rc = run(["screen-validate", "--strength", "0.0",
                  "--realizations", "120", "--export-screens", "2", "--workers", "2",
                  "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["zero_turbulence"] is True
        assert summary["max_abs_phase"] == 0.0
        exported = sorted(os.listdir(out / "screens"))
        assert exported == ["screen_0000.csv", "screen_0001.csv"]
        for name in exported:
            screen = load_screen(out / "screens" / name)
            assert screen.params.w_over_r0 == 0.0
            assert not screen.phase.any()

    def test_zero_strength_draws_no_screen_loop(self, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("the screen loop ran at zero strength")

        monkeypatch.setattr(oamturb.cli, "_screen_loop", refused)
        out = tmp_path / "sv0"
        assert run(["screen-validate", "--strength", "0.0", "--realizations", "120",
                    "--export-screens", "2", "--out-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["max_abs_phase"] == 0.0
        assert sorted(os.listdir(out / "screens")) == ["screen_0000.csv", "screen_0001.csv"]


class TestStrengthLists:
    # argparse alone takes "-0.5,0.6" for a flag and prints its usage text
    @pytest.mark.parametrize("command", ["calibrate", "fidelity-scan", "ph-curve"])
    @pytest.mark.parametrize("args, value", [
        (["--strengths", "-0.5,0.6"], -0.5),
        (["--strengths", "-.5,0.6"], -0.5),
        (["--strengths=-0.5,0.6"], -0.5),
        (["--strengths", "-1"], -1.0),
    ], ids=["list", "leading-dot", "equals-sign", "one-value"])
    def test_negative_entry_gets_one_line(self, tmp_path, capsys, command, args, value):
        out = tmp_path / "out"
        assert run([command, *args, "--grid-n", "64", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"oamturb {command}: w_over_r0 must be finite and >= 0, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, table", [("fidelity-scan", "fidelity_scan.csv"),
                                                ("ph-curve", "ph_curve.csv")])
    def test_duplicate_strengths_give_one_row(self, tmp_path, monkeypatch, command, table):
        draws = []  # the strength of every cell the screen loop steps
        loop = oamturb.montecarlo._screen_loop

        def counted(params, n_real, key, *rest):
            def keyed(j, i):
                draws.append(params[j].w_over_r0)
                return key(j, i)

            return loop(params, n_real, keyed, *rest)

        common = ["--grid-n", "64", "--grid-extent", "6.0", "--realizations", "3"]
        if command == "ph-curve":
            common += TINY_PH[-4:]  # the quadrature's node counts
        assert run([command, "--strengths", "0.0,0.6", *common,
                    "--out-dir", str(tmp_path / "once")]) == 0
        monkeypatch.setattr(oamturb.montecarlo, "_screen_loop", counted)
        assert run([command, "--strengths", "0.6,0.6,0.0", *common,
                    "--out-dir", str(tmp_path / "twice")]) == 0
        assert sorted(draws) == [0.0, 0.6, 0.6, 0.6]  # the zero cell once, 0.6 per realization
        assert ((tmp_path / "twice" / table).read_bytes()
                == (tmp_path / "once" / table).read_bytes())
        summaries = [json.loads((tmp_path / d / "summary.json").read_text())
                     for d in ("once", "twice")]
        for summary in summaries:
            del summary["config"]
        assert json.dumps(summaries[0]) == json.dumps(summaries[1])


class TestCalibrate:
    def test_partial_physical_quartet_rejected(self, capsys):
        rc = run(["calibrate", "--lambda-nm", "795", "--cn2", "1e-14"])
        assert rc == 1
        assert "physical units need all of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "fidelity-scan", "ph-curve"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_no_strengths_exits_one(self, tmp_path, capsys, monkeypatch, command, where):
        def refuse(*args):
            raise AssertionError("a field was propagated")

        monkeypatch.setattr(oamturb.cli, "beam_broadening_sweep", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strengths": []}))
        args = ["--strengths", ""] if where == "flag" else ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run([command, *args, "--realizations", "100", "--grid-n", "64",
                    "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"oamturb {command}: at least one turbulence strength is required\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--distance", "nan"], "propagation distance must be finite, got nan"),
        (["--wavelength", "inf"], "wavelength must be finite and positive, got inf"),
    ])
    def test_non_finite_optics_named(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run(["calibrate", *args, "--grid-n", "64", "--grid-extent", "16.0",
                    "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"oamturb calibrate: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_scale_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["calibrate", "--grid-n", "32", "--grid-extent", "16.0",
                    "--distance", "1e200", "--wavelength", "1e200", "--realizations", "100",
                    "--strengths", "0.2", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == ("oamturb calibrate: Fresnel phase overflows at "
                                           "wavelength=1e+200, distance=1e+200\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--waist-mm", "0"), ("--waist-mm", "-1"), ("--waist-mm", "nan"),
        ("--lambda-nm", "inf"), ("--cn2", "0"), ("--path-m", "-5"),
    ])
    def test_bad_physical_value_named(self, tmp_path, capsys, monkeypatch, flag, value):
        def refuse(*args):
            raise AssertionError("a field was propagated")

        monkeypatch.setattr(oamturb.cli, "beam_broadening_sweep", refuse)
        physical = {"--lambda-nm": "795", "--cn2": "1e-14", "--path-m": "1000",
                    "--waist-mm": "35.2868", flag: value}
        out = tmp_path / "out"
        assert run(["calibrate", *(a for kv in physical.items() for a in kv),
                    "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"oamturb calibrate: {flag} must be finite and positive, got {float(value)}\n")
        assert not out.exists()

    def test_duplicate_strengths_give_one_row(self, tmp_path, monkeypatch):
        steps = []
        step = oamturb.turbulence._fresnel

        def counted(*a):
            steps.append(a)
            return step(*a)

        common = ["--grid-n", "64", "--grid-extent", "16.0", "--realizations", "100"]
        assert run(["calibrate", "--strengths", "0.0,0.6", *common,
                    "--out-dir", str(tmp_path / "once")]) == 0
        monkeypatch.setattr(oamturb.turbulence, "_fresnel", counted)
        assert run(["calibrate", "--strengths", "0.6,0.6,0.0", *common,
                    "--out-dir", str(tmp_path / "twice")]) == 0
        assert len(steps) == 1 + 100  # the reference once, 0.6 in every realization
        assert ((tmp_path / "twice" / "calibration.csv").read_bytes()
                == (tmp_path / "once" / "calibration.csv").read_bytes())

    @pytest.mark.parametrize("args, message", [
        (["--strengths", "-1"], "w_over_r0 must be finite and >= 0, got -1.0"),
        (["--strengths", "2.5"], "w_over_r0 = 2.5 outside the validated range [0, 2.0]"),
        (["--strengths", "nan"], "w_over_r0 must be finite and >= 0, got nan"),
        (["--waist-mm", "100", "--lambda-nm", "800", "--cn2", "1e-14", "--path-m", "1000"],
         "w_over_r0 = 2.8126797547360574 outside the validated range [0, 2.0]"),
    ], ids=["negative", "above-range", "nan", "converted-above-range"])
    def test_bad_strength_rejected_before_any_fresnel_step(self, tmp_path, capsys,
                                                           monkeypatch, args, message):
        steps = []
        step = oamturb.turbulence._fresnel

        def counted(*a):
            steps.append(a)
            return step(*a)

        monkeypatch.setattr(oamturb.turbulence, "_fresnel", counted)
        out = tmp_path / "out"
        assert run(["calibrate", *args, "--realizations", "100", "--grid-n", "64",
                    "--grid-extent", "16.0", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"oamturb calibrate: {message}\n"
        assert steps == []
        assert not out.exists()

    @pytest.mark.parametrize("physical, message", [
        ((1e300, 1e-14, 1000, 35), "the Fried parameter r0 = inf m is not finite and positive"),
        ((800, 1e-300, 1e-300, 35), "the Fried parameter r0 = inf m is not finite and positive"),
        ((1e-300, 1e300, 1e10, 1e300),
         "the Fried parameter r0 = 0.0 m is not finite and positive"),
        ((1e-100, 1e10, 1, 1e300), "converted w_over_r0 = inf is not finite and positive"),
        ((1e20, 1e-14, 1000, 1e-320), "converted w_over_r0 = 0.0 is not finite and positive"),
    ], ids=["wavelength-squared-overflows", "cn2-path-underflows", "r0-underflows",
            "ratio-overflows", "ratio-underflows"])
    def test_extreme_physical_units_end_in_one_line(self, tmp_path, capsys, physical,
                                                     message):
        flags = ("--lambda-nm", "--cn2", "--path-m", "--waist-mm")
        out = tmp_path / "out"
        assert run(["calibrate", *(a for kv in zip(flags, map(str, physical)) for a in kv),
                    "--grid-n", "64", "--grid-extent", "16.0", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"oamturb calibrate: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_physical_units_alone_give_one_strength(self, tmp_path):
        out = tmp_path / "phys"
        assert run(["calibrate", "--strengths", "", "--realizations", "100",
                    "--grid-n", "64", "--grid-extent", "16.0",
                    "--lambda-nm", "795", "--cn2", "1e-14", "--path-m", "1000",
                    "--waist-mm", "35.2868", "--out-dir", str(out)]) == 0
        rows = (out / "calibration.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[0]) == pytest.approx(1.0, rel=1e-3)

    def test_small_run_with_physical_conversion(self, tmp_path):
        out = tmp_path / "cal"
        rc = run(["calibrate", "--strengths", "0.0,0.3",
                  "--realizations", "100", "--grid-n", "128",
                  "--grid-extent", "16.0", "--seed", "2",
                  "--lambda-nm", "795", "--cn2", "1e-14",
                  "--path-m", "1000", "--waist-mm", "35.2868",
                  "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "calibration.csv").read_text().splitlines()
        assert lines[0] == ("w_over_r0_true,w_t_over_w,w_t_stderr,"
                            "w_over_r0_inferred")
        assert len(lines) == 1 + 3  # 0.0, 0.3, and the converted ~1.0
        summary = json.loads((out / "summary.json").read_text())
        conv = summary["physical_conversion"]
        assert conv["w_over_r0"] == pytest.approx(1.0, rel=1e-3)
        assert summary["monotone_nondecreasing"] is True
        assert summary["guard_failures"] == []
        assert summary["spearman_rho"] == pytest.approx(1.0)

    def test_guard_margin_reported_per_cell(self, tmp_path, capsys):
        out = tmp_path / "guard"
        # w/r0 = 2.0 spreads past the 8-waist grid within 60 waists
        rc = run(["calibrate", "--strengths", "0.2,1.0,2.0",
                  "--realizations", "100", "--grid-n", "64",
                  "--grid-extent", "8.0", "--distance", "60",
                  "--out-dir", str(out)])
        assert rc == 2
        assert "1 cell(s) hit the propagation guard" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert [f["w_over_r0"] for f in summary["guard_failures"]] == [2.0]
        limit = summary["boundary_energy_limit"]
        assert limit == 1e-4
        margins = summary["max_boundary_energy_fraction"]
        assert [m["w_over_r0"] for m in margins] == [0.2, 1.0]
        assert 0.0 < margins[0]["fraction"] < margins[1]["fraction"] < limit
        # two rows left: too few for a rank correlation
        assert summary["spearman_rho"] is None

    def test_two_rows_write_strict_json(self, tmp_path):
        # below three rows there is no rank correlation: null, not NaN
        out = tmp_path / "two"
        assert run(["calibrate", "--strengths", "0.2,0.6", "--realizations", "100",
                    "--grid-n", "64", "--grid-extent", "16.0", "--out-dir", str(out)]) == 0
        parsed = {name: json.loads((out / name).read_text(), parse_constant=_refuse_constant)
                  for name in ("summary.json", "manifest.json")}
        assert parsed["summary.json"]["spearman_rho"] is None
        assert '"spearman_rho": null' in (out / "summary.json").read_text()

    def test_zero_row_is_the_reference_propagated_once(self, tmp_path, monkeypatch):
        steps = []
        step = oamturb.turbulence._fresnel

        def counted(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(oamturb.turbulence, "_fresnel", counted)
        out = tmp_path / "zero"
        assert run(["calibrate", "--strengths", "0.0,0.6", "--realizations", "100",
                    "--grid-n", "64", "--grid-extent", "16.0",
                    "--out-dir", str(out)]) == 0
        # the reference once, then 0.6 in each realization; 0.0 is not redone
        assert len(steps) == 1 + 100
        summary = json.loads((out / "summary.json").read_text())
        zero_row = (out / "calibration.csv").read_text().splitlines()[1].split(",")
        assert float(zero_row[0]) == 0.0
        assert float(zero_row[1]) == summary["reference_width_over_w"]
        assert float(zero_row[3]) == 0.0
        margins = summary["max_boundary_energy_fraction"]
        assert [m["w_over_r0"] for m in margins] == [0.0, 0.6]
        # the Gaussian's frame power is below the rounding of its total
        assert margins[0]["fraction"] == 0.0 < margins[1]["fraction"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_aliasing_reference_writes_nothing(self, tmp_path, capsys, workers):
        # a unit waist on a 3-waist grid: the reference trips the input guard
        out = tmp_path / "alias"
        assert run(["calibrate", "--strengths", "0.2,0.6", "--realizations", "100",
                    "--grid-n", "32", "--grid-extent", "3.0", "--workers", workers,
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "oamturb calibrate: input field reaches the grid boundary\n")
        assert not out.exists()

    @pytest.mark.parametrize("args,code,err", [
        (["--strengths", "0.0,0.6,1.2", "--grid-extent", "16.0"], 0, ""),
        # w/r0 = 2.0 hits the guard, as in test_guard_margin_reported_per_cell
        (["--strengths", "0.2,1.0,2.0", "--grid-extent", "8.0", "--distance", "60"], 2,
         "oamturb calibrate: 1 cell(s) hit the propagation guard\n"),
    ], ids=["clean", "guard"])
    def test_worker_count_independent(self, tmp_path, capsys, args, code, err):
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / workers
            assert run(["calibrate", *args, "--realizations", "100", "--grid-n", "64",
                        "--workers", workers, "--out-dir", str(out)]) == code
            assert capsys.readouterr().err == err
            summary = json.loads((out / "summary.json").read_text())
            assert summary.pop("config")["workers"] == int(workers)
            outputs.append(((out / "calibration.csv").read_bytes(),
                            json.dumps(summary, sort_keys=True)))  # NaN-safe
        assert outputs[1:] == [outputs[0]] * 2

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        rc = run(["calibrate", "--strengths", "0.3", "--realizations", "100",
                  "--grid-n", "32", "--seed", "-1", "--out-dir", str(tmp_path / "neg")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "oamturb calibrate: seed must be nonnegative, got -1\n")


class TestSpearman:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_agreeing_rankings_give_exactly_one(self, n):
        # scipy.stats.spearmanr reports 0.9999999999999999 at n = 5 and 10
        true = np.linspace(0.0, 1.4, n)
        assert _spearman(true, true**2 + 0.1) == 1.0
        assert _spearman(true, -np.exp(-true)) == 1.0
        assert _spearman(true, -true) == -1.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            a = rng.integers(0, 6, size=n)
            b = rng.integers(0, 6, size=n)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue  # constant input: both give NaN
            expected = scipy.stats.spearmanr(a, b).statistic
            assert abs(_spearman(a, b) - expected) <= 1e-12

    def test_constant_input_is_nan(self):
        assert math.isnan(_spearman([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))


# scipy and its heavy subpackages: no command needs them
HEAVY_MODULES = ("scipy", "scipy.stats", "scipy.integrate", "scipy.ndimage",
                 "scipy.special", "scipy.optimize")

_IMPORT_PROBE = """
import json, sys
heavy = {heavy!r}
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from oamturb.cli import main
after_import = loaded()
codes = {{cmd: main(argv) for cmd, argv in {cases!r}}}
print(json.dumps({{"import": after_import, "run": loaded(), "codes": codes}}))
"""


class TestImports:
    def test_cli_loads_no_heavy_scipy_subpackage(self, tmp_path):
        # A fresh interpreter: this test session has imported them already.
        cases = [(cmd, [cmd, *args, "--out-dir", str(tmp_path / cmd)])
                 for cmd, (args, _, _) in RECORD_CASES.items()]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(oamturb.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE.format(heavy=HEAVY_MODULES, cases=cases)],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == {cmd: code for cmd, (_, code, _) in RECORD_CASES.items()}
        assert report["import"] == []
        assert report["run"] == []


# every command that draws screens, at sizes where BLAS may use its threads
WORKER_CASES = {
    "ph-curve": TINY_PH[1:],
    "fidelity-scan": ["--strengths", "0.4,1.0", "--realizations", "3"],
    # 8 angles: the ties, pi/4 mod pi/2, are a residual shear; --n-angles 2
    # (0 and pi) would pin none
    "rotation-scan": ["--strength", "0.4", "--n-angles", "8", "--realizations", "2",
                      "--grid-n", "64", "--grid-extent", "6.0"],
    "calibrate": ["--strengths", "0.0,0.6,1.2", "--realizations", "100",
                  "--grid-n", "128", "--grid-extent", "16.0"],
    "screen-validate": ["--grid-n", "64", "--grid-extent", "8.0", "--realizations", "200",
                        "--export-screens", "2"],
}

_WORKERS_PROBE = """
import sys
from oamturb.cli import main
for cmd, argv in {cases!r}:
    for workers in ("1", "2", "3"):
        out = f"{{sys.argv[1]}}/{{cmd}}/{{workers}}"
        assert main([cmd, *argv, "--workers", workers, "--out-dir", out]) == 0
"""



def _build_key() -> tuple:
    """What an output's bits depend on besides the source: numpy, its BLAS,
    the machine and the CPU features numpy dispatches on."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    features = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return np.__version__, blas["name"], blas["version"], platform.machine(), features


# SHA-256 of every WORKER_CASES output, summary.json without its config, by build
OUTPUT_DIGESTS = {
    ("2.4.6", "scipy-openblas", "0.3.31.188.0", "x86_64",
     "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F AVX512FP16 "
     "AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI AVX512VPOPCNTDQ AVX512_CLX "
     "AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT "
     "MMX MOVBE POPCNT SSE SSE2 SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"): {
        "ph-curve": {
            "ph_curve.csv": "3ef0cdc41566871b6304c084ab8245f2df5af73e0a78f409bd65346a50dc8a3f",
            "summary.json": "57f09d5a6120e9b94fb8c505414c7c0dfb2d6d23c3e75a053278c8d0efe02dd1",
        },
        "fidelity-scan": {
            "fidelity_scan.csv": "ed91dee91fa6f2d7c2e1a098ad78da4685041db1dc57845614744085c2287131",
            "summary.json": "d065b5f7aa7207f7d1a15b5f6627f660d8510c2e53c4911cd469f10c843b5e09",
        },
        "rotation-scan": {
            "rotation_scan.csv": "d2413eff0c7864557b8ab6e91d9546a964462022a6887a7c4dc7111f5c8268f8",
            "summary.json": "173997a63d9319c188bef83f6c22a5556bf636d3063eca8414aeda22f9011db7",
        },
        "calibrate": {
            "calibration.csv": "01f89969db0729853d2d7db5832edf0219090b20ef6aea3f1ba8487365719192",
            "summary.json": "f5ff6e7ca43ccedb2bbe81c302bd162596dbd119086a85bfda138692a8ffaf34",
        },
        "screen-validate": {
            "coherence.csv": "72c0abdae575d648de1103f1eaf9f6ee41f71041d89d9d49968a0ec1c1b9310b",
            "structure_function.csv":
                "0293c806c01c1b0bed1bdfda0650983606e1bda438d5818b92237a5f3a672aa0",
            "screens/screen_0000.csv":
                "b28f7889c4989474185509632e1f35e30cf3b3b0ee1c330f7175041ca4a1df64",
            "screens/screen_0001.csv":
                "bbfe4589239023c92d32ab302088a6d342da48ba81793352a2210fae700b95b1",
            "summary.json": "8cfa848c6c640251cdda3a4319eded8be995f3a173dce4811301e51839f8c4b9",
        },
    },
}


class TestWorkers:
    def test_outputs_bitwise_at_any_worker_and_blas_thread_count(self, tmp_path):
        """Every command's CSVs (screens/ included) and summary.json without
        its config are byte-identical at 1-3 workers, BLAS pinned and not,
        and their digests equal OUTPUT_DIGESTS for this build.  The digests
        pin this build's bits, to catch any unintended change; they are not
        reference values and say nothing about correctness.  A build whose
        key is not in the table skips that comparison."""
        # fresh interpreters: OpenBLAS reads OPENBLAS_NUM_THREADS once, at load
        probe = _WORKERS_PROBE.format(cases=list(WORKER_CASES.items()))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(oamturb.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for blas in ("pinned", "unpinned"):
            if blas == "pinned":
                env["OPENBLAS_NUM_THREADS"] = "1"
            else:
                env.pop("OPENBLAS_NUM_THREADS", None)
            subprocess.run([sys.executable, "-c", probe, str(tmp_path / blas)],
                           env=env, cwd=tmp_path, capture_output=True, text=True,
                           check=True)
        digests = {}
        for cmd in WORKER_CASES:
            outputs = {}
            for run_dir in sorted((tmp_path / blas / cmd / w)
                                  for blas in ("pinned", "unpinned") for w in "123"):
                files = {str(path.relative_to(run_dir)): path.read_bytes()  # screens/ too
                         for path in run_dir.rglob("*.csv")}
                summary = json.loads((run_dir / "summary.json").read_text())
                del summary["config"]  # it holds the worker count
                manifest = json.loads((run_dir / "manifest.json").read_text())
                assert manifest["environment"]["workers"] == int(run_dir.name)
                outputs[run_dir] = (files, json.dumps(summary, sort_keys=True))
            first, *rest = outputs.values()
            assert rest == [first] * 5, cmd
            assert ("screens/screen_0001.csv" in first[0]) == (cmd == "screen-validate")
            pinned = json.loads((tmp_path / "pinned" / cmd / "1" / "manifest.json").read_text())
            assert pinned["environment"]["blas_threads"] in (1, None)
            files, summary = first
            digests[cmd] = {name: hashlib.sha256(data).hexdigest()
                            for name, data in {**files, "summary.json": summary.encode()}.items()}
        build = _build_key()
        if build not in OUTPUT_DIGESTS:
            pytest.skip(f"output digests are pinned for {list(OUTPUT_DIGESTS)}, not {build}")
        assert digests == OUTPUT_DIGESTS[build]
