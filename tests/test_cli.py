"""Command-line interface: arguments, configs, manifests, and exit codes."""

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.stats

import oamturb
import oamturb.cli
from oamturb import load_screen
from oamturb.cli import _COMMAND_DEFAULTS, _build_parser, _resolve_config, _spearman, main
from oamturb.parallel import blas_threads


def run(args):
    return main(list(args))


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
            "oamturb screen-validate: worker count must be >= 0 (0: every usable core), "
            "got -1\n")
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
            "python", "numpy", "blas_name", "blas_version", "cpu_count",
            "workers", "blas_threads",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        # the config keeps the literal default; the manifest what it meant here
        assert manifest["config"]["workers"] == 0
        assert env["workers"] == len(os.sched_getaffinity(0))
        assert env["blas_threads"] == blas_threads()
        assert (env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == ("3", None)
        assert "environment" not in manifest["config"]
        assert "environment" not in json.loads((out / "summary.json").read_text())

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
        # the wall-clock fields differ from run to run; the rest must not
        for key in ("timestamp", "timings"):
            del manifest[key], replayed[key]
        assert replayed == manifest

    @pytest.mark.parametrize("command,args,code,cells", [
        *((command, *RECORD_CASES[command][:2], cells) for command, cells in (
            ("ph-curve", 4 * 2), ("fidelity-scan", 2 * 2), ("rotation-scan", 2),
            ("screen-validate", 100), ("calibrate", 100 * 2))),
        ("screen-validate", ["--strength", "0.0", "--realizations", "100",
                             "--grid-n", "32", "--grid-extent", "6.0"], 0, 0),
    ])
    def test_manifest_reports_realizations_per_second(self, tmp_path, command, args,
                                                      code, cells):
        # cells: realizations times strengths; a zero-turbulence field counts
        # none in calibrate (its 0.0 row) and screen-validate (no screen drawn)
        out = tmp_path / "run"
        assert run([command, *args, "--out-dir", str(out)]) == code
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert timings["realizations_per_s"] == cells / timings["compute_s"]

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


class TestRotationScan:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rot"
        rc = run(["rotation-scan", "--strength", "0.4", "--n-angles", "4",
                  "--realizations", "3", "--grid-n", "64",
                  "--grid-extent", "6.0", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "rotation_scan.csv").read_text().splitlines()
        assert lines[0] == "theta,state_label,fidelity_mean,fidelity_stderr"
        assert len(lines) == 1 + 24
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_variation"] < 1e-9
        assert 0.0 <= summary["max_fidelity_overshoot"] < 1e-12

    def test_zero_angles_rejected(self, capsys):
        assert run(["rotation-scan", "--n-angles", "0"]) == 1
        assert "--n-angles" in capsys.readouterr().err


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

        monkeypatch.setattr(oamturb.cli, "generate_screen", refuse)

    def test_too_few_screens_fail_before_drawing(self, tmp_path, capsys, no_screens):
        out = tmp_path / "few"
        rc = run(["screen-validate", "--realizations", "50", "--export-screens", "1",
                  "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "oamturb screen-validate: need >= 100 screens, got 50\n"
        assert not out.exists()

    def test_r0_below_half_pixel_fails_before_drawing(self, tmp_path, capsys, no_screens):
        out = tmp_path / "lag0"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "100",
                  "--strength", "2.0", "--realizations", "100",
                  "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("oamturb screen-validate: separation 0.0 maps to pixel lag 0, "
                       "outside [1, 31]\n")
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
        (["--strength", "0", "--realizations", "0"], "--realizations must be at least 1"),
        (["--strength", "0", "--realizations", "-3"], "--realizations must be at least 1"),
        (["--realizations", "0"], "--realizations must be at least 1"),
        (["--realizations", "100", "--export-screens", "-1"],
         "--export-screens must be nonnegative"),
    ])
    def test_bad_counts_exit_one(self, tmp_path, capsys, no_screens, args, message):
        out = tmp_path / "bad"
        rc = run(["screen-validate", "--grid-n", "32", "--grid-extent", "6", *args,
                  "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"oamturb screen-validate: {message}\n"
        assert not out.exists()

    def test_screens_are_drawn_and_dropped_one_at_a_time(self, tmp_path, monkeypatch):
        # keyed by draw index: PhaseScreen hashes its phase array, so a
        # WeakSet cannot hold it
        alive = weakref.WeakValueDictionary()
        counts = []
        draw = oamturb.cli.generate_screen

        def recording(*args):
            screen = draw(*args)
            alive[len(counts)] = screen
            counts.append(len(alive))
            return screen

        monkeypatch.setattr(oamturb.cli, "generate_screen", recording)
        out = tmp_path / "stream"
        rc = run(["screen-validate", "--realizations", "100", "--grid-n", "32",
                  "--grid-extent", "6.0", "--export-screens", "2", "--out-dir", str(out)])
        assert rc == 2  # 100 screens on 32^2 miss the coherence band
        assert len(counts) == 100
        assert max(counts) <= 2
        assert sorted(os.listdir(out / "screens")) == ["screen_0000.csv", "screen_0001.csv"]

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
                  "--realizations", "120", "--export-screens", "2",
                  "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["zero_turbulence"] is True
        assert summary["max_abs_phase"] == 0.0
        exported = sorted(os.listdir(out / "screens"))
        assert exported == ["screen_0000.csv", "screen_0001.csv"]
        screen = load_screen(out / "screens" / "screen_0000.csv")
        assert screen.params.w_over_r0 == 0.0


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
        (["--wavelength", "inf"], "wavelength must be finite, got inf"),
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
        assert capsys.readouterr().err == ("oamturb calibrate: pi * wavelength * propagation "
                                           "distance must be finite, got inf\n")
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
        assert math.isnan(summary["spearman_rho"])

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
    "rotation-scan": RECORD_CASES["rotation-scan"][0],
    "calibrate": ["--strengths", "0.0,0.6,1.2", "--realizations", "100",
                  "--grid-n", "128", "--grid-extent", "16.0"],
}

_WORKERS_PROBE = """
import sys
from oamturb.cli import main
for cmd, argv in {cases!r}:
    for workers in ("1", "2", "3"):
        out = f"{{sys.argv[1]}}/{{cmd}}/{{workers}}"
        assert main([cmd, *argv, "--workers", workers, "--out-dir", out]) == 0
"""


class TestWorkers:
    def test_outputs_bitwise_at_any_worker_and_blas_thread_count(self, tmp_path):
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
        for cmd in WORKER_CASES:
            outputs = {}
            for run_dir in sorted((tmp_path / blas / cmd / w)
                                  for blas in ("pinned", "unpinned") for w in "123"):
                files = {name: (run_dir / name).read_bytes()
                         for name in os.listdir(run_dir)
                         if name not in ("summary.json", "manifest.json")}
                summary = json.loads((run_dir / "summary.json").read_text())
                del summary["config"]  # it holds the worker count
                manifest = json.loads((run_dir / "manifest.json").read_text())
                assert manifest["environment"]["workers"] == int(run_dir.name)
                outputs[run_dir] = (files, json.dumps(summary, sort_keys=True))
            first, *rest = outputs.values()
            assert rest == [first] * 5, cmd
            pinned = json.loads((tmp_path / "pinned" / cmd / "1" / "manifest.json").read_text())
            assert pinned["environment"]["blas_threads"] in (1, None)
