"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oamturb.cli
from tracer import SITES, Tracer, site_owner
from workloads import PH_BAND_STDERR, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# Small versions of each workload's command, one per traced layer group.
SMALL = {
    "mub_scan": ["fidelity-scan", "--grid-n", "64", "--grid-extent", "8",
                 "--strengths", "0.2,1.0", "--realizations", "2"],
    "rotation_scan": ["rotation-scan", "--grid-n", "64", "--grid-extent", "8",
                      "--n-angles", "3", "--realizations", "1"],
    "ph_curve": ["ph-curve", "--grid-n", "64", "--grid-extent", "8",
                 "--strengths", "0.2,0.6", "--realizations", "3",
                 "--radial-nodes", "100", "--angular-nodes", "256"],
    "calibrate_512": ["calibrate", "--grid-n", "128", "--grid-extent", "16",
                      "--strengths", "0.2,0.6,1.0", "--realizations", "100"],
}
EXPECTED_LAYER = {
    "mub_scan": "elements.decode",
    "rotation_scan": "fields.rotate_modal",
    "ph_curve": "analytic.coupling_coefficients",
    "calibrate_512": "fields.propagate",
}


def _site_values():
    return [vars(owner)[name]
            for owner, name in (site_owner(m, path) for m, path, _ in SITES)]


def _run(argv, out_dir, tracer=None):
    argv = argv + ["--seed", "5", "--out-dir", str(out_dir)]
    if tracer is None:
        return oamturb.cli.main(argv)
    with tracer:
        return tracer.wrap("cli.main", oamturb.cli.main)(argv)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_output(name, tmp_path):
    assert _run(SMALL[name], tmp_path / "plain") == 0
    tracer = Tracer()
    assert _run(SMALL[name], tmp_path / "traced", tracer) == 0
    csvs = sorted(f for f in os.listdir(tmp_path / "plain") if f.endswith(".csv"))
    assert csvs
    for f in csvs:
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "traced" / f).read_bytes()
    summary = tracer.summary()
    assert summary[EXPECTED_LAYER[name]]["calls"] > 0
    assert summary["cli.main"]["calls"] == 1


def test_every_site_exists_and_is_restored():
    before = _site_values()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _site_values()
            raise RuntimeError("unwinding must still restore")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _site_values()))


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("elements.decode", lambda: None)
    outer = tracer.wrap("montecarlo.engine", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    assert summary["elements.decode"]["calls"] == 3
    engine = summary["montecarlo.engine"]
    assert engine["self_s"] == pytest.approx(
        engine["busy_s"] - summary["elements.decode"]["busy_s"])
    assert summary["fields.propagate"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                           "screens": 0}


@pytest.mark.parametrize("name,field,bad", [
    ("mub_scan", "min_cell_mean", 0.9),
    ("rotation_scan", "max_variation", 1e-3),
    ("calibrate_512", "spearman_rho", 0.5),
])
def test_checks_pass_good_output_and_reject_bad(name, field, bad, tmp_path):
    assert _run(SMALL[name], tmp_path) == 0
    check = WORKLOADS[name].check
    assert check(str(tmp_path)) == []
    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    summary[field] = bad
    path.write_text(json.dumps(summary))
    assert check(str(tmp_path))


def test_ph_curve_check_rejects_a_point_outside_the_band(tmp_path):
    assert _run(SMALL["ph_curve"], tmp_path) == 0
    check = WORKLOADS["ph_curve"].check
    assert check(str(tmp_path)) == []
    path = tmp_path / "ph_curve.csv"
    header, first, *rest = path.read_text().splitlines()
    w, ph, _, err = first.split(",")
    far = float(ph) + 2 * PH_BAND_STDERR * float(err)
    path.write_text("\n".join([header, f"{w},{ph},{far},{err}", *rest]) + "\n")
    assert check(str(tmp_path))


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mub_scan", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
