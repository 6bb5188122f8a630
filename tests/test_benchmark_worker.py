"""The benchmark's worker (perfbench/worker.py) still runs against the package.

perfbench/ is the benchmark and is not changed by program changes; this
test imports its worker as it stands, without writing bytecode there, and
runs the set-up of every workload and one checked pass of each quick
one, calibrate_512 on a 128^2 grid, so that a change to the package that
would break the benchmark, or fail a workload's own output check, fails
here first.
"""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest

from oamturb import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py as a module, importing its siblings (tracer,
    workloads) from perfbench/ as run.py does; they leave sys.modules
    after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    siblings = ("tracer", "workloads")
    before = {name: sys.modules.get(name) for name in siblings}
    spec = importlib.util.spec_from_file_location("perfbench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name, old in before.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old


def test_warm_runs_for_every_workload(worker):
    assert worker.WORKLOADS
    for workload in worker.WORKLOADS.values():
        worker.warm(workload)


@pytest.mark.parametrize("name", ["mub_scan", "rotation_scan", "ph_curve", "calibrate_512"])
def test_one_pass_passes_its_output_check(worker, tmp_path, name):
    # calibrate_512 runs on 128^2, not 512^2: a pass there takes seconds, a
    # fraction of one here, and its output check still reads the sweep
    workload = worker.WORKLOADS[name]
    if name == "calibrate_512":
        workload = dataclasses.replace(workload, grid_n=128)
    result = worker.run_pass(workload, 23, str(tmp_path / "out"), None)
    assert result["ok"], result["problems"]


def test_every_workload_command_line_resolves(worker, tmp_path):
    # no pass is run: a change that rejects a workload's exact arguments
    # (calibrate_512's included) fails here, not first in a benchmark run
    for workload in worker.WORKLOADS.values():
        args = cli._build_parser().parse_args(workload.argv(23, str(tmp_path / "out")))
        cfg = cli._resolve_config(args.command, args)
        assert (cfg["grid_n"], cfg["grid_extent"]) == (workload.grid_n, workload.grid_extent)
