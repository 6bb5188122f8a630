"""The one validation rule for the library's public values (README, "Errors").

Every numeric parameter of every public entry point is given each hostile
value in VALUES, with its other arguments valid.  Each call must raise a
package error or TypeError, or be listed in ACCEPTED: then it must return,
or pass every check and reach a screen draw, without a warning.  No screen
is drawn: reaching the draw is the acceptance.  TestCoverage makes every
public callable of oamturb a row of ENTRY_POINTS or of EXEMPT, so a new
one fails here until it has cases.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import oamturb
from oamturb import (
    DomainError,
    ExperimentConfig,
    GridSpec,
    HybridQubit,
    OamTurbError,
    PhaseScreen,
    QuadratureConfig,
    RangeError,
    TurbulenceParams,
    beam_broadening_mc,
    beam_broadening_sweep,
    coherence,
    coherence_estimate,
    coupling_coefficients,
    decode,
    encode,
    fidelity,
    fried_from_broadening,
    fried_parameter,
    generate_screen,
    load_screen,
    make_lg_mode,
    mub_states,
    propagate,
    qplate,
    reference_mode,
    ring_coefficients,
    rotate_frame,
    rotate_modal,
    run_coefficient_estimate,
    run_fidelity_scan,
    run_rotation_scan,
    structure_function,
    structure_function_estimate,
    success_probability,
    waveplate,
)
from oamturb import turbulence

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0, "-0.0": -0.0,
          "1e308": 1e308, "1e-320": 1e-320, "1e12": 1e12, "True": True, "None": None,
          "'1'": "1"}
# an index or seed also gets a large int; a count does not, as it may allocate
INDEX_VALUES = {**VALUES, "10**12": 10**12}

GRID = GridSpec(32, 6.0)
P06 = TurbulenceParams(0.6)
QUAD = QuadratureConfig(16, 16, 1.0)
GAUSS = make_lg_mode(0, GRID)
FIELD = encode(HybridQubit(1, 0), GRID)
ZEROS = np.zeros((GRID.n, GRID.n))
SCREENS = [PhaseScreen(GRID, ZEROS, 0, P06)] * 100  # enough for the estimators' count check
CONFIG = ExperimentConfig(strengths=(0.6,), n_realizations=1, grid=GRID)


def load(**header):
    """load_screen of an all-zero 32 x 32 screen file whose header holds
    these values (repr), the rest valid."""
    values = {"n": 32, "extent": 6.0, "seed": 1, "w_over_r0": 0.6, **header}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "screen.csv"
        path.write_text("# " + " ".join(f"{k}={v!r}" for k, v in values.items()) + "\n"
                        + ("0.0," * 31 + "0.0\n") * 32)
        return load_screen(path)


def sweep(**kwargs):
    return beam_broadening_sweep(**{"params_list": [P06], "n_realizations": 100,
                                    "propagation_distance": 1.0, "wavelength": 0.5,
                                    "seed": 0, "grid": GRID, "n_workers": 1, **kwargs})


def broadening(**kwargs):
    return beam_broadening_mc(**{"params": P06, "n_realizations": 100,
                                 "propagation_distance": 1.0, "wavelength": 0.5, "seed": 0,
                                 "grid": GRID, **kwargs})


def estimate(**kwargs):
    return run_coefficient_estimate(**{"l": 1, "params": P06, "n": 100, "master_seed": 0,
                                       "grid": GRID, "n_workers": 1, **kwargs})


# entry point -> numeric parameter -> the call with that parameter set to v
ENTRY_POINTS = {
    "GridSpec": {"n": lambda v: GridSpec(v, 6.0), "extent": lambda v: GridSpec(32, v)},
    "make_lg_mode": {"l": lambda v: make_lg_mode(v, GRID)},
    "propagate": {"distance": lambda v: propagate(GAUSS, v, 0.5),
                  "wavelength": lambda v: propagate(GAUSS, 1.0, v)},
    "rotate_modal": {"theta": lambda v: rotate_modal(GAUSS, v)},
    "TurbulenceParams": {"w_over_r0": lambda v: TurbulenceParams(v)},
    "PhaseScreen": {"seed": lambda v: PhaseScreen(GRID, ZEROS, v, P06)},
    "generate_screen": {"seed": lambda v: generate_screen(P06, GRID, v)},
    "coherence": {"r": lambda v: coherence(v, 0.5, P06),
                  "dtheta": lambda v: coherence(1.0, v, P06)},
    "structure_function": {"separation": lambda v: structure_function(v, P06)},
    "structure_function_estimate": {
        "separations": lambda v: structure_function_estimate(SCREENS, [v])},
    "coherence_estimate": {"separations": lambda v: coherence_estimate(SCREENS, [v])},
    "fried_parameter": {"wavelength_m": lambda v: fried_parameter(v, 1e-14, 1000.0),
                        "cn2": lambda v: fried_parameter(795e-9, v, 1000.0),
                        "path_m": lambda v: fried_parameter(795e-9, 1e-14, v)},
    "fried_from_broadening": {"w_t": lambda v: fried_from_broadening(v, 1.0),
                              "w": lambda v: fried_from_broadening(2.0, v)},
    "beam_broadening_sweep": {
        "n_realizations": lambda v: sweep(n_realizations=v),
        "propagation_distance": lambda v: sweep(propagation_distance=v),
        "wavelength": lambda v: sweep(wavelength=v),
        "seed": lambda v: sweep(seed=v),
        "n_workers": lambda v: sweep(n_workers=v)},
    "beam_broadening_mc": {
        "n_realizations": lambda v: broadening(n_realizations=v),
        "propagation_distance": lambda v: broadening(propagation_distance=v),
        "wavelength": lambda v: broadening(wavelength=v),
        "seed": lambda v: broadening(seed=v)},
    "load_screen": {key: (lambda key: lambda v: load(**{key: v}))(key)
                    for key in ("n", "extent", "seed", "w_over_r0")},
    "HybridQubit": {"alpha": lambda v: HybridQubit(v, 0),
                    "beta": lambda v: HybridQubit(1, v),
                    "l": lambda v: HybridQubit(1, 0, v)},
    "HybridQubit.from_amplitudes": {"alpha": lambda v: HybridQubit.from_amplitudes(v, 1),
                                    "beta": lambda v: HybridQubit.from_amplitudes(1, v)},
    "mub_states": {"l": lambda v: mub_states(v)},
    "decode": {"l": lambda v: decode(FIELD, v)},
    "reference_mode": {"l": lambda v: reference_mode(v, GRID)},
    "fidelity": {"recovered": lambda v: fidelity(v, HybridQubit(1, 0))},
    "qplate": {"q": lambda v: qplate(v, FIELD)},
    "waveplate": {"angle": lambda v: waveplate("hwp", v, FIELD)},
    "rotate_frame": {"theta": lambda v: rotate_frame(FIELD, v)},
    "QuadratureConfig": {"radial_nodes": lambda v: QuadratureConfig(v),
                         "angular_nodes": lambda v: QuadratureConfig(16, v),
                         "tolerance": lambda v: QuadratureConfig(16, 16, v)},
    "coupling_coefficients": {"l": lambda v: coupling_coefficients(v, P06, QUAD)},
    "ring_coefficients": {"l": lambda v: ring_coefficients(v, P06, QUAD)},
    "success_probability": {"l": lambda v: success_probability(P06, v, QUAD)},
    "ExperimentConfig": {
        "strengths": lambda v: ExperimentConfig(strengths=(v,), grid=GRID),
        "n_realizations": lambda v: ExperimentConfig(n_realizations=v, grid=GRID),
        "master_seed": lambda v: ExperimentConfig(master_seed=v, grid=GRID)},
    "run_fidelity_scan": {"n_workers": lambda v: run_fidelity_scan(CONFIG, v)},
    "run_rotation_scan": {
        "n_workers": lambda v: run_rotation_scan(
            ExperimentConfig(strengths=(0.6,), n_realizations=1, grid=GRID, angles=(0.0,)), v),
        # a nonfinite angle is accepted by ExperimentConfig, refused here
        "angles": lambda v: run_rotation_scan(
            ExperimentConfig(strengths=(0.6,), n_realizations=1, grid=GRID, angles=(v,)))},
    "run_coefficient_estimate": {"l": lambda v: estimate(l=v), "n": lambda v: estimate(n=v),
                                 "master_seed": lambda v: estimate(master_seed=v),
                                 "n_workers": lambda v: estimate(n_workers=v)},
}
INDEX_PARAMETERS = {"l", "seed", "master_seed"}

# Exported callables with no numeric parameter, or that only carry results.
EXEMPT = {
    "ScalarField", "VectorField", "overlap",  # fields and arrays of samples
    "apply_screen", "encode", "save_screen",  # fields, screens, qubits and paths
    # results the package returns
    "Broadening", "CoefficientEstimate", "CouplingCoefficients", "DecodeResult",
    "EnsembleStats", "FidelityScanRow", "RotationScanRow",
}

# Values the rule lets through, as valid inputs.  A grid, a distance or a
# wavelength that a field cannot use is refused where it is used: by the
# LG-mode power check, or by the wrap-around guard after a Fresnel step.
FINITE = {"-1", "0", "-0.0", "1e308", "1e-320", "1e12"}  # any finite angle
NONNEGATIVE = {"0", "-0.0", "1e308", "1e-320", "1e12"}
POSITIVE = {"1e308", "1e-320", "1e12"}
SEEDS = {"0", "10**12"}  # any nonnegative integer
STRENGTHS = {"0", "-0.0", "1e-320"}  # [0, MAX_W_OVER_R0]
ACCEPTED = {
    ("GridSpec", "extent"): POSITIVE,
    ("make_lg_mode", "l"): {"-1", "0"},  # any |l| <= 8
    # any finite distance; 1e12 trips the wrap-around guard (a package error)
    ("propagate", "distance"): {"-1", "0", "-0.0", "1e-320"},
    ("propagate", "wavelength"): {"1e-320"},  # 1e12 trips the guard, 1e308 overflows
    ("rotate_modal", "theta"): FINITE,
    ("TurbulenceParams", "w_over_r0"): STRENGTHS,
    ("PhaseScreen", "seed"): SEEDS,
    ("generate_screen", "seed"): SEEDS,
    ("coherence", "r"): NONNEGATIVE,  # 1e308: coherence 0.0, the limit
    ("coherence", "dtheta"): FINITE,
    ("structure_function", "separation"): NONNEGATIVE - {"1e308"},  # D overflows at 1e308
    # a finite positive r0 only
    ("fried_parameter", "wavelength_m"): {"1e12"},
    ("fried_parameter", "cn2"): {"1e-320", "1e12"},
    ("fried_parameter", "path_m"): {"1e308", "1e12"},
    ("fried_from_broadening", "w_t"): {"1e12"},
    # the engines check every value before the first screen; the guard
    # judges the propagated fields after it
    ("beam_broadening_sweep", "propagation_distance"): FINITE - {"1e308"},
    ("beam_broadening_sweep", "wavelength"): POSITIVE - {"1e308"},
    ("beam_broadening_sweep", "seed"): SEEDS,
    ("beam_broadening_sweep", "n_workers"): {"0"},  # every usable core
    ("beam_broadening_mc", "propagation_distance"): FINITE - {"1e308"},
    ("beam_broadening_mc", "wavelength"): POSITIVE - {"1e308"},
    ("beam_broadening_mc", "seed"): SEEDS,
    ("load_screen", "extent"): POSITIVE,
    ("load_screen", "seed"): SEEDS,
    ("load_screen", "w_over_r0"): STRENGTHS,
    ("HybridQubit", "alpha"): {"-1"},  # a normalized amplitude
    ("HybridQubit", "beta"): {"0", "-0.0", "1e-320"},  # within 1e-12 of normalized
    ("HybridQubit.from_amplitudes", "alpha"): FINITE - {"1e308"},  # its norm overflows
    ("HybridQubit.from_amplitudes", "beta"): FINITE - {"1e308"},
    ("reference_mode", "l"): {"-1", "0"},  # any |l| <= 8, as make_lg_mode
    ("qplate", "q"): FINITE - {"1e308"},  # within 1e-12 of a half-integer, 2q finite
    ("waveplate", "angle"): FINITE - {"1e308"},  # 2 * angle must be finite
    ("rotate_frame", "theta"): FINITE,
    ("QuadratureConfig", "tolerance"): POSITIVE,
    ("ExperimentConfig", "strengths"): STRENGTHS,
    ("ExperimentConfig", "master_seed"): SEEDS,
    ("run_fidelity_scan", "n_workers"): {"0"},
    ("run_rotation_scan", "n_workers"): {"0"},
    ("run_rotation_scan", "angles"): FINITE,
    ("run_coefficient_estimate", "l"): {"-1", "0"},  # any |l| <= 8, as make_lg_mode
    ("run_coefficient_estimate", "master_seed"): SEEDS,
    ("run_coefficient_estimate", "n_workers"): {"0"},
}


class _Drawn(Exception):
    """A screen draw was reached: every check passed."""


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args):
        raise _Drawn

    monkeypatch.setattr(turbulence, "_unit_screen", refuse)


def cases():
    for entry, parameters in ENTRY_POINTS.items():
        for parameter, call in parameters.items():
            values = INDEX_VALUES if parameter in INDEX_PARAMETERS else VALUES
            for label, value in values.items():
                yield pytest.param(entry, parameter, call, label, value,
                                   id=f"{entry}:{parameter}={label}")


class TestHostileValues:
    @pytest.mark.parametrize("entry, parameter, call, label, value", cases())
    def test_refused_or_accepted(self, no_draws, entry, parameter, call, label, value):
        accepted = label in ACCEPTED.get((entry, parameter), ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(value)
            except _Drawn:
                pass
            except (OamTurbError, TypeError) as exc:
                assert not accepted, f"listed as accepted, raised {exc!r}"
                return
        assert accepted, "accepted, but not listed in ACCEPTED"

    def test_accepted_names_only_known_cases(self):
        for (entry, parameter), labels in ACCEPTED.items():
            values = INDEX_VALUES if parameter in INDEX_PARAMETERS else VALUES
            assert parameter in ENTRY_POINTS[entry] and labels <= set(values)


class TestCoverage:
    def test_every_public_callable_has_cases_or_is_exempt(self):
        public = {name for name, value in vars(oamturb).items()
                  if not name.startswith("_") and callable(value)
                  and not (isinstance(value, type) and issubclass(value, BaseException))}
        named = {entry.split(".")[0] for entry in ENTRY_POINTS}
        assert public - named - EXEMPT == set()
        assert (named | EXEMPT) - public == set()
        assert named & EXEMPT == set()


# The defects the rule was written for, each once as it was reported.
DEFECTS = {
    # a float seed ran as its integer part; a NaN one failed inside numpy
    "master_seed=2.7": (lambda: ExperimentConfig(master_seed=2.7), TypeError),
    "master_seed=nan": (lambda: ExperimentConfig(master_seed=math.nan), TypeError),
    "generate_screen-seed=2.5": (lambda: generate_screen(P06, GRID, 2.5), TypeError),
    "n_realizations=True": (lambda: ExperimentConfig(n_realizations=True), TypeError),
    "n_realizations=2.5": (lambda: ExperimentConfig(n_realizations=2.5), TypeError),
    "radial_nodes=nan": (lambda: QuadratureConfig(math.nan), TypeError),
    "tolerance=True": (lambda: QuadratureConfig(tolerance=True), TypeError),
    "w_over_r0='1'": (lambda: TurbulenceParams("1"), TypeError),
    "w_over_r0=True": (lambda: TurbulenceParams(True), TypeError),
    # Python's OverflowError
    "w_t=1e200": (lambda: fried_from_broadening(1e200, 1.0), DomainError),
    "alpha=1e308": (lambda: HybridQubit(1e308, 0, 1), DomainError),
    # NaN and 2.94 were returned
    "separation=None": (lambda: structure_function(None, P06), TypeError),
    "separation='1'": (lambda: structure_function("1", P06), TypeError),
    # accepted and refused later by encode; a MemoryError
    "mub_states-l=10**12": (lambda: mub_states(10**12), RangeError),
    "coupling_coefficients-l=10**12": (lambda: coupling_coefficients(10**12, P06), RangeError),
}


@pytest.mark.parametrize("call, error", DEFECTS.values(), ids=DEFECTS)
def test_reported_defect_refused(call, error):
    with pytest.raises(error):
        call()


def test_header_key_given_twice_named(tmp_path):
    # the first n=32 was dropped, and the file failed only as a shape mismatch
    path = tmp_path / "screen.csv"
    path.write_text("# n=32 extent=6 seed=1 w_over_r0=0.6 n=64\n" + ("0.0," * 31 + "0.0\n") * 32)
    with pytest.raises(DomainError) as info:
        load_screen(path)
    assert type(info.value) is DomainError
    assert str(info.value) == f"{path}: header key 'n' given twice"
